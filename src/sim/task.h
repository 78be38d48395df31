// C++20 coroutine task used for simulated thread bodies.
//
// Simulated threads are coroutines: kernel blocking points (futex wait, pipe
// read, proxy upcalls...) are `co_await` expressions, and the discrete-event
// engine resumes them at the right virtual time. Tasks are lazy (they do not
// run until Start() or co_await), compose via symmetric transfer, and carry a
// value or an exception back to the awaiter. Frames come from the host
// thread's base::BlockPool: a simulated operation makes and ends many calls.
#ifndef DIPC_SIM_TASK_H_
#define DIPC_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <utility>

#include "base/block_pool.h"
#include "base/check.h"

namespace dipc::sim {

template <typename T>
class Task;

namespace internal {

class PromiseBase {
 public:
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& promise = h.promise();
      promise.done_ = true;
      if (promise.on_complete_) {
        promise.on_complete_();
      }
      if (promise.continuation_) {
        return promise.continuation_;
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  static void* operator new(std::size_t bytes) { return base::BlockPool::Allocate(bytes); }
  static void operator delete(void* frame, std::size_t bytes) {
    base::BlockPool::Deallocate(frame, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception_ = std::current_exception(); }

  void set_continuation(std::coroutine_handle<> h) { continuation_ = h; }
  void set_on_complete(std::function<void()> fn) { on_complete_ = std::move(fn); }
  bool done() const { return done_; }

  void RethrowIfFailed() {
    if (exception_) {
      std::rethrow_exception(exception_);
    }
  }

 private:
  std::coroutine_handle<> continuation_;
  std::function<void()> on_complete_;
  std::exception_ptr exception_;
  bool done_ = false;
};

}  // namespace internal

// Task<T>: a lazily-started coroutine producing a T (or void).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T value) { value_ = std::move(value); }
    std::optional<T> value_;
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return h_ != nullptr; }
  bool done() const { return h_ && h_.promise().done(); }

  // Starts a top-level task; `on_complete` fires when the coroutine finishes.
  void Start(std::function<void()> on_complete = nullptr) {
    DIPC_CHECK(h_ != nullptr);
    if (on_complete) {
      h_.promise().set_on_complete(std::move(on_complete));
    }
    h_.resume();
  }

  // Retrieves the result after completion (rethrows stored exceptions).
  T TakeResult() {
    DIPC_CHECK(done());
    h_.promise().RethrowIfFailed();
    return std::move(*h_.promise().value_);
  }

  // Awaiter for nesting: `T x = co_await SubTask();`
  auto operator co_await() && {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().set_continuation(cont);
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        h.promise().RethrowIfFailed();
        return std::move(*h.promise().value_);
      }
    };
    return Awaiter{h_};
  }

 private:
  void Destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_;
};

template <>
struct Task<void>::promise_type : internal::PromiseBase {
  Task get_return_object() {
    return Task(std::coroutine_handle<promise_type>::from_promise(*this));
  }
  void return_void() {}
};

template <>
inline void Task<void>::TakeResult() {
  DIPC_CHECK(done());
  h_.promise().RethrowIfFailed();
}

template <>
inline auto Task<void>::operator co_await() && {
  struct Awaiter {
    Handle h;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      h.promise().set_continuation(cont);
      return h;
    }
    void await_resume() { h.promise().RethrowIfFailed(); }
  };
  return Awaiter{h_};
}

// Suspends the current coroutine and hands its handle to `receiver`, which is
// responsible for arranging resumption (e.g. parking it on a wait queue).
template <typename Receiver>
auto SuspendTo(Receiver receiver) {
  struct Awaiter {
    Receiver receiver;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { receiver(h); }
    void await_resume() noexcept {}
  };
  return Awaiter{std::move(receiver)};
}

}  // namespace dipc::sim

#endif  // DIPC_SIM_TASK_H_
