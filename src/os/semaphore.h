// POSIX-style semaphore built on a futex (§2.2's "Sem." primitive).
//
// Uncontended operations stay in user space (one atomic); contended ones
// park and wake through the futex path (os/futex.h), and wakeups pay IPI
// costs when the waiter sits on another CPU.
//
// Wake-and-park: Post can defer its wake into an os::DeferredWake, and
// WaitUntil takes one. A waiting poster that parks then switches its CPU
// straight to the woken waiter in the same syscall (FUTEX_SWAP, see
// os/kernel.h): one syscall entry, the kernel's wait and wake work and a
// register save/restore, with no IPI, idle exit or scheduler pick. When it
// does not park, the wake goes out as an ordinary FUTEX_WAKE (os::FutexWake).
#ifndef DIPC_OS_SEMAPHORE_H_
#define DIPC_OS_SEMAPHORE_H_

#include <cstdint>
#include <utility>

#include "base/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/futex.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class Semaphore : public KernelObject {
 public:
  explicit Semaphore(int64_t initial = 0) : count_(initial), obs_id_(obs::NewObjectId()) {}

  std::string_view type_name() const override { return "semaphore"; }

  // Calibration (documented in hw/cost_model.h's header comment): glibc
  // sem_wait/sem_post user fast path. The kernel side is the futex path's
  // (os/futex.h).
  static constexpr sim::Duration kUserFastPath = sim::Duration::Nanos(9.0);

  // Timed, failure-aware wait. Returns kOk with a token consumed, kTimedOut
  // when a finite `deadline` expires first (no token consumed), or the
  // Fail() code when the semaphore's owner died. The futex value re-check
  // after the kernel entry closes the historical hang: a Fail() landing
  // between the user-space check and the park issued its wakes while this
  // thread was still entering the kernel, so parking anyway would sleep on
  // an object nobody will ever post again.
  //
  // `wake` (from an earlier deferred publish) is always consumed: swapped to
  // at the park, or issued as an ordinary FUTEX_WAKE when the wait returns
  // without parking — a token already posted, a failed semaphore, an expired
  // deadline, or a waiter killed since the publish.
  sim::Task<base::Status> WaitUntil(Env env, Deadline deadline = {}, DeferredWake wake = {}) {
    co_await env.kernel->Spend(*env.self, kUserFastPath, TimeCat::kUser);
    base::Status result = base::Status::Ok();
    if (TryTake(&result)) {  // uncontended: futex not entered
      if (wake) {
        co_await FutexWake(env, *wake.Take());
      }
      co_return result;
    }
    const Metrics& m = SharedMetrics();
    bool blocked = false;
    const bool timed_out = co_await FutexBlockUntil(
        env, waiters_, deadline, std::move(wake), ParkObs{obs_id_, m.futex_waits, m.park_ns},
        [&] { return blocked = !TryTake(&result); });
    if (timed_out) {
      co_return base::ErrorCode::kTimedOut;
    }
    if (blocked && failed_) {
      co_return code_;  // woken by Fail, not by a Post: no token was handed
    }
    co_return result;  // a Post woke us and handed its token over directly
  }

  // Untimed legacy flavor. After Fail() it returns (with the error dropped)
  // instead of hanging; callers that need the code use WaitUntil.
  // NOLINT-DIPC(DEADLINE-THREAD): deliberate never-deadline convenience
  // wrapper over WaitUntil; deadline-aware callers use WaitUntil directly.
  sim::Task<void> Wait(Env env) { (void)co_await WaitUntil(env, Deadline::Never()); }

  // With `defer`, a parked waiter is handed back in *defer instead of being
  // woken (an empty *defer only: one deferred wake per publisher), with the
  // token riding along; the caller's next park switches to it (WaitUntil,
  // os::FutexBlockUntil). Counted as a futex wake either way.
  sim::Task<void> Post(Env env, DeferredWake* defer = nullptr) {
    co_await env.kernel->Spend(*env.self, kUserFastPath, TimeCat::kUser);
    if (defer != nullptr && !*defer) {
      *defer = waiters_.TakeForSwap(env);
      if (*defer) {
        CountWake(env);
        co_return;
      }
    }
    Thread* waiter = waiters_.WakeOneThread();
    if (waiter == nullptr) {
      ++count_;  // nobody waiting: user-space only
      co_return;
    }
    co_await FutexWakeWith(env, [&] {
      CountWake(env);
      return waiter;
    });
  }

  // Owner-death teardown: latches `code`, wakes every parked waiter with it
  // and makes every future Wait fail immediately. Irreversible, like a
  // futex word unmapped with its owner. `kernel` drives the wakeups (Fail
  // runs from death hooks that carry no thread Env).
  void Fail(Kernel& kernel, base::ErrorCode code) {
    failed_ = true;
    code_ = code;
    waiters_.WakeAll(kernel);
  }

  int64_t count() const { return count_; }
  size_t waiter_count() const { return waiters_.size(); }
  bool failed() const { return failed_; }

 private:
  // Semaphores are created in bulk (one per fabric call), so the metrics
  // are process-wide aggregates, looked up once per process; per-object
  // attribution comes from the trace (obj = obs_id).
  struct Metrics {
    obs::Counter* futex_waits;
    obs::Counter* futex_wakes;
    obs::Histogram* park_ns;
  };
  static const Metrics& SharedMetrics() {
    static const Metrics m = [] {
      obs::Registry& reg = obs::Registry::Default();
      return Metrics{reg.GetCounter("os/sem/futex_waits"), reg.GetCounter("os/sem/futex_wakes"),
                     reg.GetHistogram("os/sem/park_ns")};
    }();
    return m;
  }

  // The futex value check: true when the wait is over without parking,
  // with a token taken or with the Fail() code in *result.
  bool TryTake(base::Status* result) {
    if (failed_) {
      *result = code_;
      return true;
    }
    if (count_ <= 0) {
      return false;
    }
    --count_;
    return true;
  }

  void CountWake(Env env) {
    SharedMetrics().futex_wakes->Add();
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexWake, obs_id_, 1,
                        env.kernel->now());
  }

  int64_t count_;
  bool failed_ = false;
  base::ErrorCode code_ = base::ErrorCode::kCalleeFailed;
  uint32_t obs_id_;
  WaitQueue waiters_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_SEMAPHORE_H_
