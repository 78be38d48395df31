// POSIX-style semaphore built on a futex (§2.2's "Sem." primitive).
//
// Uncontended operations stay in user space (one atomic); contended ones
// take the full syscall + futex path, and wakeups pay IPI costs when the
// waiter sits on another CPU.
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

#include "base/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class Semaphore : public KernelObject {
 public:
  explicit Semaphore(int64_t initial = 0) : count_(initial), obs_id_(obs::NewObjectId()) {}

  std::string_view type_name() const override { return "semaphore"; }

  // Calibration (documented in hw/cost_model.h's header comment): glibc
  // sem_wait/sem_post user fast path. The kernel futex wait/wake work is
  // os::kFutexWaitKernel/kFutexWakeKernel (os/kernel.h).
  static constexpr sim::Duration kUserFastPath = sim::Duration::Nanos(9.0);

  // Timed, failure-aware wait. Returns kOk with a token consumed, kTimedOut
  // when a finite `deadline` expires first (no token consumed), or the
  // Fail() code when the semaphore's owner died. The failed_ re-check after
  // the kernel entry closes the historical hang: a Fail() landing between
  // the user-space predicate check and the park issued its wakes while this
  // thread was still entering the kernel, so parking anyway would sleep on
  // an object nobody will ever post again.
  //
  // `wake` (from an earlier deferred publish) is always consumed: swapped to
  // at the park, or issued as an ordinary FUTEX_WAKE when the wait returns
  // without parking — a token already posted, a failed semaphore, an expired
  // deadline, or a waiter killed since the publish.
  sim::Task<base::Status> WaitUntil(Env env, Deadline deadline = {}, DeferredWake wake = {}) {
    Kernel& k = *env.kernel;
    co_await k.Spend(*env.self, kUserFastPath, TimeCat::kUser);
    if (failed_) {
      if (wake) {
        co_await FutexWake(env, *wake.Take());
      }
      co_return code_;
    }
    if (count_ > 0) {
      --count_;  // uncontended: futex not entered
      if (wake) {
        co_await FutexWake(env, *wake.Take());
      }
      co_return base::Status::Ok();
    }
    if (wake && (!wake.swappable() || deadline.ExpiredAt(k.now()))) {
      co_await FutexWake(env, *wake.Take());
    }
    co_await k.SyscallEnter(env);
    co_await k.Spend(*env.self, kFutexWaitKernel, TimeCat::kKernel);
    base::Status result = base::Status::Ok();
    if (failed_) {
      result = code_;  // owner died while we were entering the kernel
    } else if (count_ > 0) {
      --count_;  // raced with a post while entering the kernel
    } else if (deadline.ExpiredAt(k.now())) {
      result = base::ErrorCode::kTimedOut;  // ETIMEDOUT without parking
    } else {
      const Metrics& m = SharedMetrics();
      m.futex_waits->Add();
      k.futex_waiters()->Add(1);
      obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexQDepth, obs_id_,
                          static_cast<uint64_t>(waiters_.size() + 1), k.now());
      const sim::Time park_start = k.now();
      // Deadline timer, same shape as chan::FutexBlockUntil: it only acts
      // while the thread is still parked (a same-instant Post wins by FIFO
      // event order and Remove then returns false).
      bool timer_fired = false;
      sim::EventId timer = sim::kInvalidEventId;
      if (!deadline.never()) {
        Thread* self = env.self;
        timer = k.machine().events().ScheduleAt(deadline.at(),
                                                [&k, this, self, &timer_fired] {
                                                  if (waiters_.Remove(self)) {
                                                    timer_fired = true;
                                                    (void)k.MakeRunnable(*self, std::nullopt);
                                                  }
                                                });
      }
      co_await waiters_.Wait(env, wake);
      const sim::Duration parked = k.now() - park_start;
      k.futex_waiters()->Sub(1);
      obs::ChargeDomainTime(static_cast<uint32_t>(env.self->cap_ctx().current_domain),
                            obs::DomainTimeKind::kFutexWait, parked.picos());
      m.park_ns->Record(parked.nanos());
      obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexPark, obs_id_, 0, k.now(),
                          parked);
      if (timer_fired) {
        result = base::ErrorCode::kTimedOut;
      } else {
        if (timer != sim::kInvalidEventId) {
          (void)k.machine().events().Cancel(timer);
        }
        if (failed_) {
          result = code_;  // woken by Fail, not by a Post: no token was handed
        }
        // Otherwise woken by Post: the token was handed to us directly.
      }
    }
    co_await k.SyscallExit(env);
    if (wake) {
      co_await FutexWake(env, *wake.Take());  // did not park
    }
    co_return result;
  }

  // Untimed legacy flavor. After Fail() it returns (with the error dropped)
  // instead of hanging; callers that need the code use WaitUntil.
  // NOLINT-DIPC(DEADLINE-THREAD): deliberate never-deadline convenience
  // wrapper over WaitUntil; deadline-aware callers use WaitUntil directly.
  sim::Task<void> Wait(Env env) { (void)co_await WaitUntil(env, Deadline::Never()); }

  // With `defer`, a parked waiter is handed back in *defer instead of being
  // woken (an empty *defer only: one deferred wake per publisher), with the
  // token riding along; the caller's next park switches to it (WaitUntil,
  // chan::FutexBlockUntil). Counted as a futex wake either way.
  sim::Task<void> Post(Env env, DeferredWake* defer = nullptr) {
    Kernel& k = *env.kernel;
    co_await k.Spend(*env.self, kUserFastPath, TimeCat::kUser);
    if (defer != nullptr && !*defer) {
      *defer = waiters_.TakeForSwap(env);
      if (*defer) {
        SharedMetrics().futex_wakes->Add();
        obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexWake, obs_id_, 1,
                            k.now());
        co_return;
      }
    }
    Thread* waiter = waiters_.WakeOneThread();
    if (waiter == nullptr) {
      ++count_;  // nobody waiting: user-space only
      co_return;
    }
    co_await k.SyscallEnter(env);
    co_await k.Spend(*env.self, kFutexWakeKernel, TimeCat::kKernel);
    SharedMetrics().futex_wakes->Add();
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexWake, obs_id_, 1, k.now());
    sim::Duration ipi = k.MakeRunnable(*waiter, env.self->last_cpu());
    if (ipi > sim::Duration::Zero()) {
      co_await k.Spend(*env.self, ipi, TimeCat::kKernel);
    }
    co_await k.SyscallExit(env);
  }

  // Owner-death teardown: latches `code`, wakes every parked waiter with it
  // and makes every future Wait fail immediately. Irreversible, like a
  // futex word unmapped with its owner. `kernel` drives the wakeups (Fail
  // runs from death hooks that carry no thread Env).
  void Fail(Kernel& kernel, base::ErrorCode code) {
    failed_ = true;
    code_ = code;
    while (Thread* t = waiters_.WakeOneThread()) {
      (void)kernel.MakeRunnable(*t, std::nullopt);
    }
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

  int64_t count_;
  bool failed_ = false;
  base::ErrorCode code_ = base::ErrorCode::kCalleeFailed;
  uint32_t obs_id_;
  WaitQueue waiters_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_SEMAPHORE_H_
