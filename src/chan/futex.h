// Futex-style block/wake for the user-level channel primitives.
//
// The uncontended paths of the ring/queue/channel never enter the kernel;
// these helpers model the contended slow path: FUTEX_WAIT (syscall + kernel
// futex work + park on a FIFO wait queue) and FUTEX_WAKE (syscall + kernel
// work + IPI when the waiter sits on another CPU). Costs mirror
// os::Semaphore so the channel's blocking behavior stays calibrated to the
// same §2.2 anchors.
#ifndef DIPC_CHAN_FUTEX_H_
#define DIPC_CHAN_FUTEX_H_

#include "fault/fault.h"
#include "hw/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "os/semaphore.h"
#include "sim/task.h"

namespace dipc::chan {

// How long an empty-queue pop spins before it parks (MpmcQueue::PopN): the
// waiter's critical path through a park and its wake — FUTEX_WAIT entry,
// kernel futex work and exit, the scheduler dispatch of the woken thread,
// and the IPI delivery and idle exit of a cross-CPU wake. Spinning for as
// long as blocking would cost is the 2-competitive spin-then-block bound:
// a waiter never pays more than twice what the better of the two choices
// would have cost it. 1474 ns at default costs.
constexpr sim::Duration SpinBudget(const hw::CostModel& c) {
  return c.syscall_trap + c.syscall_dispatch + os::kFutexWaitKernel + c.sysret +
         c.schedule_pick + c.register_save + c.register_restore + c.ipi_deliver + c.idle_exit;
}

// FUTEX_WAIT with an absolute timeout (the timed flavor real futexes have).
// Parks the calling thread on `q` through the futex wait path — unless
// `still_blocked()` turned false while entering the kernel (the futex value
// re-check, cf. os::Semaphore::Wait: a wake issued in that window finds no
// parked thread, so parking anyway would lose it and deadlock). A finite
// deadline arms an EventQueue timer that pulls the thread off the queue and
// resumes it when it fires first; co_returns true iff the park timed out.
// The caller re-checks its predicate after resumption either way (standard
// futex loop) — a true return is a hint, not a verdict, because a wake and
// the timer can land on the same picosecond.
//
// With a deferred `wake` this is FUTEX_SWAP (os/kernel.h): the park does the
// wake's kernel work in the same syscall and switches the CPU straight to the
// wake's waiter. The wake is always consumed: a wait that does not park
// issues it as an ordinary FUTEX_WAKE (os::FutexWake) — up front when the
// waiter was killed since the publish or the deadline already expired.
template <typename Pred>
inline sim::Task<bool> FutexBlockUntil(os::Env env, os::WaitQueue& q, os::Deadline deadline,
                                       os::DeferredWake wake, Pred still_blocked) {
  os::Kernel& k = *env.kernel;
  if (wake && (!wake.swappable() || deadline.ExpiredAt(k.now()))) {
    co_await os::FutexWake(env, *wake.Take());
  }
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, os::kFutexWaitKernel, os::TimeCat::kKernel);
  {
    fault::Decision d = DIPC_FAULT_POINT(kFutexPark, env.self->last_cpu());
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(*env.self, d.delay, os::TimeCat::kKernel);
    }
  }
  bool timed_out = false;
  if (still_blocked()) {
    if (deadline.ExpiredAt(k.now())) {
      timed_out = true;  // ETIMEDOUT without parking, like FUTEX_WAIT
    } else {
      // Park telemetry: global parked-thread gauge, queue-length instant,
      // and the parked interval billed to the domain as futex-wait time
      // (blocked time — deliberately outside the CPU-time categories).
      k.futex_waiters()->Add(1);
      obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexQDepth, /*obj=*/0,
                          static_cast<uint64_t>(q.size() + 1), k.now());
      const sim::Time park_start = k.now();
      // The timer only acts if the thread is still parked on `q`: a normal
      // wake at the same instant wins (FIFO event order) and Remove returns
      // false. MakeRunnable on a thread killed while parked is a safe no-op,
      // and the coroutine frame outlives the kill (kernel keeps
      // Thread::task_ until teardown), so capturing frame locals by
      // reference is sound.
      bool timer_fired = false;
      sim::EventId timer = sim::kInvalidEventId;
      if (!deadline.never()) {
        os::Thread* self = env.self;
        timer = k.machine().events().ScheduleAt(deadline.at(), [&k, &q, self, &timer_fired] {
          if (q.Remove(self)) {
            timer_fired = true;
            (void)k.MakeRunnable(*self, std::nullopt);
          }
        });
      }
      co_await q.Wait(env, wake);
      if (timer_fired) {
        timed_out = true;
      } else if (timer != sim::kInvalidEventId) {
        (void)k.machine().events().Cancel(timer);
      }
      k.futex_waiters()->Sub(1);
      obs::ChargeDomainTime(static_cast<uint32_t>(env.self->cap_ctx().current_domain),
                            obs::DomainTimeKind::kFutexWait, (k.now() - park_start).picos());
    }
  }
  co_await k.SyscallExit(env);
  if (wake) {
    co_await os::FutexWake(env, *wake.Take());  // did not park
  }
  co_return timed_out;
}

template <typename Pred>
inline sim::Task<bool> FutexBlockUntil(os::Env env, os::WaitQueue& q, os::Deadline deadline,
                                       Pred still_blocked) {
  return FutexBlockUntil(env, q, deadline, os::DeferredWake(), std::move(still_blocked));
}

// Untimed flavor: the historical API, now a never-deadline park.
// NOLINT-DIPC(DEADLINE-THREAD): this IS the never-deadline adapter over
// FutexBlockUntil; blocking APIs that want a bound take one and call that.
template <typename Pred>
inline sim::Task<void> FutexBlock(os::Env env, os::WaitQueue& q, Pred still_blocked) {
  (void)co_await FutexBlockUntil(env, q, os::Deadline::Never(), still_blocked);
}

// Wakes one thread parked on `q`, if any, paying the futex wake syscall and
// any cross-CPU IPI cost on the waker's side.
inline sim::Task<void> FutexWakeOne(os::Env env, os::WaitQueue& q) {
  if (os::Thread* waiter = q.WakeOneThread()) {
    co_await os::FutexWake(env, *waiter);
  }
}

// Wake-suppressed flavor: the caller already consulted a user-level waiter
// counter and committed to waking, so the FUTEX_WAKE syscall cost is paid
// unconditionally — exactly like a real futex, where the kernel cannot be
// asked for free whether anyone is parked. When the race left nobody parked
// (the waiter was still entering the kernel), the wake is wasted but not
// lost: the waiter re-checks its predicate before parking (FutexBlock).
inline sim::Task<void> FutexWakeCommitted(os::Env env, os::WaitQueue& q) {
  os::Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, os::kFutexWakeKernel, os::TimeCat::kKernel);
  os::Thread* waiter = q.WakeOneThread();
  if (waiter != nullptr) {
    sim::Duration ipi = k.MakeRunnable(*waiter, env.self->last_cpu());
    if (ipi > sim::Duration::Zero()) {
      co_await k.Spend(*env.self, ipi, os::TimeCat::kKernel);
    }
  }
  co_await k.SyscallExit(env);
}

}  // namespace dipc::chan

#endif  // DIPC_CHAN_FUTEX_H_
