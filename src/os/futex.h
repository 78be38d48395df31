// The futex slow path: one wait and one wake for every blocking primitive.
//
// The uncontended operations of a futex-based primitive stay in user space;
// only the contended path gets here. A wait first spins while that pays
// (below), then parks. A park is FUTEX_WAIT: syscall entry, the kernel's
// futex work, the re-check of the user-level condition, and a park on a
// FIFO wait queue, optionally bounded by a deadline. A wake is FUTEX_WAKE:
// syscall entry, the kernel's wake work, and the IPI when the woken
// thread's CPU is another one (§2.2's costs, with the futex-based Sem. as
// the calibration anchor).
//
// The spin rule, the adaptive-mutex rule (Solaris; Linux's
// mutex_spin_on_owner): a waiter busy-waits in user space while the wait
// queue's publisher (WaitQueue::publisher(), the thread whose last publish
// there could have ended the wait) is on a CPU and not itself spinning, and
// no other thread waits for the spinner's CPU. A publish ends the spin and
// pays no FUTEX_WAKE (WaitQueue::Publish). A publish that names the cell
// the waiters read next (a queue pop's head cell) ends it when that cell's
// line reaches the spinner: the kernel does the spinner's bare read of the
// line (Kernel::EndSpinOnRead), one transfer when the publisher wrote it
// last, and the read that follows is an L1 hit, so one transfer carries
// both the signal and the data. Other publishes (a credit line's refill)
// end it one cache-line transfer later. The spin also ends when the
// publisher leaves its CPU (it parks, swaps, sleeps, exits or spins), on
// need_resched, on WakeAll (Close/Fail) and at the deadline; no time budget
// bounds it. A wait that holds a deferred wake never spins: its CPU is owed
// to that wake's waiter. A queue nobody publishes to, like os::Semaphore's,
// parks at once.
//
// os::Semaphore, chan::MpmcQueue's pops and chan::Plane's credit lines all
// wait through FutexBlockUntil and wake through FutexWakeWith, the body
// behind both FutexWake flavors. Each keeps only its own decisions: who publishes
// (WaitQueue::Publish), when a publisher defers a wake into an
// os::DeferredWake, and the semaphore's token hand-off.
#ifndef DIPC_OS_FUTEX_H_
#define DIPC_OS_FUTEX_H_

#include <cstdint>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

// Kernel futex work of one FUTEX_WAIT and one FUTEX_WAKE (calibrated with
// the §2.2 Sem anchor; see hw/cost_model.h's header comment).
inline constexpr sim::Duration kFutexWaitKernel = sim::Duration::Nanos(140.0);
inline constexpr sim::Duration kFutexWakeKernel = sim::Duration::Nanos(130.0);

// The one FUTEX_WAKE body: the syscall and the kernel's wake work, then the
// wake of the thread `pick()` returns at that instant (nobody when it
// returns null), paying the IPI when that thread's CPU is another one.
template <typename Pick>
sim::Task<void> FutexWakeWith(Env env, Pick pick) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kFutexWakeKernel, TimeCat::kKernel);
  if (Thread* waiter = pick(); waiter != nullptr) {
    sim::Duration ipi = k.MakeRunnable(*waiter, env.self->last_cpu());
    if (ipi > sim::Duration::Zero()) {
      co_await k.Spend(*env.self, ipi, TimeCat::kKernel);
    }
  }
  co_await k.SyscallExit(env);
}

// FUTEX_WAKE of `waiter`, already taken off its wait queue.
inline sim::Task<void> FutexWake(Env env, Thread& waiter) {
  return FutexWakeWith(env, [t = &waiter] { return t; });
}

// FUTEX_WAKE of the first thread parked on `q`, for a caller that read a
// nonzero user-level waiter counter: the syscall is paid whether or not the
// kernel finds anyone, as with a real futex, which cannot be asked for free
// whether a thread is parked. A waiter still entering the kernel is not
// parked yet, so the wake is wasted but not lost: that waiter re-checks its
// predicate before it parks (FutexBlockUntil).
inline sim::Task<void> FutexWake(Env env, WaitQueue& q) {
  return FutexWakeWith(env, [q = &q] { return q->WakeOneThread(); });
}

// What a primitive counts of its waits' spins: spins a publish ended with
// the wait over, and spins that fell through to a park. Plain counts for
// its getters, registry mirrors for --metrics.
struct SpinCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  obs::Counter* m_hits = nullptr;
  obs::Counter* m_misses = nullptr;
};

// What a primitive records about its own waits on top of the park's own
// telemetry: the trace object of its queue-depth instants and park spans, a
// counter bumped as a thread parks, a histogram of each park's time on the
// queue, recorded with a kFutexPark span when the park ends, its spin
// counts, and its count of waits that went to the kernel (plain and
// registry, bumped as the park starts, before the futex re-check). Null
// handles record nothing.
struct ParkObs {
  uint32_t obj = 0;
  obs::Counter* parks = nullptr;
  obs::Histogram* park_ns = nullptr;
  SpinCounts* spins = nullptr;
  uint64_t* waits = nullptr;
  obs::Counter* m_waits = nullptr;
};

// The one wait: spins while WaitQueue::SpinPays and the deadline has not
// passed, then parks. The spin is user time on the waiter's own CPU, and a
// spinner is no futex waiter, so it is not in q.waiting(). When a spin ends,
// the wait re-checks `still_blocked()` and spins again while the rule holds
// (a publish that left the wait blocked named a new publisher).
//
// The park is FUTEX_WAIT with an absolute timeout (the timed flavor real
// futexes have). From its start until the wait returns, the thread counts
// in q.waiting(). It parks on `q`, unless `still_blocked()` turned false
// while it entered the kernel: that is the futex value re-check, since a
// wake issued in that window finds no parked thread, and parking anyway
// would lose it and deadlock. A finite deadline arms an
// EventQueue timer that pulls the thread off the queue and resumes it when
// it fires first. Co_returns true iff the wait timed out. The caller
// re-checks its predicate after resumption either way (the standard futex
// loop): a true return is a hint, not a verdict, because a wake and the
// timer can land on the same picosecond.
//
// The `chan/futex_park` fault point sits on the kernel side of every park,
// after the futex work; a delay rule bills its delay as kernel time.
//
// With a deferred `wake` this is FUTEX_SWAP (os/kernel.h): the park does the
// wake's kernel work in the same syscall and switches the CPU straight to the
// wake's waiter. The wake is always consumed: a wait that does not park
// issues it as an ordinary FUTEX_WAKE, up front when the waiter was killed
// since the publish or the deadline already expired.
template <typename Pred>
sim::Task<bool> FutexBlockUntil(Env env, WaitQueue& q, Deadline deadline, DeferredWake wake,
                                ParkObs park_obs, Pred still_blocked) {
  Kernel& k = *env.kernel;
  bool spun = false;
  while (!wake && !deadline.ExpiredAt(k.now()) && q.SpinPays(env)) {
    spun = true;
    q.ListSpinner(env.self);
    co_await Kernel::SpinAwaiter{&k, env.self, deadline.at(), &q};
    const bool published = !q.UnlistSpinner(env.self);
    if (!still_blocked()) {
      if (published && park_obs.spins != nullptr) {
        ++park_obs.spins->hits;
        park_obs.spins->m_hits->Add();
      }
      co_return false;
    }
    if (deadline.ExpiredAt(k.now())) {
      co_return true;
    }
  }
  if (spun && park_obs.spins != nullptr) {
    ++park_obs.spins->misses;
    park_obs.spins->m_misses->Add();
  }
  if (park_obs.waits != nullptr) {
    ++*park_obs.waits;
    park_obs.m_waits->Add();
  }
  q.CountWaiter(true);
  if (wake && (!wake.swappable() || deadline.ExpiredAt(k.now()))) {
    co_await FutexWake(env, *wake.Take());
  }
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kFutexWaitKernel, TimeCat::kKernel);
  {
    fault::Decision d = DIPC_FAULT_POINT(kFutexPark, env.self->last_cpu());
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(*env.self, d.delay, TimeCat::kKernel);
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
      if (park_obs.parks != nullptr) {
        park_obs.parks->Add();
      }
      k.futex_waiters()->Add(1);
      obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexQDepth, park_obs.obj,
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
        Thread* self = env.self;
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
      const sim::Duration parked = k.now() - park_start;
      k.futex_waiters()->Sub(1);
      k.domain_time().Charge(static_cast<uint32_t>(env.self->cap_ctx().current_domain),
                             obs::DomainTimeKind::kFutexWait, parked.picos());
      if (park_obs.park_ns != nullptr) {
        park_obs.park_ns->Record(parked.nanos());
        obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexPark, park_obs.obj, 0,
                            k.now(), parked);
      }
    }
  }
  co_await k.SyscallExit(env);
  if (wake) {
    co_await FutexWake(env, *wake.Take());  // did not park
  }
  q.CountWaiter(false);
  co_return timed_out;
}

template <typename Pred>
sim::Task<bool> FutexBlockUntil(Env env, WaitQueue& q, Deadline deadline, DeferredWake wake,
                                Pred still_blocked) {
  return FutexBlockUntil(env, q, deadline, std::move(wake), ParkObs{}, std::move(still_blocked));
}

template <typename Pred>
sim::Task<bool> FutexBlockUntil(Env env, WaitQueue& q, Deadline deadline, Pred still_blocked) {
  return FutexBlockUntil(env, q, deadline, DeferredWake(), std::move(still_blocked));
}

}  // namespace dipc::os

#endif  // DIPC_OS_FUTEX_H_
