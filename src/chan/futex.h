// The channel primitives' view of the futex path (os/futex.h).
//
// The uncontended paths of the queue and channel never enter the kernel;
// their contended slow path waits through os::FutexBlockUntil and wakes
// through os::FutexWake, the same core os::Semaphore uses, so the channel's
// blocking behavior stays calibrated to the same §2.2 anchors. When a wait
// spins instead of parking is the core's rule, not the channel's: it spins
// while its publisher runs, with no time budget. What stays here is the
// yardstick a spin is measured against: the cost of the park it replaces.
#ifndef DIPC_CHAN_FUTEX_H_
#define DIPC_CHAN_FUTEX_H_

#include "hw/cost_model.h"
#include "os/futex.h"
#include "sim/time.h"

namespace dipc::chan {

// The waiter's critical path through a park and its cross-CPU wake —
// FUTEX_WAIT entry, kernel futex work and exit, the scheduler dispatch of
// the woken thread, and the IPI delivery and idle exit of the wake: what a
// spin that a publish ends saves the waiter, on top of the publisher's
// FUTEX_WAKE. It bounds no spin (os/futex.h); the spin tests and bench
// bounds compare against it. 1474 ns at default costs.
constexpr sim::Duration SpinBudget(const hw::CostModel& c) {
  return c.syscall_trap + c.syscall_dispatch + os::kFutexWaitKernel + c.sysret +
         c.schedule_pick + c.register_save + c.register_restore + c.ipi_deliver + c.idle_exit;
}

}  // namespace dipc::chan

#endif  // DIPC_CHAN_FUTEX_H_
