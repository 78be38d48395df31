// The channel primitives' view of the futex path (os/futex.h).
//
// The uncontended paths of the queue and channel never enter the kernel;
// their contended slow path parks through os::FutexBlockUntil and wakes
// through os::FutexWake, the same core os::Semaphore uses, so the channel's
// blocking behavior stays calibrated to the same §2.2 anchors. What stays
// here is the channel's own decision: how long an empty-queue pop spins.
#ifndef DIPC_CHAN_FUTEX_H_
#define DIPC_CHAN_FUTEX_H_

#include "hw/cost_model.h"
#include "os/futex.h"
#include "sim/time.h"

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

}  // namespace dipc::chan

#endif  // DIPC_CHAN_FUTEX_H_
