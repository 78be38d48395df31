// MPMC slot queue in a VAS-mapped shared segment.
//
// A bounded queue of 8-byte slots (values or packed descriptors) shared by
// any number of producer/consumer threads across dIPC processes. The
// uncontended path is user-level (atomics on head/tail plus one slot
// access); full/empty block through the futex path with FIFO wakeups, which
// makes consumer scheduling fair and deterministic under the event queue.
//
// Batching: PushN/PopN move N slots per call, paying the fixed per-op
// software toll (fast-path accounting + at most one futex wake) once per
// batch instead of once per slot. Wakes are *suppressed* through live
// waiter counters (WaitQueue::waiting(), the user-level futex convention):
// a waker that reads a zero counter skips the FUTEX_WAKE
// syscall entirely, and a woken thread chains the wake onward when work or
// space remains for further parked peers, so one wake per batch is enough
// for liveness.
//
// Spin-then-park: a pop of an empty queue and a push to a full one wait
// through os::FutexBlockUntil, which spins while the wait's publisher is on
// a CPU (os/futex.h's rule) and parks otherwise. A pop's publisher is the
// last pusher and a push's the last popper. A publish ends spins first,
// with no syscall, and wakes parked waiters only for the rest. A spinner is
// billed user time and is not a futex waiter.
//
// Wake-and-park (os/kernel.h's DeferredWake): a push given a `defer` slot
// hands back the consumer it would have woken instead of waking it, and a
// pop given that wake switches its CPU straight to the consumer at its park
// (FUTEX_SWAP). A pop holding a wake never spins — its CPU is owed to the
// waiter — and one that does not park (slots already queued, Close, an
// expired deadline) issues the wake as an ordinary FUTEX_WAKE. A deferred
// wake still counts in futex_wakes.
//
// Closing is two-flavored, mirroring pipe EOF vs. peer crash:
//   - Close(): producers fail immediately, consumers drain then see the
//     close code (orderly shutdown);
//   - Fail(code): every operation fails immediately and all blocked threads
//     wake with `code` (dead-peer teardown).
#ifndef DIPC_CHAN_MPMC_QUEUE_H_
#define DIPC_CHAN_MPMC_QUEUE_H_

#include <cstdint>
#include <span>
#include <string>

#include "base/result.h"
#include "chan/segment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/futex.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::chan {

class MpmcQueue {
 public:
  static constexpr uint64_t kSlotBytes = 8;

  // Maps a `capacity`-slot segment through `proc`, tagged `tag` (callers
  // grant `tag` to every participating domain). `obs_name` prefixes the
  // queue's metrics ("<obs_name>/blocked_pushes", ...; empty picks
  // "mpmc/<fresh id>") and `obs_obj` is the trace-event object id (0
  // allocates a fresh one); owners pass their own id so queue events
  // attribute to the channel they serve.
  MpmcQueue(os::Kernel& kernel, os::Process& proc, uint32_t capacity, hw::DomainTag tag,
            std::string obs_name = {}, uint32_t obs_obj = 0);

  // Setup-time enqueue: no cost, no blocking (used to pre-fill free lists).
  void Prime(uint64_t value);

  // Teardown-time enqueue from a context with no thread Env (death hooks):
  // direct store like Prime, but additionally wakes one parked consumer so a
  // peer blocked on Pop sees the slot a dead process gave back. No cost is
  // charged (the work happens inside the kill sweep, like Close/Fail wakes).
  void PushNoEnv(uint64_t value);

  // Blocking push; fails with the close/fail code once closed. A finite
  // `deadline` bounds the full-queue park with kTimedOut.
  sim::Task<base::Status> Push(os::Env env, uint64_t value, os::Deadline deadline = {});

  // Blocking pop. After Close() it drains remaining slots, then fails with
  // the close code; after Fail() it fails immediately. A finite `deadline`
  // bounds the empty-queue park with kTimedOut.
  sim::Task<base::Result<uint64_t>> Pop(os::Env env, os::Deadline deadline = {});

  // Batched push of all of `values` (blocking for space between chunks when
  // the batch exceeds the free room). One fast-path accounting charge and at
  // most one futex wake per chunk — one per call in the common non-blocking
  // case. On failure, `*pushed` (when non-null) reports how many values were
  // published before the queue closed under the call. A finite `deadline`
  // bounds every park: an expired park where the queue is still full fails
  // with kTimedOut (partial progress reported through `*pushed`). With an
  // empty `*defer`, the first consumer wake is deferred into it (see above);
  // the caller must consume it, whatever the push returns. A push that must
  // park for room swaps to that consumer itself.
  sim::Task<base::Status> PushN(os::Env env, std::span<const uint64_t> values,
                                uint64_t* pushed = nullptr, os::Deadline deadline = {},
                                os::DeferredWake* defer = nullptr);

  // Batched pop of up to `out.size()` slots: blocks until at least one slot
  // is available (maybe spinning first, see above), then drains what is there
  // (never blocks for a full batch). Returns the number popped. Same
  // close/fail semantics as Pop; a finite `deadline` bounds the empty-queue
  // spin and park with kTimedOut. `wake` is always consumed: swapped to at
  // the park, or issued as an ordinary wake.
  sim::Task<base::Result<uint64_t>> PopN(os::Env env, std::span<uint64_t> out,
                                         os::Deadline deadline = {},
                                         os::DeferredWake wake = {});

  void Close(base::ErrorCode code = base::ErrorCode::kBrokenChannel);
  void Fail(base::ErrorCode code);

  uint64_t size() const { return count_; }
  uint32_t capacity() const { return capacity_; }
  bool closed() const { return closed_; }
  uint64_t blocked_pushes() const { return blocked_pushes_; }
  uint64_t blocked_pops() const { return blocked_pops_; }
  uint64_t futex_wakes() const { return futex_wakes_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t spin_hits() const { return spins_.hits; }
  uint64_t spin_misses() const { return spins_.misses; }
  uint32_t obs_obj() const { return obs_obj_; }

 private:
  hw::VirtAddr SlotVa(uint64_t pos) const { return seg_.base + (pos % capacity_) * kSlotBytes; }
  void WakeAllNoEnv();
  // Whether a push (full queue) or a pop (empty queue) has to wait.
  bool Blocked(bool push) const { return !closed_ && count_ == (push ? capacity_ : 0); }
  // Waits a push on producers_ or a pop on consumers_ through the futex
  // core, with that side's telemetry. Returns the wait's timed-out hint;
  // the caller re-checks Blocked.
  sim::Task<bool> Wait(os::Env env, bool push, os::Deadline deadline, os::DeferredWake wake);
  // Counts a park that timed out with the queue still blocked (`left`
  // slots unmoved) and returns kTimedOut.
  base::ErrorCode TimedOut(os::Env env, uint64_t left);
  // Wake-suppression gate: pays the FUTEX_WAKE only when q.waiting() says
  // someone is (or is about to be) parked on `q`. With an empty `*defer`, a
  // parked waiter is deferred into it instead.
  sim::Task<void> WakeIfWaiting(os::Env env, os::WaitQueue& q, os::DeferredWake* defer = nullptr);
  // Copies `n` values between `values` and the ring starting at `pos`,
  // split at the wrap point; accumulates the (batched) slot access cost.
  base::Status AccessSlots(os::Env env, uint64_t pos, std::span<const uint64_t> values,
                           std::span<uint64_t> out, sim::Duration* cost);

  os::Kernel& kernel_;
  hw::PageTable* pt_;  // the page table the segment was mapped through
  Segment seg_;
  uint32_t capacity_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  uint64_t count_ = 0;
  bool closed_ = false;
  bool drain_allowed_ = true;
  base::ErrorCode code_ = base::ErrorCode::kBrokenChannel;
  uint64_t blocked_pushes_ = 0;  // cumulative (stats)
  uint64_t blocked_pops_ = 0;    // cumulative (stats)
  uint64_t futex_wakes_ = 0;     // wake syscalls actually issued (stats)
  uint64_t timeouts_ = 0;        // parks that expired with the predicate still true
  os::SpinCounts spins_;         // both sides' spins
  // Registry mirrors of the stats above, plus the park-time distribution;
  // trace events carry obs_obj_ so a timeline attributes to this queue.
  uint32_t obs_obj_ = 0;
  obs::Counter* m_blocked_pushes_ = nullptr;
  obs::Counter* m_blocked_pops_ = nullptr;
  obs::Counter* m_futex_wakes_ = nullptr;
  obs::Counter* m_timeouts_ = nullptr;
  obs::Histogram* m_park_ns_ = nullptr;
  os::WaitQueue producers_;
  os::WaitQueue consumers_;
};

}  // namespace dipc::chan

#endif  // DIPC_CHAN_MPMC_QUEUE_H_
