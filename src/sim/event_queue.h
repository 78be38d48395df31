// Discrete-event simulation core: a cancellable time-ordered event queue.
//
// Events scheduled for the same instant fire in scheduling order, which keeps
// whole-system runs deterministic (a requirement for reproducible benchmarks).
//
// Host cost: a pending action lives in a reusable slot that never moves
// while it runs, and the callable (up to kInlineBytes: a coroutine resume,
// a small lambda) is stored in the slot itself, so scheduling allocates
// nothing. An EventId names a slot and the slot's generation, which
// advances when the event fires or is cancelled: an old id never matches
// the slot's next event.
//
// The commonest event is a running thread's own resume after it spends
// time (os::Kernel::Spend). When nothing else is due first, AdvanceInPlace
// fires it without the heap: now() moves on, the event counts as fired,
// and the thread goes on inside the event that was already running. That
// is exact because every coroutine resume in src/ is the last action of its
// event callback (the three resume lambdas in os/kernel.cc and
// Kernel::ResumeThread): nothing the callback does after the resume could
// then run at the later now(). A new resume site must keep that so.
#ifndef DIPC_SIM_EVENT_QUEUE_H_
#define DIPC_SIM_EVENT_QUEUE_H_

#include <sanitizer/asan_interface.h>  // poisoning when __SANITIZE_ADDRESS__, else no-ops

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/check.h"
#include "sim/time.h"

namespace dipc::sim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  static constexpr size_t kInlineBytes = 48;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  Time now() const { return now_; }

  // Schedules `fn` (a void() callable of at most kInlineBytes) to run at
  // absolute time `t` (must be >= now()).
  template <typename F>
  EventId ScheduleAt(Time t, F&& fn);

  // Schedules `fn` to run `d` after now().
  template <typename F>
  EventId ScheduleAfter(Duration d, F&& fn) {
    return ScheduleAt(now_ + d, std::forward<F>(fn));
  }

  // Cancels a pending event. Returns false if it already fired or was cancelled.
  bool Cancel(EventId id);

  // The running event's own resume `d` from now, fired in place when it
  // would fire next: no live event is due at or before now() + d (a tie
  // goes through the heap, which fires it second), and now() + d lies
  // inside the running horizon (RunUntil's deadline; none under RunOne and
  // RunUntilIdle). Then advances now() by `d`, counts one event fired and
  // returns true, and the caller goes on as the resumed code. Returns
  // false, changing nothing, otherwise and outside a run.
  bool AdvanceInPlace(Duration d);

  // Runs the earliest pending event, and with it every advance it makes in
  // place; returns false if the queue is empty.
  bool RunOne() { return RunNext(Time::Max()); }

  // Runs events until the queue drains. Returns the count fired.
  uint64_t RunUntilIdle();

  // Runs events with firing time <= `deadline`; advances now() to `deadline`
  // even if the queue drains earlier. Returns the count fired.
  uint64_t RunUntil(Time deadline);

  bool empty() const { return live_count_ == 0; }
  uint64_t pending() const { return live_count_; }
  // Every event fired, in place or through the heap.
  uint64_t total_fired() const { return fired_count_; }

 private:
  struct Entry {
    Time at;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    EventId id;
    // Ordered as a min-heap via std::greater.
    bool operator>(const Entry& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };

  // `run(buf, true)` runs the stored action and destroys it; `run(buf,
  // false)` only destroys it. Null while the slot holds no action.
  struct Slot {
    alignas(std::max_align_t) std::byte buf[kInlineBytes];
    void (*run)(void* buf, bool invoke) = nullptr;
    uint32_t gen = 1;  // wraps to 0 when spent: the slot is then retired
  };

  // Runs the earliest live event if it is due at or before `horizon`, which
  // also bounds the advances it makes in place.
  bool RunNext(Time horizon);
  // The earliest live entry, after popping the cancelled ones above it;
  // null when no event is pending.
  const Entry* NextLive();

  // True while the event `id` names has neither fired nor been cancelled.
  bool Live(EventId id) const {
    const auto index = static_cast<uint32_t>(id);
    return index < slots_.size() && slots_[index]->run != nullptr &&
           slots_[index]->gen == static_cast<uint32_t>(id >> 32);
  }
  // Ends the slot's event; the slot is reusable unless its generations are
  // spent. An empty slot's storage is poisoned under ASan.
  void Retire(uint32_t index) {
    ASAN_POISON_MEMORY_REGION(slots_[index]->buf, kInlineBytes);
    slots_[index]->run = nullptr;
    if (++slots_[index]->gen != 0) {
      free_.push_back(index);
    }
  }
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::vector<std::unique_ptr<Slot>> slots_;  // a slot stays put while others are added
  std::vector<uint32_t> free_;  // reusable slot indices
  Time now_;
  // The latest instant AdvanceInPlace may reach; before time zero while no
  // event runs.
  Time horizon_ = Time::FromPicos(-1);
  uint64_t next_seq_ = 1;
  uint64_t live_count_ = 0;
  uint64_t fired_count_ = 0;
};

template <typename F>
EventId EventQueue::ScheduleAt(Time t, F&& fn) {
  using Fn = std::decay_t<F>;
  static_assert(sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t),
                "an event action is stored in its slot: capture less");
  DIPC_CHECK(t >= now_);
  if constexpr (std::is_same_v<Fn, std::function<void()>>) {
    DIPC_CHECK(fn != nullptr);
  }
  uint32_t index = static_cast<uint32_t>(slots_.size());
  if (free_.empty()) {
    slots_.push_back(std::make_unique<Slot>());
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& s = *slots_[index];
  ASAN_UNPOISON_MEMORY_REGION(s.buf, kInlineBytes);
  ::new (s.buf) Fn(std::forward<F>(fn));
  s.run = [](void* buf, bool invoke) {
    Fn& f = *std::launder(static_cast<Fn*>(buf));
    if (invoke) {
      f();
    }
    f.~Fn();
  };
  const EventId id = (static_cast<uint64_t>(s.gen) << 32) | index;
  heap_.push(Entry{t, next_seq_++, id});
  ++live_count_;
  return id;
}

}  // namespace dipc::sim

#endif  // DIPC_SIM_EVENT_QUEUE_H_
