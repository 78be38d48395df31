#include "sim/event_queue.h"

#include <utility>

#include "base/check.h"

namespace dipc::sim {

EventQueue::~EventQueue() {
  for (std::unique_ptr<Slot>& s : slots_) {
    if (s->run != nullptr) {
      s->run(s->buf, /*invoke=*/false);
    }
  }
}

bool EventQueue::Cancel(EventId id) {
  if (!Live(id)) {
    return false;
  }
  // The heap entry becomes a tombstone, skipped in RunOne.
  const auto index = static_cast<uint32_t>(id);
  slots_[index]->run(slots_[index]->buf, /*invoke=*/false);
  Retire(index);
  --live_count_;
  return true;
}

const EventQueue::Entry* EventQueue::NextLive() {
  while (!heap_.empty() && !Live(heap_.top().id)) {
    heap_.pop();  // cancelled
  }
  return heap_.empty() ? nullptr : &heap_.top();
}

bool EventQueue::AdvanceInPlace(Duration d) {
  const Time at = now_ + d;
  if (at > horizon_) {
    return false;
  }
  const Entry* next = NextLive();
  if (next != nullptr && next->at <= at) {
    return false;
  }
  now_ = at;
  ++fired_count_;
  return true;
}

bool EventQueue::RunNext(Time horizon) {
  const Entry* next = NextLive();
  if (next == nullptr || next->at > horizon) {
    return false;
  }
  const Entry top = *next;
  heap_.pop();
  const auto index = static_cast<uint32_t>(top.id);
  Slot& s = *slots_[index];
  // Dead before it runs: a Cancel of its own id finds nothing, pending()
  // no longer counts it, and no event scheduled meanwhile takes the slot.
  void (*run)(void*, bool) = std::exchange(s.run, nullptr);
  --live_count_;
  DIPC_CHECK(top.at >= now_);
  now_ = top.at;
  ++fired_count_;
  const Time outer = std::exchange(horizon_, horizon);
  run(s.buf, /*invoke=*/true);
  horizon_ = outer;
  Retire(index);
  return true;
}

uint64_t EventQueue::RunUntilIdle() {
  const uint64_t before = fired_count_;
  while (RunOne()) {
  }
  return fired_count_ - before;
}

uint64_t EventQueue::RunUntil(Time deadline) {
  const uint64_t before = fired_count_;
  while (RunNext(deadline)) {
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return fired_count_ - before;
}

}  // namespace dipc::sim
