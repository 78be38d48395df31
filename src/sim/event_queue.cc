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

bool EventQueue::RunOne() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    if (!Live(top.id)) {
      continue;  // cancelled
    }
    const auto index = static_cast<uint32_t>(top.id);
    Slot& s = *slots_[index];
    // Dead before it runs: a Cancel of its own id finds nothing, pending()
    // no longer counts it, and no event scheduled meanwhile takes the slot.
    void (*run)(void*, bool) = std::exchange(s.run, nullptr);
    --live_count_;
    DIPC_CHECK(top.at >= now_);
    now_ = top.at;
    ++fired_count_;
    run(s.buf, /*invoke=*/true);
    Retire(index);
    return true;
  }
  return false;
}

uint64_t EventQueue::RunUntilIdle(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && RunOne()) {
    ++n;
  }
  return n;
}

uint64_t EventQueue::RunUntil(Time deadline) {
  uint64_t n = 0;
  while (!heap_.empty()) {
    // Peek past tombstones to find the next live event time.
    const Entry& top = heap_.top();
    if (!Live(top.id)) {
      heap_.pop();
      continue;
    }
    if (top.at > deadline) {
      break;
    }
    RunOne();
    ++n;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace dipc::sim
