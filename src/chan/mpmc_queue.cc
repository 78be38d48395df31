#include "chan/mpmc_queue.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace dipc::chan {

using os::TimeCat;

MpmcQueue::MpmcQueue(os::Kernel& kernel, os::Process& proc, uint32_t capacity, hw::DomainTag tag,
                     std::string obs_name, uint32_t obs_obj, uint64_t spare_bytes)
    : kernel_(kernel), pt_(&proc.page_table()), capacity_(capacity) {
  DIPC_CHECK(capacity > 0);
  const uint64_t ring = uint64_t{capacity} * kSlotBytes;
  auto seg = MapSegment(kernel, proc, spare_bytes == 0 ? ring : RingBytes() + spare_bytes, tag);
  DIPC_CHECK(seg.ok());
  seg_ = seg.value();
  obs_obj_ = obs_obj != 0 ? obs_obj : obs::NewObjectId();
  if (obs_name.empty()) {
    obs_name = "mpmc/" + std::to_string(obs_obj_);
  }
  m_blocked_pops_ = metrics_.GetCounter(obs_name + "/blocked_pops");
  m_futex_wakes_ = metrics_.GetCounter(obs_name + "/futex_wakes");
  m_timeouts_ = metrics_.GetCounter(obs_name + "/timeouts");
  spins_.m_hits = metrics_.GetCounter(obs_name + "/spin_hits");
  spins_.m_misses = metrics_.GetCounter(obs_name + "/spin_misses");
  m_park_ns_ = metrics_.GetHistogram(obs_name + "/park_ns");
}

hw::PhysAddr MpmcQueue::SlotPa(uint64_t pos) const {
  // Slots never straddle pages (8-byte slots, page-aligned base).
  auto pa = pt_->Translate(SlotVa(pos));
  DIPC_CHECK(pa.has_value());
  return *pa;
}

void MpmcQueue::Prime(uint64_t value) {
  DIPC_CHECK(count_ < capacity_);
  // Setup-time direct store through physical memory: no thread context, no
  // cost.
  kernel_.machine().mem().Write(SlotPa(tail_), std::as_bytes(std::span(&value, 1)));
  ++tail_;
  ++count_;
}

void MpmcQueue::PushNoEnv(uint64_t value) {
  DIPC_CHECK(count_ < capacity_);
  kernel_.machine().mem().Write(SlotPa(tail_), std::as_bytes(std::span(&value, 1)));
  ++tail_;
  ++count_;
  if (consumers_.EndSpins(kernel_, 1) == 0) {
    if (os::Thread* t = consumers_.WakeOneThread()) {
      (void)kernel_.MakeRunnable(*t, std::nullopt);
    }
  }
}

sim::Task<void> MpmcQueue::WakeIfWaiting(os::Env env, os::DeferredWake* defer) {
  if (consumers_.waiting() == 0) {
    co_return;  // suppressed: no syscall, no kernel work
  }
  if (DIPC_FAULT_POINT(kFutexWake, env.self->last_cpu()).drop_wake()) {
    co_return;  // injected lost wake, deferred or not; deadline-armed parks recover
  }
  ++futex_wakes_;
  m_futex_wakes_->Add();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexWake, obs_obj_,
                      consumers_.waiting(), env.kernel->now());
  if (defer != nullptr && !*defer) {
    *defer = consumers_.TakeForSwap(env);
    if (*defer) {
      co_return;  // the publisher's next park switches to the waiter
    }
  }
  co_await os::FutexWake(env, consumers_);
}

base::Status MpmcQueue::AccessSlots(os::Env env, uint64_t pos, std::span<const uint64_t> values,
                                    std::span<uint64_t> out, sim::Duration* cost) {
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  const bool writing = !values.empty();
  const uint64_t n = writing ? values.size() : out.size();
  uint64_t off = pos % capacity_;
  uint64_t first = std::min(n, capacity_ - off);
  for (auto [start, span_off, span_n] :
       {std::tuple{off, uint64_t{0}, first}, std::tuple{uint64_t{0}, first, n - first}}) {
    if (span_n == 0) {
      continue;
    }
    auto c = k.UserAccessCost(
        self, seg_.base + start * kSlotBytes, span_n * kSlotBytes,
        writing ? hw::AccessType::kWrite : hw::AccessType::kRead,
        writing ? os::UserBytes(std::as_bytes(values.subspan(span_off, span_n)))
                : os::UserBytes(std::as_writable_bytes(out.subspan(span_off, span_n))));
    if (!c.ok()) {
      return c.status();
    }
    *cost += c.value();
  }
  return base::Status::Ok();
}

sim::Task<base::Status> MpmcQueue::Push(os::Env env, uint64_t value) {
  co_return co_await PushN(env, std::span(&value, 1));
}

sim::Task<base::Result<uint64_t>> MpmcQueue::Pop(os::Env env, os::Deadline deadline) {
  uint64_t value = 0;
  auto n = co_await PopN(env, std::span(&value, 1), deadline);
  if (!n.ok()) {
    co_return n.code();
  }
  co_return value;
}

sim::Task<base::Status> MpmcQueue::PushN(os::Env env, std::span<const uint64_t> values,
                                         os::DeferredWake* defer) {
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  if (values.empty()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  // The fixed fast-path toll (head/tail atomics + bookkeeping) is paid once
  // per batch — the O(1/batch) half of the batching argument.
  co_await k.Spend(self, k.costs().chan_fast_path, TimeCat::kUser);
  {
    // Perturbs *timing* only, before the claim — the claim itself stays
    // synchronous with its room check, so the queue invariant holds.
    fault::Decision d = DIPC_FAULT_POINT(kSlotClaim, self.last_cpu());
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(self, d.delay, TimeCat::kUser);
    }
  }
  if (closed_) {
    co_return code_;
  }
  // Claim the whole batch in one synchronous block with the room check: a
  // co_await between the check and the tail_/count_ update is a scheduling
  // point where another producer could claim the same slots.
  DIPC_CHECK(values.size() <= capacity_ - count_);
  sim::Duration cost;
  base::Status s = AccessSlots(env, tail_, values, {}, &cost);
  if (!s.ok()) {
    co_return s;
  }
  tail_ += values.size();
  count_ += values.size();
  co_await k.Spend(self, cost, TimeCat::kUser);
  // Spinners take the batch first, with no syscall: each spin ends when the
  // head cell's line reaches the spinner. Values left over get one
  // (suppressed) futex wake; the woken consumer chains further wakes while a
  // backlog remains (see PopSome), so one is enough.
  if (consumers_.Publish(env, values.size(), SlotPa(head_))) {
    co_await WakeIfWaiting(env, defer);
  }
  co_return base::Status::Ok();
}

sim::Task<base::Result<uint64_t>> MpmcQueue::PopN(os::Env env, std::span<uint64_t> out,
                                                  os::Deadline deadline, os::DeferredWake wake) {
  return PopSome(env, out, deadline, std::move(wake), /*may_wait=*/true);
}

sim::Task<base::Result<uint64_t>> MpmcQueue::TryPopN(os::Env env, std::span<uint64_t> out) {
  return PopSome(env, out, os::Deadline(), os::DeferredWake(), /*may_wait=*/false);
}

sim::Task<base::Result<uint64_t>> MpmcQueue::PopSome(os::Env env, std::span<uint64_t> out,
                                                     os::Deadline deadline, os::DeferredWake wake,
                                                     bool may_wait) {
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  if (out.empty()) {
    if (wake) {
      co_await os::FutexWake(env, *wake.Take());
    }
    co_return base::ErrorCode::kInvalidArgument;
  }
  co_await k.Spend(self, k.costs().chan_fast_path, TimeCat::kUser);
  {
    fault::Decision d = DIPC_FAULT_POINT(kSlotClaim, self.last_cpu());
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(self, d.delay, TimeCat::kUser);
    }
  }
  if (wake && (count_ > 0 || closed_)) {
    co_await os::FutexWake(env, *wake.Take());  // nothing to park for
  }
  while (count_ == 0) {
    if (closed_) {
      co_return code_;
    }
    if (!may_wait) {
      co_return uint64_t{0};
    }
    const os::ParkObs park_obs{obs_obj_, nullptr, m_park_ns_, &spins_, &blocked_pops_,
                               m_blocked_pops_};
    const bool expired =
        co_await os::FutexBlockUntil(env, consumers_, deadline, std::exchange(wake, {}), park_obs,
                                     [this] { return Blocked(); });
    if (expired && Blocked()) {
      ++timeouts_;
      m_timeouts_->Add();
      obs::Trace().Record(env.self->last_cpu(), obs::EventType::kTimeout, obs_obj_, out.size(),
                          env.kernel->now());
      co_return base::ErrorCode::kTimedOut;
    }
  }
  if (!drain_allowed_) {
    co_return code_;
  }
  // Mirror of PushN: claim the run and retire head_/count_ synchronously
  // with the empty check, then pay the (batched) access cost. Suspending
  // before the claim would let a second consumer pop the same slots;
  // suspending between the claim and the read would let a producer
  // overwrite them (freed slots are immediately reusable). Never blocks for
  // a full batch: drains what is there.
  uint64_t n = std::min<uint64_t>(out.size(), count_);
  sim::Duration cost;
  base::Status s = AccessSlots(env, head_, {}, out.subspan(0, n), &cost);
  if (!s.ok()) {
    co_return s.code();
  }
  head_ += n;
  count_ -= n;
  co_await k.Spend(self, cost, TimeCat::kUser);
  // Wake chaining: a batched push woke only one consumer; if a backlog
  // remains, pass it on to spinners (each reads the new head cell, as after
  // a push), then to a parked consumer.
  if (count_ > 0 && consumers_.EndSpins(k, count_, SlotPa(head_)) < count_) {
    co_await WakeIfWaiting(env);
  }
  co_return n;
}

void MpmcQueue::Close(base::ErrorCode code) {
  if (closed_) {
    return;
  }
  closed_ = true;
  code_ = code;
  // Close/Fail have no Env (they may run from teardown hooks); wakeups go
  // through the scheduler with no waker-side cost, like Pipe close.
  consumers_.WakeAll(kernel_);
}

void MpmcQueue::Fail(base::ErrorCode code) {
  closed_ = true;
  drain_allowed_ = false;
  code_ = code;
  consumers_.WakeAll(kernel_);
}

}  // namespace dipc::chan
