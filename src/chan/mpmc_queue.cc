#include "chan/mpmc_queue.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace dipc::chan {

using os::TimeCat;

MpmcQueue::MpmcQueue(os::Kernel& kernel, os::Process& proc, uint32_t capacity, hw::DomainTag tag,
                     std::string obs_name, uint32_t obs_obj)
    : kernel_(kernel), pt_(&proc.page_table()), capacity_(capacity) {
  DIPC_CHECK(capacity > 0);
  auto seg = MapSegment(kernel, proc, uint64_t{capacity} * kSlotBytes, tag);
  DIPC_CHECK(seg.ok());
  seg_ = seg.value();
  obs_obj_ = obs_obj != 0 ? obs_obj : obs::NewObjectId();
  if (obs_name.empty()) {
    obs_name = "mpmc/" + std::to_string(obs_obj_);
  }
  obs::Registry& reg = obs::Registry::Default();
  m_blocked_pushes_ = reg.GetCounter(obs_name + "/blocked_pushes");
  m_blocked_pops_ = reg.GetCounter(obs_name + "/blocked_pops");
  m_futex_wakes_ = reg.GetCounter(obs_name + "/futex_wakes");
  m_timeouts_ = reg.GetCounter(obs_name + "/timeouts");
  spins_.m_hits = reg.GetCounter(obs_name + "/spin_hits");
  spins_.m_misses = reg.GetCounter(obs_name + "/spin_misses");
  m_park_ns_ = reg.GetHistogram(obs_name + "/park_ns");
}

void MpmcQueue::Prime(uint64_t value) {
  DIPC_CHECK(count_ < capacity_);
  // Setup-time direct store through physical memory: no thread context, no
  // cost. Slots never straddle pages (8-byte slots, page-aligned base).
  auto pa = pt_->Translate(SlotVa(tail_));
  DIPC_CHECK(pa.has_value());
  kernel_.machine().mem().Write(*pa, std::as_bytes(std::span(&value, 1)));
  ++tail_;
  ++count_;
}

void MpmcQueue::PushNoEnv(uint64_t value) {
  DIPC_CHECK(count_ < capacity_);
  auto pa = pt_->Translate(SlotVa(tail_));
  DIPC_CHECK(pa.has_value());
  kernel_.machine().mem().Write(*pa, std::as_bytes(std::span(&value, 1)));
  ++tail_;
  ++count_;
  if (consumers_.EndSpins(kernel_, 1) == 0) {
    if (os::Thread* t = consumers_.WakeOneThread()) {
      (void)kernel_.MakeRunnable(*t, std::nullopt);
    }
  }
}

sim::Task<void> MpmcQueue::WakeIfWaiting(os::Env env, os::WaitQueue& q, os::DeferredWake* defer) {
  if (q.waiting() == 0) {
    co_return;  // suppressed: no syscall, no kernel work
  }
  if (DIPC_FAULT_POINT(kFutexWake, env.self->last_cpu()).drop_wake()) {
    co_return;  // injected lost wake, deferred or not; deadline-armed parks recover
  }
  ++futex_wakes_;
  m_futex_wakes_->Add();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexWake, obs_obj_, q.waiting(),
                      env.kernel->now());
  if (defer != nullptr && !*defer) {
    *defer = q.TakeForSwap(env);
    if (*defer) {
      co_return;  // the publisher's next park switches to the waiter
    }
  }
  co_await os::FutexWake(env, q);
}

sim::Task<bool> MpmcQueue::Wait(os::Env env, bool push, os::Deadline deadline,
                                os::DeferredWake wake) {
  const os::ParkObs park_obs{obs_obj_, nullptr, m_park_ns_, &spins_,
                             push ? &blocked_pushes_ : &blocked_pops_,
                             push ? m_blocked_pushes_ : m_blocked_pops_};
  co_return co_await os::FutexBlockUntil(env, push ? producers_ : consumers_, deadline,
                                         std::move(wake), park_obs,
                                         [this, push] { return Blocked(push); });
}

base::ErrorCode MpmcQueue::TimedOut(os::Env env, uint64_t left) {
  ++timeouts_;
  m_timeouts_->Add();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kTimeout, obs_obj_, left,
                      env.kernel->now());
  return base::ErrorCode::kTimedOut;
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
    hw::VirtAddr va = seg_.base + start * kSlotBytes;
    auto c = k.UserAccessCost(self, va, span_n * kSlotBytes,
                              writing ? hw::AccessType::kWrite : hw::AccessType::kRead);
    if (!c.ok()) {
      return c.status();
    }
    *cost += c.value();
    if (writing) {
      base::Status ws =
          k.UserWrite(self, va, std::as_bytes(values.subspan(span_off, span_n)));
      DIPC_CHECK(ws.ok());
    } else {
      base::Status rs =
          k.UserRead(self, va, std::as_writable_bytes(out.subspan(span_off, span_n)));
      DIPC_CHECK(rs.ok());
    }
  }
  return base::Status::Ok();
}

sim::Task<base::Status> MpmcQueue::Push(os::Env env, uint64_t value, os::Deadline deadline) {
  co_return co_await PushN(env, std::span(&value, 1), nullptr, deadline);
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
                                         uint64_t* pushed, os::Deadline deadline,
                                         os::DeferredWake* defer) {
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  if (pushed != nullptr) {
    *pushed = 0;
  }
  if (values.empty()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  // The fixed fast-path toll (head/tail atomics + bookkeeping) is paid once
  // per batch — the O(1/batch) half of the batching argument.
  co_await k.Spend(self, k.costs().chan_fast_path, TimeCat::kUser);
  {
    // Perturbs *timing* only, before the full/empty check — the claim itself
    // stays synchronous with the check, so the queue invariant holds.
    fault::Decision d = DIPC_FAULT_POINT(kSlotClaim, self.last_cpu());
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(self, d.delay, TimeCat::kUser);
    }
  }
  uint64_t done = 0;
  while (done < values.size()) {
    while (count_ == capacity_) {
      if (closed_) {
        co_return code_;
      }
      // A consumer wake deferred by an earlier chunk is the one that frees
      // room: this park swaps to it.
      os::DeferredWake wake;
      if (defer != nullptr) {
        wake = std::move(*defer);
      }
      const bool expired = co_await Wait(env, /*push=*/true, deadline, std::move(wake));
      if (expired && Blocked(/*push=*/true)) {
        co_return TimedOut(env, values.size() - done);
      }
    }
    if (closed_) {
      co_return code_;
    }
    // Claim up to the free room in one synchronous block with the full check
    // above: a co_await between the check and the tail_/count_ update is a
    // scheduling point where another producer could claim the same slots.
    uint64_t n = std::min<uint64_t>(values.size() - done, capacity_ - count_);
    sim::Duration cost;
    base::Status s = AccessSlots(env, tail_, values.subspan(done, n), {}, &cost);
    if (!s.ok()) {
      co_return s;
    }
    tail_ += n;
    count_ += n;
    done += n;
    if (pushed != nullptr) {
      *pushed = done;
    }
    co_await k.Spend(self, cost, TimeCat::kUser);
    // Spinners take the chunk first, with no syscall. Values left over get
    // one (suppressed) futex wake; the woken consumer chains further wakes
    // while a backlog remains (see PopN), so one is enough.
    if (consumers_.Publish(env, n)) {
      co_await WakeIfWaiting(env, consumers_, defer);
    }
  }
  // Wake chaining, producer side: when a consumer freed a multi-slot run it
  // woke only one producer; if room remains after this push, pass the wake
  // on so parked peers don't wait for the next pop.
  if (count_ < capacity_ && !closed_) {
    co_await WakeIfWaiting(env, producers_);
  }
  co_return base::Status::Ok();
}

sim::Task<base::Result<uint64_t>> MpmcQueue::PopN(os::Env env, std::span<uint64_t> out,
                                                  os::Deadline deadline, os::DeferredWake wake) {
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
    const bool expired = co_await Wait(env, /*push=*/false, deadline, std::exchange(wake, {}));
    if (expired && Blocked(/*push=*/false)) {
      co_return TimedOut(env, out.size());
    }
  }
  if (!drain_allowed_) {
    co_return code_;
  }
  // Mirror of PushN: claim the run and retire head_/count_ synchronously
  // with the empty check, then pay the (batched) access cost. Suspending
  // before the claim would let a second consumer pop the same slots;
  // suspending between the claim and the read would let a producer
  // overwrite them (freed slots are immediately reusable when the queue was
  // full). Never blocks for a full batch: drains what is there.
  uint64_t n = std::min<uint64_t>(out.size(), count_);
  sim::Duration cost;
  base::Status s = AccessSlots(env, head_, {}, out.subspan(0, n), &cost);
  if (!s.ok()) {
    co_return s.code();
  }
  head_ += n;
  count_ -= n;
  co_await k.Spend(self, cost, TimeCat::kUser);
  if (producers_.Publish(env, n)) {
    co_await WakeIfWaiting(env, producers_);
  }
  // Wake chaining, consumer side: a batched push woke only one consumer; if
  // a backlog remains, pass it on to spinners, then to a parked consumer.
  if (count_ > 0 && consumers_.EndSpins(k, count_) < count_) {
    co_await WakeIfWaiting(env, consumers_);
  }
  co_return n;
}

void MpmcQueue::Close(base::ErrorCode code) {
  if (closed_) {
    return;
  }
  closed_ = true;
  code_ = code;
  WakeAllNoEnv();
}

void MpmcQueue::Fail(base::ErrorCode code) {
  closed_ = true;
  drain_allowed_ = false;
  code_ = code;
  WakeAllNoEnv();
}

void MpmcQueue::WakeAllNoEnv() {
  // Close/Fail have no Env (they may run from teardown hooks); wakeups go
  // through the scheduler with no waker-side cost, like Pipe close.
  producers_.WakeAll(kernel_);
  consumers_.WakeAll(kernel_);
}

}  // namespace dipc::chan
