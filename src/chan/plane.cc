#include "chan/plane.h"

#include <algorithm>

#include "chan/desc.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "os/futex.h"

namespace dipc::chan {

using internal::ClearRegIfHolds;
using internal::DescIndex;
using internal::DescLen;
using internal::kLenMask;
using internal::kMaxSlots;
using internal::NextOwnerKey;
using internal::PackDesc;
using os::TimeCat;

namespace {

// Handles for the metrics a shape does not export: recording into them is
// harmless and keeps every call site branch-free.
struct Unexported {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
};

Unexported& Sink() {
  static Unexported sink;
  return sink;
}

// Rejects an empty batch, an out-of-range slot and a slot named twice.
// Pairwise: batches are small (<= slots, typically <= 64), so O(N^2) beats
// allocating an O(slots) table on every call (N=1 is the single-message hot
// path and must stay allocation-light).
template <typename T, typename Index>
bool DistinctSlots(std::span<const T> batch, uint32_t slots, Index index) {
  for (size_t j = 0; j < batch.size(); ++j) {
    if (index(batch[j]) >= slots) {
      return false;
    }
    for (size_t i = 0; i < j; ++i) {
      if (index(batch[i]) == index(batch[j])) {
        return false;
      }
    }
  }
  return !batch.empty();
}

}  // namespace

base::Result<std::shared_ptr<Plane>> Plane::Create(core::Dipc& dipc, os::Process& producer,
                                                   std::span<os::Process* const> receivers,
                                                   PlaneConfig cfg) {
  auto plane = std::shared_ptr<Plane>(new Plane(dipc, cfg));
  os::Process* const producers[] = {&producer};
  base::Status st = plane->Init(dipc, producers, false, receivers, true);
  if (!st.ok()) {
    return st.code();
  }
  return plane;
}

base::Result<std::shared_ptr<Plane>> Plane::Create(core::Dipc& dipc,
                                                   std::span<os::Process* const> producers,
                                                   os::Process& receiver, PlaneConfig cfg) {
  auto plane = std::shared_ptr<Plane>(new Plane(dipc, cfg));
  os::Process* const receivers[] = {&receiver};
  base::Status st = plane->Init(dipc, producers, true, receivers, false);
  if (!st.ok()) {
    return st.code();
  }
  return plane;
}

base::Status Plane::Init(core::Dipc& dipc, std::span<os::Process* const> producers,
                         bool tx_group, std::span<os::Process* const> receivers, bool rx_group) {
  const PlaneConfig& cfg = cfg_;
  if (cfg.slots == 0 || cfg.slots > kMaxSlots || cfg.buf_bytes == 0 ||
      cfg.buf_bytes > kLenMask || producers.empty() || receivers.empty()) {
    return base::ErrorCode::kInvalidArgument;
  }
  for (auto side : {producers, receivers}) {
    for (os::Process* proc : side) {
      if (proc == nullptr || !proc->dipc_enabled()) {
        // The zero-copy path needs the shared page table of the global VAS.
        return base::ErrorCode::kNotSupported;
      }
    }
  }
  tx_group_ = tx_group;
  rx_group_ = rx_group;
  // The single side's process (the producer's when both are single) maps
  // the segments and queues.
  home_ = tx_group ? receivers[0] : producers[0];
  tx_.resize(producers.size());
  rx_.resize(receivers.size());
  codoms::AplTable& apl = kernel_.codoms().apl_table();
  ctrl_tag_ = cfg.ctrl_tag != hw::kInvalidDomainTag ? cfg.ctrl_tag : apl.AllocateTag();
  data_tag_ = cfg.data_tag != hw::kInvalidDomainTag ? cfg.data_tag : apl.AllocateTag();
  rt_tag_ = cfg.rt_tag != hw::kInvalidDomainTag ? cfg.rt_tag : apl.AllocateTag();
  // One-time APL setup (creation is rare; per-message paths never touch
  // APLs, so APL-cache entries stay warm): every endpoint may use the
  // control segment and *call into* the runtime domain, and only the
  // runtime domain reaches the data domain.
  for (auto [side, procs] : {std::pair{&tx_, producers}, std::pair{&rx_, receivers}}) {
    for (size_t i = 0; i < procs.size(); ++i) {
      (*side)[i].proc = procs[i];
      apl.Grant(procs[i]->default_domain(), ctrl_tag_, codoms::Perm::kWrite);
      apl.Grant(procs[i]->default_domain(), rt_tag_, codoms::Perm::kCall);
    }
  }
  apl.Grant(rt_tag_, data_tag_, codoms::Perm::kWrite);

  buf_stride_ = hw::PageRoundUp(cfg.buf_bytes);
  auto data = MapSegment(kernel_, *home_, buf_stride_ * cfg.slots, data_tag_);
  if (!data.ok()) {
    return data.code();
  }
  data_seg_ = data.value();
  // One capability-storage slot per (receiver, buffer): each receiver loads
  // its *own* stored read capability, so revocations are per receiver.
  auto caps = MapSegment(kernel_, *home_,
                         uint64_t{receiver_count()} * cfg.slots * codoms::kCapMemBytes, ctrl_tag_,
                         /*cap_storage=*/true);
  if (!caps.ok()) {
    return caps.code();
  }
  cap_seg_ = caps.value();
  credit_line_ = tx_group || rx_group ? cfg.slots : 0;
  RegisterMetrics();
  if (!tx_group && !rx_group) {
    rx_[0].desc = NewDescQueue(0);
  }
  // The pool's page also holds the shared cache and one cache per CPU: a
  // count word and room for every slot each, from a line of its own.
  const uint32_t caches = CpuCache(kernel_.machine().num_cpus());
  cache_stride_ = (MpmcQueue::kSlotBytes * (1 + cfg.slots) + hw::kCacheLineSize - 1) &
                  ~(hw::kCacheLineSize - 1);
  free_ = std::make_unique<MpmcQueue>(kernel_, *home_, cfg.slots, ctrl_tag_, prefix_ + "/free",
                                      obs_id_, cache_stride_ * caches);
  cache_va_ = free_->spare_va();
  cache_n_.assign(caches, 0);
  for (uint32_t i = 0; i < cfg.slots; ++i) {
    free_->Prime(i);
  }
  for (uint32_t r = 0; r < receiver_count() && (tx_group || rx_group); ++r) {
    rx_[r].desc = NewDescQueue(r);
  }
  wcaps_.resize(cfg.slots);
  slot_owner_.assign(cfg.slots, 0);
  slot_gen_.assign(cfg.slots, 0);
  slot_cpu_.assign(cfg.slots, 0);
  pending_.assign(cfg.slots, 0);
  tctx_.assign(cfg.slots, 0);
  for (auto [side, group] : {std::pair{&tx_, tx_group}, std::pair{&rx_, rx_group}}) {
    for (Endpoint& e : *side) {
      e.owner = NextOwnerKey();
      e.tmpl.resize(cfg.slots);
      e.line = group ? credit_line_ : 0;
      AddCredits(e, e.line);
    }
  }
  for (Endpoint& e : rx_) {
    e.held.resize(cfg.slots);
  }

  dipc.AddDeathHook([weak = weak_from_this()](os::Process& dead) {
    auto live = weak.lock();
    if (live == nullptr) {
      return false;  // plane gone: unregister the hook
    }
    live->OnProcessDeath(dead);
    return true;
  });
  return base::Status::Ok();
}

void Plane::RegisterMetrics() {
  obs_id_ = obs::NewObjectId();
  const bool p2p = !tx_group_ && !rx_group_;
  prefix_ = (p2p ? "chan/" : rx_group_ ? "fanout/" : "fanin/") + std::to_string(obs_id_);
  auto counter = [&](bool exported, const std::string& name) {
    return exported ? metrics_.GetCounter(prefix_ + name) : &Sink().counter;
  };
  auto histogram = [&](bool exported, const std::string& name) {
    return exported ? metrics_.GetHistogram(prefix_ + name) : &Sink().histogram;
  };
  m_sends_ = counter(true, "/sends");
  m_recvs_ = counter(true, "/recvs");
  m_deliveries_ = counter(rx_group_, "/deliveries");
  m_acquires_ = counter(p2p, "/acquires");
  m_pool_pops_ = counter(true, "/pool_pops");
  m_cross_cpu_takes_ = counter(true, "/cross_cpu_takes");
  m_releases_ = counter(p2p, "/releases");
  m_cold_mints_ = counter(p2p, "/cold_mints");
  m_rebinds_ = counter(p2p, "/rebinds");
  m_revokes_ = counter(p2p, "/revokes");
  m_blocked_on_credit_ = counter(!p2p, "/blocked_on_credit");
  credit_spins_.m_hits = counter(!p2p, "/credit_spin_hits");
  credit_spins_.m_misses = counter(!p2p, "/credit_spin_misses");
  m_send_batch_ = histogram(p2p, "/send_batch");
  m_recv_batch_ = histogram(p2p, "/recv_batch");
  m_group_stall_ns_ = histogram(rx_group_, "/credit_stall_ns");
  for (auto [side, group, dir] :
       {std::tuple{&tx_, tx_group_, "/tx/"}, std::tuple{&rx_, rx_group_, "/rx/"}}) {
    for (size_t i = 0; i < side->size(); ++i) {
      Endpoint& e = (*side)[i];
      const std::string ep = dir + std::to_string(i);
      e.m_msgs = counter(group, ep + (side == &rx_ ? "/deliveries" : "/sends"));
      e.m_credits = group ? metrics_.GetGauge(prefix_ + ep + "/credits") : &Sink().gauge;
      e.m_stall_ns = histogram(group, ep + "/credit_stall_ns");
    }
  }
}

std::unique_ptr<MpmcQueue> Plane::NewDescQueue(uint32_t r) {
  // A receiver's outstanding deliveries are slots of the `slots`-deep pool,
  // so its FIFO always has room for a publish.
  return std::make_unique<MpmcQueue>(
      kernel_, *home_, cfg_.slots, ctrl_tag_,
      prefix_ + (rx_group_ ? "/rx/" + std::to_string(r) + "/desc" : "/desc"), obs_id_);
}

template <typename F>
void Plane::ForEachQueue(F f) {
  // The 1x1 plane maps its descriptor FIFO before the free pool.
  const bool desc_first = !tx_group_ && !rx_group_;
  if (desc_first) {
    f(*rx_[0].desc);
  }
  f(*free_);
  for (uint32_t r = 0; r < receiver_count() && !desc_first; ++r) {
    f(*rx_[r].desc);
  }
}

uint32_t Plane::live_receiver_count() const {
  return static_cast<uint32_t>(
      std::count_if(rx_.begin(), rx_.end(), [](const Endpoint& e) { return e.alive; }));
}

bool Plane::GateFailed(const Gate& g) const {
  if (g.tx) {
    // The caller's incarnation was excised (and maybe rebound) meanwhile.
    return !tx_[g.idx].alive || tx_[g.idx].owner != g.gen;
  }
  return live_receiver_count() == 0 || (g.idx < receiver_count() && !rx_[g.idx].alive);
}

bool Plane::GateClosed(const Gate& g) const {
  if (g.tx) {
    return tx_[g.idx].credits < g.need;
  }
  if (g.idx < receiver_count()) {
    return rx_[g.idx].alive && rx_[g.idx].credits < g.need;
  }
  // Waits for the slowest live receiver. With none left nothing gates; the
  // send itself fails with kCalleeFailed.
  return std::any_of(rx_.begin(), rx_.end(),
                     [&g](const Endpoint& e) { return e.alive && e.credits < g.need; });
}

bool Plane::Waiting(const Gate& g) const {
  return broken_ == base::ErrorCode::kOk && !closed_ && !GateFailed(g) && GateClosed(g);
}

sim::Task<base::ErrorCode> Plane::AwaitCredit(os::Env env, Gate g, os::Deadline deadline) {
  sim::Time stall_start;
  bool stalled = false;
  while (true) {
    if (broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
    if (closed_) {
      co_return base::ErrorCode::kBrokenChannel;
    }
    if (GateFailed(g)) {
      co_return base::ErrorCode::kCalleeFailed;
    }
    if (!GateClosed(g)) {
      // No suspension between this check and the caller's (synchronous)
      // reservation or delivery plan: the admitted credits cannot change
      // under the caller. Every credit return ends every spin and issues one
      // wake, so every gate-opening event re-checks one parked waiter.
      if (stalled) {
        sim::Duration stall = env.kernel->now() - stall_start;
        obs::Histogram* h = g.tx                      ? tx_[g.idx].m_stall_ns
                            : g.idx < receiver_count() ? rx_[g.idx].m_stall_ns
                                                       : m_group_stall_ns_;
        h->Record(stall.nanos());
        obs::Trace().Record(env.self->last_cpu(), obs::EventType::kCreditStall, obs_id_, g.idx,
                            env.kernel->now(), stall);
      }
      co_return base::ErrorCode::kOk;
    }
    if (!stalled) {
      stalled = true;
      stall_start = env.kernel->now();
    }
    const os::ParkObs park_obs{
        .spins = &credit_spins_, .waits = &blocked_on_credit_, .m_waits = m_blocked_on_credit_};
    const bool expired = co_await os::FutexBlockUntil(
        env, credit_waiters_, deadline, os::DeferredWake(), park_obs,
        [this, g] { return Waiting(g); });
    if (expired && Waiting(g)) {
      // The deadline fired with the gate still closed; nothing was admitted
      // and nothing was granted, so the caller surfaces kTimedOut leak-free.
      obs::Trace().Record(env.self->last_cpu(), obs::EventType::kTimeout, obs_id_, g.need,
                          env.kernel->now());
      co_return base::ErrorCode::kTimedOut;
    }
  }
}

void Plane::AddCredits(Endpoint& e, int64_t delta) {
  if (e.line == 0) {
    return;
  }
  e.credits += static_cast<uint64_t>(delta);
  DIPC_CHECK(e.credits <= e.line);
  e.m_credits->Set(static_cast<int64_t>(e.credits));
}

base::Result<codoms::Capability> Plane::GrantCap(os::Env env, Endpoint& e, uint32_t index,
                                                 codoms::Perm rights, sim::Duration* cost) {
  std::optional<codoms::Capability>& tmpl = e.tmpl[index];
  codoms::ThreadCapContext& ctx = env.self->cap_ctx();
  hw::DomainTag saved = ctx.current_domain;
  ctx.current_domain = rt_tag_;
  sim::Duration c;
  base::Result<codoms::Capability> cap = base::ErrorCode::kFault;
  obs::TraceRing& tr = obs::Trace();
  if (tmpl.has_value()) {
    // Warm path: re-snapshot the cached capability against its counter —
    // no mint, no APL traversal (§4.2 revocation counters as an ownership
    // rotation mechanism).
    cap = env.kernel->codoms().CapRebind(*tmpl, ctx, &c);
    m_rebinds_->Add();
    c += tr.event_cost();
    tr.Record(env.self->last_cpu(), obs::EventType::kCapRebind, obs_id_, index,
              env.kernel->now());
  } else {
    // Cold path, once per endpoint and slot: full mint through the
    // runtime's APL grant over the data domain, tagged with the endpoint's
    // owner key.
    ++cold_mints_;
    m_cold_mints_->Add();
    c += tr.event_cost();
    tr.Record(env.self->last_cpu(), obs::EventType::kCapMint, obs_id_, index, env.kernel->now());
    cap = env.kernel->codoms().CapFromApl(env.self->last_cpu(), env.self->process().page_table(),
                                          ctx, buf_va(index), buf_stride_, rights,
                                          codoms::CapType::kAsync, &c);
    if (cap.ok()) {
      env.kernel->codoms().revocations().SetOwner(cap.value().revocation_id, e.owner);
    }
  }
  ctx.current_domain = saved;
  *cost += c;
  if (cap.ok()) {
    tmpl = cap.value();
  }
  return cap;
}

sim::Task<base::Result<SendBuf>> Plane::AcquireBuf(os::Env env, uint32_t p,
                                                   os::Deadline deadline) {
  auto batch = co_await AcquireBufBatch(env, p, 1, deadline);
  if (!batch.ok()) {
    co_return batch.code();
  }
  co_return batch.value()[0];
}

sim::Task<base::Result<std::vector<SendBuf>>> Plane::AcquireBufBatch(os::Env env, uint32_t p,
                                                                     uint32_t max_n,
                                                                     os::Deadline deadline) {
  os::Kernel& k = *env.kernel;
  if (max_n == 0 || p >= producer_count()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  Endpoint& tx = tx_[p];
  if (!tx.alive) {
    co_return base::ErrorCode::kCalleeFailed;
  }
  const uint64_t gen = tx.owner;
  // Credit-based admission: don't even take a buffer while the group is
  // out of credit — this is where backpressure from the slowest receiver
  // (or a producer's own exhausted line) reaches the producer.
  if (tx_group_ || rx_group_) {
    base::ErrorCode gate = co_await AwaitCredit(
        env, Gate{tx_group_, tx_group_ ? p : receiver_count(), 1, gen}, deadline);
    if (gate != base::ErrorCode::kOk) {
      co_return gate;
    }
  }
  // A producer's line is reserved before the (possibly blocking) pool pop,
  // so a sibling thread of the same producer cannot overshoot it across our
  // suspension; unused reservations are refunded below.
  uint32_t want = std::min(max_n, cfg_.slots);
  if (tx.line != 0) {
    want = static_cast<uint32_t>(std::min<uint64_t>(want, tx.credits));
    AddCredits(tx, -int64_t{want});
  }
  // One cross-domain call into the runtime covers the whole batch, the
  // cache accesses included.
  sim::Duration cost = k.costs().function_call + k.costs().domain_switch * 2;
  std::vector<uint64_t> indices(want);
  auto popped = co_await TakeFree(env, std::span(indices), deadline, &cost);
  const bool excised = !tx.alive || tx.owner != gen;
  if (!popped.ok() || excised) {
    if (!excised) {
      AddCredits(tx, want);
    } else if (popped.ok()) {
      // Excised (or rebound) while parked in the pool: the slots we popped
      // belong back in the pool, the reservation died with the incarnation.
      (void)co_await free_->PushN(env, std::span(indices.data(), popped.value()));
    }
    if (!popped.ok()) {
      co_return broken_ != base::ErrorCode::kOk ? broken_ : popped.code();
    }
    co_return base::ErrorCode::kCalleeFailed;
  }
  indices.resize(popped.value());
  AddCredits(tx, static_cast<int64_t>(want - indices.size()));
  std::vector<codoms::Capability> caps;
  caps.reserve(indices.size());
  for (uint64_t idx : indices) {
    auto cap = GrantCap(env, tx, static_cast<uint32_t>(idx), codoms::Perm::kWrite, &cost);
    if (!cap.ok()) {
      // Undo: revoke what was granted and return every slot to the pool.
      for (const auto& granted : caps) {
        DIPC_CHECK(k.codoms().CapRevoke(granted).ok());
      }
      (void)co_await free_->PushN(env, std::span(indices));  // don't leak the slots
      AddCredits(tx, static_cast<int64_t>(indices.size()));
      co_return cap.code();
    }
    caps.push_back(cap.value());
  }
  m_acquires_->Add(indices.size());
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kAcquireBatch, obs_id_,
                      indices.size(), k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk || !tx.alive || tx.owner != gen) {
    // Torn down during the Spend: the sweep already ran, so recording the
    // grants now would leave them unrevoked forever. Revoke them ourselves;
    // an excised producer also hands the slots back (a broken pool is
    // retired anyway).
    for (const auto& granted : caps) {
      DIPC_CHECK(k.codoms().CapRevoke(granted).ok());
    }
    if (broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
    (void)co_await free_->PushN(env, std::span(indices));
    co_return base::ErrorCode::kCalleeFailed;
  }
  std::vector<SendBuf> out;
  out.reserve(indices.size());
  for (size_t j = 0; j < indices.size(); ++j) {
    auto index = static_cast<uint32_t>(indices[j]);
    wcaps_[index] = caps[j];
    slot_owner_[index] = p;
    slot_gen_[index] = gen;
    slot_cpu_[index] = env.self->last_cpu();
    out.push_back(SendBuf{buf_va(index), cfg_.buf_bytes, index});
  }
  env.self->cap_ctx().regs.Set(kSenderCapReg, caps.back());
  co_return out;
}

sim::Task<base::Result<uint64_t>> Plane::TakeFree(os::Env env, std::span<uint64_t> out,
                                                  os::Deadline deadline, sim::Duration* cost) {
  uint64_t got = 0;
  std::vector<uint64_t> pool;
  while (true) {
    if (broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
    for (uint32_t cache : {CpuCache(env.self->last_cpu()), kSharedCache}) {
      auto taken = MoveCached(env, cache, out.subspan(got), /*deposit=*/false, cost);
      if (!taken.ok()) {
        co_return taken.code();
      }
      got += taken.value();
    }
    if (got == out.size()) {
      co_return got;
    }
    // Every free slot in one pop, which waits only when no cache holds a
    // slot either (so a caller holding slots never parks, and nobody parks
    // while a cache holds one).
    pool.resize(cfg_.slots);
    ++pool_poppers_;
    m_pool_pops_->Add();
    auto popped = got == 0 && cached_ == 0 ? co_await free_->PopN(env, std::span(pool), deadline)
                                           : co_await free_->TryPopN(env, std::span(pool));
    --pool_poppers_;
    if (broken_ != base::ErrorCode::kOk) {
      co_return broken_;  // a failed pool leaves nothing
    }
    if (popped.ok()) {
      const uint64_t keep = std::min<uint64_t>(popped.value(), out.size() - got);
      std::copy_n(pool.begin(), keep, out.begin() + static_cast<std::ptrdiff_t>(got));
      got += keep;
      std::span<uint64_t> extras(pool.data() + keep, popped.value() - keep);
      if (!extras.empty() && pool_poppers_ > 0 && !free_->closed()) {
        // A sibling producer thread is inside the pop, maybe parked on the
        // empty pool: the push hands it the extras and wakes it.
        const bool pushed = (co_await free_->PushN(env, extras)).ok();
        if (broken_ != base::ErrorCode::kOk) {
          co_return broken_;
        }
        if (pushed) {
          extras = {};  // else a Close raced the push: keep them
        }
      }
      if (!extras.empty()) {
        // This thread just accessed the pool's page from the same domain,
        // so the cache on that page cannot fault.
        DIPC_CHECK(MoveCached(env, kSharedCache, extras, /*deposit=*/true, cost).ok());
      }
    } else if (got == 0 && (popped.code() == base::ErrorCode::kTimedOut || cached_ == 0)) {
      // Timed out, or closed and drained with every cache empty.
      co_return popped.code();
    }
    const hw::CpuId cpu = env.self->last_cpu();
    if (got < out.size() &&
        cached_ > cache_n_[CpuCache(cpu)] + cache_n_[kSharedCache]) {
      // The pool is empty: the rest comes from other CPUs' caches.
      auto taken = TakeCrossCpu(env, out.subspan(got), cost);
      if (!taken.ok()) {
        co_return taken.code();
      }
      got += taken.value();
    }
    if (got > 0) {
      co_return got;
    }
    // Other threads took the cached slots while this one popped: try again.
  }
}

base::Result<uint64_t> Plane::TakeCrossCpu(os::Env env, std::span<uint64_t> out,
                                           sim::Duration* cost) {
  os::Kernel& k = *env.kernel;
  const hw::CpuId here = env.self->last_cpu();
  const auto cpus = static_cast<uint32_t>(cache_n_.size() - 1);
  uint64_t got = 0;
  for (uint32_t i = 1; i < cpus && got < out.size(); ++i) {
    const uint32_t cache = CpuCache((here + i) % cpus);
    // Each probe reads the other cache's count word.
    uint64_t count = 0;
    auto probed = k.UserAccessCost(*env.self, cache_va_ + cache * cache_stride_,
                                   MpmcQueue::kSlotBytes, hw::AccessType::kRead,
                                   os::UserBytes(std::as_writable_bytes(std::span(&count, 1))));
    if (!probed.ok()) {
      return probed.code();
    }
    *cost += probed.value();
    DIPC_CHECK(count == cache_n_[cache]);
    if (count == 0) {
      continue;
    }
    auto taken = MoveCached(env, cache, out.subspan(got), /*deposit=*/false, cost);
    if (!taken.ok()) {
      return taken.code();
    }
    m_cross_cpu_takes_->Add();
    got += taken.value();
  }
  return got;
}

base::Result<uint64_t> Plane::MoveCached(os::Env env, uint32_t cache, std::span<uint64_t> slots,
                                         bool deposit, sim::Duration* cost) {
  // No acquirer parks on the empty pool while a cache holds a slot: slots
  // reach a cache only while no producer thread is inside the pool pop.
  DIPC_CHECK(!deposit || free_->parked_pops() == 0);
  os::Kernel& k = *env.kernel;
  const uint64_t have = cache_n_[cache];
  const uint64_t n = deposit ? slots.size() : std::min<uint64_t>(slots.size(), have);
  if (n == 0) {
    return uint64_t{0};
  }
  const uint64_t count = deposit ? have + n : have - n;
  const hw::VirtAddr base = cache_va_ + cache * cache_stride_;
  const hw::VirtAddr top = base + MpmcQueue::kSlotBytes * (1 + std::min(count, have));
  auto moved = k.UserAccessCost(*env.self, top, n * MpmcQueue::kSlotBytes,
                                deposit ? hw::AccessType::kWrite : hw::AccessType::kRead,
                                deposit ? os::UserBytes(std::as_bytes(slots.first(n)))
                                        : os::UserBytes(std::as_writable_bytes(slots.first(n))));
  if (!moved.ok()) {
    return moved.code();
  }
  auto counted = k.UserAccessCost(*env.self, base, MpmcQueue::kSlotBytes, hw::AccessType::kWrite,
                                  os::UserBytes(std::as_bytes(std::span(&count, 1))));
  if (!counted.ok()) {
    return counted.code();
  }
  cache_n_[cache] = static_cast<uint32_t>(count);
  cached_ = static_cast<uint32_t>(deposit ? cached_ + n : cached_ - n);
  *cost += moved.value() + counted.value();
  return n;
}

uint64_t Plane::KeepOnCpu(os::Env env, std::span<uint64_t> freed, sim::Duration* cost) {
  if (pool_poppers_ > 0 || free_->closed()) {
    return 0;  // the pool wakes the popper, or retires the slots after Close
  }
  const hw::CpuId cpu = env.self->last_cpu();
  auto mine = std::partition(freed.begin(), freed.end(),
                             [this, cpu](uint64_t index) { return slot_cpu_[index] == cpu; });
  auto kept =
      MoveCached(env, CpuCache(cpu), std::span(freed.begin(), mine), /*deposit=*/true, cost);
  return kept.ok() ? kept.value() : 0;
}

void Plane::BindSendCap(os::Thread& t, const SendBuf& buf) const {
  if (buf.index < cfg_.slots && wcaps_[buf.index].has_value()) {
    t.cap_ctx().regs.Set(kSenderCapReg, *wcaps_[buf.index]);
  }
}

void Plane::BindRecvCap(os::Thread& t, uint32_t r, const Msg& msg) const {
  if (r < receiver_count() && msg.index < cfg_.slots && rx_[r].held[msg.index].has_value()) {
    t.cap_ctx().regs.Set(kReceiverCapReg, *rx_[r].held[msg.index]);
  }
}

sim::Task<base::Status> Plane::Send(os::Env env, uint32_t p, const SendBuf& buf, uint64_t len,
                                    os::Deadline deadline, os::DeferredWake* defer) {
  SendItem item{buf, len};
  co_return co_await SendCommon(env, p, std::span(&item, 1), receiver_count(), deadline, defer);
}

sim::Task<base::Status> Plane::SendBatch(os::Env env, uint32_t p, std::span<const SendItem> items,
                                         os::Deadline deadline, os::DeferredWake* defer) {
  return SendCommon(env, p, items, receiver_count(), deadline, defer);
}

sim::Task<base::Status> Plane::SendTo(os::Env env, uint32_t p, const SendBuf& buf, uint64_t len,
                                      uint32_t r, os::Deadline deadline,
                                      os::DeferredWake* defer) {
  SendItem item{buf, len};
  co_return co_await SendCommon(env, p, std::span(&item, 1), r, deadline, defer);
}

sim::Task<base::Status> Plane::SendToBatch(os::Env env, uint32_t p,
                                           std::span<const SendItem> items, uint32_t r,
                                           os::Deadline deadline, os::DeferredWake* defer) {
  return SendCommon(env, p, items, r, deadline, defer);
}

uint32_t Plane::NextShard() {
  for (uint32_t i = 0; i < receiver_count(); ++i) {
    uint32_t r = (rr_next_ + i) % receiver_count();
    if (rx_[r].alive) {
      rr_next_ = (r + 1) % receiver_count();
      return r;
    }
  }
  return receiver_count();
}

bool Plane::Deliverable(uint32_t index) const {
  return std::any_of(rx_.begin(), rx_.end(), [index](const Endpoint& e) {
    return e.alive && e.held[index].has_value();
  });
}

sim::Task<base::Status> Plane::SendCommon(os::Env env, uint32_t p,
                                          std::span<const SendItem> items, uint32_t target,
                                          os::Deadline deadline, os::DeferredWake* defer) {
  os::Kernel& k = *env.kernel;
  const hw::CostModel& cm = k.costs();
  sim::Duration fault_delay;
  {
    // Probed before the broken_ check so a scripted "kill at the Nth send"
    // surfaces through the regular dead-peer path on this very call.
    fault::Decision d = DIPC_FAULT_POINT(kChanSend, env.self->last_cpu());
    if (d.fail()) {
      co_return base::ErrorCode::kFault;
    }
    if (d.action == fault::Action::kDelay) {
      fault_delay = d.delay;
    }
  }
  const uint32_t n_recv = receiver_count();
  if (p >= producer_count() || target > n_recv) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  if (closed_) {
    co_return base::ErrorCode::kBrokenChannel;
  }
  Endpoint& tx = tx_[p];
  if (!tx.alive) {
    co_return base::ErrorCode::kCalleeFailed;
  }
  const uint64_t gen = tx.owner;
  if (!DistinctSlots(items, cfg_.slots, [](const SendItem& it) { return it.buf.index; })) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  for (const SendItem& it : items) {
    const uint32_t index = it.buf.index;
    if (it.len == 0 || it.len > cfg_.buf_bytes || !wcaps_[index].has_value() ||
        slot_owner_[index] != p || slot_gen_[index] != gen) {
      co_return base::ErrorCode::kInvalidArgument;
    }
  }
  // Credit wait: for the whole batch's worth of its target's credit, or of
  // every live receiver's for a broadcast. A producer's line was paid at
  // acquire.
  if (rx_group_) {
    base::ErrorCode gate =
        co_await AwaitCredit(env, Gate{false, target, items.size(), 0}, deadline);
    if (gate != base::ErrorCode::kOk) {
      co_return gate;
    }
  }
  // One fast-path charge and one runtime entry for the whole batch. From
  // here to the Spend the delivery plan is computed and recorded
  // synchronously: no suspension point can change credits, liveness or
  // ownership under us. The plan grants the read-only views (immutability:
  // a published message can never be modified again, by anyone) and
  // publishes them through the capability-storage descriptor slots; an
  // error leaves the producer owning every buffer and every credit where it
  // was.
  sim::Duration cost = cm.chan_fast_path + cm.function_call + cm.domain_switch * 2 + fault_delay;
  // The receivers this send may deliver to: its target alone, or everyone.
  const uint32_t first = target < n_recv ? target : 0;
  const uint32_t last = target < n_recv ? target + 1 : n_recv;
  for (size_t j = 0; j < items.size(); ++j) {
    const uint32_t index = items[j].buf.index;
    uint32_t dests = 0;
    for (uint32_t r = first; r < last; ++r) {
      Endpoint& rx = rx_[r];
      if (!rx.alive) {
        continue;
      }
      auto rcap = GrantCap(env, rx, index, codoms::Perm::kRead, &cost);
      base::Status stored = base::ErrorCode::kFault;
      if (rcap.ok()) {
        sim::Duration store_cost;
        stored = k.codoms().CapStore(env.self->process().page_table(), env.self->cap_ctx(),
                                     CapSlotVa(r, index), rcap.value(), &store_cost);
        cost += store_cost;
      }
      if (!rcap.ok() || !stored.ok()) {
        // Undo everything this call planned: the new grants are not yet
        // referenced by any descriptor, so revoke them before they leak.
        if (rcap.ok()) {
          DIPC_CHECK(k.codoms().CapRevoke(rcap.value()).ok());
        }
        for (size_t jj = 0; jj <= j; ++jj) {
          const uint32_t planned = items[jj].buf.index;
          for (Endpoint& e : rx_) {
            if (e.held[planned].has_value()) {
              DIPC_CHECK(k.codoms().CapRevoke(*e.held[planned]).ok());
              e.held[planned].reset();
              AddCredits(e, 1);
            }
          }
          pending_[planned] = 0;
        }
        co_return rcap.ok() ? stored : base::Status(rcap.code());
      }
      rx.held[index] = rcap.value();
      AddCredits(rx, -1);
      ++dests;
    }
    pending_[index] = dests;
  }
  cost += cm.cap_revoke * items.size();
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kSendBatch, obs_id_, items.size(),
                      k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    // Torn down during the Spend: the sweep already revoked every recorded
    // grant (they were recorded before the suspension).
    co_return broken_;
  }
  if (!tx.alive || tx.owner != gen) {
    // This producer was excised during the Spend: its write grants and the
    // planned read grants were swept and its slots recycled.
    co_return base::ErrorCode::kCalleeFailed;
  }
  if (std::none_of(items.begin(), items.end(),
                   [this](const SendItem& it) { return Deliverable(it.buf.index); }) &&
      (live_receiver_count() == 0 || target < n_recv)) {
    // Every planned destination died during the Spend (the sweep revoked
    // the read grants and dropped the pending shares, but left the slots
    // with their writer): the producer still owns every buffer and can
    // reshard or abandon them.
    co_return base::ErrorCode::kCalleeFailed;
  }
  // Move semantics: the producer's ownership ends *after* the Spend — so a
  // receiver death during the suspension sweeps against an accurate
  // ownership picture (DropDelivery never recycles a slot whose write grant
  // is still held) — but always *before* any descriptor is published: no
  // receiver can observe a message whose writer still owns the buffer.
  std::vector<uint64_t> orphaned;  // slots with nobody left to deliver to
  for (const SendItem& it : items) {
    const uint32_t index = it.buf.index;
    tctx_[index] = it.buf.tctx;
    ClearRegIfHolds(*env.self, kSenderCapReg, *wcaps_[index]);
    DIPC_CHECK(k.codoms().CapRevoke(*wcaps_[index]).ok());
    wcaps_[index].reset();
    if (!Deliverable(index)) {
      // Every planned destination of this item died mid-Spend while a
      // sibling item still delivers (broadcast at-most-once): the slot has
      // no holder left.
      orphaned.push_back(index);
    }
  }
  m_revokes_->Add(items.size());
  if (!orphaned.empty()) {
    (void)co_await free_->PushN(env, std::span(orphaned));
    if (broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
  }
  // Publish: one batched descriptor push (and at most one futex wake) per
  // receiver touched; the first wake goes into `defer` when the caller gave
  // one.
  uint64_t delivered = 0;
  base::ErrorCode failed = base::ErrorCode::kOk;
  for (uint32_t r = first; r < last; ++r) {
    Endpoint& rx = rx_[r];
    std::vector<uint64_t> descs;
    descs.reserve(items.size());
    for (const SendItem& it : items) {
      // A receiver that died during the Spend was swept (its grant is gone
      // and its pending share dropped).
      if (rx.alive && rx.held[it.buf.index].has_value()) {
        descs.push_back(PackDesc(it.buf.index, it.len));
      }
    }
    if (descs.empty()) {
      continue;
    }
    auto pushed = co_await rx.desc->PushN(env, std::span(descs), defer);
    if (pushed.ok()) {
      delivered += descs.size();
      rx.m_msgs->Add(descs.size());
    } else if (broken_ == base::ErrorCode::kOk && rx.alive) {
      // An orderly Close raced the publish: the descriptors never reached
      // the receiver and no sweep will run, so revoke their grants here and
      // hand slots nobody holds back to the pool (after Close the give-back
      // push fails harmlessly — the pool is retired).
      failed = pushed.code();
      std::vector<uint64_t> freed;
      for (uint64_t desc : descs) {
        DropDelivery(r, DescIndex(desc), &freed);
        AddCredits(rx, 1);
      }
      if (!freed.empty()) {
        (void)co_await free_->PushN(env, std::span(freed));
      }
    }
  }
  if (broken_ != base::ErrorCode::kOk || failed != base::ErrorCode::kOk) {
    co_return broken_ != base::ErrorCode::kOk ? broken_ : failed;
  }
  sends_ += items.size();
  deliveries_ += delivered;
  m_sends_->Add(items.size());
  m_deliveries_->Add(delivered);
  tx.m_msgs->Add(items.size());
  m_send_batch_->Record(static_cast<double>(items.size()));
  if (delivered == 0 && (live_receiver_count() == 0 || target < n_recv)) {
    // Everyone died before publication: for sharded sends the caller
    // reshards.
    co_return base::ErrorCode::kCalleeFailed;
  }
  co_return base::Status::Ok();
}

sim::Task<base::Result<Msg>> Plane::Recv(os::Env env, uint32_t r, os::Deadline deadline,
                                         os::DeferredWake wake) {
  auto batch = co_await RecvBatch(env, r, 1, deadline, std::move(wake));
  if (!batch.ok()) {
    co_return batch.code();
  }
  co_return batch.value()[0];
}

sim::Task<base::Result<std::vector<Msg>>> Plane::RecvBatch(os::Env env, uint32_t r,
                                                           uint32_t max_n,
                                                           os::Deadline deadline,
                                                           os::DeferredWake wake) {
  os::Kernel& k = *env.kernel;
  const base::ErrorCode early =
      max_n == 0 || r >= receiver_count() ? base::ErrorCode::kInvalidArgument : broken_;
  if (early != base::ErrorCode::kOk) {
    if (wake) {
      co_await os::FutexWake(env, *wake.Take());
    }
    co_return early;
  }
  std::vector<uint64_t> descs(std::min<uint32_t>(max_n, cfg_.slots));
  auto popped = co_await rx_[r].desc->PopN(env, std::span(descs), deadline, std::move(wake));
  if (!popped.ok()) {
    co_return broken_ != base::ErrorCode::kOk ? broken_ : popped.code();
  }
  descs.resize(popped.value());
  // One accounting charge covers every capability load of the batch.
  sim::Duration cost;
  std::vector<Msg> out;
  std::vector<codoms::Capability> caps;
  std::vector<uint64_t> corrupted;  // slots whose stored capability is gone
  out.reserve(descs.size());
  caps.reserve(descs.size());
  for (uint64_t desc : descs) {
    uint32_t index = DescIndex(desc);
    uint64_t len = DescLen(desc);
    sim::Duration load_cost;
    auto cap = k.codoms().CapLoad(env.self->process().page_table(), env.self->cap_ctx(),
                                  CapSlotVa(r, index), &load_cost);
    cost += load_cost;
    if (!cap.ok()) {
      // A plain write destroyed the stored capability (unforgeability,
      // §4.2). Dropping the whole batch here would forfeit the healthy
      // messages AND leak every popped slot; instead the corrupted delivery
      // is recycled below and the rest are delivered.
      corrupted.push_back(index);
      continue;
    }
    caps.push_back(cap.value());
    out.push_back(Msg{buf_va(index), len, index, tctx_[index]});
  }
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kRecvBatch, obs_id_, out.size(),
                      k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    // Torn down during the Spend, which already revoked the loaded
    // capabilities; handing the dead grants to the consumer would make its
    // payload reads fault instead of surfacing the crash.
    co_return broken_;
  }
  if (!corrupted.empty()) {
    // Recycle the corrupted deliveries: revoke the read grant recorded at
    // send (nobody can ever load it again) and undo the delivery's credit.
    std::vector<uint64_t> freed;
    for (uint64_t index : corrupted) {
      DropDelivery(r, static_cast<uint32_t>(index), &freed);
    }
    AddCredits(rx_[r], static_cast<int64_t>(corrupted.size()));
    if (!freed.empty()) {
      (void)co_await free_->PushN(env, std::span(freed));
      if (broken_ != base::ErrorCode::kOk) {
        co_return broken_;
      }
    }
    if (credit_waiters_.Publish(env)) {
      co_await os::FutexWake(env, credit_waiters_);
    }
  }
  if (out.empty()) {
    co_return base::ErrorCode::kFault;  // every descriptor was corrupted
  }
  env.self->cap_ctx().regs.Set(kReceiverCapReg, caps.front());
  recvs_ += out.size();
  m_recvs_->Add(out.size());
  m_recv_batch_->Record(static_cast<double>(out.size()));
  co_return out;
}

sim::Task<base::Status> Plane::Release(os::Env env, uint32_t r, const Msg& msg) {
  co_return co_await ReleaseBatch(env, r, std::span(&msg, 1));
}

sim::Task<base::Status> Plane::ReleaseBatch(os::Env env, uint32_t r, std::span<const Msg> msgs) {
  os::Kernel& k = *env.kernel;
  const hw::CostModel& cm = k.costs();
  if (r >= receiver_count() ||
      !DistinctSlots(msgs, cfg_.slots, [](const Msg& m) { return m.index; })) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    // Teardown already revoked the in-flight capabilities; a crash must
    // surface as the broken code, not as a caller bug.
    co_return broken_;
  }
  Endpoint& rx = rx_[r];
  if (!rx.alive) {
    // This receiver's own process died; its excision already revoked its
    // grants and recycled its slots.
    co_return base::ErrorCode::kCalleeFailed;
  }
  for (const Msg& msg : msgs) {
    if (!rx.held[msg.index].has_value()) {
      co_return base::ErrorCode::kInvalidArgument;
    }
  }
  sim::Duration cost = cm.chan_fast_path;
  std::vector<uint64_t> freed;
  freed.reserve(msgs.size());
  for (const Msg& msg : msgs) {
    ClearRegIfHolds(*env.self, kReceiverCapReg, *rx.held[msg.index]);
    DropDelivery(r, msg.index, &freed);
    cost += cm.cap_revoke;
  }
  AddCredits(rx, static_cast<int64_t>(msgs.size()));  // the credit returns with the release
  const uint64_t kept = KeepOnCpu(env, std::span(freed), &cost);
  m_releases_->Add(msgs.size());
  m_revokes_->Add(msgs.size());
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kReleaseBatch, obs_id_, msgs.size(),
                      k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  if (freed.size() > kept) {
    auto pushed = co_await free_->PushN(env, std::span(freed).subspan(kept));
    // After an orderly Close the free list is retired; the revocations above
    // are all that matters. Only dead-peer errors surface.
    if (!pushed.ok() && broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
  }
  // Returned credit may unblock a waiting producer: it ends every spin and
  // wakes one parked producer (wake-suppressed). Only now, with the freed
  // slots back, or the producer would find none free.
  if (credit_waiters_.Publish(env)) {
    fault::Decision d = rx_group_ ? DIPC_FAULT_POINT(kCreditGrant, env.self->last_cpu())
                                  : DIPC_FAULT_POINT(kFanInCreditGrant, env.self->last_cpu());
    if (d.drop_wake()) {
      // Injected lost credit wake: the credits are back (bookkeeping above
      // is done) but no parked producer hears it — deadline-armed waiters
      // recover, never-deadline waiters rely on the next release.
      co_return base::Status::Ok();
    }
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(*env.self, d.delay, TimeCat::kUser);
    }
    co_await os::FutexWake(env, credit_waiters_);
  }
  co_return base::Status::Ok();
}

sim::Task<base::Status> Plane::Abandon(os::Env env, uint32_t p, const SendBuf& buf) {
  co_return co_await AbandonBatch(env, p, std::span(&buf, 1));
}

sim::Task<base::Status> Plane::AbandonBatch(os::Env env, uint32_t p,
                                            std::span<const SendBuf> bufs) {
  os::Kernel& k = *env.kernel;
  const hw::CostModel& cm = k.costs();
  if (p >= producer_count() ||
      !DistinctSlots(bufs, cfg_.slots, [](const SendBuf& b) { return b.index; })) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  Endpoint& tx = tx_[p];
  const uint64_t gen = tx.owner;
  for (const SendBuf& b : bufs) {
    if (!wcaps_[b.index].has_value() || slot_owner_[b.index] != p ||
        slot_gen_[b.index] != gen) {
      co_return broken_ != base::ErrorCode::kOk ? broken_ : base::ErrorCode::kInvalidArgument;
    }
  }
  sim::Duration cost = cm.chan_fast_path;
  std::vector<uint64_t> indices;
  indices.reserve(bufs.size());
  for (const SendBuf& b : bufs) {
    ClearRegIfHolds(*env.self, kSenderCapReg, *wcaps_[b.index]);
    DIPC_CHECK(k.codoms().CapRevoke(*wcaps_[b.index]).ok());
    cost += cm.cap_revoke;
    wcaps_[b.index].reset();
    indices.push_back(b.index);
  }
  m_revokes_->Add(bufs.size());
  const uint64_t kept = KeepOnCpu(env, std::span(indices), &cost);
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;  // dead-peer teardown already retired the pool
  }
  if (tx.alive && tx.owner == gen) {
    AddCredits(tx, static_cast<int64_t>(indices.size()));
  }
  if (indices.size() > kept) {
    auto pushed = co_await free_->PushN(env, std::span(indices).subspan(kept));
    if (!pushed.ok()) {
      // After an orderly Close the free list is retired; the revocations
      // above are all that matters. Only dead-peer errors surface.
      co_return broken_ != base::ErrorCode::kOk ? base::Status(broken_) : base::Status::Ok();
    }
  }
  if (credit_waiters_.Publish(env) && tx.line != 0) {
    co_await os::FutexWake(env, credit_waiters_);
  }
  co_return base::Status::Ok();
}

void Plane::DropDelivery(uint32_t r, uint32_t index, std::vector<uint64_t>* freed) {
  std::optional<codoms::Capability>& cap = rx_[r].held[index];
  if (!cap.has_value()) {
    return;
  }
  DIPC_CHECK(kernel_.codoms().CapRevoke(*cap).ok());
  cap.reset();
  DIPC_CHECK(pending_[index] > 0);
  --pending_[index];
  if (pending_[index] > 0 || wcaps_[index].has_value()) {
    // Another receiver still holds the slot, or the producer is mid-send
    // (between its plan and its post-Spend ownership handoff): the slot is
    // still the producer's, and the send either retains or recycles it.
    return;
  }
  Endpoint& tx = tx_[slot_owner_[index]];
  if (tx.alive && tx.owner == slot_gen_[index]) {
    // The admission credit returns to the producer that paid it — unless
    // that incarnation died (or was rebound, which restored a full line).
    AddCredits(tx, 1);
  }
  freed->push_back(index);
}

void Plane::Close() {
  closed_ = true;
  ForEachQueue([](MpmcQueue& q) { q.Close(base::ErrorCode::kBrokenChannel); });
  credit_waiters_.WakeAll(kernel_);
}

void Plane::Abort(base::ErrorCode code) {
  if (broken_ == base::ErrorCode::kOk) {
    Break(code);
  }
}

uint64_t Plane::LiveGrantCount() const {
  const codoms::RevocationTable& rt = kernel_.codoms().revocations();
  auto live = [&rt](const std::vector<std::optional<codoms::Capability>>& caps) {
    return std::count_if(caps.begin(), caps.end(), [&rt](const auto& cap) {
      return cap.has_value() && rt.Epoch(cap->revocation_id) == cap->revocation_epoch;
    });
  };
  auto n = live(wcaps_);
  for (const Endpoint& e : rx_) {
    n += live(e.held);
  }
  return static_cast<uint64_t>(n);
}

void Plane::OnProcessDeath(os::Process& proc) {
  if (broken_ != base::ErrorCode::kOk) {
    return;
  }
  bool excised = false;
  for (bool tx : {true, false}) {
    std::vector<Endpoint>& side = tx ? tx_ : rx_;
    const bool group = tx ? tx_group_ : rx_group_;
    for (uint32_t i = 0; i < static_cast<uint32_t>(side.size()); ++i) {
      if (side[i].proc != &proc || !side[i].alive) {
        continue;
      }
      if (!group) {
        // A single side's death breaks the whole plane (there is nobody
        // left to send, or to deliver to).
        Break(base::ErrorCode::kCalleeFailed);
        return;
      }
      Excise(tx, i);
      excised = true;
    }
  }
  if (excised) {
    // A dead laggard no longer gates the producer, the dead incarnation's
    // parked threads must see kCalleeFailed, and if nobody is left, blocked
    // producers must wake to see it too.
    credit_waiters_.WakeAll(kernel_);
  }
}

void Plane::Break(base::ErrorCode code) {
  broken_ = code;
  // KCS-style unwind: revoke every in-flight ownership capability so no
  // stale grant survives the crash or the abort, bulk-revoke every
  // endpoint's counter set, then fail every queue — blocked peers wake and
  // surface the error code.
  // Cached templates need no sweep of their own: a template not recorded
  // in-flight is already epoch-stale, and broken_ gates every future rebind.
  uint64_t revoked = 0;
  auto sweep = [&](std::vector<std::optional<codoms::Capability>>& caps) {
    for (auto& cap : caps) {
      if (cap.has_value()) {
        DIPC_CHECK(kernel_.codoms().CapRevoke(*cap).ok());
        cap.reset();
        ++revoked;
      }
    }
  };
  sweep(wcaps_);
  for (Endpoint& e : rx_) {
    sweep(e.held);
  }
  for (auto* side : {&tx_, &rx_}) {
    for (Endpoint& e : *side) {
      kernel_.codoms().revocations().RevokeAllForOwner(e.owner);
    }
  }
  m_revokes_->Add(revoked);
  obs::Trace().Record(0, obs::EventType::kCapRevoke, obs_id_, revoked, kernel_.now());
  ForEachQueue([code](MpmcQueue& q) { q.Fail(code); });
  credit_waiters_.WakeAll(kernel_);
}

void Plane::Excise(bool tx, uint32_t idx) {
  Endpoint& e = (tx ? tx_ : rx_)[idx];
  e.alive = false;
  std::vector<uint64_t> freed;
  if (tx) {
    // A dead producer's acquired (or mid-send) slots were never published:
    // revoke the write grant and any planned read grant, recycle the slot.
    // Its published messages stay — the payload is immutable and receiver-
    // owned by then, and late releases refund nobody.
    for (uint32_t i = 0; i < cfg_.slots; ++i) {
      if (slot_owner_[i] != idx || slot_gen_[i] != e.owner || !wcaps_[i].has_value()) {
        continue;
      }
      DIPC_CHECK(kernel_.codoms().CapRevoke(*wcaps_[i]).ok());
      wcaps_[i].reset();
      for (Endpoint& rx : rx_) {
        if (rx.held[i].has_value()) {
          DIPC_CHECK(kernel_.codoms().CapRevoke(*rx.held[i]).ok());
          rx.held[i].reset();
          AddCredits(rx, 1);
        }
      }
      pending_[i] = 0;
      freed.push_back(i);
    }
  } else {
    // A dead receiver loses its pending share of every slot (recycling the
    // ones it held last) and its FIFO fails, so its blocked threads wake
    // with the crash code. Everybody else keeps flowing.
    for (uint32_t i = 0; i < cfg_.slots; ++i) {
      DropDelivery(idx, i, &freed);
    }
  }
  kernel_.codoms().revocations().RevokeAllForOwner(e.owner);
  if (!tx) {
    e.desc->Fail(base::ErrorCode::kCalleeFailed);
  }
  for (uint64_t i : freed) {
    free_->PushNoEnv(i);
  }
}

base::Status Plane::RebindReceiver(uint32_t r, os::Process& proc) { return Rebind(false, r, proc); }

base::Status Plane::RebindProducer(uint32_t p, os::Process& proc) { return Rebind(true, p, proc); }

base::Status Plane::Rebind(bool tx, uint32_t idx, os::Process& proc) {
  std::vector<Endpoint>& side = tx ? tx_ : rx_;
  if (idx >= side.size() || !(tx ? tx_group_ : rx_group_) || !proc.dipc_enabled()) {
    return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    return broken_;
  }
  if (closed_) {
    return base::ErrorCode::kBrokenChannel;
  }
  Endpoint& e = side[idx];
  if (e.alive) {
    // Only an endpoint OnProcessDeath already swept may be rebound: the
    // sweep is what guarantees no grant of the old incarnation survives.
    return base::ErrorCode::kInvalidArgument;
  }
  codoms::AplTable& apl = kernel_.codoms().apl_table();
  apl.Grant(proc.default_domain(), ctrl_tag_, codoms::Perm::kWrite);
  apl.Grant(proc.default_domain(), rt_tag_, codoms::Perm::kCall);
  e.proc = &proc;
  // Fresh owner key: the dead incarnation's counters stay bulk-revoked under
  // the old key, and late releases of its messages match the old generation.
  e.owner = NextOwnerKey();
  for (auto& tmpl : e.tmpl) {
    // Every template points at a revoked counter; the next grant re-mints
    // cold and re-tags it with the new owner key.
    tmpl.reset();
  }
  if (!tx) {
    // Swap in a fresh descriptor FIFO. The failed one is retired, not
    // destroyed: a thread that parked in it before the death may not have
    // resumed yet, so freeing it here would be use-after-free.
    auto fresh = NewDescQueue(idx);
    retired_desc_.push_back(std::move(e.desc));
    e.desc = std::move(fresh);
  }
  AddCredits(e, static_cast<int64_t>(e.line - e.credits));
  e.alive = true;
  credit_waiters_.WakeAll(kernel_);
  return base::Status::Ok();
}

}  // namespace dipc::chan
