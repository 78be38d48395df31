#include "codoms/codoms.h"

#include <algorithm>
#include <string>

#include "base/check.h"
#include "fault/fault.h"

namespace dipc::codoms {

Codoms::Codoms(hw::Machine& machine) : machine_(machine) {
  apl_caches_.reserve(machine.num_cpus());
  for (uint32_t i = 0; i < machine.num_cpus(); ++i) {
    apl_caches_.push_back(std::make_unique<AplCache>());
  }
  m_mints_ = metrics_.GetCounter("codoms/mints");
  m_rebinds_ = metrics_.GetCounter("codoms/rebinds");
  m_revokes_ = metrics_.GetCounter("codoms/revokes");
}

Codoms::CacheRef Codoms::EnsureCached(hw::CpuId cpu, DomainTag tag) {
  AplCache& cache = *apl_caches_[cpu];
  const hw::CostModel& costs = machine_.costs();
  if (auto hw_tag = cache.Lookup(tag); hw_tag.has_value() && !cache.IsStale(*hw_tag, apl_table_)) {
    cache.TouchLru(*hw_tag);
    cache.CountHit();
    return CacheRef{*hw_tag, costs.apl_cache_lookup, /*missed=*/false};
  }
  // Miss: exception into the kernel, software refill (§7.5).
  cache.CountMiss();
  HwDomainTag hw_tag = cache.Fill(tag, apl_table_);
  return CacheRef{hw_tag, costs.apl_cache_miss, /*missed=*/true};
}

base::Result<HwDomainTag> Codoms::ReadHwTag(hw::CpuId cpu, DomainTag tag, sim::Duration* cost) {
  *cost = machine_.costs().hw_tag_lookup;
  auto hw_tag = apl_caches_[cpu]->HwTagOf(tag);
  if (!hw_tag.has_value()) {
    return base::ErrorCode::kNotFound;
  }
  return *hw_tag;
}

Perm Codoms::EffectivePerm(hw::CpuId cpu, DomainTag current, DomainTag page_tag,
                           sim::Duration* cost) {
  if (page_tag == current) {
    // A domain implicitly has write access to its own pages (§4.1); the
    // check is against the page tag, in parallel with the TLB lookup.
    return Perm::kWrite;
  }
  CacheRef ref = EnsureCached(cpu, current);
  *cost += ref.cost;
  return apl_caches_[cpu]->entry(ref.hw_tag).apl.PermFor(page_tag);
}

base::Result<sim::Duration> Codoms::CheckDataAccess(hw::CpuId cpu, const hw::PageTable& pt,
                                                    ThreadCapContext& ctx, hw::VirtAddr va,
                                                    uint64_t len, hw::AccessType type) {
  DIPC_CHECK(type != hw::AccessType::kExecute);
  if (len == 0) {
    return sim::Duration::Zero();
  }
  Perm want = type == hw::AccessType::kWrite ? Perm::kWrite : Perm::kRead;
  sim::Duration cost;
  hw::VirtAddr end = va + len - 1;
  for (hw::VirtAddr page = hw::PageBase(va); page <= end; page += hw::kPageSize) {
    const hw::Pte* pte = pt.Lookup(page);
    if (pte == nullptr) {
      return base::ErrorCode::kFault;
    }
    // Per-page protection bits are honored regardless of domain grants.
    if (type == hw::AccessType::kWrite && !pte->flags.writable) {
      return base::ErrorCode::kFault;
    }
    if (AtLeast(EffectivePerm(cpu, ctx.current_domain, pte->tag, &cost), want)) {
      continue;
    }
    // Fall back to the 8 capability registers (checked in parallel on real
    // hardware; no extra architectural cost).
    hw::VirtAddr chunk_start = page > va ? page : va;
    hw::VirtAddr chunk_end = std::min<hw::VirtAddr>(page + hw::kPageSize - 1, end);
    const Capability* cap = ctx.regs.FindCovering(chunk_start, chunk_end - chunk_start + 1, want,
                                                  ctx.thread_id, ctx.call_depth, revocations_);
    if (cap == nullptr) {
      return base::ErrorCode::kFault;
    }
  }
  return cost;
}

base::Result<sim::Duration> Codoms::ControlTransfer(hw::CpuId cpu, const hw::PageTable& pt,
                                                    ThreadCapContext& ctx, hw::VirtAddr target) {
  const hw::Pte* pte = pt.Lookup(target);
  if (pte == nullptr || !pte->flags.executable) {
    return base::ErrorCode::kFault;
  }
  sim::Duration cost = machine_.costs().domain_switch;
  DomainTag dest = pte->tag;
  if (dest == ctx.current_domain) {
    return cost;  // intra-domain jump: plain call
  }
  Perm perm = EffectivePerm(cpu, ctx.current_domain, dest, &cost);
  bool allowed = false;
  if (AtLeast(perm, Perm::kRead)) {
    allowed = true;  // read grants arbitrary call/jump (§4.1)
  } else if (perm == Perm::kCall && IsEntryAligned(target)) {
    allowed = true;  // call grants entry-point-aligned targets only
  } else {
    // Capabilities can authorize control transfers too (the proxy return
    // path relies on this, §5.2.3 P3).
    const Capability* cap = ctx.regs.FindCovering(target, 1, Perm::kCall, ctx.thread_id,
                                                  ctx.call_depth, revocations_);
    if (cap != nullptr &&
        (AtLeast(cap->rights, Perm::kRead) || IsEntryAligned(target))) {
      allowed = true;
    }
  }
  if (!allowed) {
    return base::ErrorCode::kFault;
  }
  // Implicit domain switch: the instruction pointer now originates from
  // `dest`, so subsequent checks use dest's APL. Make sure its APL is cached
  // (cost accounts for a possible miss on first entry).
  CacheRef ref = EnsureCached(cpu, dest);
  cost += ref.cost;
  ctx.current_domain = dest;
  return cost;
}

bool Codoms::CanExecutePrivileged(const hw::PageTable& pt, hw::VirtAddr ip) const {
  const hw::Pte* pte = pt.Lookup(ip);
  return pte != nullptr && pte->flags.executable && pte->flags.priv_cap;
}

base::Result<Capability> Codoms::CapFromApl(hw::CpuId cpu, const hw::PageTable& pt,
                                            ThreadCapContext& ctx, hw::VirtAddr base,
                                            uint64_t size, Perm rights, CapType type,
                                            sim::Duration* cost) {
  *cost = machine_.costs().cap_setup;
  {
    // Models an exhausted revocation table / failed privileged mint; callers
    // already carry an undo path for a denied grant, so kFault exercises it.
    fault::Decision d = DIPC_FAULT_POINT(kCapMint, cpu);
    if (d.fail()) {
      return base::ErrorCode::kFault;
    }
    *cost += d.delay;
  }
  if (size == 0 || rights == Perm::kNone) {
    return base::ErrorCode::kInvalidArgument;
  }
  // The creating domain must itself hold `rights` over the whole range.
  hw::VirtAddr end = base + size - 1;
  for (hw::VirtAddr page = hw::PageBase(base); page <= end; page += hw::kPageSize) {
    const hw::Pte* pte = pt.Lookup(page);
    if (pte == nullptr) {
      return base::ErrorCode::kFault;
    }
    if (rights == Perm::kWrite && !pte->flags.writable) {
      return base::ErrorCode::kPermissionDenied;
    }
    if (!AtLeast(EffectivePerm(cpu, ctx.current_domain, pte->tag, cost), rights)) {
      return base::ErrorCode::kPermissionDenied;
    }
  }
  Capability cap;
  cap.base = base;
  cap.size = size;
  cap.rights = rights;
  cap.type = type;
  if (type == CapType::kSync) {
    cap.owner_thread = ctx.thread_id;
    cap.create_depth = ctx.call_depth;
  } else {
    cap.revocation_id = revocations_.Allocate(ctx.current_domain);
    cap.revocation_epoch = revocations_.Epoch(cap.revocation_id);
  }
  ++mints_;
  m_mints_->Add();
  // Attribute the mint to the minting domain (the runtime domain for
  // channels, a proxy domain for dIPC calls). Its counter registers on the
  // domain's first mint.
  if (ctx.current_domain >= m_caps_minted_.size()) {
    m_caps_minted_.resize(ctx.current_domain + 1, nullptr);
  }
  obs::Counter*& minted = m_caps_minted_[ctx.current_domain];
  if (minted == nullptr) {
    minted = metrics_.GetCounter("domain/" + std::to_string(ctx.current_domain) + "/caps_minted");
  }
  minted->Add();
  return cap;
}

base::Result<Capability> Codoms::CapDerive(const Capability& parent, ThreadCapContext& ctx,
                                           hw::VirtAddr base, uint64_t size, Perm rights,
                                           CapType type, sim::Duration* cost) {
  *cost = machine_.costs().cap_setup;
  if (!parent.ValidFor(ctx.thread_id, ctx.call_depth, revocations_)) {
    return base::ErrorCode::kFault;  // deriving from a dead capability
  }
  Capability child;
  child.base = base;
  child.size = size;
  child.rights = rights;
  child.type = type;
  if (!parent.CanDerive(child)) {
    return base::ErrorCode::kPermissionDenied;  // widening is impossible
  }
  if (type == CapType::kSync) {
    child.owner_thread = ctx.thread_id;
    child.create_depth = ctx.call_depth;
  } else {
    // Async children share the parent's revocation counter when the parent is
    // async (revoking the parent kills the tree); otherwise get a fresh one.
    if (parent.type == CapType::kAsync) {
      child.revocation_id = parent.revocation_id;
      child.revocation_epoch = parent.revocation_epoch;
    } else {
      child.revocation_id = revocations_.Allocate(ctx.current_domain);
      child.revocation_epoch = revocations_.Epoch(child.revocation_id);
    }
  }
  return child;
}

base::Status Codoms::CapRevoke(const Capability& cap) {
  if (cap.type != CapType::kAsync) {
    return base::ErrorCode::kInvalidArgument;  // sync caps die with their frame
  }
  revocations_.Revoke(cap.revocation_id);
  m_revokes_->Add();
  return base::Status::Ok();
}

base::Result<Capability> Codoms::CapRebind(const Capability& cap, const ThreadCapContext& ctx,
                                           sim::Duration* cost) {
  *cost = machine_.costs().cap_epoch_rebind;
  {
    fault::Decision d = DIPC_FAULT_POINT(kCapRebind);
    if (d.fail()) {
      return base::ErrorCode::kFault;
    }
    *cost += d.delay;
  }
  if (cap.type != CapType::kAsync) {
    return base::ErrorCode::kInvalidArgument;  // sync caps have no counter
  }
  if (revocations_.Creator(cap.revocation_id) != ctx.current_domain ||
      ctx.current_domain == hw::kInvalidDomainTag) {
    // Re-snapshotting from any other domain would resurrect revoked grants;
    // outsiders must go through CapFromApl/CapDerive and prove rights.
    return base::ErrorCode::kPermissionDenied;
  }
  Capability fresh = cap;
  fresh.revocation_epoch = revocations_.Epoch(cap.revocation_id);
  revocations_.ReGrant(cap.revocation_id);  // the counter is granted again
  m_rebinds_->Add();
  return fresh;
}

base::Status Codoms::CapStore(const hw::PageTable& pt, ThreadCapContext& ctx, hw::VirtAddr va,
                              const Capability& cap, sim::Duration* cost) {
  *cost = machine_.costs().cap_memory_op;
  {
    fault::Decision d = DIPC_FAULT_POINT(kCapStore);
    if (d.fail()) {
      return base::ErrorCode::kFault;
    }
    *cost += d.delay;
  }
  if (va % kCapMemBytes != 0) {
    return base::ErrorCode::kInvalidArgument;
  }
  const hw::Pte* pte = pt.Lookup(va);
  if (pte == nullptr || !pte->flags.cap_storage || !pte->flags.writable) {
    return base::ErrorCode::kFault;
  }
  if (!cap.ValidFor(ctx.thread_id, ctx.call_depth, revocations_)) {
    return base::ErrorCode::kFault;
  }
  // Sync capabilities cannot be laundered through memory into other threads:
  // storing is allowed, but ValidFor still binds them to the owner.
  auto pa = pt.Translate(va);
  DIPC_CHECK(pa.has_value());
  if (stored_caps_.insert_or_assign(*pa, cap).second) {
    const uint64_t frame = *pa >> hw::kPageShift;
    caps_per_frame_.resize(std::max<uint64_t>(caps_per_frame_.size(), frame + 1));
    ++caps_per_frame_[frame];
  }
  return base::Status::Ok();
}

base::Result<Capability> Codoms::CapLoad(const hw::PageTable& pt, ThreadCapContext& ctx,
                                         hw::VirtAddr va, sim::Duration* cost) {
  *cost = machine_.costs().cap_memory_op;
  (void)ctx;
  if (va % kCapMemBytes != 0) {
    return base::ErrorCode::kInvalidArgument;
  }
  const hw::Pte* pte = pt.Lookup(va);
  if (pte == nullptr || !pte->flags.cap_storage) {
    return base::ErrorCode::kFault;
  }
  auto pa = pt.Translate(va);
  DIPC_CHECK(pa.has_value());
  auto it = stored_caps_.find(*pa);
  if (it == stored_caps_.end()) {
    return base::ErrorCode::kFault;  // no (valid) capability at this slot
  }
  return it->second;
}

void Codoms::NotifyPlainWrite(hw::PhysAddr pa, uint64_t len) {
  if (stored_caps_.empty() || len == 0) {
    return;
  }
  // Any plain write overlapping a stored capability destroys it. Stored
  // capabilities are counted per frame, so the write skips every frame
  // that holds none left.
  hw::PhysAddr last = pa + len - 1;
  hw::PhysAddr slot = (pa / kCapMemBytes) * kCapMemBytes;
  while (slot <= last) {
    const hw::PhysAddr next_frame = hw::PageBase(slot) + hw::kPageSize;
    const uint64_t frame = slot >> hw::kPageShift;
    uint32_t* in_frame = frame < caps_per_frame_.size() ? &caps_per_frame_[frame] : nullptr;
    for (; in_frame != nullptr && *in_frame != 0 && slot <= last && slot < next_frame;
         slot += kCapMemBytes) {
      *in_frame -= static_cast<uint32_t>(stored_caps_.erase(slot));
    }
    slot = next_frame;
  }
}

}  // namespace dipc::codoms
