// The CODOMs protection engine (§4).
//
// Ties together page-table tags, APLs, the per-CPU APL caches, and per-thread
// capability state, and implements the architectural checks:
//   - code-centric data access checks (the *instruction pointer's domain* is
//     the subject of access control, not the process);
//   - control-transfer checks (call/jump across domains switches the
//     effective domain implicitly, at negligible cost);
//   - capability creation/derivation/spill with unforgeability;
//   - the privileged-capability page bit (privileged code without syscalls);
//   - the dIPC extension: retrieving a cached domain's 5-bit hardware tag.
//
// Every operation returns the architectural cost for the caller to charge to
// the running thread; checks themselves run in parallel with TLB/cache
// lookups on real CODOMs and thus cost ~nothing on hits.
#ifndef DIPC_CODOMS_CODOMS_H_
#define DIPC_CODOMS_CODOMS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "codoms/apl.h"
#include "codoms/apl_cache.h"
#include "codoms/cap_context.h"
#include "codoms/capability.h"
#include "codoms/perm.h"
#include "hw/machine.h"
#include "hw/page_table.h"
#include "hw/types.h"
#include "obs/metrics.h"

namespace dipc::codoms {

class Codoms {
 public:
  explicit Codoms(hw::Machine& machine);
  Codoms(const Codoms&) = delete;
  Codoms& operator=(const Codoms&) = delete;

  AplTable& apl_table() { return apl_table_; }
  RevocationTable& revocations() { return revocations_; }
  AplCache& apl_cache(hw::CpuId cpu) { return *apl_caches_[cpu]; }

  // --- APL cache management ---

  // Ensures `tag`'s APL snapshot is present and current in `cpu`'s cache.
  // Returns the hardware tag; `cost` includes the miss exception + refill
  // when one occurred.
  struct CacheRef {
    HwDomainTag hw_tag;
    sim::Duration cost;
    bool missed;
  };
  CacheRef EnsureCached(hw::CpuId cpu, DomainTag tag);

  // The §4.3 privileged instruction: 5-bit hardware tag of a cached domain.
  // Takes "less than a L1 cache hit".
  base::Result<HwDomainTag> ReadHwTag(hw::CpuId cpu, DomainTag tag, sim::Duration* cost);

  // --- Architectural checks ---

  // Data access from `ctx.current_domain` to [va, va+len). On success returns
  // the protection-check cost (TLB/cache costs are charged separately by the
  // memory system).
  base::Result<sim::Duration> CheckDataAccess(hw::CpuId cpu, const hw::PageTable& pt,
                                              ThreadCapContext& ctx, hw::VirtAddr va, uint64_t len,
                                              hw::AccessType type);

  // Control transfer (call/jump) to code address `target`. On success the
  // thread's current domain is switched to the target page's domain and the
  // (near-zero) cost is returned. Enforces entry-point alignment for
  // Call-permission transfers, both via APL and via capabilities.
  base::Result<sim::Duration> ControlTransfer(hw::CpuId cpu, const hw::PageTable& pt,
                                              ThreadCapContext& ctx, hw::VirtAddr target);

  // True if code at `ip` may execute privileged instructions (per-page
  // privileged-capability bit, §4.1).
  bool CanExecutePrivileged(const hw::PageTable& pt, hw::VirtAddr ip) const;

  // --- Capability instructions (unprivileged) ---

  // Creates a capability over [base, base+size) derived from the current
  // domain's access rights (own pages or APL grants). Fails if the domain
  // cannot access the whole range with `rights`.
  base::Result<Capability> CapFromApl(hw::CpuId cpu, const hw::PageTable& pt,
                                      ThreadCapContext& ctx, hw::VirtAddr base, uint64_t size,
                                      Perm rights, CapType type, sim::Duration* cost);

  // Derives a narrower/weaker capability from an existing one.
  base::Result<Capability> CapDerive(const Capability& parent, ThreadCapContext& ctx,
                                     hw::VirtAddr base, uint64_t size, Perm rights, CapType type,
                                     sim::Duration* cost);

  // Immediate revocation of an async capability tree (bumps its counter).
  base::Status CapRevoke(const Capability& cap);

  // Epoch rebind: re-snapshots a cached async capability against its
  // revocation counter's current value, making the cached grant live again
  // after a revocation rotated ownership away and back. Only the domain
  // that created the counter may rebind (the counter is its private state),
  // so revocation stays authoritative for every other holder. O(1): one
  // counter load, no APL traversal, no mint.
  base::Result<Capability> CapRebind(const Capability& cap, const ThreadCapContext& ctx,
                                     sim::Duration* cost);

  // Spills/loads a capability to/from memory. The page needs the
  // capability-storage bit; plain data writes to the slot destroy the
  // capability (unforgeability without full memory tagging, §4.2).
  base::Status CapStore(const hw::PageTable& pt, ThreadCapContext& ctx, hw::VirtAddr va,
                        const Capability& cap, sim::Duration* cost);
  base::Result<Capability> CapLoad(const hw::PageTable& pt, ThreadCapContext& ctx, hw::VirtAddr va,
                                   sim::Duration* cost);

  // Called by the memory system on every plain write so overlapping stored
  // capabilities are invalidated.
  void NotifyPlainWrite(hw::PhysAddr pa, uint64_t len);

  uint64_t stored_cap_count() const { return stored_caps_.size(); }
  // Full mints performed through CapFromApl; lets tests assert a warmed
  // epoch-cached hot path never mints.
  uint64_t mint_count() const { return mints_; }

 private:
  // Permission the current domain has over `page_tag`, consulting the APL
  // cache; accumulates cost into *cost.
  Perm EffectivePerm(hw::CpuId cpu, DomainTag current, DomainTag page_tag, sim::Duration* cost);

  hw::Machine& machine_;
  AplTable apl_table_;
  RevocationTable revocations_;
  std::vector<std::unique_ptr<AplCache>> apl_caches_;
  uint64_t mints_ = 0;
  // Global capability-churn counters, registered in the ctor ("codoms/...").
  obs::MetricSet metrics_;
  obs::Counter* m_mints_ = nullptr;
  obs::Counter* m_rebinds_ = nullptr;
  obs::Counter* m_revokes_ = nullptr;
  // Domain tag -> its "domain/<tag>/caps_minted" counter, where mints also
  // count for attribution; null until the domain's first mint.
  std::vector<obs::Counter*> m_caps_minted_;
  // Physical address (32 B aligned) -> stored capability.
  std::unordered_map<hw::PhysAddr, Capability> stored_caps_;
  // Frame -> how many of stored_caps_ lie in it (host speed: a plain write
  // to a frame holding none looks up nothing).
  std::vector<uint32_t> caps_per_frame_;
};

}  // namespace dipc::codoms

#endif  // DIPC_CODOMS_CODOMS_H_
