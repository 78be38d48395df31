// Page tables with the CODOMs extensions.
//
// CODOMs extends each PTE with (§4):
//   - a per-page domain tag, associating the page with a protection domain;
//   - a privileged-capability bit, marking code pages allowed to execute
//     privileged instructions (eliminating syscall-based privilege switches);
//   - a capability-storage bit, marking pages where capabilities may be
//     stored/loaded with integrity guaranteed by the hardware.
#ifndef DIPC_HW_PAGE_TABLE_H_
#define DIPC_HW_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "base/result.h"
#include "hw/types.h"

namespace dipc::hw {

struct PageFlags {
  bool writable = false;
  bool executable = false;
  bool user = true;
  // CODOMs extensions.
  bool priv_cap = false;     // may execute privileged instructions
  bool cap_storage = false;  // may hold capabilities in memory
};

struct Pte {
  uint64_t frame = 0;
  PageFlags flags;
  DomainTag tag = kInvalidDomainTag;
};

// A (single-level, hash-map-backed) page table. An AddressSpaceId stands in
// for the CR3 value; dIPC-enabled processes share one page table (§6.1.3).
// Lookups go through a small direct-mapped cache of PTE pointers (host speed
// only): hash-map nodes never move, UnmapPage drops the page's entry, and a
// re-tag writes the PTE the cache points at. Like PhysMem's lazy frames, the
// cache is filled by const lookups, so a table is used from one host thread
// at a time (as its simulated machine is).
class PageTable {
 public:
  using Id = uint64_t;

  explicit PageTable(Id id) : id_(id) {}
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  Id id() const { return id_; }

  // Maps one page. Fails if already mapped.
  base::Status MapPage(VirtAddr va, uint64_t frame, PageFlags flags, DomainTag tag) {
    auto [it, inserted] = ptes_.emplace(PageNumber(va), Pte{frame, flags, tag});
    (void)it;
    return inserted ? base::Status::Ok() : base::ErrorCode::kAlreadyExists;
  }

  base::Status UnmapPage(VirtAddr va) {
    CacheFor(PageNumber(va)) = CachedPte{};
    return ptes_.erase(PageNumber(va)) == 1 ? base::Status::Ok() : base::ErrorCode::kNotFound;
  }

  const Pte* Lookup(VirtAddr va) const {
    CachedPte& c = CacheFor(PageNumber(va));
    if (c.pte == nullptr || c.page != PageNumber(va)) {
      auto it = ptes_.find(PageNumber(va));
      if (it == ptes_.end()) {
        return nullptr;
      }
      c = CachedPte{PageNumber(va), &it->second};
    }
    return c.pte;
  }

  // Off the per-access path (re-tags, tests): looks in the map.
  Pte* LookupMut(VirtAddr va) {
    auto it = ptes_.find(PageNumber(va));
    return it == ptes_.end() ? nullptr : &it->second;
  }

  // Re-tags one page (dom_remap; §5.2.2 moves pages between domains).
  base::Status SetTag(VirtAddr va, DomainTag tag) {
    Pte* pte = LookupMut(va);
    if (pte == nullptr) {
      return base::ErrorCode::kNotFound;
    }
    pte->tag = tag;
    return base::Status::Ok();
  }

  // Translates a virtual address; nullopt if unmapped.
  std::optional<PhysAddr> Translate(VirtAddr va) const {
    const Pte* pte = Lookup(va);
    if (pte == nullptr) {
      return std::nullopt;
    }
    return (pte->frame << kPageShift) | PageOffset(va);
  }

  uint64_t mapped_pages() const { return ptes_.size(); }

  // Iteration, in no fixed order (fork copies every mapping).
  auto begin() const { return ptes_.begin(); }
  auto end() const { return ptes_.end(); }

 private:
  struct CachedPte {
    uint64_t page = 0;
    const Pte* pte = nullptr;  // null: empty entry
  };
  // Fibonacci hashing: mappings start at aligned bases (1 GB dIPC blocks),
  // so the page number's low bits alone would collide.
  CachedPte& CacheFor(uint64_t page) const {
    return cache_[(page * 0x9E3779B97F4A7C15ull) >> 58];
  }

  Id id_;
  std::unordered_map<uint64_t, Pte> ptes_;  // page number -> PTE
  mutable std::array<CachedPte, 64> cache_{};
};

}  // namespace dipc::hw

#endif  // DIPC_HW_PAGE_TABLE_H_
