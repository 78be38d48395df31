// Access Protection Lists (§4.1).
//
// Every domain tag T has an APL: the list of tags in the same address space
// that code pages tagged T can access, with a permission each. The APL table
// is privileged software-managed state; the per-hardware-thread APL cache
// (apl_cache.h) makes lookups fast.
#ifndef DIPC_CODOMS_APL_H_
#define DIPC_CODOMS_APL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "codoms/perm.h"
#include "hw/types.h"

namespace dipc::codoms {

using hw::DomainTag;

// One domain's access list. A domain always has implicit Write access to its
// own tag (its private code/data), subject to per-page protection bits.
// Grants are a flat list: lists are short, and the APL cache copies one on
// every refill.
class Apl {
 public:
  Perm PermFor(DomainTag target) const {
    auto it = std::find_if(grants_.begin(), grants_.end(),
                           [target](const auto& g) { return g.first == target; });
    return it == grants_.end() ? Perm::kNone : it->second;
  }

  void Set(DomainTag target, Perm perm) {
    std::erase_if(grants_, [target](const auto& g) { return g.first == target; });
    if (perm != Perm::kNone) {
      grants_.emplace_back(target, perm);
    }
  }

  uint64_t version() const { return version_; }
  void BumpVersion() { ++version_; }

 private:
  std::vector<std::pair<DomainTag, Perm>> grants_;
  uint64_t version_ = 0;  // incremented on every change; invalidates caches
};

// All domains' APLs plus tag allocation. This stands in for the privileged
// in-memory protection structures the OS kernel maintains. Tags come from
// AllocateTag's counter, so the table indexes its APLs by tag.
class AplTable {
 public:
  DomainTag AllocateTag() { return next_tag_++; }

  Apl& For(DomainTag tag) {
    if (tag >= apls_.size()) {
      apls_.resize(tag + 1);
    }
    if (apls_[tag] == nullptr) {
      apls_[tag] = std::make_unique<Apl>();
    }
    return *apls_[tag];
  }

  const Apl* Find(DomainTag tag) const { return tag < apls_.size() ? apls_[tag].get() : nullptr; }

  // Sets src's permission over dst and bumps src's APL version so stale APL
  // cache entries get refreshed.
  void Grant(DomainTag src, DomainTag dst, Perm perm) {
    Apl& apl = For(src);
    apl.Set(dst, perm);
    apl.BumpVersion();
  }

  void Revoke(DomainTag src, DomainTag dst) { Grant(src, dst, Perm::kNone); }

 private:
  std::vector<std::unique_ptr<Apl>> apls_;  // by tag; null: no APL
  DomainTag next_tag_ = 1;  // tag 0 is kInvalidDomainTag
};

}  // namespace dipc::codoms

#endif  // DIPC_CODOMS_APL_H_
