// Per-thread CODOMs state: capability registers and the domain capability
// stack (DCS) (§4.2, §5.2.1).
//
// This is thread context — the scheduler saves/restores it on context
// switches, and dIPC proxies manipulate the privileged DCS bounds when
// enforcing DCS integrity/confidentiality (§5.2.3).
#ifndef DIPC_CODOMS_CAP_CONTEXT_H_
#define DIPC_CODOMS_CAP_CONTEXT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/result.h"
#include "codoms/capability.h"

namespace dipc::codoms {

inline constexpr uint32_t kNumCapRegisters = 8;

// The 8 per-thread capability registers. Memory accesses are checked against
// all of them in parallel (no per-access cost; §4.2).
class CapRegisters {
 public:
  const std::optional<Capability>& reg(uint32_t i) const { return regs_[i]; }

  void Set(uint32_t i, Capability cap) { regs_[i] = cap; }
  void Clear(uint32_t i) { regs_[i].reset(); }

  // First capability register covering the access, if any.
  const Capability* FindCovering(hw::VirtAddr addr, uint64_t len, Perm want, uint64_t thread_id,
                                 uint32_t depth, const RevocationTable& rev) const {
    for (const auto& c : regs_) {
      if (c.has_value() && c->Covers(addr, len, want) && c->ValidFor(thread_id, depth, rev)) {
        return &*c;
      }
    }
    return nullptr;
  }

 private:
  std::array<std::optional<Capability>, kNumCapRegisters> regs_{};
};

// Domain capability stack: where threads spill capabilities. Bounded by two
// registers; unprivileged code moves the top via push/pop only, while the
// *base* is privileged — dIPC proxies raise it to hide the caller's entries
// (DCS integrity) and restore it on return (§5.2.3). Only pushed entries are
// stored (host memory: most threads never push), up to `capacity`.
class Dcs {
 public:
  explicit Dcs(uint32_t capacity = 1024) : capacity_(capacity) {}

  base::Status Push(const Capability& cap) {
    if (entries_.size() >= capacity_) {
      return base::ErrorCode::kResourceExhausted;
    }
    entries_.push_back(cap);
    return base::Status::Ok();
  }

  base::Result<Capability> Pop() {
    if (top() <= base_) {
      return base::ErrorCode::kPermissionDenied;  // cannot pop below the base
    }
    Capability cap = entries_.back();
    entries_.pop_back();
    return cap;
  }

  // Privileged: raise the base to `new_base` (<= top), hiding older entries.
  // Returns the previous base so the proxy can restore it.
  uint64_t SetBase(uint64_t new_base) {
    DIPC_CHECK(new_base <= top());
    uint64_t old = base_;
    base_ = new_base;
    return old;
  }
  // Privileged: restore a saved base (used by deisolate_pcall).
  void RestoreBase(uint64_t saved) { base_ = saved; }

  uint64_t base() const { return base_; }
  uint64_t top() const { return entries_.size(); }
  uint64_t visible_entries() const { return top() - base_; }

 private:
  std::vector<Capability> entries_;
  uint32_t capacity_;
  uint64_t base_ = 0;
};

// Everything CODOMs keeps per thread.
struct ThreadCapContext {
  explicit ThreadCapContext(uint64_t thread_id) : thread_id(thread_id) {}

  uint64_t thread_id;
  hw::DomainTag current_domain = hw::kInvalidDomainTag;
  uint32_t call_depth = 0;  // cross-domain call nesting; scopes sync caps
  CapRegisters regs;
  Dcs dcs;
};

}  // namespace dipc::codoms

#endif  // DIPC_CODOMS_CAP_CONTEXT_H_
