// CODOMs access permissions (§4.1).
//
// An APL entry grants the source domain one of three ordered permissions on
// the target domain: Call < Read < Write. dIPC adds a software-only "owner"
// permission on top (§5.2), which lives in dipc/, not here.
#ifndef DIPC_CODOMS_PERM_H_
#define DIPC_CODOMS_PERM_H_

#include <cstdint>

#include "hw/types.h"

namespace dipc::codoms {

enum class Perm : uint8_t {
  kNone = 0,
  // Call into public entry points (addresses aligned to kEntryAlign).
  kCall = 1,
  // Read data; also call/jump to arbitrary addresses.
  kRead = 2,
  // Read plus write (per-page protection bits still honored).
  kWrite = 3,
};

constexpr bool AtLeast(Perm have, Perm want) {
  return static_cast<uint8_t>(have) >= static_cast<uint8_t>(want);
}

constexpr Perm Weaker(Perm a, Perm b) { return AtLeast(a, b) ? b : a; }

// System-configurable entry point alignment (§4.1): calls through a Call
// grant must target addresses aligned to this value.
inline constexpr uint64_t kEntryAlign = 64;

constexpr bool IsEntryAligned(hw::VirtAddr va) { return (va % kEntryAlign) == 0; }

}  // namespace dipc::codoms

#endif  // DIPC_CODOMS_PERM_H_
