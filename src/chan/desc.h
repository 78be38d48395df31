// Internal helpers of the plane core (chan/plane.h) and its users: the
// descriptor wire format, the trace side-band word, owner keys and the
// capability-register hygiene rule.
#ifndef DIPC_CHAN_DESC_H_
#define DIPC_CHAN_DESC_H_

#include <cstdint>

#include "base/check.h"
#include "codoms/capability.h"
#include "obs/trace.h"
#include "os/kernel.h"

namespace dipc::chan::internal {

// Descriptors pack {buffer index, payload length} into one 8-byte queue
// slot. This is the wire format every plane publishes through its
// descriptor FIFOs — change it here or nowhere.
inline constexpr uint64_t kLenBits = 48;
inline constexpr uint64_t kLenMask = (uint64_t{1} << kLenBits) - 1;
inline constexpr uint64_t kMaxSlots = uint64_t{1} << (64 - kLenBits);

inline uint64_t PackDesc(uint32_t index, uint64_t len) {
  DIPC_CHECK(len <= kLenMask);
  DIPC_CHECK(index < kMaxSlots);
  return (uint64_t{index} << kLenBits) | len;
}

inline uint32_t DescIndex(uint64_t desc) { return static_cast<uint32_t>(desc >> kLenBits); }
inline uint64_t DescLen(uint64_t desc) { return desc & kLenMask; }

// The descriptor's spare header word: one per-slot side-band word riding
// with every published buffer, carrying the request trace context
// (obs::TraceCtx) across the hop. Layout: opid in the top 48 bits, retry
// attempt in the next 8, hop counter in the low 8 — so a 0 word means "not
// request-scoped" and channels that never see a fabric call pay nothing.
inline constexpr uint64_t kTraceOpidBits = 48;
inline constexpr uint64_t kTraceOpidMask = (uint64_t{1} << kTraceOpidBits) - 1;

inline uint64_t PackTraceWord(const obs::TraceCtx& ctx) {
  return ((ctx.opid & kTraceOpidMask) << 16) | (uint64_t{ctx.attempt} << 8) |
         uint64_t{ctx.hop};
}

inline obs::TraceCtx UnpackTraceWord(uint64_t word) {
  obs::TraceCtx ctx;
  ctx.opid = word >> 16;
  ctx.attempt = static_cast<uint8_t>((word >> 8) & 0xff);
  ctx.hop = static_cast<uint8_t>(word & 0xff);
  return ctx;
}

// Owner keys for the RevocationTable partitioning: one global monotonic
// counter shared by every plane, so keys never collide across planes in
// one binary (a collision would let one plane's RevokeAllForOwner sweep
// another's grants).
inline uint64_t NextOwnerKey() {
  static uint64_t next = 1;  // 0 is RevocationTable::kNoOwner
  return next++;
}

// Clears `reg` only when it still holds `cap` (same counter), so a thread
// interleaving several channels doesn't lose another channel's live
// capability from its register file.
inline void ClearRegIfHolds(os::Thread& t, uint32_t reg, const codoms::Capability& cap) {
  const auto& held = t.cap_ctx().regs.reg(reg);
  if (held.has_value() && held->type == codoms::CapType::kAsync &&
      held->revocation_id == cap.revocation_id) {
    t.cap_ctx().regs.Clear(reg);
  }
}

}  // namespace dipc::chan::internal

#endif  // DIPC_CHAN_DESC_H_
