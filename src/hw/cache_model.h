// Set-associative cache hierarchy model.
//
// Latency-oriented: tracks tags and coherence ownership so copies and
// cross-CPU transfers show the knees the paper's Figure 6 annotates (L1$/L2$
// sizes) and the ≠CPU penalty of moving producer-written lines to a consumer.
// It is not a full MESI simulator: we track, per line, which CPU last wrote
// it, and charge a remote-transfer latency when another CPU touches it.
//
// Known simplification: the last writer is remembered even after the line
// has left that CPU's L1 and L2. A later read from another CPU then pays
// remote_transfer (55 ns) where the line's real location would give an L3
// hit (11 ns) or a memory access (60 ns). Deep cross-CPU queues of large
// payloads can reach this path; whether any bench row takes it is
// unmeasured. Fixing it moves simulated rows, so the owner table stays
// apart from the tag arrays.
#ifndef DIPC_HW_CACHE_MODEL_H_
#define DIPC_HW_CACHE_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/cost_model.h"
#include "hw/types.h"
#include "sim/time.h"

namespace dipc::hw {

// One set-associative tag array with LRU replacement. Each set keeps its
// tags in recency order, most recent first, with the invalid ways last: a
// hit moves its tag to the front, and a miss drops the last way (an invalid
// one while any is left, else the least recently used) and puts the new tag
// in front. 8 B per way, and no clock.
class TagArray {
 public:
  TagArray(uint64_t size_bytes, uint32_t ways, uint64_t line_size = kCacheLineSize);

  // Returns true on hit. On miss, inserts the line (evicting LRU).
  bool Touch(uint64_t line_addr);
  // True if present, without updating LRU or inserting.
  bool Contains(uint64_t line_addr) const;
  void Invalidate(uint64_t line_addr);
  void InvalidateAll();

 private:
  static constexpr uint64_t kInvalid = UINT64_MAX;

  uint64_t* Set(uint64_t line_addr) { return &tags_[(line_addr & set_mask_) * ways_]; }

  uint64_t set_mask_;  // sets - 1; every geometry has a power-of-two set count
  uint32_t ways_;
  std::vector<uint64_t> tags_;  // sets * ways_, each set most recent first
};

struct CacheStats {
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t mem_accesses = 0;
  uint64_t remote_transfers = 0;
};

// The machine's cache hierarchy: private L1/L2 per CPU, shared L3.
class CacheModel {
 public:
  CacheModel(uint32_t num_cpus, const CostModel& costs);

  // Charges the latency of accessing [addr, addr+size) from `cpu`.
  // Writes mark the lines as owned-dirty by `cpu`.
  sim::Duration Access(CpuId cpu, uint64_t addr, uint64_t size, bool is_write);

  // Models cache pollution: invalidates everything in a CPU's private levels.
  void FlushPrivate(CpuId cpu);

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 private:
  struct PrivateLevels {
    TagArray l1;
    TagArray l2;
  };

  const CostModel& costs_;
  std::vector<PrivateLevels> per_cpu_;
  TagArray l3_;
  // line -> CPU that last wrote it (+1; 0 = clean/none). Physical lines are
  // dense, so the table is indexed directly, in pages of 4096 lines that
  // appear on first touch.
  static constexpr unsigned kOwnerPageBits = 12;
  static constexpr uint64_t kOwnerPageMask = (uint64_t{1} << kOwnerPageBits) - 1;
  // The owner entries of the page holding `line`, indexed by its low bits.
  uint32_t* OwnerPage(uint64_t line);
  std::vector<std::unique_ptr<uint32_t[]>> dirty_owner_;
  CacheStats stats_;
};

}  // namespace dipc::hw

#endif  // DIPC_HW_CACHE_MODEL_H_
