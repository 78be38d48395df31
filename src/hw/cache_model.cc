#include "hw/cache_model.h"

#include <algorithm>
#include <bit>

#include "base/check.h"

namespace dipc::hw {

TagArray::TagArray(uint64_t size_bytes, uint32_t ways, uint64_t line_size) : ways_(ways) {
  DIPC_CHECK(ways > 0 && size_bytes >= ways * line_size);
  const uint64_t sets = size_bytes / line_size / ways;
  DIPC_CHECK(sets > 0);
  DIPC_CHECK(std::has_single_bit(sets));
  set_mask_ = sets - 1;
  tags_.assign(sets * ways_, kInvalid);
}

bool TagArray::Touch(uint64_t line_addr) {
  // One pass from the front: each way takes the tag before it, until the
  // line's own way does (a hit) or the last tag falls off the end (a miss).
  uint64_t* set = Set(line_addr);
  uint64_t carry = line_addr;
  for (uint32_t w = 0; w < ways_; ++w) {
    const uint64_t tag = set[w];
    set[w] = carry;
    if (tag == line_addr) {
      return true;
    }
    carry = tag;
  }
  return false;
}

bool TagArray::Contains(uint64_t line_addr) const {
  const uint64_t* set = &tags_[(line_addr & set_mask_) * ways_];
  return std::find(set, set + ways_, line_addr) != set + ways_;
}

void TagArray::Invalidate(uint64_t line_addr) {
  uint64_t* set = Set(line_addr);
  uint64_t* const end = set + ways_;
  uint64_t* const at = std::find(set, end, line_addr);
  if (at != end) {
    std::copy(at + 1, end, at);
    end[-1] = kInvalid;
  }
}

void TagArray::InvalidateAll() { std::fill(tags_.begin(), tags_.end(), kInvalid); }

namespace {
// E3-1220 V2-like geometry: 32 KB 8-way L1D, 256 KB 8-way L2, 8 MB 16-way L3.
constexpr uint64_t kL1Size = 32 * 1024;
constexpr uint32_t kL1Ways = 8;
constexpr uint64_t kL2Size = 256 * 1024;
constexpr uint32_t kL2Ways = 8;
constexpr uint64_t kL3Size = 8 * 1024 * 1024;
constexpr uint32_t kL3Ways = 16;
}  // namespace

CacheModel::CacheModel(uint32_t num_cpus, const CostModel& costs)
    : costs_(costs), l3_(kL3Size, kL3Ways) {
  per_cpu_.reserve(num_cpus);
  for (uint32_t i = 0; i < num_cpus; ++i) {
    per_cpu_.push_back(PrivateLevels{TagArray(kL1Size, kL1Ways), TagArray(kL2Size, kL2Ways)});
  }
  m_remote_transfers_ = metrics_.GetCounter("hw/cache/remote_transfers");
  m_l1_misses_ = metrics_.GetCounter("hw/cache/l1_misses");
  m_l2_misses_ = metrics_.GetCounter("hw/cache/l2_misses");
  m_l3_misses_ = metrics_.GetCounter("hw/cache/l3_misses");
}

sim::Duration CacheModel::Access(CpuId cpu, uint64_t addr, uint64_t size, bool is_write) {
  DIPC_CHECK(cpu < per_cpu_.size());
  if (size == 0) {
    return sim::Duration::Zero();
  }
  sim::Duration total;
  uint64_t first = addr / kCacheLineSize;
  uint64_t last = (addr + size - 1) / kCacheLineSize;
  PrivateLevels& priv = per_cpu_[cpu];
  uint32_t* owners = OwnerPage(first);
  CacheStats n;  // this call's lines, by where each came from
  for (uint64_t line = first; line <= last; ++line) {
    if ((line & kOwnerPageMask) == 0) {
      owners = OwnerPage(line);
    }
    uint32_t& owner = owners[line & kOwnerPageMask];
    // Cross-CPU transfer: another core wrote this line since we last held
    // it. Our copies are stale; the fresh one lands in front of every level.
    const bool remote_dirty = owner != cpu + 1 && owner != 0;
    if (remote_dirty) {
      priv.l1.Touch(line);
      priv.l2.Touch(line);
      l3_.Touch(line);
      total += costs_.remote_transfer;
      ++n.remote_transfers;
    } else if (priv.l1.Touch(line)) {
      total += costs_.l1_hit;
      ++n.l1_hits;
    } else if (priv.l2.Touch(line)) {  // the L1 miss filled L1 already
      total += costs_.l2_hit;
      ++n.l2_hits;
    } else if (l3_.Touch(line)) {
      total += costs_.l3_hit;
      ++n.l3_hits;
    } else {
      total += costs_.mem_access;
      ++n.mem_accesses;
    }
    if (is_write) {
      owner = cpu + 1;
    } else if (remote_dirty) {
      owner = 0;  // downgraded to shared/clean
    }
  }
  stats_.l1_hits += n.l1_hits;
  stats_.l2_hits += n.l2_hits;
  stats_.l3_hits += n.l3_hits;
  stats_.mem_accesses += n.mem_accesses;
  stats_.remote_transfers += n.remote_transfers;
  // Each add is an atomic, so only the counts that moved are added.
  auto add = [](obs::Counter* counter, uint64_t lines) {
    if (lines != 0) {
      counter->Add(lines);
    }
  };
  const uint64_t l2_misses = n.l3_hits + n.mem_accesses + n.remote_transfers;
  add(m_remote_transfers_, n.remote_transfers);
  add(m_l1_misses_, n.l2_hits + l2_misses);
  add(m_l2_misses_, l2_misses);
  add(m_l3_misses_, n.mem_accesses);
  return total;
}

uint32_t* CacheModel::OwnerPage(uint64_t line) {
  const uint64_t page = line >> kOwnerPageBits;
  if (page >= dirty_owner_.size()) {
    dirty_owner_.resize(page + 1);
  }
  if (dirty_owner_[page] == nullptr) {
    dirty_owner_[page] = std::make_unique<uint32_t[]>(size_t{1} << kOwnerPageBits);
  }
  return dirty_owner_[page].get();
}

void CacheModel::FlushPrivate(CpuId cpu) {
  DIPC_CHECK(cpu < per_cpu_.size());
  per_cpu_[cpu].l1.InvalidateAll();
  per_cpu_[cpu].l2.InvalidateAll();
}

}  // namespace dipc::hw
