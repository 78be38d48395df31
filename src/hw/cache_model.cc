#include "hw/cache_model.h"

#include <bit>

#include "base/check.h"

namespace dipc::hw {

TagArray::TagArray(uint64_t size_bytes, uint32_t ways, uint64_t line_size) : ways_(ways) {
  DIPC_CHECK(ways > 0 && size_bytes >= ways * line_size);
  const uint64_t sets = size_bytes / line_size / ways;
  DIPC_CHECK(sets > 0);
  DIPC_CHECK(std::has_single_bit(sets));
  set_mask_ = sets - 1;
  slots_.resize(sets * ways_);
}

bool TagArray::Touch(uint64_t line_addr) {
  uint64_t set = line_addr & set_mask_;
  Way* base = &slots_[set * ways_];
  ++clock_;
  Way* victim = base;
  for (uint32_t w = 0; w < ways_; ++w) {
    if (base[w].tag == line_addr) {
      base[w].lru = clock_;
      ++hits_;
      return true;
    }
    if (base[w].lru < victim->lru) {
      victim = &base[w];
    }
  }
  victim->tag = line_addr;
  victim->lru = clock_;
  ++misses_;
  return false;
}

bool TagArray::Contains(uint64_t line_addr) const {
  uint64_t set = line_addr & set_mask_;
  const Way* base = &slots_[set * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (base[w].tag == line_addr) {
      return true;
    }
  }
  return false;
}

void TagArray::Invalidate(uint64_t line_addr) {
  uint64_t set = line_addr & set_mask_;
  Way* base = &slots_[set * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (base[w].tag == line_addr) {
      base[w].tag = UINT64_MAX;
      base[w].lru = 0;
    }
  }
}

void TagArray::InvalidateAll() {
  for (Way& w : slots_) {
    w.tag = UINT64_MAX;
    w.lru = 0;
  }
}

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
  for (uint64_t line = first; line <= last; ++line) {
    // Cross-CPU transfer: another core wrote this line since we last held it.
    uint32_t& owner = DirtyOwner(line);
    bool remote_dirty = owner != cpu + 1 && owner != 0;
    if (remote_dirty) {
      priv.l1.Invalidate(line);
      priv.l2.Invalidate(line);
    }
    if (priv.l1.Touch(line)) {
      total += costs_.l1_hit;
      ++stats_.l1_hits;
    } else if (priv.l2.Touch(line)) {
      total += costs_.l2_hit;
      ++stats_.l2_hits;
      priv.l1.Touch(line);  // fill upward
    } else if (remote_dirty) {
      total += costs_.remote_transfer;
      ++stats_.remote_transfers;
      l3_.Touch(line);
    } else if (l3_.Touch(line)) {
      total += costs_.l3_hit;
      ++stats_.l3_hits;
    } else {
      total += costs_.mem_access;
      ++stats_.mem_accesses;
    }
    if (is_write) {
      owner = cpu + 1;
    } else if (remote_dirty) {
      owner = 0;  // downgraded to shared/clean
    }
  }
  return total;
}

uint32_t& CacheModel::DirtyOwner(uint64_t line) {
  const uint64_t page = line >> kOwnerPageBits;
  if (page >= dirty_owner_.size()) {
    dirty_owner_.resize(page + 1);
  }
  if (dirty_owner_[page] == nullptr) {
    dirty_owner_[page] = std::make_unique<uint32_t[]>(size_t{1} << kOwnerPageBits);
  }
  return dirty_owner_[page][line & ((uint64_t{1} << kOwnerPageBits) - 1)];
}

void CacheModel::FlushPrivate(CpuId cpu) {
  DIPC_CHECK(cpu < per_cpu_.size());
  per_cpu_[cpu].l1.InvalidateAll();
  per_cpu_[cpu].l2.InvalidateAll();
}

}  // namespace dipc::hw
