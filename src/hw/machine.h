// The simulated machine: CPUs, memory hierarchy, page tables, virtual time.
#ifndef DIPC_HW_MACHINE_H_
#define DIPC_HW_MACHINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/check.h"
#include "hw/cache_model.h"
#include "hw/cost_model.h"
#include "hw/page_table.h"
#include "hw/phys_mem.h"
#include "hw/tlb_model.h"
#include "hw/types.h"
#include "sim/event_queue.h"

namespace dipc::hw {

// Per-CPU architectural state that belongs to the machine (not the OS).
class Cpu {
 public:
  Cpu(CpuId id, const CostModel& costs) : id_(id), tlb_(costs) {}

  CpuId id() const { return id_; }
  TlbModel& tlb() { return tlb_; }

 private:
  CpuId id_;
  TlbModel tlb_;
};

class Machine {
 public:
  explicit Machine(uint32_t num_cpus, CostModel costs = CostModel{})
      : costs_(costs), caches_(num_cpus, costs_), next_pt_id_(1) {
    DIPC_CHECK(num_cpus > 0);
    cpus_.reserve(num_cpus);
    for (uint32_t i = 0; i < num_cpus; ++i) {
      cpus_.push_back(std::make_unique<Cpu>(i, costs_));
    }
  }
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  uint32_t num_cpus() const { return static_cast<uint32_t>(cpus_.size()); }
  Cpu& cpu(CpuId id) {
    DIPC_CHECK(id < cpus_.size());
    return *cpus_[id];
  }

  sim::EventQueue& events() { return events_; }
  sim::Time now() const { return events_.now(); }
  CostModel& costs() { return costs_; }
  const CostModel& costs() const { return costs_; }
  CacheModel& caches() { return caches_; }
  PhysMem& mem() { return mem_; }

  PageTable& CreatePageTable() {
    auto pt = std::make_unique<PageTable>(next_pt_id_++);
    PageTable& ref = *pt;
    page_tables_.emplace(ref.id(), std::move(pt));
    return ref;
  }

  PageTable& page_table(PageTable::Id id) {
    auto it = page_tables_.find(id);
    DIPC_CHECK(it != page_tables_.end());
    return *it->second;
  }

  void DestroyPageTable(PageTable::Id id) { page_tables_.erase(id); }

 private:
  CostModel costs_;
  sim::EventQueue events_;
  CacheModel caches_;
  PhysMem mem_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::unordered_map<PageTable::Id, std::unique_ptr<PageTable>> page_tables_;
  PageTable::Id next_pt_id_;
};

}  // namespace dipc::hw

#endif  // DIPC_HW_MACHINE_H_
