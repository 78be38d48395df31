// Two-level TLB model (per CPU).
//
// Used to charge page-walk latency on first touch and to make page-table
// switches (CR3 writes) cost more for large-footprint processes — one of the
// second-order overheads §2.2 attributes to process switching.
#ifndef DIPC_HW_TLB_MODEL_H_
#define DIPC_HW_TLB_MODEL_H_

#include <cstdint>

#include "hw/cache_model.h"
#include "hw/cost_model.h"
#include "hw/types.h"

namespace dipc::hw {

class TlbModel {
 public:
  explicit TlbModel(const CostModel& costs)
      : costs_(costs), l1_(64 * kPageSize, 4, kPageSize), l2_(1536 * kPageSize, 6, kPageSize) {}

  // Charges translation cost for the page containing `va` in address space
  // `asid`. Translations are tagged by asid, so a page-table switch does not
  // have to flush (matching PCID-less Linux would flush; we model the flush
  // explicitly in Flush()). The key holds the page number in its low bits,
  // which pick the set, so consecutive pages of one address space spread
  // over every set; the asid sits above the 36 page-number bits of a 48-bit
  // VA.
  sim::Duration Translate(VirtAddr va, uint64_t asid) {
    uint64_t key = PageNumber(va) ^ (asid << 40);
    if (l1_.Touch(key)) {
      return sim::Duration::Zero();
    }
    if (l2_.Touch(key)) {
      return costs_.Cycles(7);
    }
    ++walks_;
    return costs_.tlb_walk;
  }

  // Full flush (non-PCID CR3 write).
  void Flush() {
    l1_.InvalidateAll();
    l2_.InvalidateAll();
  }

  uint64_t walks() const { return walks_; }

 private:
  const CostModel& costs_;
  TagArray l1_;
  TagArray l2_;
  uint64_t walks_ = 0;
};

}  // namespace dipc::hw

#endif  // DIPC_HW_TLB_MODEL_H_
