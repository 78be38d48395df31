// Unit tests for the machine model: caches, TLB, physical memory, page tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "hw/cache_model.h"
#include "hw/cost_model.h"
#include "hw/machine.h"
#include "hw/page_table.h"
#include "hw/phys_mem.h"
#include "hw/tlb_model.h"
#include "sim/random.h"

namespace dipc::hw {
namespace {

TEST(CostModel, CycleConversion) {
  CostModel cm;
  EXPECT_NEAR(cm.Cycles(31).nanos(), 10.0, 0.01);
  EXPECT_GT(cm.Cycles(1).picos(), 0);
}

TEST(TagArray, HitAfterTouch) {
  TagArray t(1024, 2, 64);  // 8 sets, 2 ways
  EXPECT_FALSE(t.Touch(1));
  EXPECT_TRUE(t.Touch(1));
  EXPECT_TRUE(t.Contains(1));
}

TEST(TagArray, LruEviction) {
  TagArray t(128, 2, 64);  // 1 set, 2 ways
  t.Touch(10);
  t.Touch(20);
  t.Touch(10);     // 10 is now MRU
  t.Touch(30);     // evicts 20
  EXPECT_TRUE(t.Contains(10));
  EXPECT_FALSE(t.Contains(20));
  EXPECT_TRUE(t.Contains(30));
}

TEST(TagArray, InvalidateAll) {
  TagArray t(1024, 2, 64);
  t.Touch(1);
  t.Touch(2);
  t.InvalidateAll();
  EXPECT_FALSE(t.Contains(1));
  EXPECT_FALSE(t.Contains(2));
}

// The clock-LRU TagArray this model had before its sets kept recency
// order, kept as the reference the current one must match call for call:
// every touch stamps its way with a 64-bit clock, and a miss evicts the way
// with the smallest stamp (an invalid way's is 0).
class ClockLruTagArray {
 public:
  ClockLruTagArray(uint64_t size_bytes, uint32_t ways, uint64_t line_size)
      : set_mask_(size_bytes / line_size / ways - 1), ways_(ways), slots_(size_bytes / line_size) {}

  bool Touch(uint64_t line) {
    Way* base = &slots_[(line & set_mask_) * ways_];
    ++clock_;
    Way* victim = base;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (base[w].tag == line) {
        base[w].lru = clock_;
        return true;
      }
      if (base[w].lru < victim->lru) {
        victim = &base[w];
      }
    }
    victim->tag = line;
    victim->lru = clock_;
    return false;
  }
  bool Contains(uint64_t line) const {
    const Way* base = &slots_[(line & set_mask_) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (base[w].tag == line) {
        return true;
      }
    }
    return false;
  }
  void Invalidate(uint64_t line) {
    Way* base = &slots_[(line & set_mask_) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (base[w].tag == line) {
        base[w] = Way{};
      }
    }
  }
  void InvalidateAll() { std::fill(slots_.begin(), slots_.end(), Way{}); }

 private:
  struct Way {
    uint64_t tag = UINT64_MAX;
    uint64_t lru = 0;
  };
  uint64_t set_mask_;
  uint32_t ways_;
  std::vector<Way> slots_;
  uint64_t clock_ = 0;
};

TEST(TagArray, MatchesTheClockLruReferenceCallForCall) {
  struct Geometry {
    const char* name;
    uint64_t size;
    uint32_t ways;
    uint64_t line;
  };
  // The cache model's three levels and the TLB's two.
  const Geometry geometries[] = {{"L1", 32 * 1024, 8, kCacheLineSize},
                                 {"L2", 256 * 1024, 8, kCacheLineSize},
                                 {"L3", 8 * 1024 * 1024, 16, kCacheLineSize},
                                 {"L1 TLB", 64 * kPageSize, 4, kPageSize},
                                 {"L2 TLB", 1536 * kPageSize, 6, kPageSize}};
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(g.name);
    TagArray tags(g.size, g.ways, g.line);
    ClockLruTagArray ref(g.size, g.ways, g.line);
    const uint64_t sets = g.size / g.line / g.ways;
    // Half the keys crowd four sets with twice their ways; the rest spread
    // over twice the array's capacity.
    auto crowded = [&](uint64_t set, uint64_t k) { return set + sets * k; };
    sim::Rng rng(20);
    for (int i = 0; i < 40000; ++i) {
      const uint64_t key = rng.Chance(0.5)
                               ? crowded(rng.UniformInt(0, 3), rng.UniformInt(0, 2 * g.ways - 1))
                               : rng.UniformInt(0, 2 * sets * g.ways - 1);
      const double op = rng.NextDouble();
      if (op < 0.7) {
        ASSERT_EQ(tags.Touch(key), ref.Touch(key)) << "call " << i << ": Touch(" << key << ")";
      } else if (op < 0.85) {
        ASSERT_EQ(tags.Contains(key), ref.Contains(key)) << "call " << i;
      } else if (op < 0.9995) {
        tags.Invalidate(key);
        ref.Invalidate(key);
      } else {
        tags.InvalidateAll();
        ref.InvalidateAll();
      }
    }
    for (uint64_t set = 0; set < 4; ++set) {
      for (uint64_t k = 0; k < 2 * g.ways; ++k) {
        EXPECT_EQ(tags.Contains(crowded(set, k)), ref.Contains(crowded(set, k)));
      }
    }
  }
}

class CacheModelTest : public ::testing::Test {
 protected:
  CostModel costs_;
  CacheModel caches_{2, costs_};
};

TEST_F(CacheModelTest, ColdMissThenHit) {
  sim::Duration cold = caches_.Access(0, 0x1000, 64, /*is_write=*/false);
  sim::Duration warm = caches_.Access(0, 0x1000, 64, /*is_write=*/false);
  EXPECT_EQ(cold, costs_.mem_access);
  EXPECT_EQ(warm, costs_.l1_hit);
}

TEST_F(CacheModelTest, CrossCpuDirtyTransferCostsMore) {
  // CPU 0 writes a line, CPU 1 reads it: must pay a remote transfer, not DRAM.
  caches_.Access(0, 0x2000, 64, /*is_write=*/true);
  sim::Duration remote = caches_.Access(1, 0x2000, 64, /*is_write=*/false);
  EXPECT_EQ(remote, costs_.remote_transfer);
  // Second read from CPU 1 is now a local hit.
  EXPECT_EQ(caches_.Access(1, 0x2000, 64, false), costs_.l1_hit);
}

TEST_F(CacheModelTest, FootprintLargerThanL1SpillsToL2) {
  // Touch 64 KB twice: second pass cannot be all L1 hits (L1 is 32 KB).
  constexpr uint64_t kFootprint = 64 * 1024;
  caches_.Access(0, 0, kFootprint, false);
  caches_.ResetStats();
  caches_.Access(0, 0, kFootprint, false);
  const CacheStats& s = caches_.stats();
  EXPECT_GT(s.l2_hits, 0u);
  EXPECT_EQ(s.mem_accesses, 0u);  // everything still fits in L2
}

TEST_F(CacheModelTest, MultiLineAccessChargesPerLine) {
  sim::Duration four_lines = caches_.Access(0, 0x8000, 256, false);
  EXPECT_EQ(four_lines, costs_.mem_access * 4);
}

TEST_F(CacheModelTest, FlushPrivateForcesRefill) {
  caches_.Access(0, 0x3000, 64, false);
  caches_.FlushPrivate(0);
  sim::Duration d = caches_.Access(0, 0x3000, 64, false);
  // After a private flush the line still lives in L3.
  EXPECT_EQ(d, costs_.l3_hit);
}

TEST(TlbModel, MissThenHit) {
  CostModel costs;
  TlbModel tlb(costs);
  EXPECT_EQ(tlb.Translate(0x1000, 1), costs.tlb_walk);
  EXPECT_EQ(tlb.Translate(0x1000, 1), sim::Duration::Zero());
  EXPECT_EQ(tlb.walks(), 1u);
}

TEST(TlbModel, AsidsDoNotAlias) {
  CostModel costs;
  TlbModel tlb(costs);
  tlb.Translate(0x1000, 1);
  EXPECT_EQ(tlb.Translate(0x1000, 2), costs.tlb_walk);
}

TEST(TlbModel, SixtyFourConsecutivePagesOfOneAsidFitTheL1Tlb) {
  // 64 entries in 16 sets of 4: one address space's consecutive pages
  // spread over every set, so a second pass walks no page.
  CostModel costs;
  TlbModel tlb(costs);
  for (int pass = 0; pass < 2; ++pass) {
    sim::Duration total;
    for (uint64_t page = 0; page < 64; ++page) {
      total += tlb.Translate(0x400000 + page * kPageSize, 7);
    }
    EXPECT_EQ(total, pass == 0 ? costs.tlb_walk * 64 : sim::Duration::Zero());
  }
  EXPECT_EQ(tlb.walks(), 64u);
}

TEST(TlbModel, FlushDropsTranslations) {
  CostModel costs;
  TlbModel tlb(costs);
  tlb.Translate(0x1000, 1);
  tlb.Flush();
  EXPECT_EQ(tlb.Translate(0x1000, 1), costs.tlb_walk);
}

TEST(PhysMem, ReadBackWritten) {
  PhysMem mem;
  uint64_t frame = mem.AllocFrame();
  PhysAddr pa = frame << kPageShift;
  const char msg[] = "hello, dIPC";
  mem.Write(pa + 100, std::as_bytes(std::span(msg)));
  char out[sizeof(msg)] = {};
  mem.Read(pa + 100, std::as_writable_bytes(std::span(out)));
  EXPECT_STREQ(out, msg);
}

TEST(PhysMem, ZeroFilledOnFirstTouch) {
  PhysMem mem;
  uint64_t frame = mem.AllocFrame();
  std::byte b{0xFF};
  mem.Read((frame << kPageShift) + 7, std::span(&b, 1));
  EXPECT_EQ(b, std::byte{0});
}

TEST(PhysMem, CopyCrossesFrameBoundaries) {
  PhysMem mem;
  uint64_t f1 = mem.AllocFrame();
  uint64_t f2 = mem.AllocFrame();
  PhysAddr src = (f1 << kPageShift) + kPageSize - 10;  // staddles f1/f2... within alloc region
  std::vector<char> data(20, 'x');
  mem.Write(src, std::as_bytes(std::span(data)));
  uint64_t f3 = mem.AllocFrame();
  PhysAddr dst = f3 << kPageShift;
  mem.Copy(dst, src, 20);
  std::vector<char> out(20);
  mem.Read(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
  (void)f2;
}

TEST(PageTable, MapTranslateUnmap) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x40000000, 99, PageFlags{.writable = true}, 5).ok());
  auto pa = pt.Translate(0x40000123);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, (99ull << kPageShift) | 0x123);
  EXPECT_TRUE(pt.UnmapPage(0x40000000).ok());
  EXPECT_FALSE(pt.Translate(0x40000000).has_value());
}

TEST(PageTable, DoubleMapFails) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x1000, 1, PageFlags{}, 1).ok());
  EXPECT_EQ(pt.MapPage(0x1000, 2, PageFlags{}, 1).code(), base::ErrorCode::kAlreadyExists);
}

TEST(PageTable, SetTagRetags) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x1000, 1, PageFlags{}, 7).ok());
  ASSERT_TRUE(pt.SetTag(0x1000, 9).ok());
  EXPECT_EQ(pt.Lookup(0x1000)->tag, 9u);
  EXPECT_EQ(pt.SetTag(0x9000, 9).code(), base::ErrorCode::kNotFound);
}

TEST(PageTable, RepeatedLookupsSeeUnmapRemapAndRetag) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x5000, 11, PageFlags{.writable = true}, 3).ok());
  ASSERT_TRUE(pt.MapPage(0x6000, 12, PageFlags{}, 3).ok());
  // Lookups of one page, and of a page that shares its low bits, return
  // their own PTEs however often they repeat.
  const Pte* first = pt.Lookup(0x5123);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(pt.Lookup(0x5000), first);
  ASSERT_TRUE(pt.MapPage(0x5000 + 16 * kPageSize, 13, PageFlags{}, 4).ok());
  EXPECT_EQ(pt.Lookup(0x5000 + 16 * kPageSize)->frame, 13u);
  EXPECT_EQ(pt.Lookup(0x5000)->frame, 11u);
  // A re-tag is seen by the next lookup and through a pointer already held.
  ASSERT_TRUE(pt.SetTag(0x5000, 9).ok());
  EXPECT_EQ(pt.Lookup(0x5000)->tag, 9u);
  EXPECT_EQ(first->tag, 9u);
  // Unmapped: gone, even right after a lookup found it.
  EXPECT_NE(pt.Lookup(0x6000), nullptr);
  ASSERT_TRUE(pt.UnmapPage(0x6000).ok());
  EXPECT_EQ(pt.Lookup(0x6000), nullptr);
  EXPECT_EQ(pt.LookupMut(0x6000), nullptr);
  EXPECT_FALSE(pt.Translate(0x6000).has_value());
  EXPECT_EQ(pt.UnmapPage(0x6000).code(), base::ErrorCode::kNotFound);
  // Mapped again, to another frame: the new PTE is seen.
  ASSERT_TRUE(pt.MapPage(0x6000, 21, PageFlags{.writable = true}, 5).ok());
  ASSERT_NE(pt.Lookup(0x6000), nullptr);
  EXPECT_EQ(pt.Lookup(0x6000)->frame, 21u);
  EXPECT_EQ(pt.Lookup(0x6000)->tag, 5u);
  EXPECT_EQ(*pt.Translate(0x6008), (21ull << kPageShift) | 0x8);
  EXPECT_EQ(pt.mapped_pages(), 3u);
}

TEST(Machine, PageTableLifecycle) {
  Machine m(2);
  PageTable& pt = m.CreatePageTable();
  EXPECT_EQ(&m.page_table(pt.id()), &pt);
  EXPECT_EQ(m.num_cpus(), 2u);
  m.DestroyPageTable(pt.id());
}

TEST(Machine, CpusHaveDistinctTlbs) {
  Machine m(2);
  m.cpu(0).tlb().Translate(0x5000, 1);
  // CPU 1's TLB must still miss.
  EXPECT_EQ(m.cpu(1).tlb().Translate(0x5000, 1), m.costs().tlb_walk);
}

}  // namespace
}  // namespace dipc::hw
