// Unit tests for the CODOMs architecture model: APLs, the APL cache,
// capabilities (sync/async, derivation, revocation, spill), data-access and
// control-transfer checks, and the privileged-capability bit.
#include <gtest/gtest.h>

#include "codoms/apl.h"
#include "codoms/apl_cache.h"
#include "codoms/cap_context.h"
#include "codoms/capability.h"
#include "codoms/codoms.h"
#include "codoms/perm.h"
#include "hw/machine.h"

namespace dipc::codoms {
namespace {

using base::ErrorCode;
using hw::AccessType;
using hw::kPageSize;

TEST(Perm, Ordering) {
  EXPECT_TRUE(AtLeast(Perm::kWrite, Perm::kRead));
  EXPECT_TRUE(AtLeast(Perm::kRead, Perm::kCall));
  EXPECT_FALSE(AtLeast(Perm::kCall, Perm::kRead));
  EXPECT_TRUE(AtLeast(Perm::kCall, Perm::kNone));
  EXPECT_EQ(Weaker(Perm::kWrite, Perm::kRead), Perm::kRead);
}

TEST(Apl, GrantAndRevoke) {
  AplTable table;
  DomainTag a = table.AllocateTag();
  DomainTag b = table.AllocateTag();
  table.Grant(a, b, Perm::kCall);
  EXPECT_EQ(table.For(a).PermFor(b), Perm::kCall);
  table.Revoke(a, b);
  EXPECT_EQ(table.For(a).PermFor(b), Perm::kNone);
}

TEST(Apl, VersionBumpsOnChange) {
  AplTable table;
  DomainTag a = table.AllocateTag();
  uint64_t v0 = table.For(a).version();
  table.Grant(a, 99, Perm::kRead);
  EXPECT_GT(table.For(a).version(), v0);
}

// Fixture with the Figure 4 scenario: domains A, B, C where A may call into
// B's entry points and B may read (and thus jump into) C.
class Figure4Test : public ::testing::Test {
 protected:
  Figure4Test() : machine_(1), codoms_(machine_), pt_(machine_.CreatePageTable()), ctx_(1) {
    a_ = codoms_.apl_table().AllocateTag();
    b_ = codoms_.apl_table().AllocateTag();
    c_ = codoms_.apl_table().AllocateTag();
    // Figure 4 layout: pages 1,2,4,7 in A; page 3 in B; pages 0,5,6 in C.
    MapCode(0x0000, c_);
    MapData(0x1000, a_);
    MapCode(0x2000, a_);
    MapCode(0x3000, b_);
    MapData(0x4000, a_);
    MapCode(0x5000, c_);
    MapData(0x6000, c_);
    MapData(0x7000, a_);
    codoms_.apl_table().Grant(a_, b_, Perm::kCall);
    codoms_.apl_table().Grant(b_, c_, Perm::kRead);
    ctx_.current_domain = a_;
  }

  void MapCode(hw::VirtAddr va, DomainTag tag) {
    ASSERT_TRUE(pt_.MapPage(va, machine_.mem().AllocFrame(),
                            hw::PageFlags{.writable = false, .executable = true}, tag)
                    .ok());
  }
  void MapData(hw::VirtAddr va, DomainTag tag) {
    ASSERT_TRUE(
        pt_.MapPage(va, machine_.mem().AllocFrame(), hw::PageFlags{.writable = true}, tag).ok());
  }

  hw::Machine machine_;
  Codoms codoms_;
  hw::PageTable& pt_;
  ThreadCapContext ctx_;
  DomainTag a_, b_, c_;
};

TEST_F(Figure4Test, DomainAccessesOwnPages) {
  EXPECT_TRUE(codoms_.CheckDataAccess(0, pt_, ctx_, 0x1000, 64, AccessType::kWrite).ok());
  EXPECT_TRUE(codoms_.CheckDataAccess(0, pt_, ctx_, 0x7000, 64, AccessType::kRead).ok());
}

TEST_F(Figure4Test, CallGrantDoesNotAllowDataAccess) {
  // A can call into B but cannot read B's pages.
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, ctx_, 0x3000, 8, AccessType::kRead).code(),
            ErrorCode::kFault);
}

TEST_F(Figure4Test, NoGrantMeansNoAccess) {
  // A has no APL entry for C at all.
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, ctx_, 0x6000, 8, AccessType::kRead).code(),
            ErrorCode::kFault);
}

TEST_F(Figure4Test, CallIntoAlignedEntryPointSwitchesDomain) {
  auto r = codoms_.ControlTransfer(0, pt_, ctx_, 0x3000);  // page-aligned => 64 B aligned
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx_.current_domain, b_);
}

TEST_F(Figure4Test, MisalignedEntryCallFaults) {
  auto r = codoms_.ControlTransfer(0, pt_, ctx_, 0x3004);
  EXPECT_EQ(r.code(), ErrorCode::kFault);
  EXPECT_EQ(ctx_.current_domain, a_);  // unchanged
}

TEST_F(Figure4Test, ReadGrantAllowsArbitraryJump) {
  // Move to B first, then B can jump anywhere into C (read permission).
  ASSERT_TRUE(codoms_.ControlTransfer(0, pt_, ctx_, 0x3000).ok());
  auto r = codoms_.ControlTransfer(0, pt_, ctx_, 0x5004);  // misaligned is fine with read
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx_.current_domain, c_);
}

TEST_F(Figure4Test, TransitiveAccessIsNotGranted) {
  // A cannot jump into C even though B can (per-domain APLs, Figure 4).
  EXPECT_EQ(codoms_.ControlTransfer(0, pt_, ctx_, 0x5000).code(), ErrorCode::kFault);
}

TEST_F(Figure4Test, ReadGrantAllowsDataReadButNotWrite) {
  ASSERT_TRUE(codoms_.ControlTransfer(0, pt_, ctx_, 0x3000).ok());  // now in B
  EXPECT_TRUE(codoms_.CheckDataAccess(0, pt_, ctx_, 0x6000, 16, AccessType::kRead).ok());
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, ctx_, 0x6000, 16, AccessType::kWrite).code(),
            ErrorCode::kFault);
}

TEST_F(Figure4Test, PerPageProtectionBitsHonored) {
  // A's own code page is read-only: write faults despite implicit self-write.
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, ctx_, 0x2000, 8, AccessType::kWrite).code(),
            ErrorCode::kFault);
}

TEST_F(Figure4Test, UnmappedAccessFaults) {
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, ctx_, 0x9000, 8, AccessType::kRead).code(),
            ErrorCode::kFault);
}

TEST_F(Figure4Test, IntraDomainJumpIsFree) {
  auto r = codoms_.ControlTransfer(0, pt_, ctx_, 0x2004);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx_.current_domain, a_);
  EXPECT_EQ(r.value(), sim::Duration::Zero());
}

TEST_F(Figure4Test, RevokedGrantTakesEffectDespiteCache) {
  // Warm the APL cache with A's grant to B, then revoke: the stale snapshot
  // must not authorize further calls (version check => refill).
  ASSERT_TRUE(codoms_.ControlTransfer(0, pt_, ctx_, 0x3000).ok());
  ctx_.current_domain = a_;
  codoms_.apl_table().Revoke(a_, b_);
  EXPECT_EQ(codoms_.ControlTransfer(0, pt_, ctx_, 0x3000).code(), ErrorCode::kFault);
}

TEST_F(Figure4Test, AplCacheHitIsCheapMissIsNot) {
  auto first = codoms_.EnsureCached(0, a_);
  EXPECT_TRUE(first.missed);
  auto second = codoms_.EnsureCached(0, a_);
  EXPECT_FALSE(second.missed);
  EXPECT_LT(second.cost, first.cost);
}

TEST_F(Figure4Test, HwTagStableWhileCached) {
  auto ref = codoms_.EnsureCached(0, b_);
  sim::Duration cost;
  auto tag = codoms_.ReadHwTag(0, b_, &cost);
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(tag.value(), ref.hw_tag);
  EXPECT_LT(tag.value(), kAplCacheEntries);
}

TEST_F(Figure4Test, HwTagOfUncachedDomainFails) {
  sim::Duration cost;
  EXPECT_EQ(codoms_.ReadHwTag(0, 999, &cost).code(), ErrorCode::kNotFound);
}

TEST_F(Figure4Test, PerCpuCachesAreIndependent) {
  hw::Machine machine(2);
  Codoms codoms(machine);
  DomainTag t = codoms.apl_table().AllocateTag();
  codoms.EnsureCached(0, t);
  EXPECT_TRUE(codoms.apl_cache(0).Lookup(t).has_value());
  EXPECT_FALSE(codoms.apl_cache(1).Lookup(t).has_value());
}

TEST(AplCache, LruEvictionAt33Domains) {
  AplTable table;
  AplCache cache;
  std::vector<DomainTag> tags;
  for (int i = 0; i < 33; ++i) {
    tags.push_back(table.AllocateTag());
  }
  for (int i = 0; i < 32; ++i) {
    cache.Fill(tags[i], table);
  }
  EXPECT_TRUE(cache.Lookup(tags[0]).has_value());
  cache.Fill(tags[32], table);  // evicts the LRU entry (tags[0])
  EXPECT_FALSE(cache.Lookup(tags[0]).has_value());
  EXPECT_TRUE(cache.Lookup(tags[32]).has_value());
}

// --- Capability tests ---

class CapTest : public Figure4Test {};

TEST_F(CapTest, CapGrantsAccessOutsideApl) {
  // A gets a capability to C's data page (e.g. passed by C); access works.
  ThreadCapContext c_ctx(2);
  c_ctx.current_domain = c_;
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, c_ctx, 0x6000, 256, Perm::kWrite, CapType::kAsync, &cost);
  ASSERT_TRUE(cap.ok());
  ctx_.regs.Set(0, cap.value());
  EXPECT_TRUE(codoms_.CheckDataAccess(0, pt_, ctx_, 0x6010, 64, AccessType::kWrite).ok());
  // But not beyond the capability's range.
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, ctx_, 0x6100, 64, AccessType::kWrite).code(),
            ErrorCode::kFault);
}

TEST_F(CapTest, CannotCreateCapBeyondOwnRights) {
  // A cannot mint a capability to C's memory (no APL grant).
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x6000, 64, Perm::kRead, CapType::kSync, &cost);
  EXPECT_EQ(cap.code(), ErrorCode::kPermissionDenied);
}

TEST_F(CapTest, CallGrantCannotMintReadCap) {
  // A's Call permission over B must not convert into a data capability.
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x3000, 64, Perm::kRead, CapType::kSync, &cost);
  EXPECT_EQ(cap.code(), ErrorCode::kPermissionDenied);
}

TEST_F(CapTest, DeriveNarrowsNeverWidens) {
  sim::Duration cost;
  auto parent = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 512, Perm::kWrite, CapType::kSync, &cost);
  ASSERT_TRUE(parent.ok());
  auto child =
      codoms_.CapDerive(parent.value(), ctx_, 0x1100, 128, Perm::kRead, CapType::kSync, &cost);
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(child->rights, Perm::kRead);
  // Widening rights fails.
  auto widened =
      codoms_.CapDerive(child.value(), ctx_, 0x1100, 64, Perm::kWrite, CapType::kSync, &cost);
  EXPECT_EQ(widened.code(), ErrorCode::kPermissionDenied);
  // Widening range fails.
  auto grown =
      codoms_.CapDerive(parent.value(), ctx_, 0x1000, 1024, Perm::kRead, CapType::kSync, &cost);
  EXPECT_EQ(grown.code(), ErrorCode::kPermissionDenied);
}

TEST_F(CapTest, AsyncRevocationIsImmediate) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kAsync, &cost);
  ASSERT_TRUE(cap.ok());
  ThreadCapContext other(7);
  other.current_domain = c_;
  other.regs.Set(0, cap.value());
  EXPECT_TRUE(codoms_.CheckDataAccess(0, pt_, other, 0x1000, 8, AccessType::kRead).ok());
  ASSERT_TRUE(codoms_.CapRevoke(cap.value()).ok());
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, other, 0x1000, 8, AccessType::kRead).code(),
            ErrorCode::kFault);
}

TEST_F(CapTest, RevokingParentKillsDerivedTree) {
  sim::Duration cost;
  auto parent = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 512, Perm::kWrite, CapType::kAsync, &cost);
  ASSERT_TRUE(parent.ok());
  auto child =
      codoms_.CapDerive(parent.value(), ctx_, 0x1000, 64, Perm::kRead, CapType::kAsync, &cost);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(codoms_.CapRevoke(parent.value()).ok());
  ctx_.regs.Set(0, child.value());
  ThreadCapContext probe(9);
  probe.current_domain = c_;
  probe.regs.Set(0, child.value());
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, probe, 0x1000, 8, AccessType::kRead).code(),
            ErrorCode::kFault);
}

TEST_F(CapTest, SyncCapBoundToOwnerThread) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kSync, &cost);
  ASSERT_TRUE(cap.ok());
  ThreadCapContext thief(99);
  thief.current_domain = c_;
  thief.regs.Set(0, cap.value());
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, thief, 0x1000, 8, AccessType::kRead).code(),
            ErrorCode::kFault);
}

TEST_F(CapTest, SyncCapDiesWhenFrameReturns) {
  ctx_.call_depth = 3;
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kSync, &cost);
  ASSERT_TRUE(cap.ok());
  ctx_.regs.Set(0, cap.value());
  // Probe from a domain with no direct access to A's page, so only the
  // capability can authorize the read (in-place dIPC switch keeps thread id).
  ctx_.current_domain = c_;
  EXPECT_TRUE(codoms_.CheckDataAccess(0, pt_, ctx_, 0x1000, 8, AccessType::kRead).ok());
  ctx_.call_depth = 2;  // the creating frame returned
  EXPECT_EQ(codoms_.CheckDataAccess(0, pt_, ctx_, 0x1000, 8, AccessType::kRead).code(),
            ErrorCode::kFault);
}

TEST_F(CapTest, CapAuthorizesControlTransfer) {
  // The dIPC proxy-return pattern: callee gets a capability to a code address
  // its APL does not cover, and may return through it (P3).
  ThreadCapContext callee(3);
  callee.current_domain = b_;
  // Mint from A's rights over its own code page (0x2000), entry-aligned.
  sim::Duration cost;
  auto ret_cap = codoms_.CapFromApl(0, pt_, ctx_, 0x2040, 64, Perm::kCall, CapType::kSync, &cost);
  ASSERT_TRUE(ret_cap.ok());
  // Transfer to the callee thread-context is modeled by copying the register
  // (same thread id in dIPC's in-place switch; reuse ctx_ here).
  ctx_.current_domain = b_;
  ctx_.regs.Set(7, ret_cap.value());
  auto r = codoms_.ControlTransfer(0, pt_, ctx_, 0x2040);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx_.current_domain, a_);
}

// --- Capability spill (DCS and tagged memory) ---

TEST_F(CapTest, DcsPushPopRoundTrip) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kSync, &cost);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(ctx_.dcs.Push(cap.value()).ok());
  EXPECT_EQ(ctx_.dcs.visible_entries(), 1u);
  auto popped = ctx_.dcs.Pop();
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(popped->base, cap->base);
}

TEST_F(CapTest, DcsBaseHidesCallerEntries) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kSync, &cost);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(ctx_.dcs.Push(cap.value()).ok());
  uint64_t saved = ctx_.dcs.SetBase(ctx_.dcs.top());  // proxy: DCS integrity
  EXPECT_EQ(ctx_.dcs.visible_entries(), 0u);
  EXPECT_EQ(ctx_.dcs.Pop().code(), ErrorCode::kPermissionDenied);  // callee can't pop
  ctx_.dcs.RestoreBase(saved);
  EXPECT_TRUE(ctx_.dcs.Pop().ok());
}

class CapStorageTest : public Figure4Test {
 protected:
  CapStorageTest() {
    // A capability-storage page owned by A.
    EXPECT_TRUE(pt_.MapPage(0x8000, machine_.mem().AllocFrame(),
                            hw::PageFlags{.writable = true, .cap_storage = true}, a_)
                    .ok());
  }
};

TEST_F(CapStorageTest, StoreLoadRoundTrip) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kAsync, &cost);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(codoms_.CapStore(pt_, ctx_, 0x8000, cap.value(), &cost).ok());
  auto loaded = codoms_.CapLoad(pt_, ctx_, 0x8000, &cost);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->base, cap->base);
  EXPECT_EQ(loaded->size, cap->size);
}

TEST_F(CapStorageTest, StoreToNonCapPageFaults) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kAsync, &cost);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(codoms_.CapStore(pt_, ctx_, 0x1000, cap.value(), &cost).code(), ErrorCode::kFault);
}

TEST_F(CapStorageTest, MisalignedSlotRejected) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kAsync, &cost);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(codoms_.CapStore(pt_, ctx_, 0x8010, cap.value(), &cost).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(CapStorageTest, PlainWriteDestroysStoredCap) {
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kAsync, &cost);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(codoms_.CapStore(pt_, ctx_, 0x8000, cap.value(), &cost).ok());
  auto pa = pt_.Translate(0x8000);
  ASSERT_TRUE(pa.has_value());
  codoms_.NotifyPlainWrite(*pa + 8, 4);  // forging attempt
  EXPECT_EQ(codoms_.CapLoad(pt_, ctx_, 0x8000, &cost).code(), ErrorCode::kFault);
}

TEST_F(CapStorageTest, PlainWriteErasesExactlyTheSlotsItOverlaps) {
  // A second capability-storage page, so one write spans two frames.
  ASSERT_TRUE(pt_.MapPage(0x9000, machine_.mem().AllocFrame(),
                          hw::PageFlags{.writable = true, .cap_storage = true}, a_)
                  .ok());
  sim::Duration cost;
  auto cap = codoms_.CapFromApl(0, pt_, ctx_, 0x1000, 64, Perm::kRead, CapType::kAsync, &cost);
  ASSERT_TRUE(cap.ok());
  const hw::VirtAddr slots[] = {0x8000, 0x8020, 0x8fe0, 0x9000, 0x9040};
  for (hw::VirtAddr va : slots) {
    ASSERT_TRUE(codoms_.CapStore(pt_, ctx_, va, cap.value(), &cost).ok());
  }
  ASSERT_TRUE(codoms_.CapStore(pt_, ctx_, 0x8020, cap.value(), &cost).ok());  // overwrite
  EXPECT_EQ(codoms_.stored_cap_count(), 5u);
  // A write elsewhere in a frame that holds capabilities destroys none.
  codoms_.NotifyPlainWrite(*pt_.Translate(0x8040), 64);
  EXPECT_EQ(codoms_.stored_cap_count(), 5u);
  // The last byte of 0x8fe0's slot through the first byte of 0x9020's:
  // 0x8fe0 and 0x9000 go, 0x9040 stays. The two frames are adjacent (the
  // frame allocator bumps), so one write spans both.
  const hw::PhysAddr end_of_8 = *pt_.Translate(0x8fff);
  ASSERT_EQ(*pt_.Translate(0x9000), end_of_8 + 1);
  codoms_.NotifyPlainWrite(end_of_8, 0x22);
  EXPECT_EQ(codoms_.stored_cap_count(), 3u);
  EXPECT_EQ(codoms_.CapLoad(pt_, ctx_, 0x8fe0, &cost).code(), ErrorCode::kFault);
  EXPECT_EQ(codoms_.CapLoad(pt_, ctx_, 0x9000, &cost).code(), ErrorCode::kFault);
  EXPECT_TRUE(codoms_.CapLoad(pt_, ctx_, 0x9040, &cost).ok());
  EXPECT_TRUE(codoms_.CapLoad(pt_, ctx_, 0x8000, &cost).ok());
  // A page-sized write clears its frame; a store there counts again.
  codoms_.NotifyPlainWrite(*pt_.Translate(0x8000), hw::kPageSize);
  EXPECT_EQ(codoms_.stored_cap_count(), 1u);
  ASSERT_TRUE(codoms_.CapStore(pt_, ctx_, 0x8020, cap.value(), &cost).ok());
  codoms_.NotifyPlainWrite(*pt_.Translate(0x8030), 1);
  EXPECT_EQ(codoms_.stored_cap_count(), 1u);
  EXPECT_TRUE(codoms_.CapLoad(pt_, ctx_, 0x9040, &cost).ok());
}

TEST_F(CapStorageTest, LoadFromEmptySlotFaults) {
  sim::Duration cost;
  EXPECT_EQ(codoms_.CapLoad(pt_, ctx_, 0x8020, &cost).code(), ErrorCode::kFault);
}

// --- Privileged capability bit ---

TEST_F(Figure4Test, PrivCapBitGatesPrivilegedInstructions) {
  EXPECT_FALSE(codoms_.CanExecutePrivileged(pt_, 0x2000));
  ASSERT_TRUE(pt_.MapPage(0xA000, machine_.mem().AllocFrame(),
                          hw::PageFlags{.executable = true, .priv_cap = true}, b_)
                  .ok());
  EXPECT_TRUE(codoms_.CanExecutePrivileged(pt_, 0xA000));
  // Data pages never execute privileged instructions.
  EXPECT_FALSE(codoms_.CanExecutePrivileged(pt_, 0x1000));
}

}  // namespace
}  // namespace dipc::codoms
