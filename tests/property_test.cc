// Property-based / parameterized sweeps over the core invariants:
// capability monotonicity, APL-cache coherence, policy-cost monotonicity,
// proxy-template bijectivity, event-queue time monotonicity, DCS bounds
// and order, pipe stream integrity, and scheduler time conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "codoms/codoms.h"
#include "dipc/policy.h"
#include "dipc/proxy_template.h"
#include "hw/machine.h"
#include "os/kernel.h"
#include "os/pipe.h"
#include "os/semaphore.h"
#include "rpc/marshal.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace dipc {
namespace {

using base::ErrorCode;
using sim::Duration;
using sim::Rng;

// --- Capability monotonicity: random derivation chains never widen ---

class CapChainProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CapChainProperty, DerivationNeverWidens) {
  hw::Machine machine(1);
  codoms::Codoms cd(machine);
  hw::PageTable& pt = machine.CreatePageTable();
  hw::DomainTag dom = cd.apl_table().AllocateTag();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(pt.MapPage(0x10000 + i * hw::kPageSize, machine.mem().AllocFrame(),
                           hw::PageFlags{.writable = true}, dom)
                    .ok());
  }
  codoms::ThreadCapContext ctx(1);
  ctx.current_domain = dom;
  Rng rng(GetParam());
  sim::Duration cost;
  auto root = cd.CapFromApl(0, pt, ctx, 0x10000, 16 * hw::kPageSize, codoms::Perm::kWrite,
                            codoms::CapType::kSync, &cost);
  ASSERT_TRUE(root.ok());
  codoms::Capability cur = root.value();
  for (int step = 0; step < 24; ++step) {
    // Random sub-range and random (possibly wider) rights request.
    uint64_t off = rng.UniformInt(0, cur.size - 1);
    uint64_t len = rng.UniformInt(1, cur.size - off);
    auto rights = static_cast<codoms::Perm>(rng.UniformInt(1, 3));
    auto child = cd.CapDerive(cur, ctx, cur.base + off, len, rights, codoms::CapType::kSync,
                              &cost);
    if (codoms::AtLeast(cur.rights, rights)) {
      ASSERT_TRUE(child.ok());
      // Invariant: the child covers no byte the parent did not.
      EXPECT_GE(child->base, cur.base);
      EXPECT_LE(child->base + child->size, cur.base + cur.size);
      EXPECT_TRUE(codoms::AtLeast(cur.rights, child->rights));
      cur = child.value();
    } else {
      EXPECT_EQ(child.code(), ErrorCode::kPermissionDenied);
    }
    if (cur.size <= 1) {
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapChainProperty, ::testing::Range<uint64_t>(1, 17));

// --- APL cache coherence: cached decisions always match the table ---

class AplCoherenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AplCoherenceProperty, CacheNeverServesStaleGrants) {
  hw::Machine machine(2);
  codoms::Codoms cd(machine);
  Rng rng(GetParam());
  std::vector<hw::DomainTag> tags;
  for (int i = 0; i < 6; ++i) {
    tags.push_back(cd.apl_table().AllocateTag());
  }
  for (int step = 0; step < 200; ++step) {
    hw::DomainTag src = tags[rng.UniformInt(0, tags.size() - 1)];
    hw::DomainTag dst = tags[rng.UniformInt(0, tags.size() - 1)];
    hw::CpuId cpu = static_cast<hw::CpuId>(rng.UniformInt(0, 1));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        cd.apl_table().Grant(src, dst, static_cast<codoms::Perm>(rng.UniformInt(1, 3)));
        break;
      case 1:
        cd.apl_table().Revoke(src, dst);
        break;
      default: {
        // The coherence check: what the (possibly stale) cache path decides
        // must equal what the authoritative table says right now.
        auto ref = cd.EnsureCached(cpu, src);
        codoms::Perm cached = cd.apl_cache(cpu).entry(ref.hw_tag).apl.PermFor(dst);
        codoms::Perm truth = cd.apl_table().For(src).PermFor(dst);
        EXPECT_EQ(cached, truth) << "step " << step;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AplCoherenceProperty, ::testing::Range<uint64_t>(100, 112));

// --- Policy costs: monotone in the property set ---

TEST(PolicyCostProperty, UnionIsCommutativeAndIdempotent) {
  for (uint32_t a = 0; a < 64; ++a) {
    for (uint32_t b = 0; b < 64; ++b) {
      core::IsolationPolicy pa{a}, pb{b};
      EXPECT_EQ(pa.Union(pb).bits, pb.Union(pa).bits);
      EXPECT_EQ(pa.Union(pa).bits, pa.bits);
    }
  }
}

TEST(PolicyCostProperty, MoreIsolationNeverCostsLess) {
  hw::CostModel cm;
  core::EntrySignature sig{.in_regs = 3, .out_regs = 1, .stack_bytes = 64};
  auto total = [&](uint32_t bits) {
    core::PolicyCosts c = core::ComputePolicyCosts(cm, core::IsolationPolicy{bits}, sig);
    return (c.caller_call + c.caller_ret + c.callee_entry + c.callee_ret + c.proxy_call +
            c.proxy_ret)
        .nanos();
  };
  for (uint32_t bits = 0; bits < 64; ++bits) {
    for (uint32_t bit = 1; bit < 64; bit <<= 1) {
      if ((bits & bit) == 0) {
        EXPECT_GE(total(bits | bit), total(bits)) << "adding bit " << bit << " to " << bits;
      }
    }
  }
}

// --- Proxy templates: the id space is a bijection over the buckets ---

TEST(ProxyTemplateProperty, IdsAreUniqueAcrossAllBuckets) {
  std::set<uint32_t> ids;
  for (uint32_t in = 0; in < core::ProxyTemplateLibrary::kInRegsBuckets; ++in) {
    for (uint32_t out = 0; out < core::ProxyTemplateLibrary::kOutRegsBuckets; ++out) {
      for (uint32_t stack : {0u, 32u, 256u, 4096u}) {
        for (uint32_t bits = 0; bits < core::ProxyTemplateLibrary::kPolicySets; ++bits) {
          for (bool cross : {false, true}) {
            core::EntrySignature sig{.in_regs = in, .out_regs = out, .stack_bytes = stack};
            ids.insert(
                core::ProxyTemplateLibrary::Select(sig, core::IsolationPolicy{bits}, cross).id);
          }
        }
      }
    }
  }
  EXPECT_EQ(ids.size(), core::ProxyTemplateLibrary::Count());
}

// --- Event queue: firing order is globally monotone under random load ---

class EventQueueProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventQueueProperty, TimeNeverRunsBackwards) {
  sim::EventQueue q;
  Rng rng(GetParam());
  std::vector<double> fire_times;
  std::vector<sim::EventId> pending;
  for (int i = 0; i < 300; ++i) {
    sim::EventId id = q.ScheduleAfter(Duration::Nanos(rng.UniformInt(0, 1000)),
                                      [&] { fire_times.push_back(q.now().nanos()); });
    pending.push_back(id);
    if (rng.Chance(0.25) && !pending.empty()) {
      q.Cancel(pending[rng.UniformInt(0, pending.size() - 1)]);
    }
    if (rng.Chance(0.3)) {
      q.RunOne();
    }
  }
  q.RunUntilIdle();
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty, ::testing::Range<uint64_t>(7, 19));

// --- DCS: the visible window always respects base <= top <= capacity ---

class DcsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DcsProperty, BoundsInvariantUnderRandomOps) {
  constexpr uint64_t kCapacity = 64;
  codoms::Dcs dcs(kCapacity);
  Rng rng(GetParam());
  // A shadow stack of what was pushed: each Pop must return its Push's
  // capability, whether that entry grew the stack or reused a popped slot.
  std::vector<codoms::Capability> shadow;
  std::vector<uint64_t> saved_bases;
  uint64_t pushes = 0;
  uint64_t exhausted = 0;
  for (int i = 0; i < 2000; ++i) {
    // Phases of 128 ops alternate between filling and draining the stack.
    const uint64_t push_below = (i / 128) % 2 == 0 ? 6 : 2;
    const uint64_t r = rng.UniformInt(0, 9);
    if (r < push_below) {
      codoms::Capability cap;
      cap.base = 0x1000 + (++pushes) * 64;
      cap.size = 64;
      cap.rights = codoms::Perm::kRead;
      base::Status s = dcs.Push(cap);
      if (shadow.size() < kCapacity) {
        ASSERT_TRUE(s.ok());
        shadow.push_back(cap);
      } else {
        ASSERT_EQ(s.code(), ErrorCode::kResourceExhausted);
        ++exhausted;
      }
    } else if (r < 8) {
      auto popped = dcs.Pop();
      if (shadow.size() > dcs.base()) {
        ASSERT_TRUE(popped.ok());
        ASSERT_EQ(popped.value().base, shadow.back().base);
        ASSERT_EQ(popped.value().size, shadow.back().size);
        shadow.pop_back();
      } else {
        ASSERT_EQ(popped.code(), ErrorCode::kPermissionDenied);
      }
    } else if (r == 8) {
      saved_bases.push_back(dcs.SetBase(dcs.top()));
    } else if (!saved_bases.empty() && saved_bases.back() <= dcs.top()) {
      dcs.RestoreBase(saved_bases.back());
      saved_bases.pop_back();
    }
    ASSERT_LE(dcs.base(), dcs.top());
    ASSERT_EQ(dcs.top(), shadow.size());
    ASSERT_LE(dcs.top(), kCapacity);
    ASSERT_EQ(dcs.visible_entries(), dcs.top() - dcs.base());
  }
  EXPECT_GT(exhausted, 0u);  // the runs reached the bound
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcsProperty, ::testing::Range<uint64_t>(21, 29));

// --- Pipes: a random chunked stream arrives intact and in order ---

class PipeStreamProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipeStreamProperty, ChunkedTransferPreservesBytes) {
  hw::Machine machine(2);
  codoms::Codoms cd(machine);
  os::Kernel kernel(machine, cd);
  os::Process& p = kernel.CreateProcess("p");
  auto pipe = std::make_shared<os::Pipe>(kernel);
  constexpr uint64_t kTotal = 48 * 1024;
  auto wbuf = kernel.MapAnonymous(p, kTotal, hw::PageFlags{.writable = true});
  auto rbuf = kernel.MapAnonymous(p, kTotal, hw::PageFlags{.writable = true});
  ASSERT_TRUE(wbuf.ok() && rbuf.ok());
  uint64_t seed = GetParam();
  std::vector<std::byte> sent(kTotal);
  Rng fill(seed);
  for (auto& b : sent) {
    b = static_cast<std::byte>(fill.Next() & 0xFF);
  }
  kernel.Spawn(p, "writer", [&, pipe](os::Env env) -> sim::Task<void> {
    EXPECT_TRUE(env.kernel->UserWrite(*env.self, wbuf.value(), sent).ok());
    Rng rng(seed ^ 1);
    uint64_t off = 0;
    while (off < kTotal) {
      uint64_t n = std::min<uint64_t>(rng.UniformInt(1, 9000), kTotal - off);
      auto r = co_await pipe->Write(env, wbuf.value() + off, n);
      EXPECT_TRUE(r.ok());
      off += n;
    }
    pipe->Close();
  });
  std::vector<std::byte> got;
  kernel.Spawn(p, "reader", [&, pipe](os::Env env) -> sim::Task<void> {
    Rng rng(seed ^ 2);
    while (true) {
      uint64_t want = rng.UniformInt(1, 7000);
      auto r = co_await pipe->Read(env, rbuf.value(), want);
      EXPECT_TRUE(r.ok());
      if (r.value() == 0) {
        co_return;
      }
      std::vector<std::byte> chunk(r.value());
      EXPECT_TRUE(env.kernel->UserRead(*env.self, rbuf.value(), chunk).ok());
      got.insert(got.end(), chunk.begin(), chunk.end());
    }
  });
  kernel.Run();
  ASSERT_EQ(got.size(), sent.size());
  EXPECT_EQ(got, sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipeStreamProperty, ::testing::Values(31, 32, 33, 34));

// --- Marshal: encode/decode round-trips arbitrary field sequences ---

class MarshalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MarshalProperty, RandomFieldSequencesRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    rpc::Encoder enc;
    std::vector<int> kinds;
    std::vector<uint64_t> nums;
    std::vector<std::string> strs;
    int fields = static_cast<int>(rng.UniformInt(1, 12));
    for (int f = 0; f < fields; ++f) {
      int kind = static_cast<int>(rng.UniformInt(0, 2));
      kinds.push_back(kind);
      if (kind == 0) {
        uint64_t v = rng.Next();
        nums.push_back(v);
        enc.PutU64(v);
      } else if (kind == 1) {
        uint64_t v = rng.Next() & 0xFFFFFFFF;
        nums.push_back(v);
        enc.PutU32(static_cast<uint32_t>(v));
      } else {
        std::string s(rng.UniformInt(0, 40), 'x');
        for (auto& ch : s) {
          ch = static_cast<char>('a' + rng.UniformInt(0, 25));
        }
        strs.push_back(s);
        enc.PutString(s);
      }
    }
    rpc::Decoder dec(enc.bytes());
    size_t ni = 0, si = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        EXPECT_EQ(dec.GetU64().value(), nums[ni++]);
      } else if (kind == 1) {
        EXPECT_EQ(dec.GetU32().value(), static_cast<uint32_t>(nums[ni++]));
      } else {
        EXPECT_EQ(dec.GetString().value(), strs[si++]);
      }
    }
    EXPECT_TRUE(dec.exhausted());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalProperty, ::testing::Range<uint64_t>(41, 47));

// --- Scheduler: accounted time per CPU never exceeds wall time ---

class ConservationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConservationProperty, AccountedTimeBoundedByWallTime) {
  hw::Machine machine(4);
  codoms::Codoms cd(machine);
  os::Kernel kernel(machine, cd);
  os::Process& p = kernel.CreateProcess("p");
  auto sem = std::make_shared<os::Semaphore>(2);
  Rng seeds(GetParam());
  for (int i = 0; i < 10; ++i) {
    uint64_t seed = seeds.Next();
    kernel.Spawn(p, "w", [&, sem, seed](os::Env env) -> sim::Task<void> {
      Rng rng(seed);
      for (int op = 0; op < 20; ++op) {
        co_await env.kernel->Spend(*env.self, Duration::Nanos(rng.UniformInt(50, 5000)),
                                   os::TimeCat::kUser);
        if (rng.Chance(0.5)) {
          co_await sem->Wait(env);
          co_await env.kernel->Spend(*env.self, Duration::Nanos(rng.UniformInt(10, 500)),
                                     os::TimeCat::kKernel);
          co_await sem->Post(env);
        }
        if (rng.Chance(0.2)) {
          co_await env.kernel->Sleep(env, Duration::Nanos(rng.UniformInt(100, 3000)));
        }
      }
    });
  }
  kernel.Run();
  kernel.FlushIdleAccounting();
  double wall = kernel.now().nanos();
  for (uint32_t c = 0; c < 4; ++c) {
    double total = kernel.accounting().cpu(c).Total().nanos();
    EXPECT_LE(total, wall * 1.0001) << "cpu " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty, ::testing::Range<uint64_t>(51, 59));

}  // namespace
}  // namespace dipc
