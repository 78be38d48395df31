// Unit tests for the observability layer (src/obs/): registry handle
// identity and kind collisions, concurrent counter increments from real
// threads (the TSan gate hammers this), histogram percentiles, snapshot
// JSON well-formedness, trace-ring wraparound semantics, Chrome trace
// export, and the end-to-end wiring from a live channel into the registry.
//
// Every test also compiles (and most still assert something) under
// -DDIPC_OBS_OFF, guarded where the assertions require live metrics.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/check.h"
#include "chan/channel.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fabric/fabric.h"
#include "fabric_end_state.h"
#include "hw/machine.h"
#include "obs/metric_schema.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/accounting.h"
#include "os/kernel.h"

namespace dipc::obs {
namespace {

// Minimal structural JSON validator: enough to catch unbalanced braces,
// unterminated strings and trailing commas in the snapshot/trace output
// without a JSON dependency.
bool JsonIsWellFormed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        prev_significant = c;
        break;
      case '}':
        if (prev_significant == ',' || stack.empty() || stack.back() != '{') {
          return false;
        }
        stack.pop_back();
        prev_significant = c;
        break;
      case ']':
        if (prev_significant == ',' || stack.empty() || stack.back() != '[') {
          return false;
        }
        stack.pop_back();
        prev_significant = c;
        break;
      case ',':
      case ':':
        prev_significant = c;
        break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) {
          prev_significant = c;
        }
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ObsJsonValidator, CatchesMalformedJson) {
  EXPECT_TRUE(JsonIsWellFormed("{}"));
  EXPECT_TRUE(JsonIsWellFormed(R"({"a": [1, 2], "b": {"c": "x,]}"}})"));
  EXPECT_FALSE(JsonIsWellFormed("{"));
  EXPECT_FALSE(JsonIsWellFormed("{\"a\": 1,}"));
  EXPECT_FALSE(JsonIsWellFormed("{\"a\": [1, 2}"));
  EXPECT_FALSE(JsonIsWellFormed("{\"a"));
}

TEST(ObsSchema, MetricPatternMatchesComponentRules) {
  // Exact names.
  EXPECT_TRUE(MetricPatternMatches("fault/injected", "fault/injected"));
  EXPECT_FALSE(MetricPatternMatches("fault/injected", "fault/injected/extra"));
  EXPECT_FALSE(MetricPatternMatches("fault/injected", "fault"));
  // '*' matches exactly one component.
  EXPECT_TRUE(MetricPatternMatches("chan/*/sends", "chan/42/sends"));
  EXPECT_FALSE(MetricPatternMatches("chan/*/sends", "chan/42/43/sends"));
  EXPECT_FALSE(MetricPatternMatches("chan/*/sends", "chan/sends"));
  // A trailing-'*' component matches by prefix.
  EXPECT_TRUE(MetricPatternMatches("os/sched/cpu*/runq_depth", "os/sched/cpu3/runq_depth"));
  EXPECT_TRUE(MetricPatternMatches("os/sched/cpu*/runq_depth", "os/sched/cpu/runq_depth"));
  EXPECT_FALSE(MetricPatternMatches("os/sched/cpu*/runq_depth", "os/sched/gpu3/runq_depth"));
  // A final '**' eats one or more remaining components.
  EXPECT_TRUE(MetricPatternMatches("fault/point/**", "fault/point/chan/send"));
  EXPECT_TRUE(MetricPatternMatches("fault/point/**", "fault/point/x"));
  EXPECT_FALSE(MetricPatternMatches("fault/point/**", "fault/point"));
  // Kind-aware schema lookup: the same name is only valid for its kind.
  EXPECT_TRUE(NameMatchesSchema("chan/7/desc/park_ns", MetricKind::kHistogram));
  EXPECT_FALSE(NameMatchesSchema("chan/7/desc/park_ns", MetricKind::kCounter));
  EXPECT_FALSE(NameMatchesSchema("definitely/not/in/schema", MetricKind::kCounter));
}

TEST(ObsSchema, OffSchemaRegistrationIsRecordedAndDrained) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#else
  Registry& reg = Registry::Default();
  // Other suites in this binary register test-local names; flush theirs so
  // this test only sees its own violation.
  (void)reg.TakeSchemaViolations();
  (void)reg.GetCounter("fault/injected");  // schema-conformant: no violation
  (void)reg.GetCounter("obs_schema_test/definitely/off/schema");
  std::vector<std::string> v = reg.TakeSchemaViolations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("obs_schema_test/definitely/off/schema"), std::string::npos);
  EXPECT_NE(v[0].find("counter"), std::string::npos);  // says which kind
  // Drain-on-read: a second take is empty, and re-Get of an
  // already-registered name does not re-validate.
  (void)reg.GetCounter("obs_schema_test/definitely/off/schema");
  EXPECT_TRUE(reg.TakeSchemaViolations().empty());
#endif
}

TEST(ObsRegistry, SameNameReturnsSameHandle) {
  Registry& reg = Registry::Default();
  Counter* a = reg.GetCounter("obs_test/identity");
  Counter* b = reg.GetCounter("obs_test/identity");
  EXPECT_EQ(a, b);
  Histogram* h1 = reg.GetHistogram("obs_test/identity_h");
  Histogram* h2 = reg.GetHistogram("obs_test/identity_h");
  EXPECT_EQ(h1, h2);
}

TEST(ObsRegistry, KindCollisionReturnsDetachedHandle) {
  Registry& reg = Registry::Default();
  Counter* c = reg.GetCounter("obs_test/collide");
  ASSERT_NE(c, nullptr);
  // Same name, wrong kind: must not crash, must hand back a usable dummy.
  Gauge* g = reg.GetGauge("obs_test/collide");
  ASSERT_NE(g, nullptr);
  g->Set(42);
  c->Add();
#ifndef DIPC_OBS_OFF
  // The detached gauge must not shadow the real counter in the snapshot.
  std::string snap = reg.SnapshotJson();
  EXPECT_NE(snap.find("\"obs_test/collide\""), std::string::npos);
#endif
}

TEST(ObsRegistry, ConcurrentCounterIncrementsAreExact) {
  Registry& reg = Registry::Default();
  Counter* c = reg.GetCounter("obs_test/concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
#else
  EXPECT_EQ(c->value(), 0u);
#endif
}

TEST(ObsRegistry, ConcurrentHistogramRecordsKeepCountAndBounds) {
  Registry& reg = Registry::Default();
  Histogram* h = reg.GetHistogram("obs_test/concurrent_h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(1.0 + t * 100.0 + (i % 7));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->min_ns(), 1u);
  EXPECT_GE(h->max_ns(), 300u);
#endif
}

TEST(ObsHistogram, PercentilesLandInTheRightBucketRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(10.0);  // bucket [8, 16)
  }
  h.Record(1000.0);  // one outlier, bucket [512, 1024)
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(h.count(), 101u);
  double p50 = h.Percentile(50);
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  // The p100 must be clamped to the observed max, not the bucket top.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_EQ(h.min_ns(), 10u);
  EXPECT_EQ(h.max_ns(), 1000u);
#endif
}

TEST(ObsHistogram, ZeroAndNegativeSamplesLandInBucketZero) {
  Histogram h;
  h.Record(0.0);
  h.Record(-5.0);
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
#endif
}

TEST(ObsRegistry, SnapshotJsonIsWellFormed) {
  Registry& reg = Registry::Default();
  reg.GetCounter("obs_test/snap_c")->Add(3);
  reg.GetGauge("obs_test/snap_g")->Set(-7);
  reg.GetHistogram("obs_test/snap_h")->Record(12345.0);
  std::string snap = reg.SnapshotJson();
  EXPECT_TRUE(JsonIsWellFormed(snap)) << snap.substr(0, 400);
#ifndef DIPC_OBS_OFF
  EXPECT_NE(snap.find("\"obs_test/snap_c\": 3"), std::string::npos);
  EXPECT_NE(snap.find("\"obs_test/snap_g\": -7"), std::string::npos);
  EXPECT_NE(snap.find("\"obs_test/snap_h\""), std::string::npos);
#else
  EXPECT_EQ(snap, "{}");
#endif
}

// prefix + id + rest, built by appending: GCC 12's -O3 -Wrestrict flags the
// memcpy of `"literal" + std::to_string(id)` inlined into a test body (a
// false positive).
std::string IdName(std::string_view prefix, uint64_t id, std::string_view rest) {
  std::string name(prefix);
  name += std::to_string(id);
  name += rest;
  return name;
}

// How many snapshot keys are spelled `name`.
int KeysNamed(const std::string& snap, const std::string& name) {
  int n = 0;
  const std::string needle = "\"" + name + "\":";
  for (size_t pos = snap.find(needle); pos != std::string::npos; pos = snap.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

// The value of counter `name` in a snapshot, or -1 when it is absent.
long long CounterIn(const std::string& snap, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const size_t pos = snap.find(needle);
  return pos == std::string::npos ? -1 : std::atoll(snap.c_str() + pos + needle.size());
}

// The registry remembers the normalized names that passed the schema, and
// only those: a failing name is checked and recorded at every first
// registration, under each spelling and again after it was freed.
TEST(ObsRegistry, OffSchemaNameIsRecordedOnEveryRegistration) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry& reg = Registry::Default();
  (void)reg.TakeSchemaViolations();
  for (int id : {71, 71, 72}) {
    MetricSet s;
    (void)s.GetCounter(IdName("obs_unlisted/", id, "/calls"));
    (void)s.GetCounter(IdName("mpmc/", id, "/spin_hits"));  // in the schema
  }
  EXPECT_EQ(reg.TakeSchemaViolations(),
            (std::vector<std::string>{"counter obs_unlisted/71/calls",
                                      "counter obs_unlisted/71/calls",
                                      "counter obs_unlisted/72/calls"}));
}

// The remembered passes are exact only while no pattern component tells
// one id from another: a component that is all digits, or all digits
// before a trailing '*', would match some ids and not others.
TEST(ObsRegistry, NoSchemaPatternHasAnAllDigitComponent) {
  for (const MetricSchemaEntry& e : kMetricSchema) {
    std::string_view rest = e.pattern;
    while (!rest.empty()) {
      const size_t slash = rest.find('/');
      std::string_view part = rest.substr(0, slash);
      rest = slash == std::string_view::npos ? std::string_view() : rest.substr(slash + 1);
      if (!part.empty() && part.back() == '*') {
        part.remove_suffix(1);
      }
      EXPECT_FALSE(!part.empty() && part.find_first_not_of("0123456789") == std::string_view::npos)
          << e.pattern;
    }
  }
}

// A dead object's counters add into the total of their normalized name,
// and its histograms merge into theirs sample for sample.
TEST(ObsRegistry, DeadObjectsFoldCountersAndHistogramsIntoNormalizedTotals) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry& reg = Registry::Default();
  Histogram expected;
  {
    MetricSet a;
    MetricSet b;
    a.GetCounter("obs_fold/11/calls")->Add(3);
    b.GetCounter("obs_fold/12/calls")->Add(4);
    for (double ns : {5.0, 900.0}) {
      a.GetHistogram("obs_fold/11/call_ns")->Record(ns);
      expected.Record(ns);
    }
    for (double ns : {0.0, 70.0, 70000.0}) {
      b.GetHistogram("obs_fold/12/call_ns")->Record(ns);
      expected.Record(ns);
    }
    const std::string live = reg.SnapshotJson();
    EXPECT_EQ(CounterIn(live, "obs_fold/11/calls"), 3);
    EXPECT_EQ(CounterIn(live, "obs_fold/12/calls"), 4);
    EXPECT_EQ(KeysNamed(live, "obs_fold/*/calls"), 0);
  }
  const std::string dead = reg.SnapshotJson();
  EXPECT_TRUE(JsonIsWellFormed(dead)) << dead.substr(0, 400);
  for (const char* gone : {"obs_fold/11/calls", "obs_fold/12/calls", "obs_fold/11/call_ns",
                           "obs_fold/12/call_ns"}) {
    EXPECT_EQ(KeysNamed(dead, gone), 0) << gone;
  }
  EXPECT_EQ(CounterIn(dead, "obs_fold/*/calls"), 7);
  const Histogram* total = reg.GetHistogram("obs_fold/*/call_ns");
  EXPECT_EQ(total->count(), expected.count());
  EXPECT_EQ(total->sum_ns(), expected.sum_ns());
  EXPECT_EQ(total->min_ns(), expected.min_ns());
  EXPECT_EQ(total->max_ns(), expected.max_ns());
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(total->bucket(b), expected.bucket(b)) << "bucket " << b;
  }
}

// A gauge is a level, not a count: a dead object's gauges leave no total.
TEST(ObsRegistry, DeadObjectGaugesAreDropped) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry& reg = Registry::Default();
  {
    MetricSet s;
    s.GetGauge("obs_drop/21/depth")->Set(9);
    s.GetGauge("obs_drop/level")->Set(-2);
    const std::string live = reg.SnapshotJson();
    EXPECT_NE(live.find("\"obs_drop/21/depth\": 9"), std::string::npos);
    EXPECT_NE(live.find("\"obs_drop/level\": -2"), std::string::npos);
  }
  const std::string dead = reg.SnapshotJson();
  for (const char* gone : {"obs_drop/21/depth", "obs_drop/*/depth", "obs_drop/level"}) {
    EXPECT_EQ(KeysNamed(dead, gone), 0) << gone;
  }
}

// A name with no id is its own normalized name: the total a dead object
// left under it and a live object's count print as one key holding the
// sum, as one shared handle would. A live name with an id prints beside
// its total, and normalizing sums the two.
TEST(ObsRegistry, LiveNameAndRetiredTotalOfOneSpellingPrintAsOneSum) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry& reg = Registry::Default();
  {
    MetricSet first;
    first.GetCounter("obs_merge/calls")->Add(5);
    first.GetCounter("obs_merge/31/calls")->Add(1);
  }
  MetricSet second;
  second.GetCounter("obs_merge/calls")->Add(2);
  second.GetCounter("obs_merge/32/calls")->Add(10);
  const std::string snap = reg.SnapshotJson();
  EXPECT_EQ(KeysNamed(snap, "obs_merge/calls"), 1);
  EXPECT_EQ(CounterIn(snap, "obs_merge/calls"), 7);
  EXPECT_EQ(CounterIn(snap, "obs_merge/32/calls"), 10);
  EXPECT_EQ(CounterIn(snap, "obs_merge/*/calls"), 1);
}

TEST(ObsRegistry, ResetClearsRetiredTotals) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry& reg = Registry::Default();
  MetricSet live;
  live.GetCounter("obs_reset/41/calls")->Add(2);
  {
    MetricSet dead;
    dead.GetCounter("obs_reset/42/calls")->Add(3);
  }
  EXPECT_EQ(CounterIn(reg.SnapshotJson(), "obs_reset/*/calls"), 3);
  const size_t before = reg.size();
  reg.Reset();
  const std::string snap = reg.SnapshotJson();
  EXPECT_EQ(KeysNamed(snap, "obs_reset/*/calls"), 0);
  EXPECT_EQ(CounterIn(snap, "obs_reset/41/calls"), 0);  // held: zeroed, still there
  EXPECT_LT(reg.size(), before);
}

// Objects alive at once share a name's handle, and it stays registered
// until the last of them dies (ASan flags a use of a freed handle).
TEST(ObsRegistry, HandleStaysValidWhileAnyHolderLives) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry& reg = Registry::Default();
  {
    auto first = std::make_unique<MetricSet>();
    MetricSet second;
    Counter* a = first->GetCounter("obs_hold/51/calls");
    Counter* b = second.GetCounter("obs_hold/51/calls");
    ASSERT_EQ(a, b);
    a->Add(4);
    first.reset();
    b->Add(1);
    EXPECT_EQ(b->value(), 5u);
    const std::string snap = reg.SnapshotJson();
    EXPECT_EQ(CounterIn(snap, "obs_hold/51/calls"), 5);
    EXPECT_EQ(KeysNamed(snap, "obs_hold/*/calls"), 0);
  }
  EXPECT_EQ(CounterIn(reg.SnapshotJson(), "obs_hold/*/calls"), 5);
}

// Host threads build and destroy holders concurrently, several on one name
// at a time: every count lands in the totals exactly once (the TSan gate
// runs this).
TEST(ObsRegistry, ConcurrentHoldsAndReleasesFoldExactly) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kRounds; ++i) {
        MetricSet s;
        s.GetCounter(IdName("obs_conc/", 60 + i % 3, "/calls"))->Add(1);
        s.GetHistogram(IdName("obs_conc/", 60 + i % 3, "/call_ns"))->Record(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  Registry& reg = Registry::Default();
  const std::string snap = reg.SnapshotJson();
  for (const char* gone : {"obs_conc/60/calls", "obs_conc/61/calls", "obs_conc/62/calls"}) {
    EXPECT_EQ(KeysNamed(snap, gone), 0) << gone;
  }
  EXPECT_EQ(reg.GetCounter("obs_conc/*/calls")->value(),
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(reg.GetHistogram("obs_conc/*/call_ns")->count(),
            static_cast<uint64_t>(kThreads) * kRounds);
}

TEST(ObsTrace, WraparoundKeepsTheNewestEvents) {
  TraceRing ring;
  ring.Enable(/*capacity_per_cpu=*/16);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.Record(0, EventType::kSendBatch, 1, i, sim::Time::FromPicos(static_cast<int64_t>(i)));
  }
  ring.Disable();
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(ring.recorded(0), 100u);
  EXPECT_EQ(ring.held(0), 16u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The survivors must be exactly the newest 16, in timestamp order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 84 + i);
  }
#else
  EXPECT_EQ(ring.recorded(0), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
#endif
}

TEST(ObsTrace, EventCostIsZeroWhileDisabled) {
  TraceRing ring;
  EXPECT_EQ(ring.event_cost(), sim::Duration::Zero());
  ring.Enable(8);
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(ring.event_cost(), TraceRing::kEventCost);
  EXPECT_GT(TraceRing::kEventCost, sim::Duration::Zero());
#else
  EXPECT_EQ(ring.event_cost(), sim::Duration::Zero());
#endif
  ring.Disable();
  EXPECT_EQ(ring.event_cost(), sim::Duration::Zero());
}

TEST(ObsTrace, ConcurrentPerCpuRecordingIsRaceFree) {
  // One real thread per simulated CPU, honoring the single-writer-per-CPU
  // contract; TSan turns any cross-thread aliasing bug into a failure.
  TraceRing ring;
  ring.Enable(1024);
  constexpr int kCpus = 4;
  constexpr uint64_t kEvents = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kCpus);
  for (int cpu = 0; cpu < kCpus; ++cpu) {
    threads.emplace_back([&ring, cpu] {
      for (uint64_t i = 0; i < kEvents; ++i) {
        ring.Record(static_cast<uint32_t>(cpu), EventType::kRecvBatch, 7, i,
                    sim::Time::FromPicos(static_cast<int64_t>(i)));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ring.Disable();
#ifndef DIPC_OBS_OFF
  for (int cpu = 0; cpu < kCpus; ++cpu) {
    EXPECT_EQ(ring.recorded(static_cast<uint32_t>(cpu)), kEvents);
    EXPECT_EQ(ring.held(static_cast<uint32_t>(cpu)), 1024u);
  }
#endif
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormedAndTyped) {
  TraceRing ring;
  ring.Enable(64);
  ring.Record(0, EventType::kProxyEnter, 3, 48, sim::Time::FromPicos(1000));
  ring.Record(1, EventType::kFutexPark, 4, 0, sim::Time::FromPicos(9000),
              sim::Duration::Picos(5000));
  ring.Disable();
  std::string json = ring.ChromeTraceJson();
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#ifndef DIPC_OBS_OFF
  // Instant event for the enter, span ("X" with dur) for the park.
  EXPECT_NE(json.find("\"proxy_enter\""), std::string::npos);
  EXPECT_NE(json.find("\"futex_park\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
#endif
}

TEST(ObsTrace, EveryEventTypeHasAName) {
  for (int i = 0; i < kEventTypeCount; ++i) {
    EXPECT_STRNE(EventTypeName(static_cast<EventType>(i)), "unknown");
  }
}

// End-to-end: a live channel's traffic must land in the registry under the
// channel's own obs id, so "which tenant is stalling whom" is answerable
// from the snapshot alone.
TEST(ObsWiring, ChannelTrafficLandsInRegistryUnderItsObsId) {
  hw::Machine machine(4);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);
  os::Process& prod = dipc.CreateDipcProcess("producer");
  os::Process& cons = dipc.CreateDipcProcess("consumer");
  auto ch = chan::Channel::Create(dipc, prod, cons, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  chan::Channel& chan = *ch.value();
  constexpr int kMessages = 5;
  kernel.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < kMessages; ++i) {
      auto buf = co_await chan.AcquireBuf(env);
      EXPECT_TRUE(buf.ok());
      EXPECT_TRUE((co_await chan.Send(env, buf.value(), 64)).ok());
    }
  });
  kernel.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < kMessages; ++i) {
      auto msg = co_await chan.Recv(env);
      EXPECT_TRUE(msg.ok());
      EXPECT_TRUE((co_await chan.Release(env, msg.value())).ok());
    }
  });
  kernel.Run();
  EXPECT_EQ(chan.sends(), static_cast<uint64_t>(kMessages));
  const std::string prefix = "chan/" + std::to_string(chan.obs_id());
  Registry& reg = Registry::Default();
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(reg.GetCounter(prefix + "/sends")->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.GetCounter(prefix + "/recvs")->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.GetCounter(prefix + "/acquires")->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.GetCounter(prefix + "/releases")->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.GetHistogram(prefix + "/send_batch")->count(),
            static_cast<uint64_t>(kMessages));
  // Capability churn mirrors the channel's own getters.
  EXPECT_EQ(reg.GetCounter(prefix + "/cold_mints")->value(), chan.cold_mints());
#else
  // Compiled out: handles exist but stay silent, and the member-variable
  // getters above still worked — the public API does not depend on obs.
  EXPECT_EQ(reg.GetCounter(prefix + "/sends")->value(), 0u);
#endif
}

// Shared scaffolding for the fabric tracing tests: one tenant, one worker,
// per-test kernel so trace/accounting state is isolated.
struct FabricRig {
  hw::Machine machine{6};
  codoms::Codoms codoms{machine};
  os::Kernel kernel{machine, codoms};
  core::Dipc dipc{kernel};
  std::vector<os::Process*> clients;
  std::vector<os::Process*> workers;
  std::shared_ptr<fabric::ServiceFabric> fab;

  explicit FabricRig(fabric::FabricConfig cfg = {.req_slots = 8,
                                                 .req_bytes = 64,
                                                 .resp_slots = 8,
                                                 .resp_bytes = 64},
                     uint32_t tenants = 1, uint32_t worker_count = 1) {
    for (uint32_t c = 0; c < tenants; ++c) {
      clients.push_back(&dipc.CreateDipcProcess("tenant"));
    }
    for (uint32_t w = 0; w < worker_count; ++w) {
      workers.push_back(&dipc.CreateDipcProcess("worker"));
    }
    auto f = fabric::ServiceFabric::Create(dipc, clients, workers, cfg);
    DIPC_CHECK(f.ok());
    fab = f.value();
  }

  void SpawnServe(fabric::ServiceFabric::Handler handler) {
    auto f = fab;
    kernel.Spawn(*workers[0], "serve", [f, handler](os::Env env) -> sim::Task<void> {
      co_await f->Serve(env, 0, 0, handler);
    });
  }
};

// The per-object names in a snapshot of the objects that took ids after
// `base`, each id rebased to its offset from `base` (fabric/<base+1>/calls
// reads fabric/1/calls), so two worlds built alike list the same names.
std::set<std::string> WorldNames(const std::string& snap, uint32_t base) {
  static const std::string kPrefixes[] = {"chan/", "fanout/", "fanin/", "mpmc/", "proxy/",
                                          "fabric/"};
  std::set<std::string> out;
  for (size_t open = snap.find('"'); open != std::string::npos;
       open = snap.find('"', snap.find('"', open + 1) + 1)) {
    const std::string name = snap.substr(open + 1, snap.find('"', open + 1) - open - 1);
    for (const std::string& prefix : kPrefixes) {
      if (name.rfind(prefix, 0) != 0) {
        continue;
      }
      const uint64_t id = std::strtoull(name.c_str() + prefix.size(), nullptr, 10);
      const size_t rest = name.find('/', prefix.size());
      if (id > base && rest != std::string::npos) {
        out.insert(IdName(prefix, id - base, std::string_view(name).substr(rest)));
      }
    }
  }
  return out;
}

// Regression: a destroyed world's metrics stayed registered, so every world
// a process built added its per-object names for good (perfbench
// fabric_rpc's nine 16-tenant x 4-worker set-up worlds left 14,624 names).
// Now each destruction folds them into their totals: the registry returns
// to one size after every destruction, and a live world lists every name
// the first world listed.
TEST(ObsRegistry, DestroyedFabricWorldsLeaveTheRegistryAtOneSize) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  constexpr uint32_t kTenants = 16;
  constexpr uint32_t kWorkers = 4;
  Registry& reg = Registry::Default();
  std::set<std::string> first_world;
  std::vector<size_t> sizes;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(IdName("round ", round, ""));
    const uint32_t base = NewObjectId();
    {
      FabricRig rig({.req_slots = 8, .req_bytes = 64, .resp_slots = 8, .resp_bytes = 64},
                    kTenants, kWorkers);
      auto fab = rig.fab;
      for (uint32_t c = 0; c < kTenants; ++c) {
        for (uint32_t w = 0; w < kWorkers; ++w) {
          rig.kernel.Spawn(*rig.workers[w], "serve", [fab, c, w](os::Env env) -> sim::Task<void> {
            co_await fab->Serve(env, c, w, [](os::Env, const chan::Msg&) -> sim::Task<void> {
              co_return;
            });
          });
        }
      }
      auto done = std::make_shared<uint32_t>(0);
      for (uint32_t c = 0; c < kTenants; ++c) {
        rig.kernel.Spawn(*rig.clients[c], "web", [fab, c, done](os::Env env) -> sim::Task<void> {
          EXPECT_TRUE((co_await fab->Call(env, c, 16)).ok());
          if (++*done == kTenants) {
            fab->Close();
          }
        });
      }
      rig.kernel.Run();
      ASSERT_EQ(*done, kTenants);
      const std::set<std::string> names = WorldNames(reg.SnapshotJson(), base);
      EXPECT_EQ(names.count(IdName("fabric/", fab->obs_id() - base, "/calls")), 1u);
      for (uint32_t c = 0; c < kTenants; ++c) {
        for (uint32_t id : {fab->request_plane(c)->obs_id(), fab->response_plane(c)->obs_id()}) {
          EXPECT_EQ(names.count(IdName("chan/", id - base, "/sends")) +
                        names.count(IdName("fanout/", id - base, "/sends")) +
                        names.count(IdName("fanin/", id - base, "/sends")),
                    1u)
              << "tenant " << c << " plane " << id;
        }
      }
      if (round == 0) {
        first_world = names;
      } else {
        EXPECT_EQ(names, first_world);
      }
    }
    sizes.push_back(reg.size());
    EXPECT_TRUE(WorldNames(reg.SnapshotJson(), base).empty());
  }
  EXPECT_EQ(sizes[1], sizes[0]);
  EXPECT_EQ(sizes[2], sizes[0]);
}

// The tentpole's core property: a single fabric Call under tracing yields a
// span for every hop — client acquire, request send, worker recv, handler,
// response send, completion dispatch, plus the whole-operation span — all
// tagged with the SAME opid carried through the descriptor trace word.
TEST(ObsFabric, SingleCallHopSpansShareOneOpid) {
  FabricRig rig;
  Trace().Enable(1 << 14);
  Trace().Clear();
  rig.SpawnServe([](os::Env, const chan::Msg&) -> sim::Task<void> { co_return; });
  bool ok = false;
  auto fab = rig.fab;
  rig.kernel.Spawn(*rig.clients[0], "web", [&ok, fab](os::Env env) -> sim::Task<void> {
    ok = (co_await fab->Call(env, 0, 16)).ok();
    fab->Close();
  });
  rig.kernel.Run();
  Trace().Disable();
  fabric::ExpectNothingOutlivesClose(*fab, rig.kernel);
  EXPECT_TRUE(ok);
#ifndef DIPC_OBS_OFF
  std::vector<TraceEvent> events = Trace().Snapshot();
  uint64_t opid = 0;
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kFabricDispatch && e.opid != 0) {
      opid = e.opid;
    }
  }
  ASSERT_NE(opid, 0u) << "no fabric_dispatch span recorded";
  std::set<EventType> hops;
  for (const TraceEvent& e : events) {
    // Single operation: every opid-tagged event belongs to it.
    if (e.opid != 0) {
      EXPECT_EQ(e.opid, opid);
      hops.insert(e.type);
    }
  }
  for (EventType t : {EventType::kReqAcquire, EventType::kReqSend, EventType::kWorkerRecv,
                      EventType::kHandler, EventType::kRespSend,
                      EventType::kCompletionDispatch, EventType::kFabricDispatch}) {
    EXPECT_TRUE(hops.count(t)) << "missing hop span: " << EventTypeName(t);
  }
  EXPECT_EQ(Trace().total_dropped(), 0u);
#endif
  Trace().Clear();
}

// Retries run under the SAME opid but with a distinct attempt byte, so the
// assembled per-request trace shows them as sibling tracks.
TEST(ObsFabric, RetriesAppearAsDistinctAttempts) {
  FabricRig rig({.req_slots = 8,
                 .req_bytes = 64,
                 .resp_slots = 8,
                 .resp_bytes = 64,
                 .call_deadline = sim::Duration::Micros(100),
                 .max_call_retries = 20});
  Trace().Enable(1 << 14);
  Trace().Clear();
  // The first request wedges its worker past the call deadline; the client
  // must retry (same opid, next attempt) until the late response lands.
  auto slow_once = std::make_shared<bool>(true);
  rig.SpawnServe([slow_once](os::Env env, const chan::Msg&) -> sim::Task<void> {
    if (*slow_once) {
      *slow_once = false;
      co_await env.kernel->Sleep(env, sim::Duration::Millis(1));
    }
    co_return;
  });
  bool ok = false;
  auto fab = rig.fab;
  rig.kernel.Spawn(*rig.clients[0], "web", [&ok, fab](os::Env env) -> sim::Task<void> {
    ok = (co_await fab->Call(env, 0, 16)).ok();
    fab->Close();
  });
  rig.kernel.Run();
  Trace().Disable();
  fabric::ExpectNothingOutlivesClose(*fab, rig.kernel);
  EXPECT_TRUE(ok);
#ifndef DIPC_OBS_OFF
  std::vector<TraceEvent> events = Trace().Snapshot();
  uint64_t opid = 0;
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kFabricDispatch && e.opid != 0) {
      opid = e.opid;
    }
  }
  ASSERT_NE(opid, 0u);
  std::set<uint64_t> attempts;
  for (const TraceEvent& e : events) {
    if (e.opid == opid && e.type == EventType::kReqSend) {
      attempts.insert(e.arg & 0xff);  // attempt byte of the hop-span arg
    }
  }
  EXPECT_GE(attempts.size(), 2u) << "expected at least one retry attempt";
  EXPECT_TRUE(attempts.count(0));
#endif
  Trace().Clear();
}

// Sums the "domain/<tag>/time_ns/<kind>" counters out of a SnapshotJson for
// the CPU-time kinds (futex_wait is blocked time, deliberately excluded).
double SumDomainCpuTimeNs(const std::string& snap) {
  double sum = 0;
  size_t pos = 0;
  while ((pos = snap.find("\"domain/", pos)) != std::string::npos) {
    const size_t name_end = snap.find('"', pos + 1);
    if (name_end == std::string::npos) {
      break;
    }
    const std::string name = snap.substr(pos + 1, name_end - pos - 1);
    pos = name_end + 1;
    if (name.find("/time_ns/futex_wait") != std::string::npos ||
        name.find("/time_ns/") == std::string::npos) {
      continue;
    }
    const size_t colon = snap.find(':', name_end);
    if (colon == std::string::npos) {
      break;
    }
    sum += std::atof(snap.c_str() + colon + 1);
  }
  return sum;
}

// Per-domain time attribution must close the books: the user/kernel/copy/
// proxy domain counters sum to the kernel's busy (non-idle) accounting for
// the same window, within 5% (sub-ns residue stays in the charge carry).
TEST(ObsDomainTime, DomainCpuTimeSumsMatchBusyAccounting) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry::Default().Reset();
  FabricRig rig;
  rig.SpawnServe([](os::Env, const chan::Msg&) -> sim::Task<void> { co_return; });
  auto fab = rig.fab;
  rig.kernel.Spawn(*rig.clients[0], "web", [fab](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE((co_await fab->Call(env, 0, 16)).ok());
    }
    fab->Close();
  });
  rig.kernel.Run();
  rig.kernel.FlushIdleAccounting();
  const os::TimeBreakdown total = rig.kernel.accounting().Summed();
  const double busy_ns = (total.Total() - total[os::TimeCat::kIdle]).nanos();
  ASSERT_GT(busy_ns, 0.0);
  const std::string snap = Registry::Default().SnapshotJson();
  const double domain_ns = SumDomainCpuTimeNs(snap);
  EXPECT_GT(domain_ns, 0.0) << snap.substr(0, 400);
  EXPECT_NEAR(domain_ns, busy_ns, busy_ns * 0.05)
      << "per-domain attribution does not close against busy accounting";
  // Scheduler observability rides the same registry: the migration counter
  // and per-CPU run-queue gauges are registered at kernel construction.
  EXPECT_NE(snap.find("\"os/sched/migrations\""), std::string::npos);
  EXPECT_NE(snap.find("\"os/sched/cpu0/runq_depth\""), std::string::npos);
}

// The "domain/<tag>/time_ns/<kind>" counters of SnapshotJson's counter map,
// name -> value; `normalized` collects the "domain/*/time_ns/<kind>" totals
// instead.
std::map<std::string, uint64_t> DomainTimeCounters(const std::string& snap, bool normalized) {
  std::map<std::string, uint64_t> out;
  const size_t end = snap.find("\"gauges\"");
  for (size_t pos = 0; (pos = snap.find("\"domain/", pos)) != std::string::npos && pos < end;) {
    const size_t name_end = snap.find('"', pos + 1);
    const std::string name = snap.substr(pos + 1, name_end - pos - 1);
    pos = name_end + 1;
    if (name.find("/time_ns/") == std::string::npos ||
        (name.rfind("domain/*/", 0) == 0) != normalized) {
      continue;
    }
    out[name] = std::strtoull(snap.c_str() + snap.find(':', name_end) + 1, nullptr, 10);
  }
  return out;
}

// obs is thread-safe by contract: the tables of several host threads (one
// kernel's each) charging the same (tag, kind) names share the registry's
// counters, and each counter ends at the exact sum of every table's whole
// nanoseconds (a table's sub-ns carry is its own).
TEST(ObsDomainTime, ConcurrentChargesSumExactly) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  // Tags no simulation in this binary reaches.
  constexpr uint32_t kTags[] = {901, 902, 1025};
  constexpr DomainTimeKind kKinds[] = {DomainTimeKind::kUser, DomainTimeKind::kCopy};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  auto charge_ps = [](int thread, int i, int pair) {
    return static_cast<int64_t>(1 + (i * 37 + thread * 11 + pair * 5) % 999);
  };
  std::array<DomainTime, kThreads> tables;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &tables, &charge_ps, &kTags, &kKinds] {
      for (int i = 0; i < kPerThread; ++i) {
        int pair = 0;
        for (uint32_t tag : kTags) {
          for (DomainTimeKind kind : kKinds) {
            tables[t].Charge(tag, kind, charge_ps(t, i, pair++));
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Read while the tables hold the names (a Registry::GetCounter hold
  // would outlive this test).
  std::map<std::string, uint64_t> counters =
      DomainTimeCounters(Registry::Default().SnapshotJson(), false);
  int pair = 0;
  for (uint32_t tag : kTags) {
    for (DomainTimeKind kind : kKinds) {
      uint64_t total_ns = 0;
      for (int t = 0; t < kThreads; ++t) {
        int64_t table_ps = 0;
        for (int i = 0; i < kPerThread; ++i) {
          table_ps += charge_ps(t, i, pair);
        }
        total_ns += static_cast<uint64_t>(table_ps / 1000);
      }
      ++pair;
      const std::string name = "domain/" + std::to_string(tag) + "/time_ns/" +
                               DomainTimeKindName(kind);
      EXPECT_EQ(counters[name], total_ns) << name;
    }
  }
}

// A kernel's per-domain time counters die with it: while a world runs, the
// snapshot lists the tags it charged and no other world's, and once it is
// destroyed they are folded into "domain/*/time_ns/<kind>". Two worlds are
// built, charged and destroyed in turn, the first with more domains.
TEST(ObsDomainTime, DestroyedWorldsFoldTheirCountersAndListNoOtherWorldsTags) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry::Default().Reset();
  std::map<std::string, uint64_t> folded;  // what the destroyed worlds charged
  for (int procs : {6, 2}) {
    SCOPED_TRACE("world of " + std::to_string(procs) + " processes");
    std::map<std::string, uint64_t> live;
    {
      hw::Machine machine(2);
      codoms::Codoms codoms(machine);
      os::Kernel kernel(machine, codoms);
      core::Dipc dipc(kernel);
      std::set<std::string> tags;
      for (int i = 0; i < procs; ++i) {
        os::Process& proc = dipc.CreateDipcProcess("spender");
        tags.insert(std::to_string(proc.default_domain()));
        kernel.Spawn(proc, "spender", [i](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Spend(*env.self, sim::Duration::Micros(i + 1), os::TimeCat::kUser);
        });
      }
      kernel.Run();
      live = DomainTimeCounters(Registry::Default().SnapshotJson(), false);
      ASSERT_FALSE(live.empty());
      for (const auto& [name, ns] : live) {
        const std::string tag = name.substr(7, name.find('/', 7) - 7);
        EXPECT_EQ(tags.count(tag), 1u) << name << " was not charged by this world";
      }
      for (int i = 0; i < procs; ++i) {
        EXPECT_GE(live.count("domain/" + *std::next(tags.begin(), i) + "/time_ns/user"), 1u);
      }
    }
    for (const auto& [name, ns] : live) {
      const std::string kind = name.substr(name.find("/time_ns/"));
      folded["domain/*" + kind] += ns;
    }
    const std::string snap = Registry::Default().SnapshotJson();
    EXPECT_TRUE(DomainTimeCounters(snap, false).empty()) << "a dead world's tags are listed";
    EXPECT_EQ(DomainTimeCounters(snap, true), folded);
  }
}

}  // namespace
}  // namespace dipc::obs
