// Chaos sweep over the supervised kChan OLTP fabric: a fault plan murders
// PHP workers, drops wakes, fails capability mints and injects delays while
// the supervisor heals the worker tier and deadline-armed clients retry.
// Every operation must complete exactly once (zero given-up requests, late
// duplicates dropped at dispatch), and the whole run — including the fault
// decision log — must replay byte-identically from the same seed + plan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/oltp/oltp.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace dipc::apps {
namespace {

using sim::Duration;

OltpConfig ChaosConfig(std::string plan) {
  OltpConfig cfg;
  cfg.mode = OltpMode::kChan;
  cfg.threads = 8;
  cfg.chan_workers = 3;
  cfg.warmup = Duration::Millis(5);
  cfg.measure = Duration::Millis(40);
  cfg.supervise = true;
  cfg.heartbeat = Duration::Millis(1);
  cfg.request_deadline = Duration::Millis(4);
  cfg.max_retries = 50;
  // CI's chaos sweep re-runs the suite across seeds: a later `seed`
  // directive overrides an earlier one, so appending wins.
  if (const char* s = std::getenv("DIPC_CHAOS_SEED"); s != nullptr && !plan.empty()) {
    plan += "seed " + std::string(s) + "\n";
  }
  cfg.fault_plan = std::move(plan);
  return cfg;
}

// Every point a plan arms must be probed in the run: a rule on a point the
// run never reaches tests nothing.
void ExpectEveryArmedPointProbed(const OltpConfig& cfg) {
  auto plan = fault::Plan::Parse(cfg.fault_plan);
  ASSERT_TRUE(plan.ok());
  for (const fault::Rule& rule : plan.value().rules) {
    EXPECT_GE(fault::Injector::Global().probes(rule.point), 1u) << rule.point << " never probed";
  }
}

TEST(ChaosTest, SupervisedFabricSurvivesWorkerMurder) {
#ifdef DIPC_FAULT_OFF
  GTEST_SKIP() << "fault injection compiled out (-DDIPC_FAULT_OFF)";
#endif
  const OltpConfig cfg = ChaosConfig(
      "seed 11\n"
      "rule chan/send kill every=800 victim=php-worker max=4\n");
  OltpResult r = RunOltp(cfg);
  ExpectEveryArmedPointProbed(cfg);
  EXPECT_GT(r.operations, 0u);
  EXPECT_EQ(r.requests_failed, 0u) << "a murdered worker lost a request";
  EXPECT_GE(r.faults_injected, 1u);
  EXPECT_GE(r.workers_respawned, 1u) << "supervisor never healed a dead slot";
}

TEST(ChaosTest, FullSweepCompletesEveryRequestExactlyOnce) {
#ifdef DIPC_FAULT_OFF
  GTEST_SKIP() << "fault injection compiled out (-DDIPC_FAULT_OFF)";
#endif
  // With DIPC_CHAOS_TRACE=<path>, the run is traced and a FAILING sweep
  // exports the event ring as a Chrome trace for the CI artifact — the
  // forensic record of the seed that broke exactly-once.
  const char* trace_out = std::getenv("DIPC_CHAOS_TRACE");
  if (trace_out != nullptr) {
    obs::Trace().Enable();
  }
  const OltpConfig cfg = ChaosConfig(
      "seed 7\n"
      "rule chan/send kill every=900 victim=php-worker max=3\n"
      "rule chan/futex_wake drop_wake p=0.005\n"
      "rule codoms/mint fail p=0.002\n"
      "rule chan/slot_claim delay p=0.01 delay_ns=2000\n");
  OltpResult r = RunOltp(cfg);
  if (trace_out != nullptr) {
    if (r.requests_failed != 0 || r.operations == 0) {
      obs::Trace().ExportChromeTrace(trace_out);
    }
    obs::Trace().Disable();
  }
  ExpectEveryArmedPointProbed(cfg);
  EXPECT_GT(r.operations, 0u);
  // Exactly-once: no request was given up (lost), and any completion that
  // raced a retry was dropped at dispatch (counted, never double-posted) —
  // each counted operation consumed exactly one completion.
  EXPECT_EQ(r.requests_failed, 0u);
  EXPECT_GE(r.faults_injected, 1u);
}

TEST(ChaosTest, MultiTenantFabricSweepKeepsExactlyOnce) {
#ifdef DIPC_FAULT_OFF
  GTEST_SKIP() << "fault injection compiled out (-DDIPC_FAULT_OFF)";
#endif
  // The N x M plane sweep: 8 tenant client domains share 4 PHP workers, so
  // one murdered worker tears a receiver slot out of 8 fan-out request
  // planes and a producer line out of 8 fan-in response planes at once —
  // every plane must excise and rebind without losing a single opid. On top
  // of the kills, scripted dispatch failures exercise the retry/backoff seam
  // under the SAME opid.
  const char* trace_out = std::getenv("DIPC_CHAOS_TRACE");
  if (trace_out != nullptr) {
    obs::Trace().Enable();
  }
  OltpConfig cfg = ChaosConfig(
      "seed 19\n"
      "rule chan/send kill every=900 victim=php-worker max=3\n"
      "rule fabric/dispatch fail p=0.005\n");
  cfg.tenants = 8;
  cfg.chan_workers = 4;
  cfg.threads = 16;
  OltpResult r = RunOltp(cfg);
  if (trace_out != nullptr) {
    if (r.requests_failed != 0 || r.operations == 0) {
      obs::Trace().ExportChromeTrace("fabric_" + std::string(trace_out));
    }
    obs::Trace().Disable();
  }
  ExpectEveryArmedPointProbed(cfg);
  EXPECT_GT(r.operations, 0u);
  EXPECT_EQ(r.requests_failed, 0u) << "a tenant plane lost an operation";
  EXPECT_GE(r.faults_injected, 1u);
  EXPECT_GE(r.workers_respawned, 1u) << "supervisor never healed a dead slot";
}

TEST(ChaosTest, SameSeedAndPlanReplaysIdentically) {
#ifdef DIPC_FAULT_OFF
  GTEST_SKIP() << "fault injection compiled out (-DDIPC_FAULT_OFF)";
#endif
  const OltpConfig cfg = ChaosConfig(
      "seed 23\n"
      "rule chan/send kill every=700 victim=php-worker max=3\n"
      "rule chan/futex_wake drop_wake p=0.01\n"
      "rule chan/slot_claim delay p=0.02 delay_ns=1000\n");
  OltpResult r1 = RunOltp(cfg);
  // The injector log survives Disarm until the next Arm: snapshot run 1's
  // decision trace before the replay overwrites it.
  std::vector<fault::FiredRecord> log1 = fault::Injector::Global().log();
  OltpResult r2 = RunOltp(cfg);
  std::vector<fault::FiredRecord> log2 = fault::Injector::Global().log();
  ExpectEveryArmedPointProbed(cfg);

  EXPECT_EQ(r1.operations, r2.operations);
  EXPECT_EQ(r1.requests_retried, r2.requests_retried);
  EXPECT_EQ(r1.requests_failed, r2.requests_failed);
  EXPECT_EQ(r1.workers_respawned, r2.workers_respawned);
  EXPECT_EQ(r1.duplicate_completions, r2.duplicate_completions);
  EXPECT_EQ(r1.faults_injected, r2.faults_injected);
  ASSERT_EQ(log1.size(), log2.size());
#ifndef DIPC_FAULT_OFF
  EXPECT_GT(log1.size(), 0u);
  ASSERT_EQ(0, std::memcmp(log1.data(), log2.data(),
                           log1.size() * sizeof(fault::FiredRecord)));
#endif
}

TEST(ChaosTest, NoPlanMeansNoFaultsAndNoRetries) {
  OltpConfig cfg = ChaosConfig("");
  OltpResult r = RunOltp(cfg);
  EXPECT_GT(r.operations, 0u);
  EXPECT_EQ(r.faults_injected, 0u);
  EXPECT_EQ(r.requests_failed, 0u);
  EXPECT_EQ(r.workers_respawned, 0u);
}

}  // namespace
}  // namespace dipc::apps
