// Unit tests for the deterministic fault-injection engine (src/fault/):
// plan-text parsing, scripted and probabilistic triggers, the kill-handler
// contract, the replay-determinism guarantee (same seed + plan ==>
// byte-identical decision log), and the futex park point's coverage of
// every primitive that parks.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "chan/mpmc_queue.h"
#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "os/kernel.h"
#include "os/semaphore.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace dipc::fault {
namespace {

using sim::Duration;

#ifndef DIPC_FAULT_OFF

// Every test arms the process-wide singleton; disarm on the way out so no
// state bleeds into unrelated suites running in the same process.
class FaultTest : public ::testing::Test {
 protected:
  ~FaultTest() override { Injector::Global().Disarm(); }
};

TEST_F(FaultTest, ParseAcceptsFullGrammar) {
  const std::string text =
      "# chaos plan\n"
      "seed 99\n"
      "rule chan/send fail p=0.25 max=3\n"
      "rule chan/slot_claim delay every=4 delay_ns=1500\n"
      "rule fanout/credit_grant drop_wake at=7\n"
      "rule dipc/proxy_invoke kill at=2 victim=php-worker\n";
  auto plan = Plan::Parse(text);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().seed, 99u);
  ASSERT_EQ(plan.value().rules.size(), 4u);
  const Rule& r0 = plan.value().rules[0];
  EXPECT_EQ(r0.point, points::kChanSend);
  EXPECT_EQ(r0.action, Action::kFail);
  EXPECT_DOUBLE_EQ(r0.probability, 0.25);
  EXPECT_EQ(r0.max_fires, 3u);
  const Rule& r1 = plan.value().rules[1];
  EXPECT_EQ(r1.action, Action::kDelay);
  EXPECT_EQ(r1.every, 4u);
  EXPECT_EQ(r1.delay, Duration::Nanos(1500));
  const Rule& r3 = plan.value().rules[3];
  EXPECT_EQ(r3.action, Action::kKill);
  EXPECT_EQ(r3.at, 2u);
  EXPECT_EQ(r3.victim, "php-worker");
}

TEST_F(FaultTest, ParseRejectsMalformedPlans) {
  const char* bad[] = {
      "rule chan/send explode p=0.5",        // unknown action
      "rule chan/send delay at=1",           // delay without delay_ns
      "rule chan/send kill at=1",            // kill without victim
      "rule chan/send fail",                 // no trigger at all
      "rule chan/send fail p=1.5",           // probability out of range
      "seed banana",                         // non-numeric seed
      "rule\n",                              // truncated directive
  };
  for (const char* text : bad) {
    std::string error;
    auto plan = Plan::Parse(text, &error);
    EXPECT_FALSE(plan.ok()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST_F(FaultTest, ParseRejectsUnknownProbePoints) {
  // The probe manifest (src/fault/probes.def) is the source of truth: a
  // typo'd point must be a parse error, not a rule that silently never
  // fires.
  std::string error;
  auto plan = Plan::Parse("rule chan/nonexistent fail at=1\n", &error);
  EXPECT_FALSE(plan.ok());
  EXPECT_NE(error.find("unknown probe point"), std::string::npos) << error;
  EXPECT_NE(error.find("chan/nonexistent"), std::string::npos) << error;
}

TEST_F(FaultTest, ScriptedTriggersFireAtExactProbes) {
  auto plan = Plan::Parse("rule chan/send fail at=3\n");
  ASSERT_TRUE(plan.ok());
  Injector& inj = Injector::Global();
  inj.Arm(plan.value(), nullptr);
  for (int i = 1; i <= 5; ++i) {
    Decision d = inj.Probe(points::kChanSend);
    EXPECT_EQ(d.fail(), i == 3) << "probe " << i;
  }
  EXPECT_EQ(inj.fire_count(), 1u);
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].seq, 0u);
  EXPECT_EQ(inj.log()[0].point_hash, HashPoint(points::kChanSend));
  EXPECT_EQ(inj.log()[0].action, static_cast<uint32_t>(Action::kFail));
}

TEST_F(FaultTest, EveryTriggerAndMaxCapCompose) {
  auto plan = Plan::Parse("rule chan/slot_claim delay every=2 max=3 delay_ns=10\n");
  ASSERT_TRUE(plan.ok());
  Injector& inj = Injector::Global();
  inj.Arm(plan.value(), nullptr);
  int fired = 0;
  for (int i = 1; i <= 12; ++i) {
    Decision d = inj.Probe(points::kSlotClaim);
    if (d.action == Action::kDelay) {
      ++fired;
      EXPECT_EQ(i % 2, 0) << "probe " << i;
      EXPECT_EQ(d.delay, Duration::Nanos(10));
    }
  }
  EXPECT_EQ(fired, 3);  // every=2 would give 6; max=3 caps it
  EXPECT_EQ(inj.fire_count(), 3u);
}

TEST_F(FaultTest, PointsAreCountedIndependently) {
  auto plan = Plan::Parse("rule chan/send fail at=2\n");
  ASSERT_TRUE(plan.ok());
  Injector& inj = Injector::Global();
  inj.Arm(plan.value(), nullptr);
  // Probes of OTHER points must not advance chan/send's ordinal.
  EXPECT_FALSE(inj.Probe(points::kFutexWake).fail());
  EXPECT_FALSE(inj.Probe(points::kChanSend).fail());  // chan/send probe #1
  EXPECT_FALSE(inj.Probe(points::kCapMint).fail());
  EXPECT_TRUE(inj.Probe(points::kChanSend).fail());  // chan/send probe #2
  EXPECT_EQ(inj.probes(points::kChanSend), 2u);
  EXPECT_EQ(inj.probes(points::kFutexWake), 1u);
  EXPECT_EQ(inj.probes(points::kDeathSweep), 0u);
}

TEST_F(FaultTest, KillRunsHandlerAndLetsOperationProceed) {
  auto plan = Plan::Parse("rule dipc/death_sweep kill at=1 victim=bob max=1\n");
  ASSERT_TRUE(plan.ok());
  Injector& inj = Injector::Global();
  inj.Arm(plan.value(), nullptr);
  std::vector<std::string> victims;
  inj.SetKillHandler([&victims](const std::string& v) { victims.push_back(v); });
  Decision d = inj.Probe(points::kDeathSweep);
  // The kill is the side effect; the probed operation itself proceeds.
  EXPECT_EQ(d.action, Action::kNone);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], "bob");
  EXPECT_EQ(inj.fire_count(), 1u);
}

TEST_F(FaultTest, DisarmedProbesAreInert) {
  Injector& inj = Injector::Global();
  inj.Disarm();
  Decision d = inj.Probe(points::kChanSend);
  EXPECT_EQ(d.action, Action::kNone);
  EXPECT_FALSE(inj.armed());
}

// The replay-determinism contract: arming the same (seed, plan) and probing
// the same sequence yields a byte-identical decision log — including the
// probabilistic rules, whose RNG stream restarts from the plan seed.
TEST_F(FaultTest, SameSeedAndPlanReplaysByteIdenticalLog) {
  const std::string text =
      "seed 1234\n"
      "rule chan/send fail p=0.3\n"
      "rule chan/futex_wake drop_wake p=0.15\n"
      "rule chan/slot_claim delay every=7 delay_ns=250\n";
  auto plan = Plan::Parse(text);
  ASSERT_TRUE(plan.ok());
  Injector& inj = Injector::Global();

  auto run = [&inj, &plan] {
    sim::EventQueue clock;
    inj.Arm(plan.value(), &clock);
    for (int i = 0; i < 500; ++i) {
      (void)inj.Probe(points::kChanSend);
      (void)inj.Probe(points::kFutexWake);
      (void)inj.Probe(points::kSlotClaim);
    }
    return inj.log();
  };
  std::vector<FiredRecord> first = run();
  std::vector<FiredRecord> second = run();
  EXPECT_GT(first.size(), 0u);  // p=0.3 over 500 probes: statistically certain
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(0, std::memcmp(first.data(), second.data(),
                           first.size() * sizeof(FiredRecord)));
}

TEST_F(FaultTest, DifferentSeedsDiverge) {
  auto mk = [](uint64_t seed) {
    Plan p;
    p.seed = seed;
    Rule r;
    r.point = std::string(points::kChanSend);
    r.action = Action::kFail;
    r.probability = 0.5;
    p.rules.push_back(std::move(r));
    return p;
  };
  Injector& inj = Injector::Global();
  auto run = [&inj](Plan p) {
    inj.Arm(std::move(p), nullptr);
    std::vector<bool> hits;
    for (int i = 0; i < 200; ++i) {
      hits.push_back(inj.Probe(points::kChanSend).fail());
    }
    return hits;
  };
  EXPECT_NE(run(mk(1)), run(mk(2)));
}

TEST_F(FaultTest, RearmResetsAllState) {
  auto plan = Plan::Parse("rule chan/send fail at=1 max=1\n");
  ASSERT_TRUE(plan.ok());
  Injector& inj = Injector::Global();
  inj.Arm(plan.value(), nullptr);
  EXPECT_TRUE(inj.Probe(points::kChanSend).fail());
  EXPECT_FALSE(inj.Probe(points::kChanSend).fail());  // max=1 spent
  inj.Arm(plan.value(), nullptr);                     // re-arm: counters reset
  EXPECT_EQ(inj.fire_count(), 0u);
  EXPECT_EQ(inj.probes(points::kChanSend), 0u);
  EXPECT_TRUE(inj.Probe(points::kChanSend).fail());
}

// One futex park scenario on a fresh machine: spawns its threads, runs the
// simulation and returns how many parks the primitive itself counted.
using ParkScenario = std::function<uint64_t(core::Dipc&, os::Kernel&)>;

struct ParkRun {
  Duration kernel;  // kernel time billed across every CPU
  uint64_t parks = 0;
};

ParkRun RunParkScenario(const ParkScenario& scenario) {
  hw::Machine machine(4);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);
  const uint64_t parks = scenario(dipc, kernel);
  return {kernel.accounting().Summed()[os::TimeCat::kKernel], parks};
}

// The chan/futex_park point sits on the kernel side of the one futex park
// (os/futex.h), so it covers every primitive that parks: a delay rule fires
// once per park and bills its delay as kernel time. Each scenario parks one
// thread once, 50 us before another thread wakes it, so the delay moves
// nothing else.
TEST_F(FaultTest, FutexParkDelayFiresOncePerParkAndBillsKernelTime) {
  const std::vector<std::pair<std::string, ParkScenario>> scenarios = {
      {"MpmcQueue pop",
       [](core::Dipc& dipc, os::Kernel& kernel) -> uint64_t {
         os::Process& proc = dipc.CreateDipcProcess("p");
         chan::MpmcQueue q(kernel, proc, 4, proc.default_domain());
         kernel.Spawn(proc, "consumer", [&](os::Env env) -> sim::Task<void> {
           EXPECT_TRUE((co_await q.Pop(env)).ok());  // empty, no publisher: parks
         });
         kernel.Spawn(proc, "producer", [&](os::Env env) -> sim::Task<void> {
           co_await env.kernel->Sleep(env, Duration::Micros(50));
           EXPECT_TRUE((co_await q.Push(env, 7)).ok());
         });
         kernel.Run();
         return q.blocked_pops();
       }},
      {"credit-line wait",
       [](core::Dipc& dipc, os::Kernel& kernel) -> uint64_t {
         os::Process& prod = dipc.CreateDipcProcess("producer");
         os::Process& recv = dipc.CreateDipcProcess("receiver");
         std::vector<os::Process*> receivers = {&recv};
         auto created =
             chan::Plane::Create(dipc, prod, receivers, {.slots = 1, .buf_bytes = 4096});
         DIPC_CHECK(created.ok());
         std::shared_ptr<chan::Plane> plane = created.value();
         kernel.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
           for (int i = 0; i < 2; ++i) {  // the second acquire waits for the credit
             auto buf = co_await plane->AcquireBuf(env, 0);
             DIPC_CHECK(buf.ok());
             EXPECT_TRUE((co_await plane->Send(env, 0, buf.value(), 64)).ok());
           }
         });
         kernel.Spawn(recv, "receiver", [&](os::Env env) -> sim::Task<void> {
           co_await env.kernel->Sleep(env, Duration::Micros(10));
           auto msg = co_await plane->Recv(env, 0);  // already queued: no park
           DIPC_CHECK(msg.ok());
           co_await env.kernel->Sleep(env, Duration::Micros(40));
           EXPECT_TRUE((co_await plane->Release(env, 0, msg.value())).ok());
         });
         kernel.Run();
         return plane->blocked_on_credit();
       }},
      {"Semaphore::WaitUntil",
       [](core::Dipc& dipc, os::Kernel& kernel) -> uint64_t {
         os::Process& proc = dipc.CreateDipcProcess("p");
         os::Semaphore sem(0);
         uint64_t parked = 0;
         kernel.Spawn(proc, "waiter", [&](os::Env env) -> sim::Task<void> {
           EXPECT_TRUE((co_await sem.WaitUntil(env)).ok());
         });
         kernel.Spawn(proc, "poster", [&](os::Env env) -> sim::Task<void> {
           co_await env.kernel->Sleep(env, Duration::Micros(50));
           parked = sem.waiter_count();
           co_await sem.Post(env);
         });
         kernel.Run();
         return parked;
       }},
  };
  constexpr Duration kDelay = Duration::Nanos(5000);
  auto plan = Plan::Parse("rule chan/futex_park delay every=1 delay_ns=5000\n");
  ASSERT_TRUE(plan.ok());
  Injector& inj = Injector::Global();
  for (const auto& [name, scenario] : scenarios) {
    SCOPED_TRACE(name);
    inj.Disarm();
    const ParkRun plain = RunParkScenario(scenario);
    inj.Arm(plan.value(), nullptr);
    const ParkRun delayed = RunParkScenario(scenario);
    EXPECT_EQ(plain.parks, 1u);
    EXPECT_EQ(delayed.parks, 1u);
    EXPECT_EQ(inj.fire_count(), delayed.parks);
    EXPECT_EQ((delayed.kernel - plain.kernel).picos(), (kDelay * delayed.parks).picos());
  }
}

// A producer parked on a credit line whose release wake the plan drops: on
// a 2-slot plane, fan-out (the receiver's line) or fan-in (the producer's
// own line), the producer sends two messages and its third AcquireBuf parks
// (nobody has returned credit yet, so it does not spin). The receiver
// releases the first message 20 us later, a wake the plan's one rule drops,
// and the second 40 us after that.
struct CreditDropRun {
  base::ErrorCode code = base::ErrorCode::kWouldBlock;  // until the acquire returns
  sim::Time deadline_at;                               // the acquire's, if finite
  sim::Time acquired;
  sim::Time released[2];
  uint64_t parks = 0;
  uint64_t grant_probes = 0;
  uint64_t live_grants = 0;
  uint64_t live_counters = 0;
};

CreditDropRun RunCreditDrop(bool fan_in, bool with_deadline) {
  hw::Machine machine(4);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);
  os::Process& prod = dipc.CreateDipcProcess("producer");
  os::Process& recv = dipc.CreateDipcProcess("receiver");
  std::vector<os::Process*> group = {fan_in ? &prod : &recv};
  const chan::PlaneConfig cfg{.slots = 2, .buf_bytes = 4096};
  auto created = fan_in ? chan::Plane::Create(dipc, group, recv, cfg)
                        : chan::Plane::Create(dipc, prod, group, cfg);
  DIPC_CHECK(created.ok());
  std::shared_ptr<chan::Plane> plane = created.value();
  const std::string_view point = fan_in ? points::kFanInCreditGrant : points::kCreditGrant;
  auto plan = Plan::Parse("rule " + std::string(point) + " drop_wake at=1\n");
  DIPC_CHECK(plan.ok());
  Injector::Global().Arm(plan.value(), nullptr);
  CreditDropRun run;
  kernel.Spawn(
      prod, "producer",
      [&](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 2; ++i) {
          auto buf = co_await plane->AcquireBuf(env, 0);
          DIPC_CHECK(buf.ok());
          EXPECT_TRUE((co_await plane->Send(env, 0, buf.value(), 64)).ok());
        }
        os::Deadline deadline;
        if (with_deadline) {
          deadline = os::Deadline::After(env.kernel->now(), Duration::Micros(30));
          run.deadline_at = deadline.at();
        }
        auto third = co_await plane->AcquireBuf(env, 0, deadline);
        run.acquired = env.kernel->now();
        run.code = third.code();
        if (third.ok()) {
          EXPECT_TRUE((co_await plane->Send(env, 0, third.value(), 64)).ok());
        }
      },
      /*pin_cpu=*/0);
  kernel.Spawn(
      recv, "receiver",
      [&](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 3; ++i) {
          auto msg = co_await plane->Recv(env, 0);
          DIPC_CHECK(msg.ok());
          if (i < 2) {
            co_await env.kernel->Sleep(env, Duration::Micros(i == 0 ? 20 : 40));
          }
          EXPECT_TRUE((co_await plane->Release(env, 0, msg.value())).ok());
          if (i < 2) {
            run.released[i] = env.kernel->now();
          }
        }
        plane->Close();
      },
      /*pin_cpu=*/1);
  kernel.Run();
  run.parks = plane->blocked_on_credit();
  run.grant_probes = Injector::Global().probes(point);
  run.live_grants = plane->LiveGrantCount();
  run.live_counters = codoms.revocations().live_count();
  return run;
}

// The dropped wake leaves the producer parked with its credit back: with a
// finite deadline it recovers at that deadline, before the next release;
// without one, the next release wakes it. Either way it parked once, the
// drop was the rule's one fire, and no grant outlives the run.
void ExpectCreditDropRecovers(bool fan_in) {
  for (bool with_deadline : {true, false}) {
    SCOPED_TRACE(with_deadline ? "deadline" : "no deadline");
    const CreditDropRun run = RunCreditDrop(fan_in, with_deadline);
    EXPECT_EQ(run.code, base::ErrorCode::kOk);
    EXPECT_GT(run.acquired, run.released[0]);
    if (with_deadline) {
      EXPECT_GE(run.acquired, run.deadline_at);
      EXPECT_LT(run.acquired, run.released[1]);
      EXPECT_EQ(run.grant_probes, 1u);
    } else {
      EXPECT_GE(run.acquired, run.released[1]);
      EXPECT_EQ(run.grant_probes, 2u);  // the second release's wake is delivered
    }
    EXPECT_EQ(Injector::Global().fire_count(), 1u);
    EXPECT_EQ(run.parks, 1u);
    EXPECT_EQ(run.live_grants, 0u);
    EXPECT_EQ(run.live_counters, 0u);
  }
}

TEST_F(FaultTest, DroppedFanOutCreditWakeRecoversAtTheDeadlineOrTheNextRelease) {
  ExpectCreditDropRecovers(/*fan_in=*/false);
}

TEST_F(FaultTest, DroppedFanInCreditWakeRecoversAtTheDeadlineOrTheNextRelease) {
  ExpectCreditDropRecovers(/*fan_in=*/true);
}

#endif  // !DIPC_FAULT_OFF

}  // namespace
}  // namespace dipc::fault
