// Tests for the N x M service fabric (src/fabric/fabric.h): opid-matched
// request/response round trips across tenants, shard fairness, and the
// multi-tenant acceptance run — >= 100 tenants on >= 4 workers surviving
// scripted worker kills (which take out both the worker's request-plane
// receiver slot and its response-plane producer slot) with exactly-once
// completions and a fully drained RevocationTable — plus the worker-side
// recovery from a response send that fails on a healthy plane, and Close()
// releasing a call parked on its completion.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fabric/fabric.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "os/kernel.h"

namespace dipc::fabric {
namespace {

using base::ErrorCode;
using sim::Duration;

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : machine_(6), codoms_(machine_), kernel_(machine_, codoms_), dipc_(kernel_) {}

  std::vector<os::Process*> MakeProcs(const std::string& stem, int n) {
    std::vector<os::Process*> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(&dipc_.CreateDipcProcess(stem + "-" + std::to_string(i)));
    }
    return out;
  }

  // Spawns the (client, worker) serve loops for worker slot `w` on `proc` —
  // the same shape the OLTP supervisor uses after a respawn.
  void SpawnServeLoops(std::shared_ptr<ServiceFabric> fab, uint32_t w, os::Process& proc,
                       ServiceFabric::Handler handler) {
    for (uint32_t c = 0; c < fab->client_count(); ++c) {
      kernel_.Spawn(proc, "serve", [fab, c, w, handler](os::Env env) -> sim::Task<void> {
        co_await fab->Serve(env, c, w, handler);
      });
    }
  }

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
  core::Dipc dipc_;
};

TEST_F(FabricTest, CallsRoundTripAndShardEvenlyAcrossWorkers) {
  auto clients = MakeProcs("tenant", 3);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  fab->StartAllDispatchers();
  ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  };
  for (uint32_t w = 0; w < 2; ++w) {
    SpawnServeLoops(fab, w, *workers[w], echo);
  }
  constexpr int kPerTenant = 4;
  int ok_calls = 0;
  int remaining = 3;
  for (uint32_t c = 0; c < 3; ++c) {
    kernel_.Spawn(*clients[c], "web", [&, fab, c](os::Env env) -> sim::Task<void> {
      for (int i = 0; i < kPerTenant; ++i) {
        auto s = co_await fab->Call(env, c, 16);
        EXPECT_TRUE(s.ok()) << "tenant " << c << " call " << i;
        if (s.ok()) {
          ++ok_calls;
        }
      }
      if (--remaining == 0) {
        fab->Close();
      }
    });
  }
  kernel_.Run();
  EXPECT_EQ(ok_calls, 3 * kPerTenant);
  EXPECT_EQ(fab->calls(), static_cast<uint64_t>(3 * kPerTenant));
  EXPECT_EQ(fab->completions(), static_cast<uint64_t>(3 * kPerTenant));
  EXPECT_EQ(fab->failures(), 0u);
  EXPECT_EQ(fab->retries(), 0u);
  EXPECT_EQ(fab->duplicate_completions(), 0u);
  // Each tenant's round-robin cursor alternates its two workers: an even
  // per-tenant count lands exactly half on each slot.
  EXPECT_EQ(fab->WorkerProgress(0), static_cast<uint64_t>(3 * kPerTenant / 2));
  EXPECT_EQ(fab->WorkerProgress(1), static_cast<uint64_t>(3 * kPerTenant / 2));
  for (uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(fab->request_plane(c)->LiveGrantCount(), 0u);
    EXPECT_EQ(fab->response_plane(c)->LiveGrantCount(), 0u);
  }
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FabricTest, SharedTrioKeepsTagFootprintConstantAcrossTenants) {
  // The APL-cache design point: with shared_trio every request plane uses
  // one trio and every response plane another, so 8 tenants still present
  // only two distinct data tags to the cache.
  auto clients = MakeProcs("tenant", 8);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers, {.req_bytes = 64, .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  for (uint32_t c = 1; c < 8; ++c) {
    EXPECT_EQ(fab->request_plane(c)->config().data_tag,
              fab->request_plane(0)->config().data_tag);
    EXPECT_EQ(fab->response_plane(c)->config().data_tag,
              fab->response_plane(0)->config().data_tag);
  }
  EXPECT_NE(fab->request_plane(0)->config().data_tag,
            fab->response_plane(0)->config().data_tag);
  fab->Close();
  kernel_.Run();
}

TEST_F(FabricTest, MultiTenantFabricSurvivesScriptedWorkerKillsExactlyOnce) {
  // The acceptance run: 100 tenants sharded over 4 workers, two workers
  // murdered mid-run on a script. Killing a worker kills both halves of its
  // fabric identity — the fan-out receiver slot on every tenant's request
  // plane and the fan-in producer slot on every tenant's response plane —
  // so this is the worker-kill AND producer-kill case at once. A scripted
  // supervisor rebinds each victim to a fresh process. Every operation must
  // complete exactly once and the RevocationTable must drain to zero.
  constexpr int kTenants = 100;
  constexpr int kWorkers = 4;
  constexpr int kPerTenant = 3;
  auto clients = MakeProcs("tenant", kTenants);
  auto workers = MakeProcs("worker", kWorkers);
  auto f = ServiceFabric::Create(
      dipc_, clients, workers,
      {.req_slots = 4, .req_bytes = 64, .resp_slots = 8, .resp_bytes = 64,
       .call_deadline = Duration::Millis(1), .max_call_retries = 20});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  fab->StartAllDispatchers();
  ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  };
  for (uint32_t w = 0; w < kWorkers; ++w) {
    SpawnServeLoops(fab, w, *workers[w], echo);
  }
  int ok_calls = 0;
  // The fabric closes once every tenant AND the supervisor are done: when
  // calls are fast the tenants finish before the second scripted rebind,
  // which must still find the fabric open.
  int remaining = kTenants + 1;
  auto finish = [&remaining, fab] {
    if (--remaining == 0) {
      fab->Close();
    }
  };
  for (uint32_t c = 0; c < kTenants; ++c) {
    kernel_.Spawn(*clients[c], "web", [&, fab, c](os::Env env) -> sim::Task<void> {
      for (int i = 0; i < kPerTenant; ++i) {
        // Pace the calls so the run spans both scripted kills.
        co_await env.kernel->Sleep(env, Duration::Micros(150));
        auto s = co_await fab->Call(env, c, 16);
        EXPECT_TRUE(s.ok()) << "tenant " << c << " call " << i;
        if (s.ok()) {
          ++ok_calls;
        }
      }
      finish();
    });
  }
  os::Process& sup = dipc_.CreateDipcProcess("supervisor");
  kernel_.Spawn(sup, "supervisor", [&, fab](os::Env env) -> sim::Task<void> {
    for (uint32_t victim : {1u, 2u}) {
      co_await env.kernel->Sleep(env, Duration::Micros(200));
      dipc_.KillProcess(*workers[victim]);
      EXPECT_FALSE(fab->worker_alive(victim));
      co_await env.kernel->Sleep(env, Duration::Micros(100));
      os::Process& fresh =
          dipc_.CreateDipcProcess("worker-" + std::to_string(victim) + "b");
      EXPECT_TRUE(fab->RebindWorker(victim, fresh).ok());
      EXPECT_TRUE(fab->worker_alive(victim));
      SpawnServeLoops(fab, victim, fresh, echo);
    }
    finish();
  });
  kernel_.Run();
  constexpr uint64_t kTotal = uint64_t{kTenants} * kPerTenant;
  // Exactly once: every operation returned kOk exactly one time, none were
  // abandoned, and any late completions of superseded attempts were dropped
  // at dispatch (counted, never double-delivered).
  EXPECT_EQ(ok_calls, static_cast<int>(kTotal));
  EXPECT_EQ(fab->calls(), kTotal);
  EXPECT_EQ(fab->completions(), kTotal);
  EXPECT_EQ(fab->failures(), 0u);
  EXPECT_EQ(fab->worker_rebinds(), 2u);
  uint64_t progress = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(fab->worker_alive(w));
    EXPECT_GE(fab->WorkerProgress(w), 1u) << "worker " << w;
    progress += fab->WorkerProgress(w);
  }
  EXPECT_GE(progress, kTotal);  // retried attempts may be served twice
  for (uint32_t c = 0; c < kTenants; ++c) {
    EXPECT_EQ(fab->request_plane(c)->LiveGrantCount(), 0u) << "tenant " << c;
    EXPECT_EQ(fab->response_plane(c)->LiveGrantCount(), 0u) << "tenant " << c;
  }
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FabricTest, ResponseSendFailureOnAHealthyPlaneGivesTheSlotBackAndKeepsServing) {
#ifdef DIPC_FAULT_OFF
  GTEST_SKIP() << "fault injection compiled out (-DDIPC_FAULT_OFF)";
#else
  // Probe hit 2 of chan/send is the worker's response send (hit 1 is the
  // client's request). The injected kFault leaves the response plane healthy
  // and the buffer the worker's, with its write grant and one credit of the
  // worker's line: the worker must hand it back and keep serving, so the
  // client's retry of the same opid completes.
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 1);
  auto f = ServiceFabric::Create(
      dipc_, clients, workers,
      {.req_slots = 4, .req_bytes = 64, .resp_slots = 4, .resp_bytes = 64,
       .call_deadline = Duration::Micros(50), .max_call_retries = 3});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  fab->StartAllDispatchers();
  ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  };
  SpawnServeLoops(fab, 0, *workers[0], echo);
  auto plan = fault::Plan::Parse("rule chan/send fail at=2\n");
  ASSERT_TRUE(plan.ok());
  fault::Injector::Global().Arm(plan.value(), &machine_.events());
  base::Status result = ErrorCode::kFault;
  kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
    result = co_await fab->Call(env, 0, 16);
    fab->Close();
  });
  kernel_.Run();
  fault::Injector::Global().Disarm();
  EXPECT_TRUE(result.ok()) << static_cast<int>(result.code());
  EXPECT_EQ(fab->retries(), 1u);
  const std::shared_ptr<chan::Plane>& resp = fab->response_plane(0);
  EXPECT_EQ(resp->broken(), ErrorCode::kOk);
  EXPECT_EQ(resp->LiveGrantCount(), 0u);
  EXPECT_EQ(resp->credits(0), resp->credit_line());
#endif
}

TEST_F(FabricTest, CloseFailsACallParkedOnItsCompletion) {
  // The handler is still running when the fabric closes: with no
  // call_deadline, the caller parked on its completion semaphore must not
  // be left there. It returns kBrokenChannel; the late handler finds the
  // planes closed and every grant still drains.
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 1);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  fab->StartAllDispatchers();
  ServiceFabric::Handler slow = [](os::Env env, const chan::Msg&) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(20));
  };
  SpawnServeLoops(fab, 0, *workers[0], slow);
  bool returned = false;
  base::Status result = ErrorCode::kOk;
  kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
    result = co_await fab->Call(env, 0, 16);
    returned = true;
  });
  machine_.events().ScheduleAt(sim::Time::Zero() + Duration::Micros(5), [fab] { fab->Close(); });
  kernel_.Run();
  EXPECT_TRUE(returned);
  EXPECT_EQ(result.code(), ErrorCode::kBrokenChannel);
  EXPECT_EQ(fab->calls(), 1u);
  EXPECT_EQ(fab->completions(), 0u);
  EXPECT_EQ(fab->duplicate_completions(), 0u);
  EXPECT_EQ(fab->request_plane(0)->LiveGrantCount(), 0u);
  EXPECT_EQ(fab->response_plane(0)->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

}  // namespace
}  // namespace dipc::fabric
