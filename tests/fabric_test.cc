// Tests for the N x M service fabric (src/fabric/fabric.h): opid-matched
// request/response round trips across tenants, least-loaded dispatch (an
// idle fabric alternates its workers, a parked worker gets no request while
// another is idle, a busy dispatch takes the least-loaded worker, two
// simultaneous picks claim different idle workers, and every in-flight
// count returns to zero after completions, retries and rebinds), direct
// completion (an idle call hands the CPU over twice; overlapping callers
// of one client relay each other's completions; a receiver whose deadline
// fires hands the role on; a late duplicate is counted where a later call
// receives it), the multi-tenant acceptance run — >= 100 tenants on >= 4
// workers surviving scripted worker kills (which take out both the worker's
// request-plane receiver slot and its response-plane producer slot) with
// exactly-once completions and a fully drained RevocationTable — plus the
// worker-side recovery from a response send that fails on a healthy plane.
// Close() aborts every plane: it releases a call parked on its completion,
// and a late response or a retried request still queued then is retired
// with its grant. Every test that closes ends on ExpectNothingOutlivesClose
// (fabric_end_state.h): no live grant on any plane, no thread parked.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fabric/fabric.h"
#include "fabric_end_state.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "os/kernel.h"
#include "os/semaphore.h"

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

TEST_F(FabricTest, CallsRoundTripAcrossTenantsAndWorkers) {
  auto clients = MakeProcs("tenant", 3);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
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
  // Concurrent tenants see each other's load, so the split need not be even
  // (OneTenantsSequentialCallsAlternateWorkers pins the idle-fabric order).
  EXPECT_EQ(fab->WorkerProgress(0) + fab->WorkerProgress(1),
            static_cast<uint64_t>(3 * kPerTenant));
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

// One tenant calling sequentially finds every worker idle at each dispatch,
// so least-loaded dispatch makes the round-robin pick: the calls alternate.
TEST_F(FabricTest, OneTenantsSequentialCallsAlternateWorkers) {
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 3);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  std::vector<uint32_t> served;
  for (uint32_t w = 0; w < 3; ++w) {
    SpawnServeLoops(fab, w, *workers[w],
                    [&served, w](os::Env, const chan::Msg&) -> sim::Task<void> {
                      served.push_back(w);
                      co_return;
                    });
  }
  kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE((co_await fab->Call(env, 0, 16)).ok()) << "call " << i;
    }
    fab->Close();
  });
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(served, (std::vector<uint32_t>{0, 1, 2, 0, 1, 2}));
  for (uint32_t w = 0; w < 3; ++w) {
    EXPECT_EQ(fab->WorkerProgress(w), 2u) << "worker " << w;
  }
  EXPECT_EQ(fab->busy_dispatches(), 0u);
}

// Worker 0's handler is held parked on its first request. Tenant 1's
// round-robin cursor starts at worker 0 too, but every one of its calls
// finds worker 0 loaded and worker 1 idle, so worker 0 gets none of them.
TEST_F(FabricTest, ParkedWorkerGetsNoRequestWhileAnotherWorkerIsIdle) {
  auto clients = MakeProcs("tenant", 2);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  auto gate = std::make_shared<os::Semaphore>(0);
  int served0 = 0;
  SpawnServeLoops(fab, 0, *workers[0],
                  [&served0, gate](os::Env env, const chan::Msg&) -> sim::Task<void> {
                    if (served0++ == 0) {
                      co_await gate->Wait(env);
                    }
                  });
  SpawnServeLoops(fab, 1, *workers[1], [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  });
  int ok_calls = 0;
  kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
    ok_calls += (co_await fab->Call(env, 0, 16)).ok() ? 1 : 0;
  });
  kernel_.Spawn(*clients[1], "web", [&, fab, gate](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(10));  // worker 0 is parked by now
    EXPECT_EQ(fab->WorkerLoad(0), 1);
    for (int i = 0; i < 4; ++i) {
      ok_calls += (co_await fab->Call(env, 1, 16)).ok() ? 1 : 0;
    }
    EXPECT_EQ(served0, 1);
    EXPECT_EQ(fab->WorkerProgress(0), 0u);
    EXPECT_EQ(fab->WorkerProgress(1), 4u);
    EXPECT_EQ(fab->WorkerLoad(0), 1);
    EXPECT_EQ(fab->WorkerLoad(1), 0);
    co_await gate->Post(env);
    co_await env.kernel->Sleep(env, Duration::Micros(10));
    fab->Close();
  });
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(ok_calls, 5);
  EXPECT_EQ(fab->WorkerProgress(0), 1u);
  EXPECT_EQ(fab->busy_dispatches(), 0u);
  EXPECT_EQ(fab->WorkerLoad(0), 0);
  EXPECT_EQ(fab->WorkerLoad(1), 0);
}

// Two tenants' first calls start at the same instant on two CPUs, and both
// round-robin cursors start at worker 0. The first pick claims worker 0 in
// the host step of its scan, so the second reads the claim and takes the
// idle worker 1 instead of queueing behind the first request.
TEST_F(FabricTest, SimultaneousFirstCallsGoToDifferentIdleWorkers) {
  auto clients = MakeProcs("tenant", 2);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  int ok_calls = 0;
  std::vector<sim::Time> started(2);
  for (uint32_t c = 0; c < 2; ++c) {
    kernel_.Spawn(
        *clients[c], "web",
        [&, fab, c](os::Env env) -> sim::Task<void> {
          started[c] = env.kernel->now();
          ok_calls += (co_await fab->Call(env, c, 16)).ok() ? 1 : 0;
          if (ok_calls == 2) {
            fab->Close();
          }
        },
        /*pin_cpu=*/static_cast<int>(c));
  }
  for (uint32_t w = 0; w < 2; ++w) {
    SpawnServeLoops(fab, w, *workers[w], [](os::Env, const chan::Msg&) -> sim::Task<void> {
      co_return;
    });
  }
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(started[0], started[1]);
  EXPECT_EQ(ok_calls, 2);
  EXPECT_EQ(fab->WorkerProgress(0), 1u);
  EXPECT_EQ(fab->WorkerProgress(1), 1u);
  EXPECT_EQ(fab->busy_dispatches(), 0u);
  EXPECT_EQ(fab->WorkerLoad(0), 0);
  EXPECT_EQ(fab->WorkerLoad(1), 0);
}

// With no worker idle a call goes to the least-loaded one, the first of
// them in the caller's round-robin order, and counts as a busy dispatch.
TEST_F(FabricTest, BusyDispatchTakesTheLeastLoadedWorker) {
  auto clients = MakeProcs("tenant", 4);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  auto gate = std::make_shared<os::Semaphore>(0);
  ServiceFabric::Handler parked = [gate](os::Env env, const chan::Msg&) -> sim::Task<void> {
    co_await gate->Wait(env);
  };
  for (uint32_t w = 0; w < 2; ++w) {
    SpawnServeLoops(fab, w, *workers[w], parked);
  }
  // Tenant c calls at c x 10 us; every cursor starts at worker 0. Loads
  // after each dispatch: (1,0) idle pick, (1,1) idle pick, (2,1) busy pick
  // of worker 0, (2,2) busy pick of worker 1.
  const std::vector<std::pair<int64_t, int64_t>> loads_after = {{1, 0}, {1, 1}, {2, 1}, {2, 2}};
  int ok_calls = 0;
  for (uint32_t c = 0; c < 4; ++c) {
    kernel_.Spawn(*clients[c], "web", [&, fab, c](os::Env env) -> sim::Task<void> {
      co_await env.kernel->Sleep(env, Duration::Micros(10 * c));
      ok_calls += (co_await fab->Call(env, c, 16)).ok() ? 1 : 0;
    });
  }
  os::Process& checker = dipc_.CreateDipcProcess("checker");
  kernel_.Spawn(checker, "checker", [&, fab, gate](os::Env env) -> sim::Task<void> {
    for (uint32_t c = 0; c < 4; ++c) {
      co_await env.kernel->Sleep(env, Duration::Micros(c == 0 ? 5 : 10));
      EXPECT_EQ(fab->WorkerLoad(0), loads_after[c].first) << "after tenant " << c;
      EXPECT_EQ(fab->WorkerLoad(1), loads_after[c].second) << "after tenant " << c;
    }
    for (int i = 0; i < 4; ++i) {
      co_await gate->Post(env);
    }
    co_await env.kernel->Sleep(env, Duration::Micros(20));
    fab->Close();
  });
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(ok_calls, 4);
  EXPECT_EQ(fab->busy_dispatches(), 2u);
  EXPECT_EQ(fab->WorkerProgress(0), 2u);
  EXPECT_EQ(fab->WorkerProgress(1), 2u);
  EXPECT_EQ(fab->WorkerLoad(0), 0);
  EXPECT_EQ(fab->WorkerLoad(1), 0);
}

// Every in-flight count returns to zero: after concurrent calls complete,
// after a call retried under call_deadline (its first worker finishes late),
// and after a kill plus RebindWorker (the dead incarnation's late handler
// leaves the count alone and the new one updates it without a fault).
TEST_F(FabricTest, WorkerLoadsReadZeroAfterCompletionRetryAndRebind) {
  auto expect_idle = [](const ServiceFabric& fab, const char* when) {
    for (uint32_t w = 0; w < fab.worker_count(); ++w) {
      EXPECT_EQ(fab.WorkerLoad(w), 0) << when << ", worker " << w;
    }
  };
  const FabricConfig cfg{.req_slots = 4, .req_bytes = 64, .resp_slots = 4, .resp_bytes = 64,
                         .call_deadline = Duration::Micros(30), .max_call_retries = 5};
  ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  };
  // A handler that sleeps `d` on its worker's first request only.
  auto slow_first = [](int* served, Duration d) -> ServiceFabric::Handler {
    return [served, d](os::Env env, const chan::Msg&) -> sim::Task<void> {
      if ((*served)++ == 0) {
        co_await env.kernel->Sleep(env, d);
      }
    };
  };

  {  // Completion: three tenants' concurrent calls.
    auto clients = MakeProcs("tenant-a", 3);
    auto workers = MakeProcs("worker-a", 2);
    auto f = ServiceFabric::Create(dipc_, clients, workers, cfg);
    ASSERT_TRUE(f.ok());
    std::shared_ptr<ServiceFabric> fab = f.value();
    ServiceFabric::Handler work = [](os::Env env, const chan::Msg&) -> sim::Task<void> {
      co_await env.kernel->Spend(*env.self, Duration::Micros(1), os::TimeCat::kUser);
    };
    for (uint32_t w = 0; w < 2; ++w) {
      SpawnServeLoops(fab, w, *workers[w], work);
    }
    int remaining = 3;
    for (uint32_t c = 0; c < 3; ++c) {
      kernel_.Spawn(*clients[c], "web", [&, fab, c](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 4; ++i) {
          EXPECT_TRUE((co_await fab->Call(env, c, 16)).ok());
        }
        if (--remaining == 0) {
          fab->Close();
        }
      });
    }
    kernel_.Run();
    ExpectNothingOutlivesClose(*fab, kernel_);
    EXPECT_EQ(fab->completions(), 12u);
    expect_idle(*fab, "after completions");
  }

  {  // Retry: worker 0 outlasts the deadline; the retry goes to worker 1.
    auto clients = MakeProcs("tenant-b", 1);
    auto workers = MakeProcs("worker-b", 2);
    auto f = ServiceFabric::Create(dipc_, clients, workers, cfg);
    ASSERT_TRUE(f.ok());
    std::shared_ptr<ServiceFabric> fab = f.value();
    int served0 = 0;
    SpawnServeLoops(fab, 0, *workers[0], slow_first(&served0, Duration::Micros(100)));
    SpawnServeLoops(fab, 1, *workers[1], echo);
    kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
      EXPECT_TRUE((co_await fab->Call(env, 0, 16)).ok());
      EXPECT_EQ(fab->WorkerLoad(0), 1);  // still in its handler
      co_await env.kernel->Sleep(env, Duration::Micros(200));
      // Worker 0's late response waits on the response plane: the next
      // call's receiver drops it as a duplicate, then takes its own.
      EXPECT_TRUE((co_await fab->Call(env, 0, 16)).ok());
      fab->Close();
    });
    kernel_.Run();
    ExpectNothingOutlivesClose(*fab, kernel_);
    EXPECT_EQ(fab->retries(), 1u);
    EXPECT_EQ(fab->duplicate_completions(), 1u);
    EXPECT_EQ(fab->WorkerProgress(0), 2u);  // the late response and the second call
    EXPECT_EQ(fab->WorkerProgress(1), 1u);
    expect_idle(*fab, "after a retry");
  }

  {  // Kill and rebind: worker 1 dies inside its handler.
    auto clients = MakeProcs("tenant-c", 1);
    auto workers = MakeProcs("worker-c", 2);
    auto f = ServiceFabric::Create(dipc_, clients, workers, cfg);
    ASSERT_TRUE(f.ok());
    std::shared_ptr<ServiceFabric> fab = f.value();
    int served1 = 0;
    SpawnServeLoops(fab, 0, *workers[0], echo);
    SpawnServeLoops(fab, 1, *workers[1], slow_first(&served1, Duration::Millis(1)));
    os::Process& fresh = dipc_.CreateDipcProcess("worker-c-1b");
    os::Process& sup = dipc_.CreateDipcProcess("supervisor");
    kernel_.Spawn(sup, "supervisor", [&, fab](os::Env env) -> sim::Task<void> {
      co_await env.kernel->Sleep(env, Duration::Micros(10));
      EXPECT_EQ(fab->WorkerLoad(1), 1);  // the second call is in its handler
      dipc_.KillProcess(*workers[1]);
      co_await env.kernel->Sleep(env, Duration::Micros(10));
      EXPECT_TRUE(fab->RebindWorker(1, fresh).ok());
      EXPECT_EQ(fab->WorkerLoad(1), 0);
      SpawnServeLoops(fab, 1, fresh, echo);
    });
    kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
      for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE((co_await fab->Call(env, 0, 16)).ok()) << "call " << i;
      }
      // Outlive the dead incarnation's parked handler.
      co_await env.kernel->Sleep(env, Duration::Millis(2));
      fab->Close();
    });
    kernel_.Run();
    ExpectNothingOutlivesClose(*fab, kernel_);
    EXPECT_EQ(fab->completions(), 6u);
    EXPECT_EQ(fab->retries(), 1u);
    EXPECT_EQ(fab->worker_rebinds(), 1u);
    EXPECT_GE(fab->WorkerProgress(1), 1u);  // the new incarnation served
    expect_idle(*fab, "after a kill and a rebind");
  }
}

// One tenant calling idle workers: the caller's completion wait swaps its
// CPU to the serve thread, whose next Recv swaps straight back to the
// caller, its client's receiver. Two direct switches per call; a completion
// relayed through a third thread would make three.
TEST_F(FabricTest, IdleCallHandsTheCpuOverTwice) {
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 4);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  for (uint32_t w = 0; w < 4; ++w) {
    SpawnServeLoops(fab, w, *workers[w], [](os::Env, const chan::Msg&) -> sim::Task<void> {
      co_return;
    });
  }
  int ok_calls = 0;
  kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      const uint64_t before = env.kernel->handoffs();
      ok_calls += (co_await fab->Call(env, 0, 16)).ok() ? 1 : 0;
      EXPECT_EQ(env.kernel->handoffs() - before, 2u) << "call " << i;
    }
    fab->Close();
  });
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(ok_calls, 8);
  EXPECT_EQ(fab->relayed_completions(), 0u);
}

// Four callers of one client overlap on one worker whose handler sleeps, so
// one caller receives while the others follow on their semaphores. The
// receiver relays the others' completions, hands the role on when its own
// arrives, and every call completes exactly once with every caller back.
TEST_F(FabricTest, OverlappingCallersOfOneClientEachCompleteOnce) {
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 1);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 8, .req_bytes = 64, .resp_slots = 8,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  SpawnServeLoops(fab, 0, *workers[0], [](os::Env env, const chan::Msg&) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(5));
  });
  constexpr int kCallers = 4;
  constexpr int kPerCaller = 3;
  int ok_calls = 0;
  int returned = 0;
  for (int i = 0; i < kCallers; ++i) {
    kernel_.Spawn(*clients[0], "web", [&, fab, i](os::Env env) -> sim::Task<void> {
      co_await env.kernel->Sleep(env, Duration::Nanos(500 * i));
      for (int j = 0; j < kPerCaller; ++j) {
        ok_calls += (co_await fab->Call(env, 0, 16)).ok() ? 1 : 0;
      }
      if (++returned == kCallers) {
        fab->Close();
      }
    });
  }
  kernel_.Run();
  constexpr uint64_t kTotal = kCallers * kPerCaller;
  EXPECT_EQ(returned, kCallers);
  EXPECT_EQ(ok_calls, static_cast<int>(kTotal));
  EXPECT_EQ(fab->calls(), kTotal);
  EXPECT_EQ(fab->completions(), kTotal);
  EXPECT_EQ(fab->duplicate_completions(), 0u);
  EXPECT_EQ(fab->retries(), 0u);
  EXPECT_GT(fab->relayed_completions(), 0u);
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

// Caller A receives; caller B follows. A's deadline fires before either
// response lands, so A hands the role to B, and B receives its own
// completion before its own deadline, with no retry. A retries on the idle
// worker. Its first attempt's late response is a duplicate, which A's next
// call receives and drops.
TEST_F(FabricTest, ReceiverWhoseDeadlineFiresHandsTheRoleToAWaitingCaller) {
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 2);
  const Duration deadline = Duration::Micros(50);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64, .call_deadline = deadline,
                                  .max_call_retries = 3});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  // Each worker sleeps through its first request only: A's first attempt
  // outlasts every deadline, B's lands after A's deadline and before B's.
  for (uint32_t w = 0; w < 2; ++w) {
    auto served = std::make_shared<int>(0);
    const Duration first = w == 0 ? Duration::Micros(300) : Duration::Micros(40);
    SpawnServeLoops(fab, w, *workers[w],
                    [served, first](os::Env env, const chan::Msg&) -> sim::Task<void> {
                      if ((*served)++ == 0) {
                        co_await env.kernel->Sleep(env, first);
                      }
                    });
  }
  base::Status a = ErrorCode::kFault;
  base::Status a_next = ErrorCode::kFault;
  base::Status b = ErrorCode::kFault;
  sim::Time b_start;
  sim::Time b_end;
  kernel_.Spawn(*clients[0], "web-a", [&, fab](os::Env env) -> sim::Task<void> {
    a = co_await fab->Call(env, 0, 16);
    co_await env.kernel->Sleep(env, Duration::Micros(300));  // past the late response
    a_next = co_await fab->Call(env, 0, 16);
  });
  kernel_.Spawn(*clients[0], "web-b", [&, fab](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(20));
    b_start = env.kernel->now();
    b = co_await fab->Call(env, 0, 16);
    b_end = env.kernel->now();
  });
  machine_.events().ScheduleAt(sim::Time::Zero() + Duration::Micros(500), [fab] { fab->Close(); });
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a_next.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_LT(b_end, b_start + deadline);
  EXPECT_EQ(fab->calls(), 3u);
  EXPECT_EQ(fab->completions(), 3u);
  EXPECT_EQ(fab->retries(), 1u);  // A's alone
  EXPECT_EQ(fab->relayed_completions(), 0u);
  EXPECT_EQ(fab->duplicate_completions(), 1u);
  EXPECT_EQ(fab->WorkerProgress(0), 1u);
  EXPECT_EQ(fab->WorkerProgress(1), 3u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

// A late completion that lands while no call is in flight has no caller to
// receive it: it waits on the response plane until Close(), which retires
// it with its grant. Nobody receives it, so it is not counted.
TEST_F(FabricTest, LateDuplicateWithNoCallInFlightIsRetiredAtClose) {
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64, .call_deadline = Duration::Micros(30),
                                  .max_call_retries = 5});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  auto served0 = std::make_shared<int>(0);
  SpawnServeLoops(fab, 0, *workers[0], [served0](os::Env env, const chan::Msg&) -> sim::Task<void> {
    if ((*served0)++ == 0) {
      co_await env.kernel->Sleep(env, Duration::Micros(100));
    }
  });
  SpawnServeLoops(fab, 1, *workers[1], [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  });
  const std::shared_ptr<chan::Plane>& resp = fab->response_plane(0);
  uint64_t recvs_at_close = 0;
  kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await fab->Call(env, 0, 16)).ok());  // its retry went to worker 1
    co_await env.kernel->Sleep(env, Duration::Micros(200));
    EXPECT_EQ(fab->WorkerProgress(0), 1u);  // the late response was sent
    EXPECT_EQ(resp->queued(0), 1u);
    EXPECT_EQ(resp->LiveGrantCount(), 1u);
    recvs_at_close = resp->recvs();
    fab->Close();
  });
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_EQ(fab->completions(), 1u);
  EXPECT_EQ(fab->retries(), 1u);
  EXPECT_EQ(resp->recvs(), recvs_at_close);  // nobody received it
  EXPECT_EQ(fab->duplicate_completions(), 0u);
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
  ExpectNothingOutlivesClose(*fab, kernel_);
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
  ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  };
  for (uint32_t w = 0; w < kWorkers; ++w) {
    SpawnServeLoops(fab, w, *workers[w], echo);
  }
  int ok_calls = 0;
  // The fabric closes once every tenant AND the supervisor are done: when
  // calls are fast the tenants finish before the second scripted rebind,
  // which must still find the fabric open. Both victims are rebound by
  // then, so every worker is alive up to the close, which aborts them all.
  int remaining = kTenants + 1;
  auto finish = [&remaining, fab] {
    if (--remaining == 0) {
      for (uint32_t w = 0; w < kWorkers; ++w) {
        EXPECT_TRUE(fab->worker_alive(w)) << "worker " << w;
      }
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
  ExpectNothingOutlivesClose(*fab, kernel_);
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
    EXPECT_GE(fab->WorkerProgress(w), 1u) << "worker " << w;
    progress += fab->WorkerProgress(w);
  }
  EXPECT_GE(progress, kTotal);  // retried attempts may be served twice
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
  // client's retry of the same opid completes. The plane is read before
  // Close(), which aborts it.
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 1);
  auto f = ServiceFabric::Create(
      dipc_, clients, workers,
      {.req_slots = 4, .req_bytes = 64, .resp_slots = 4, .resp_bytes = 64,
       .call_deadline = Duration::Micros(50), .max_call_retries = 3});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  };
  SpawnServeLoops(fab, 0, *workers[0], echo);
  auto plan = fault::Plan::Parse("rule chan/send fail at=2\n");
  ASSERT_TRUE(plan.ok());
  fault::Injector::Global().Arm(plan.value(), &machine_.events());
  base::Status result = ErrorCode::kFault;
  const std::shared_ptr<chan::Plane>& resp = fab->response_plane(0);
  kernel_.Spawn(*clients[0], "web", [&, fab](os::Env env) -> sim::Task<void> {
    result = co_await fab->Call(env, 0, 16);
    EXPECT_EQ(resp->broken(), ErrorCode::kOk);
    EXPECT_EQ(resp->LiveGrantCount(), 0u);
    EXPECT_EQ(resp->credits(0), resp->credit_line());
    fab->Close();
  });
  kernel_.Run();
  fault::Injector::Global().Disarm();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_TRUE(result.ok()) << static_cast<int>(result.code());
  EXPECT_EQ(fab->retries(), 1u);
#endif
}

TEST_F(FabricTest, CloseFailsACallParkedOnItsCompletion) {
  // The handler is still running when the fabric closes: with no
  // call_deadline, the caller parked on its completion must not be left
  // there. It returns kBrokenChannel; Close() revoked the grant of the
  // request in the handler, whose late release finds the plane aborted.
  // Every plane then reads kBrokenChannel: the client is broken and no
  // worker is alive.
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 1);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
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
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_TRUE(returned);
  EXPECT_EQ(result.code(), ErrorCode::kBrokenChannel);
  EXPECT_EQ(fab->calls(), 1u);
  EXPECT_EQ(fab->completions(), 0u);
  EXPECT_EQ(fab->duplicate_completions(), 0u);
  EXPECT_EQ(fab->request_plane(0)->broken(), ErrorCode::kBrokenChannel);
  EXPECT_EQ(fab->response_plane(0)->broken(), ErrorCode::kBrokenChannel);
  EXPECT_TRUE(fab->client_broken(0));
  EXPECT_FALSE(fab->worker_alive(0));
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

// A retry still queued at a busy worker when the fabric closes. Caller A's
// first attempt goes to worker 0, which sleeps 60 us on it; caller B's goes
// to worker 1, which sleeps 300 us. Both time out and retry: A's retry
// queues at worker 0, B's at worker 1. A's first attempt completes at about
// 60 us and A closes at once, with B's first request in worker 1's handler
// and B's retry queued behind it. Close() retires both with their grants;
// a serve loop that only stopped would leave the queued one live.
TEST_F(FabricTest, RetryQueuedAtABusyWorkerIsRetiredAtClose) {
  auto clients = MakeProcs("tenant", 1);
  auto workers = MakeProcs("worker", 2);
  auto f = ServiceFabric::Create(dipc_, clients, workers,
                                 {.req_slots = 4, .req_bytes = 64, .resp_slots = 4,
                                  .resp_bytes = 64, .call_deadline = Duration::Micros(30),
                                  .max_call_retries = 3});
  ASSERT_TRUE(f.ok());
  std::shared_ptr<ServiceFabric> fab = f.value();
  for (uint32_t w = 0; w < 2; ++w) {
    auto served = std::make_shared<int>(0);
    const Duration first = w == 0 ? Duration::Micros(60) : Duration::Micros(300);
    SpawnServeLoops(fab, w, *workers[w],
                    [served, first](os::Env env, const chan::Msg&) -> sim::Task<void> {
                      if ((*served)++ == 0) {
                        co_await env.kernel->Sleep(env, first);
                      }
                    });
  }
  const std::shared_ptr<chan::Plane>& req = fab->request_plane(0);
  base::Status a = ErrorCode::kFault;
  base::Status b = ErrorCode::kOk;
  kernel_.Spawn(*clients[0], "web-a", [&, fab](os::Env env) -> sim::Task<void> {
    a = co_await fab->Call(env, 0, 16);
    EXPECT_EQ(req->queued(1), 1u);  // B's retry
    EXPECT_EQ(req->LiveGrantCount(), 2u);  // B's first request and its retry
    fab->Close();
  });
  kernel_.Spawn(*clients[0], "web-b", [&, fab](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(5));
    b = co_await fab->Call(env, 0, 16);
  });
  kernel_.Run();
  ExpectNothingOutlivesClose(*fab, kernel_);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(b.code(), ErrorCode::kBrokenChannel);
  EXPECT_EQ(fab->retries(), 2u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

}  // namespace
}  // namespace dipc::fabric
