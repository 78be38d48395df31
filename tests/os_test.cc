// Unit tests for the OS kernel substrate: scheduling, time accounting,
// semaphores, pipes, UNIX sockets, user memory, and thread lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codoms/codoms.h"
#include "hw/machine.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "os/pipe.h"
#include "os/semaphore.h"
#include "os/unix_socket.h"

namespace dipc::os {
namespace {

using sim::Duration;

class OsTest : public ::testing::Test {
 protected:
  OsTest() : machine_(4), codoms_(machine_), kernel_(machine_, codoms_) {}

  hw::Machine machine_;
  codoms::Codoms codoms_;
  Kernel kernel_;
};

TEST_F(OsTest, SpawnRunsToCompletion) {
  bool ran = false;
  Process& p = kernel_.CreateProcess("p");
  kernel_.Spawn(p, "t", [&ran](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Nanos(100), TimeCat::kUser);
    ran = true;
  });
  kernel_.Run();
  EXPECT_TRUE(ran);
  EXPECT_GE(kernel_.now().nanos(), 100.0);
}

TEST_F(OsTest, SpendAdvancesVirtualTimeAndAccounts) {
  Process& p = kernel_.CreateProcess("p");
  kernel_.Spawn(p, "t", [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(3), TimeCat::kUser);
    co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kKernel);
  });
  kernel_.Run();
  TimeBreakdown b = kernel_.accounting().Summed();
  EXPECT_NEAR(b[TimeCat::kUser].micros(), 3.0, 1e-9);
  EXPECT_NEAR(b[TimeCat::kKernel].micros(), 1.0, 1e-9);
  EXPECT_NEAR(p.cpu_time().micros(), 4.0, 1e-9);
}

TEST_F(OsTest, JoinWaitsForTarget) {
  Process& p = kernel_.CreateProcess("p");
  double joined_at = -1;
  Thread& worker = kernel_.Spawn(p, "worker", [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(10), TimeCat::kUser);
  });
  kernel_.Spawn(p, "joiner", [&](Env env) -> sim::Task<void> {
    co_await env.kernel->Join(env, worker);
    joined_at = env.kernel->now().nanos();
  });
  kernel_.Run();
  EXPECT_GE(joined_at, 10000.0);
}

TEST_F(OsTest, JoinOnDeadThreadReturnsImmediately) {
  Process& p = kernel_.CreateProcess("p");
  Thread& worker = kernel_.Spawn(p, "w", [](Env) -> sim::Task<void> { co_return; });
  kernel_.Run();
  ASSERT_EQ(worker.state(), ThreadState::kDead);
  bool joined = false;
  kernel_.Spawn(p, "j", [&](Env env) -> sim::Task<void> {
    co_await env.kernel->Join(env, worker);
    joined = true;
  });
  kernel_.Run();
  EXPECT_TRUE(joined);
}

TEST_F(OsTest, PinnedThreadsShareOneCpu) {
  Process& p = kernel_.CreateProcess("p");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    kernel_.Spawn(
        p, "t" + std::to_string(i),
        [&order, i](Env env) -> sim::Task<void> {
          co_await env.kernel->Spend(*env.self, Duration::Micros(5), TimeCat::kUser);
          order.push_back(i);
        },
        /*pin_cpu=*/0);
  }
  kernel_.Run();
  // Serialized on CPU 0: finish times are 5, 10+, 15+ us (plus switch costs).
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GE(kernel_.now().micros(), 15.0);
}

TEST_F(OsTest, UnpinnedThreadsSpreadAcrossCpus) {
  Process& p = kernel_.CreateProcess("p");
  for (int i = 0; i < 4; ++i) {
    kernel_.Spawn(p, std::string("t") + std::to_string(i), [](Env env) -> sim::Task<void> {
      co_await env.kernel->Spend(*env.self, Duration::Micros(100), TimeCat::kUser);
    });
  }
  kernel_.Run();
  // 4 threads on 4 CPUs run in parallel: wall time ~100us, not ~400us.
  EXPECT_LT(kernel_.now().micros(), 150.0);
}

TEST_F(OsTest, SleepBlocksWithoutHoldingCpu) {
  Process& p = kernel_.CreateProcess("p");
  double awake_at = 0;
  bool other_ran = false;
  kernel_.Spawn(
      p, "sleeper",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Millis(1));
        awake_at = env.kernel->now().micros();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      p, "other",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Spend(*env.self, Duration::Micros(10), TimeCat::kUser);
        other_ran = true;
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_TRUE(other_ran);
  EXPECT_GE(awake_at, 1000.0);
}

TEST_F(OsTest, IdleTimeIsAccounted) {
  Process& p = kernel_.CreateProcess("p");
  kernel_.Spawn(
      p, "t",
      [](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(100));
        co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kUser);
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  // CPU 0 idled for ~100us while the thread slept.
  EXPECT_GT(kernel_.accounting().cpu(0)[TimeCat::kIdle].micros(), 90.0);
}

// --- Semaphores ---

TEST_F(OsTest, SemaphoreUncontendedStaysInUserSpace) {
  Process& p = kernel_.CreateProcess("p");
  auto sem = std::make_shared<Semaphore>(1);
  kernel_.Spawn(p, "t", [sem](Env env) -> sim::Task<void> {
    co_await sem->Wait(env);
    co_await sem->Post(env);
  });
  kernel_.Run();
  TimeBreakdown b = kernel_.accounting().Summed();
  EXPECT_EQ(b[TimeCat::kSyscallCrossing], Duration::Zero());
  EXPECT_EQ(sem->count(), 1);
}

TEST_F(OsTest, SemaphorePingPongSameCpu) {
  Process& p = kernel_.CreateProcess("p");
  auto a = std::make_shared<Semaphore>(0);
  auto b = std::make_shared<Semaphore>(0);
  constexpr int kRounds = 100;
  kernel_.Spawn(
      p, "ping",
      [a, b](Env env) -> sim::Task<void> {
        for (int i = 0; i < kRounds; ++i) {
          co_await a->Post(env);
          co_await b->Wait(env);
        }
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      p, "pong",
      [a, b](Env env) -> sim::Task<void> {
        for (int i = 0; i < kRounds; ++i) {
          co_await a->Wait(env);
          co_await b->Post(env);
        }
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(a->waiter_count(), 0u);
  EXPECT_EQ(b->waiter_count(), 0u);
  // A contended round trip costs on the order of 1.5 us (Fig. 2 anchor).
  double per_round = kernel_.now().nanos() / kRounds;
  EXPECT_GT(per_round, 500.0);
  EXPECT_LT(per_round, 4000.0);
  // No IPIs on the same CPU: cross-CPU costs must not appear.
  EXPECT_EQ(kernel_.accounting().cpu(1).Total(), Duration::Zero());
}

TEST_F(OsTest, SemaphorePingPongCrossCpuIsSlower) {
  auto run = [](int cpu_a, int cpu_b) {
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    Kernel kernel(machine, codoms);
    Process& p = kernel.CreateProcess("p");
    auto a = std::make_shared<Semaphore>(0);
    auto b = std::make_shared<Semaphore>(0);
    constexpr int kRounds = 50;
    kernel.Spawn(
        p, "ping",
        [a, b](Env env) -> sim::Task<void> {
          for (int i = 0; i < kRounds; ++i) {
            co_await a->Post(env);
            co_await b->Wait(env);
          }
        },
        cpu_a);
    kernel.Spawn(
        p, "pong",
        [a, b](Env env) -> sim::Task<void> {
          for (int i = 0; i < kRounds; ++i) {
            co_await a->Wait(env);
            co_await b->Post(env);
          }
        },
        cpu_b);
    kernel.Run();
    return kernel.now().nanos() / kRounds;
  };
  double same = run(0, 0);
  double cross = run(0, 1);
  EXPECT_GT(cross, same * 1.5) << "same=" << same << " cross=" << cross;
}

// --- Pipes ---

TEST_F(OsTest, PipeTransfersBytesIntact) {
  Process& p = kernel_.CreateProcess("p");
  auto pipe = std::make_shared<Pipe>(kernel_);
  auto wbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  auto rbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(wbuf.ok() && rbuf.ok());
  std::string got;
  kernel_.Spawn(p, "writer", [&, pipe](Env env) -> sim::Task<void> {
    const std::string msg = "through the kernel ring";
    EXPECT_TRUE(env.kernel->UserWrite(*env.self, wbuf.value(), std::as_bytes(std::span(msg))).ok());
    auto n = co_await pipe->Write(env, wbuf.value(), msg.size());
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), msg.size());
    pipe->Close();
  });
  kernel_.Spawn(p, "reader", [&, pipe](Env env) -> sim::Task<void> {
    std::vector<char> buf(64);
    auto n = co_await pipe->Read(env, rbuf.value(), buf.size());
    EXPECT_TRUE(n.ok());
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, rbuf.value(), std::as_writable_bytes(std::span(buf))).ok());
    got.assign(buf.data(), n.value());
  });
  kernel_.Run();
  EXPECT_EQ(got, "through the kernel ring");
}

TEST_F(OsTest, PipeReaderSeesEofAfterClose) {
  Process& p = kernel_.CreateProcess("p");
  auto pipe = std::make_shared<Pipe>(kernel_);
  auto buf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  bool eof = false;
  kernel_.Spawn(p, "reader", [&, pipe](Env env) -> sim::Task<void> {
    auto n = co_await pipe->Read(env, buf.value(), 16);
    EXPECT_TRUE(n.ok());
    eof = n.value() == 0;
  });
  kernel_.Spawn(p, "closer", [&, pipe](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(50));
    pipe->Close();
  });
  kernel_.Run();
  EXPECT_TRUE(eof);
}

TEST_F(OsTest, PipeBlocksWriterWhenFull) {
  Process& p = kernel_.CreateProcess("p");
  auto pipe = std::make_shared<Pipe>(kernel_);
  uint64_t total = Pipe::kCapacity + 4096;  // forces one blocking round
  auto wbuf = kernel_.MapAnonymous(p, total, hw::PageFlags{.writable = true});
  auto rbuf = kernel_.MapAnonymous(p, total, hw::PageFlags{.writable = true});
  ASSERT_TRUE(wbuf.ok() && rbuf.ok());
  uint64_t read_total = 0;
  kernel_.Spawn(p, "writer", [&, pipe](Env env) -> sim::Task<void> {
    auto n = co_await pipe->Write(env, wbuf.value(), total);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), total);
    pipe->Close();
  });
  kernel_.Spawn(p, "reader", [&, pipe](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(100));  // let the pipe fill
    while (true) {
      auto n = co_await pipe->Read(env, rbuf.value(), 16384);
      EXPECT_TRUE(n.ok());
      if (n.value() == 0) {
        break;
      }
      read_total += n.value();
    }
  });
  kernel_.Run();
  EXPECT_EQ(read_total, total);
}

// --- UNIX sockets ---

TEST_F(OsTest, SocketPairRoundTrip) {
  Process& p = kernel_.CreateProcess("p");
  auto [client, server] = UnixStreamCore::CreatePair(kernel_);
  auto cbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  auto sbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(cbuf.ok() && sbuf.ok());
  std::string reply;
  kernel_.Spawn(p, "client", [&, client = client](Env env) -> sim::Task<void> {
    const std::string msg = "ping";
    EXPECT_TRUE(env.kernel->UserWrite(*env.self, cbuf.value(), std::as_bytes(std::span(msg))).ok());
    EXPECT_TRUE((co_await client->Send(env, cbuf.value(), msg.size())).ok());
    auto s = co_await client->RecvExact(env, cbuf.value(), 4);
    EXPECT_TRUE(s.ok());
    std::vector<char> out(4);
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, cbuf.value(), std::as_writable_bytes(std::span(out))).ok());
    reply.assign(out.begin(), out.end());
  });
  kernel_.Spawn(p, "server", [&, server = server](Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await server->RecvExact(env, sbuf.value(), 4)).ok());
    std::vector<char> in(4);
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, sbuf.value(), std::as_writable_bytes(std::span(in))).ok());
    EXPECT_EQ(std::string(in.begin(), in.end()), "ping");
    const std::string msg = "pong";
    EXPECT_TRUE(env.kernel->UserWrite(*env.self, sbuf.value(), std::as_bytes(std::span(msg))).ok());
    EXPECT_TRUE((co_await server->Send(env, sbuf.value(), msg.size())).ok());
  });
  kernel_.Run();
  EXPECT_EQ(reply, "pong");
}

TEST_F(OsTest, SocketPassesKernelObjects) {
  Process& p = kernel_.CreateProcess("p");
  auto [a, b] = UnixStreamCore::CreatePair(kernel_);
  auto buf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  std::string received_type;
  kernel_.Spawn(p, "sender", [&, a = a](Env env) -> sim::Task<void> {
    auto sem = std::make_shared<Semaphore>(3);
    std::vector<std::shared_ptr<KernelObject>> handles{sem};
    EXPECT_TRUE((co_await a->Send(env, buf.value(), 1, std::move(handles))).ok());
  });
  kernel_.Spawn(p, "receiver", [&, b = b](Env env) -> sim::Task<void> {
    std::vector<std::shared_ptr<KernelObject>> handles;
    auto n = co_await b->Recv(env, buf.value(), 1, &handles);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(handles.size(), 1u);
    received_type = handles[0]->type_name();
    auto sem = std::dynamic_pointer_cast<Semaphore>(handles[0]);
    EXPECT_NE(sem, nullptr);
    EXPECT_EQ(sem->count(), 3);
  });
  kernel_.Run();
  EXPECT_EQ(received_type, "semaphore");
}

TEST_F(OsTest, AncillaryOnlySendWakesAParkedReceiver) {
  Process& p = kernel_.CreateProcess("p");
  auto [a, b] = UnixStreamCore::CreatePair(kernel_);
  auto buf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  bool returned = false;
  uint64_t got = 1;
  std::vector<std::shared_ptr<KernelObject>> received;
  kernel_.Spawn(p, "receiver", [&, b = b](Env env) -> sim::Task<void> {
    auto n = co_await b->Recv(env, buf.value(), 16, &received);
    EXPECT_TRUE(n.ok());
    got = n.value();
    returned = true;
  });
  kernel_.Spawn(p, "sender", [&, a = a](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // the receiver parks first
    std::vector<std::shared_ptr<KernelObject>> handles{std::make_shared<Semaphore>(1)};
    auto n = co_await a->Send(env, buf.value(), 0, std::move(handles));
    EXPECT_TRUE(n.ok());
  });
  kernel_.Run();
  ASSERT_TRUE(returned) << "receiver still parked at " << kernel_.now().micros() << " us";
  EXPECT_EQ(got, 0u);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0]->type_name(), "semaphore");
}

TEST_F(OsTest, ReadWithNoRoomForHandlesDiscardsThemAndWaitsForBytes) {
  // A 0-byte send carrying a handle, then 4 bytes, then 4 more and a close:
  // reads that pass no handles_out discard the handle (MSG_CTRUNC) instead
  // of returning 0 for it, so RecvExact gets its 4 bytes, the next Recv the
  // other 4, and only the close reads as EOF.
  Process& p = kernel_.CreateProcess("p");
  auto [a, b] = UnixStreamCore::CreatePair(kernel_);
  auto sbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  auto rbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(sbuf.ok() && rbuf.ok());
  std::vector<uint32_t> got;
  base::ErrorCode exact = base::ErrorCode::kWouldBlock;  // until RecvExact returns
  std::vector<uint64_t> lens;
  auto handle = std::make_shared<Semaphore>(1);
  kernel_.Spawn(p, "sender", [&, a = a](Env env) -> sim::Task<void> {
    Pipe::Handles handles{handle};
    EXPECT_TRUE((co_await a->Send(env, sbuf.value(), 0, std::move(handles))).ok());
    for (uint32_t word : {0x01020304u, 0x05060708u}) {
      co_await env.kernel->Sleep(env, Duration::Micros(10));
      EXPECT_TRUE(
          env.kernel->UserWrite(*env.self, sbuf.value(), std::as_bytes(std::span(&word, 1))).ok());
      EXPECT_TRUE((co_await a->Send(env, sbuf.value(), sizeof(word))).ok());
    }
    a->Close();
  });
  kernel_.Spawn(p, "receiver", [&, b = b](Env env) -> sim::Task<void> {
    exact = (co_await b->RecvExact(env, rbuf.value(), 4)).code();
    for (int i = 0; i < 2; ++i) {
      uint32_t word = 0;
      EXPECT_TRUE(
          env.kernel->UserRead(*env.self, rbuf.value(), std::as_writable_bytes(std::span(&word, 1)))
              .ok());
      got.push_back(word);
      auto n = co_await b->Recv(env, rbuf.value(), 4);
      EXPECT_TRUE(n.ok());
      lens.push_back(n.value());
    }
  });
  kernel_.Run();
  EXPECT_EQ(exact, base::ErrorCode::kOk);
  EXPECT_EQ(got, (std::vector<uint32_t>{0x01020304u, 0x05060708u}));
  EXPECT_EQ(lens, (std::vector<uint64_t>{4, 0}));  // then EOF
  EXPECT_EQ(handle.use_count(), 1);                // the ring dropped it
}

TEST_F(OsTest, ClosedRingsFailTheirWriters) {
  Process& p = kernel_.CreateProcess("p");
  auto [a, b] = UnixStreamCore::CreatePair(kernel_);
  auto pipe = std::make_shared<Pipe>(kernel_);
  uint64_t total = Pipe::kCapacity + 4096;  // fills the ring and parks the sender
  auto buf = kernel_.MapAnonymous(p, total, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  bool sent = false;
  base::ErrorCode send_code = base::ErrorCode::kOk;
  base::ErrorCode write_code = base::ErrorCode::kOk;
  kernel_.Spawn(p, "sender", [&, a = a](Env env) -> sim::Task<void> {
    auto n = co_await a->Send(env, buf.value(), total);
    send_code = n.code();
    sent = true;
  });
  kernel_.Spawn(p, "closer", [&, b = b](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Millis(2));
    b->Close();
  });
  kernel_.Spawn(p, "pipe-writer", [&, pipe](Env env) -> sim::Task<void> {
    pipe->Close();
    auto n = co_await pipe->Write(env, buf.value(), 16);
    write_code = n.code();
  });
  kernel_.Run();
  EXPECT_TRUE(sent) << "sender still parked at " << kernel_.now().micros() << " us";
  EXPECT_EQ(send_code, base::ErrorCode::kBrokenChannel);
  EXPECT_EQ(write_code, base::ErrorCode::kBrokenChannel);
}

TEST_F(OsTest, NamedListenerAcceptsConnections) {
  Process& p = kernel_.CreateProcess("p");
  auto listener = std::make_shared<UnixListener>(kernel_);
  ASSERT_TRUE(kernel_.BindPath("/tmp/svc.sock", listener).ok());
  auto buf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  bool served = false;
  kernel_.Spawn(p, "server", [&, listener](Env env) -> sim::Task<void> {
    auto conn = co_await listener->Accept(env);
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE((co_await conn.value()->RecvExact(env, buf.value(), 5)).ok());
    served = true;
  });
  kernel_.Spawn(p, "client", [&](Env env) -> sim::Task<void> {
    auto conn = co_await UnixListener::Connect(env, "/tmp/svc.sock");
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE((co_await conn.value()->Send(env, buf.value(), 5)).ok());
  });
  kernel_.Run();
  EXPECT_TRUE(served);
}

TEST_F(OsTest, ConnectToUnboundPathFails) {
  Process& p = kernel_.CreateProcess("p");
  base::ErrorCode code = base::ErrorCode::kOk;
  kernel_.Spawn(p, "client", [&](Env env) -> sim::Task<void> {
    auto conn = co_await UnixListener::Connect(env, "/nope");
    code = conn.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kNotFound);
}

// --- User memory & protection integration ---

TEST_F(OsTest, CrossProcessMemoryIsIsolatedByDefault) {
  Process& p1 = kernel_.CreateProcess("p1");
  Process& p2 = kernel_.CreateProcess("p2");
  auto m1 = kernel_.MapAnonymous(p1, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(m1.ok());
  // p2's thread cannot touch p1's mapping: different page table => unmapped.
  base::ErrorCode code = base::ErrorCode::kOk;
  kernel_.Spawn(p2, "t", [&](Env env) -> sim::Task<void> {
    auto s = co_await env.kernel->TouchUser(env, m1.value(), 8, hw::AccessType::kRead);
    code = s.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kFault);
}

TEST_F(OsTest, SharedPageTableStillIsolatedByDomainTags) {
  // Two dIPC-style processes in one page table: CODOMs tags isolate them.
  hw::PageTable& shared = machine_.CreatePageTable();
  hw::DomainTag d1 = codoms_.apl_table().AllocateTag();
  hw::DomainTag d2 = codoms_.apl_table().AllocateTag();
  Process& p1 = kernel_.CreateProcessIn("p1", shared, d1);
  Process& p2 = kernel_.CreateProcessIn("p2", shared, d2);
  auto m1 = kernel_.MapAnonymous(p1, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(m1.ok());
  base::ErrorCode code = base::ErrorCode::kOk;
  kernel_.Spawn(p2, "t", [&](Env env) -> sim::Task<void> {
    auto s = co_await env.kernel->TouchUser(env, m1.value(), 8, hw::AccessType::kRead);
    code = s.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kFault);
  // With an APL grant, the same access succeeds.
  codoms_.apl_table().Grant(d2, d1, codoms::Perm::kRead);
  code = base::ErrorCode::kOk;
  kernel_.Spawn(p2, "t2", [&](Env env) -> sim::Task<void> {
    auto s = co_await env.kernel->TouchUser(env, m1.value(), 8, hw::AccessType::kRead);
    code = s.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kOk);
}

// --- One walk per timed user access ---

// Three pages of an owner domain that a second domain in the same page table
// may write through an APL grant: every page the user touches is foreign, so
// each is checked through the APL cache.
struct ForeignPages {
  ForeignPages(Kernel& kernel, codoms::Codoms& codoms) {
    hw::PageTable& pt = kernel.machine().CreatePageTable();
    const hw::DomainTag owner_tag = codoms.apl_table().AllocateTag();
    const hw::DomainTag user_tag = codoms.apl_table().AllocateTag();
    Process& owner = kernel.CreateProcessIn("owner", pt, owner_tag);
    user = &kernel.CreateProcessIn("user", pt, user_tag);
    va = kernel.MapAnonymous(owner, 3 * hw::kPageSize, hw::PageFlags{.writable = true}).value();
    codoms.apl_table().Grant(user_tag, owner_tag, codoms::Perm::kWrite);
  }
  Process* user;
  hw::VirtAddr va;
};

std::vector<std::byte> Pattern(uint64_t n) {
  std::vector<std::byte> bytes(n);
  for (uint64_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>(i * 7 + 1);
  }
  return bytes;
}

TEST_F(OsTest, TouchUserMovesItsBytesAtTheCostItPricesWithOneCheckPerPage) {
  // The same access in two identical worlds: here it moves a header of just
  // over a page, there UserAccessCost only prices it. The range starts
  // mid-page and spans all three pages.
  hw::Machine machine2(4);
  codoms::Codoms codoms2(machine2);
  Kernel kernel2(machine2, codoms2);
  ForeignPages pages(kernel_, codoms_);
  ForeignPages pages2(kernel2, codoms2);
  const uint64_t len = 2 * hw::kPageSize;
  const std::vector<std::byte> header = Pattern(hw::kPageSize + 50);
  std::vector<std::byte> landed(header.size());
  Duration moved_cost;
  uint64_t hits = 0;
  kernel_.Spawn(
      *pages.user, "mover",
      [&](Env env) -> sim::Task<void> {
        Kernel& k = *env.kernel;
        std::byte warm{};  // fills the APL cache, so the walk below hits it
        EXPECT_TRUE(k.UserRead(*env.self, pages.va, std::span(&warm, 1)).ok());
        const uint64_t hits0 = codoms_.apl_cache(0).hits();
        const sim::Time t0 = k.now();
        const base::Status s = co_await k.TouchUser(env, pages.va + 100, len,
                                                    hw::AccessType::kWrite, std::span(header));
        EXPECT_TRUE(s.ok());
        moved_cost = k.now() - t0;
        hits = codoms_.apl_cache(0).hits() - hits0;
        EXPECT_TRUE(k.UserRead(*env.self, pages.va + 100, landed).ok());
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  base::Result<Duration> priced = base::ErrorCode::kNotFound;
  kernel2.Spawn(
      *pages2.user, "pricer",
      [&](Env env) -> sim::Task<void> {
        std::byte warm{};
        EXPECT_TRUE(env.kernel->UserRead(*env.self, pages2.va, std::span(&warm, 1)).ok());
        priced = env.kernel->UserAccessCost(*env.self, pages2.va + 100, len,
                                            hw::AccessType::kWrite);
        co_return;
      },
      /*pin_cpu=*/0);
  kernel2.Run();
  EXPECT_EQ(landed, header);
  ASSERT_TRUE(priced.ok());
  EXPECT_EQ(moved_cost, priced.value());
  EXPECT_GT(moved_cost, Duration::Zero());
  // One APL check per foreign page: moving the bytes checks nothing again.
  EXPECT_EQ(hits, 3u);
}

TEST_F(OsTest, FaultingUserRangeMovesNoBytesAndChargesNothing) {
  ForeignPages pages(kernel_, codoms_);
  // From the last mapped page into the unmapped one after it.
  const hw::VirtAddr va = pages.va + 2 * hw::kPageSize + 100;
  const std::vector<std::byte> src = Pattern(hw::kPageSize);
  std::vector<std::byte> dst(hw::kPageSize, std::byte{0x11});
  const hw::PhysAddr kbuf = kernel_.AllocKernelBuffer(hw::kPageSize);
  std::vector<std::byte> mapped(hw::kPageSize - 100, std::byte{0x22});
  std::vector<std::byte> kernel_side(hw::kPageSize, std::byte{0x33});
  kernel_.Spawn(*pages.user, "t", [&](Env env) -> sim::Task<void> {
    Kernel& k = *env.kernel;
    const sim::Time t0 = k.now();
    base::Status s = co_await k.TouchUser(env, va, src.size(), hw::AccessType::kWrite,
                                          std::span(src));
    EXPECT_EQ(s.code(), base::ErrorCode::kFault);
    s = co_await k.TouchUser(env, va, dst.size(), hw::AccessType::kRead, std::span(dst));
    EXPECT_EQ(s.code(), base::ErrorCode::kFault);
    s = co_await k.CopyToUser(env, va, kbuf, hw::kPageSize);
    EXPECT_EQ(s.code(), base::ErrorCode::kFault);
    s = co_await k.CopyFromUser(env, kbuf, va, hw::kPageSize);
    EXPECT_EQ(s.code(), base::ErrorCode::kFault);
    EXPECT_EQ(k.UserWrite(*env.self, va, src).code(), base::ErrorCode::kFault);
    EXPECT_EQ(k.now(), t0);
    EXPECT_TRUE(k.UserRead(*env.self, va, mapped).ok());
  });
  kernel_.Run();
  machine_.mem().Read(kbuf, kernel_side);
  EXPECT_EQ(mapped, std::vector<std::byte>(mapped.size()));  // the mapped part is still zero
  EXPECT_EQ(dst, std::vector<std::byte>(dst.size(), std::byte{0x11}));
  EXPECT_EQ(kernel_side, std::vector<std::byte>(kernel_side.size()));
}

TEST_F(OsTest, CopiesMoveEveryByteWithOneCheckPerForeignPage) {
  ForeignPages pages(kernel_, codoms_);
  // A kernel buffer offset that differs from the user range's, so the
  // frames of the two sides split the copy at different points.
  const hw::PhysAddr kbuf = kernel_.AllocKernelBuffer(3 * hw::kPageSize) + 10;
  const uint64_t len = 2 * hw::kPageSize;
  const hw::VirtAddr va = pages.va + 100;
  const std::vector<std::byte> src = Pattern(len);
  std::vector<std::byte> back(len);
  uint64_t from_hits = 0;
  uint64_t to_hits = 0;
  kernel_.Spawn(
      *pages.user, "t",
      [&](Env env) -> sim::Task<void> {
        Kernel& k = *env.kernel;
        EXPECT_TRUE(k.UserWrite(*env.self, va, src).ok());
        const codoms::AplCache& apl = codoms_.apl_cache(0);
        uint64_t hits0 = apl.hits();
        EXPECT_TRUE((co_await k.CopyFromUser(env, kbuf, va, len)).ok());
        from_hits = apl.hits() - hits0;
        EXPECT_TRUE(k.UserWrite(*env.self, va, std::vector<std::byte>(len)).ok());
        hits0 = apl.hits();
        EXPECT_TRUE((co_await k.CopyToUser(env, va, kbuf, len)).ok());
        to_hits = apl.hits() - hits0;
        EXPECT_TRUE(k.UserRead(*env.self, va, back).ok());
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(back, src);
  EXPECT_EQ(from_hits, 3u);
  EXPECT_EQ(to_hits, 3u);
}

TEST_F(OsTest, NoPageTableSwitchCostBetweenSharedPtProcesses) {
  hw::PageTable& shared = machine_.CreatePageTable();
  hw::DomainTag d1 = codoms_.apl_table().AllocateTag();
  hw::DomainTag d2 = codoms_.apl_table().AllocateTag();
  Process& p1 = kernel_.CreateProcessIn("p1", shared, d1);
  Process& p2 = kernel_.CreateProcessIn("p2", shared, d2);
  auto body = [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kUser);
  };
  kernel_.Spawn(p1, "t1", body, /*pin_cpu=*/0);
  kernel_.Spawn(p2, "t2", body, /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(kernel_.accounting().cpu(0)[TimeCat::kPageTableSwitch], Duration::Zero());
}

TEST_F(OsTest, PageTableSwitchCostBetweenPrivateProcesses) {
  Process& p1 = kernel_.CreateProcess("p1");
  Process& p2 = kernel_.CreateProcess("p2");
  auto body = [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kUser);
  };
  kernel_.Spawn(p1, "t1", body, /*pin_cpu=*/0);
  kernel_.Spawn(p2, "t2", body, /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_GT(kernel_.accounting().cpu(0)[TimeCat::kPageTableSwitch], Duration::Zero());
}

TEST_F(OsTest, KillThreadNeverRunsAgain) {
  Process& p = kernel_.CreateProcess("p");
  auto sem = std::make_shared<Semaphore>(0);
  int after_wait = 0;
  Thread& victim = kernel_.Spawn(p, "victim", [&, sem](Env env) -> sim::Task<void> {
    co_await sem->Wait(env);
    ++after_wait;
  });
  kernel_.Spawn(p, "killer", [&, sem](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(10));
    env.kernel->KillThread(victim);
    co_await sem->Post(env);  // wake would go to the dead thread
  });
  kernel_.Run();
  EXPECT_EQ(after_wait, 0);
  EXPECT_EQ(victim.state(), ThreadState::kDead);
}

// Conservation property: across any run, per-CPU accounted time equals the
// busy+idle wall time the scheduler produced (no time leaks).
TEST_F(OsTest, AccountingConservation) {
  Process& p = kernel_.CreateProcess("p");
  auto sem = std::make_shared<Semaphore>(0);
  for (int i = 0; i < 6; ++i) {
    kernel_.Spawn(p, std::string("w") + std::to_string(i), [sem, i](Env env) -> sim::Task<void> {
      co_await env.kernel->Spend(*env.self, Duration::Micros(20 + i), TimeCat::kUser);
      co_await sem->Post(env);
      co_await sem->Wait(env);
      co_await env.kernel->Spend(*env.self, Duration::Micros(5), TimeCat::kUser);
    });
  }
  kernel_.Spawn(p, "releaser", [sem](Env env) -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) {
      co_await sem->Wait(env);
    }
    for (int i = 0; i < 6; ++i) {
      co_await sem->Post(env);
    }
  });
  kernel_.Run();
  // Each CPU's categories must sum to <= wall time (dispatch latencies like
  // IPI delivery are idle-absorbed; nothing may exceed wall time).
  for (uint32_t c = 0; c < 4; ++c) {
    double total = kernel_.accounting().cpu(c).Total().nanos();
    EXPECT_LE(total, kernel_.now().nanos() * 1.0001);
  }
}

TEST_F(OsTest, SpinHoldsTheCpuBillsUserTimeAndCostsOneEvent) {
  Process& p = kernel_.CreateProcess("p");
  sim::EventQueue& events = machine_.events();
  Thread* spinner = nullptr;
  uint64_t budget_events = 0;
  uint64_t ended_events = 0;
  Duration second_spin;
  kernel_.Spawn(
      p, "spinner",
      [&](Env env) -> sim::Task<void> {
        spinner = env.self;
        // Runs out: the budget timer is the spin's only event.
        uint64_t fired = events.total_fired();
        co_await env.kernel->SpinUntil(env, env.kernel->now() + Duration::Nanos(500));
        budget_events = events.total_fired() - fired;
        // Ended early: the (cancelled) timer never fires, the resume does.
        fired = events.total_fired();
        const sim::Time start = env.kernel->now();
        events.ScheduleAfter(Duration::Nanos(200),
                             [&] { kernel_.EndSpin(*spinner, Duration::Nanos(55)); });
        co_await env.kernel->SpinUntil(env, start + Duration::Micros(10));
        second_spin = env.kernel->now() - start;
        ended_events = events.total_fired() - fired - 1;  // minus the EndSpin event
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(budget_events, 1u);
  EXPECT_EQ(ended_events, 1u);
  EXPECT_EQ(second_spin, Duration::Nanos(255));
  EXPECT_EQ(kernel_.spun(), Duration::Nanos(755));
  // The spinner held CPU 0 throughout: every spun nanosecond is its user
  // time, and its process's CPU time.
  EXPECT_EQ(kernel_.accounting().cpu(0)[TimeCat::kUser], kernel_.spun());
  EXPECT_EQ(p.cpu_time(), kernel_.spun());
}

// ---- A Spend resumed in place (sim::EventQueue::AdvanceInPlace) ----
//
// A Spend whose resume would fire next goes on inside the running event.
// Every order and instant must stay what the heap gives.

// A thread that records its start and then spends 100 ns five times,
// recording the time after each.
ThreadBody SpendsFiveTimes(std::vector<sim::Time>* stamps) {
  return [stamps](Env env) -> sim::Task<void> {
    stamps->push_back(env.kernel->now());
    for (int i = 0; i < 5; ++i) {
      co_await env.kernel->Spend(*env.self, Duration::Nanos(100), TimeCat::kUser);
      stamps->push_back(env.kernel->now());
    }
  };
}

TEST_F(OsTest, SpendDueWithAPendingEventResumesAfterIt) {
  Process& p = kernel_.CreateProcess("p");
  sim::EventQueue& events = machine_.events();
  std::vector<std::string> order;
  sim::Time event_at;
  sim::Time resumed_at;
  kernel_.Spawn(
      p, "t",
      [&](Env env) -> sim::Task<void> {
        events.ScheduleAfter(Duration::Nanos(100), [&] {
          order.push_back("event");
          event_at = events.now();
        });
        co_await env.kernel->Spend(*env.self, Duration::Nanos(100), TimeCat::kUser);
        order.push_back("thread");
        resumed_at = env.kernel->now();
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"event", "thread"}));
  EXPECT_EQ(resumed_at, event_at);
}

TEST_F(OsTest, NoSpendResumesPastTheRunUntilDeadlineInPlace) {
  Process& p = kernel_.CreateProcess("p");
  std::vector<sim::Time> stamps;
  kernel_.Spawn(p, "t", SpendsFiveTimes(&stamps), /*pin_cpu=*/0);
  // 1 ns steps until the thread starts: its first resume lies past the
  // step's deadline, so it waits in the heap.
  while (stamps.empty()) {
    kernel_.RunFor(Duration::Nanos(1));
  }
  const sim::Time t0 = stamps[0];
  // A resume due at the deadline itself runs in place; the next one, due
  // past it, does not.
  machine_.events().RunUntil(t0 + Duration::Nanos(200));
  EXPECT_EQ(stamps, (std::vector<sim::Time>{t0, t0 + Duration::Nanos(100),
                                            t0 + Duration::Nanos(200)}));
  EXPECT_EQ(kernel_.now(), t0 + Duration::Nanos(200));
  EXPECT_EQ(machine_.events().pending(), 1u);
  kernel_.Run();
  ASSERT_EQ(stamps.size(), 6u);
  EXPECT_EQ(stamps[5], t0 + Duration::Nanos(500));
}

TEST_F(OsTest, ThreadWhoseSpendsNothingOvertakesFinishesInsideOneRunOne) {
  Process& p = kernel_.CreateProcess("p");
  sim::EventQueue& events = machine_.events();
  std::vector<sim::Time> stamps;
  Thread& t = kernel_.Spawn(p, "t", SpendsFiveTimes(&stamps), /*pin_cpu=*/0);
  ASSERT_TRUE(events.RunOne());  // the dispatch
  EXPECT_TRUE(stamps.empty());
  ASSERT_TRUE(events.RunOne());  // the start, and the five resumes in place
  EXPECT_EQ(t.state(), ThreadState::kDead);
  EXPECT_TRUE(events.empty());
  ASSERT_EQ(stamps.size(), 6u);
  EXPECT_EQ(stamps[5], stamps[0] + Duration::Nanos(500));
}

TEST_F(OsTest, TotalFiredCountsResumesMadeInPlace) {
  Process& p = kernel_.CreateProcess("p");
  sim::EventQueue& events = machine_.events();
  std::vector<sim::Time> stamps;
  kernel_.Spawn(p, "t", SpendsFiveTimes(&stamps), /*pin_cpu=*/0);
  ASSERT_TRUE(events.RunOne());
  ASSERT_TRUE(events.RunOne());
  ASSERT_EQ(stamps.size(), 6u);
  // The dispatch, the start and the five resumes, as if each had gone
  // through the heap.
  EXPECT_EQ(events.total_fired(), 7u);
}

TEST_F(OsTest, SpendsOfTwoThreadsOnTwoCpusInterleaveInTimeThenSchedulingOrder) {
  Process& p = kernel_.CreateProcess("p");
  std::vector<std::pair<char, double>> seen;  // (thread, ns since A's start)
  sim::Time t0;
  auto body = [&](char name, std::vector<double> spends) {
    return [&, name, spends](Env env) -> sim::Task<void> {
      if (name == 'A') {
        t0 = env.kernel->now();
      }
      seen.emplace_back(name, (env.kernel->now() - t0).nanos());
      for (double ns : spends) {
        co_await env.kernel->Spend(*env.self, Duration::Nanos(ns), TimeCat::kUser);
        seen.emplace_back(name, (env.kernel->now() - t0).nanos());
      }
    };
  };
  kernel_.Spawn(p, "A", body('A', {10, 10, 10, 100}), /*pin_cpu=*/0);
  kernel_.Spawn(p, "B", body('B', {25, 5, 70}), /*pin_cpu=*/1);
  kernel_.Run();
  // Both start at one instant, A first. A's resume at 20 is due before B's
  // at 25 and runs in place. At 30 both resumes are due: A's, scheduled
  // first, runs first. B's resume at 100 is due before A's at 130 and runs
  // in place.
  const std::vector<std::pair<char, double>> want = {
      {'A', 0},  {'B', 0},  {'A', 10}, {'A', 20},  {'B', 25},
      {'A', 30}, {'B', 30}, {'B', 100}, {'A', 130}};
  EXPECT_EQ(seen, want);
  // Two dispatches, two starts and seven resumes.
  EXPECT_EQ(machine_.events().total_fired(), 11u);
}

// ---- Wake-and-park (DeferredWake: FUTEX_SWAP on the semaphore) ----
//
// Shape of every test below: a waiter parks on `a` (unpinned, so it starts
// on CPU 0); a waker pinned to CPU 1 posts `a` once the waiter is parked,
// taking the wake back instead of issuing it, then waits on `b`.

TEST_F(OsTest, DeferredWakeSwitchesTheWakersCpuStraightToTheWaiter) {
  Process& p = kernel_.CreateProcess("p");
  Semaphore a(0);
  Semaphore b(0);
  const hw::CostModel& cm = kernel_.costs();
  const Duration timeout = Duration::Micros(5);
  sim::Time wait_called;
  sim::Time waiter_back;
  sim::Time waker_back;
  hw::CpuId waiter_cpu = 0;
  size_t parked_on_b = 0;
  base::Status waker_result;
  kernel_.Spawn(p, "waiter", [&](Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await a.WaitUntil(env)).ok());
    waiter_back = env.kernel->now();
    waiter_cpu = env.self->last_cpu();
    parked_on_b = b.waiter_count();
  });
  kernel_.Spawn(
      p, "waker",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        DeferredWake wake;
        co_await a.Post(env, &wake);
        EXPECT_TRUE(static_cast<bool>(wake));
        EXPECT_EQ(a.waiter_count(), 0u);  // taken off the queue, not woken
        wait_called = env.kernel->now();
        waker_result = co_await b.WaitUntil(env, Deadline::After(wait_called, timeout),
                                            std::move(wake));
        waker_back = env.kernel->now();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  // The waiter resumed on the waker's CPU one syscall entry, the kernel's
  // wait and wake work, and a register save/restore after the waker's park
  // began (past the user fast path); its own park's sysret follows.
  EXPECT_EQ(waiter_cpu, 1u);
  EXPECT_EQ(waiter_back - (wait_called + Semaphore::kUserFastPath),
            cm.syscall_trap + cm.syscall_dispatch + kFutexWaitKernel +
                kFutexWakeKernel + cm.register_save + cm.register_restore +
                cm.sysret);
  EXPECT_EQ(kernel_.handoffs(), 1u);
  // No IPI: the run's only kernel work is the two parks' wait work and the
  // swap's wake work.
  EXPECT_EQ(kernel_.accounting().Summed()[TimeCat::kKernel],
            kFutexWaitKernel * 2 + kFutexWakeKernel);
  // The waker stayed parked on its own semaphore, and its deadline fired.
  EXPECT_EQ(parked_on_b, 1u);
  EXPECT_EQ(waker_result.code(), base::ErrorCode::kTimedOut);
  EXPECT_GE(waker_back - wait_called, timeout);
}

TEST_F(OsTest, DeferredWakeOnAnAlreadyPostedSemaphoreIsIssuedAtFullCost) {
  Process& p = kernel_.CreateProcess("p");
  Semaphore a(0);
  Semaphore b(1);  // the waker's wait takes this token and never parks
  const hw::CostModel& cm = kernel_.costs();
  sim::Time wait_called;
  sim::Time waiter_back;
  sim::Time waker_back;
  hw::CpuId waiter_cpu = 1;
  kernel_.Spawn(p, "waiter", [&](Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await a.WaitUntil(env)).ok());
    waiter_back = env.kernel->now();
    waiter_cpu = env.self->last_cpu();
  });
  kernel_.Spawn(
      p, "waker",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        DeferredWake wake;
        co_await a.Post(env, &wake);
        wait_called = env.kernel->now();
        EXPECT_TRUE((co_await b.WaitUntil(env, {}, std::move(wake))).ok());
        waker_back = env.kernel->now();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  // Today's FUTEX_WAKE: a syscall, the kernel's wake work and the IPI to
  // the waiter's idle CPU, after the wait's user fast path.
  const Duration woken_at = Semaphore::kUserFastPath + cm.syscall_trap + cm.syscall_dispatch +
                            kFutexWakeKernel;
  EXPECT_EQ(waker_back - wait_called, woken_at + cm.ipi_send + cm.sysret);
  // The waiter went through the scheduler on its own CPU.
  EXPECT_EQ(waiter_cpu, 0u);
  EXPECT_EQ(waiter_back - wait_called, woken_at + cm.ipi_deliver + cm.idle_exit +
                                           cm.schedule_pick + cm.register_save +
                                           cm.register_restore + cm.sysret);
  EXPECT_EQ(kernel_.handoffs(), 0u);
  EXPECT_EQ(b.count(), 0);
}

TEST_F(OsTest, DeferredWakeWithAnExpiredDeadlineIsIssuedAtFullCost) {
  Process& p = kernel_.CreateProcess("p");
  Semaphore a(0);
  Semaphore b(0);
  const hw::CostModel& cm = kernel_.costs();
  sim::Time wait_called;
  sim::Time waker_back;
  hw::CpuId waiter_cpu = 1;
  base::Status waker_result;
  kernel_.Spawn(p, "waiter", [&](Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await a.WaitUntil(env)).ok());
    waiter_cpu = env.self->last_cpu();
  });
  kernel_.Spawn(
      p, "waker",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        DeferredWake wake;
        co_await a.Post(env, &wake);
        wait_called = env.kernel->now();
        waker_result = co_await b.WaitUntil(env, Deadline::At(wait_called), std::move(wake));
        waker_back = env.kernel->now();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  // The full wake (syscall, wake work, IPI), then the wait's own syscall
  // finds the deadline gone and returns without parking.
  EXPECT_EQ(waker_result.code(), base::ErrorCode::kTimedOut);
  EXPECT_EQ(waker_back - wait_called,
            Semaphore::kUserFastPath + cm.syscall_trap + cm.syscall_dispatch +
                kFutexWakeKernel + cm.ipi_send + cm.sysret + cm.syscall_trap +
                cm.syscall_dispatch + kFutexWaitKernel + cm.sysret);
  EXPECT_EQ(waiter_cpu, 0u);
  EXPECT_EQ(kernel_.handoffs(), 0u);
}

TEST_F(OsTest, DeferredWakeToAWaiterKilledBeforeTheParkIsIssuedAtFullCost) {
  Process& p = kernel_.CreateProcess("p");
  Semaphore a(0);
  Semaphore b(0);
  const hw::CostModel& cm = kernel_.costs();
  bool waiter_back = false;
  base::Status waker_result;
  Thread& waiter = kernel_.Spawn(p, "waiter", [&](Env env) -> sim::Task<void> {
    (void)co_await a.WaitUntil(env);
    waiter_back = true;
  });
  kernel_.Spawn(
      p, "waker",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        DeferredWake wake;
        co_await a.Post(env, &wake);
        env.kernel->KillThread(waiter);
        waker_result = co_await b.WaitUntil(
            env, Deadline::After(env.kernel->now(), Duration::Micros(5)), std::move(wake));
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  EXPECT_FALSE(waiter_back);
  EXPECT_EQ(kernel_.handoffs(), 0u);
  // The wake went out as its own syscall with the kernel's wake work (a dead
  // thread takes no IPI); then the waker parked plainly until its deadline.
  const TimeBreakdown t = kernel_.accounting().Summed();
  EXPECT_EQ(t[TimeCat::kSyscallDispatch], cm.syscall_dispatch * 3);  // waiter's wait + both
  EXPECT_EQ(t[TimeCat::kKernel], kFutexWaitKernel * 2 + kFutexWakeKernel);
  EXPECT_EQ(waker_result.code(), base::ErrorCode::kTimedOut);
}

TEST_F(OsTest, WaiterPinnedToAnotherCpuIsNeverDeferred) {
  Process& p = kernel_.CreateProcess("p");
  Semaphore a(0);
  hw::CpuId waiter_cpu = 1;
  bool deferred = true;
  kernel_.Spawn(
      p, "waiter",
      [&](Env env) -> sim::Task<void> {
        EXPECT_TRUE((co_await a.WaitUntil(env)).ok());
        waiter_cpu = env.self->last_cpu();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      p, "waker",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        DeferredWake wake;
        co_await a.Post(env, &wake);  // a swap would run it on CPU 1
        deferred = static_cast<bool>(wake);
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  EXPECT_FALSE(deferred);
  EXPECT_EQ(waiter_cpu, 0u);
  EXPECT_EQ(kernel_.handoffs(), 0u);
}

TEST_F(OsTest, DroppingALiveDeferredWakeFailsLoudly) {
  // A deferred wake nobody swaps to or issues is a lost wake.
  EXPECT_DEATH(
      {
        Process& p = kernel_.CreateProcess("p");
        Semaphore a(0);
        kernel_.Spawn(p, "waiter", [&](Env env) -> sim::Task<void> {
          (void)co_await a.WaitUntil(env);
        });
        kernel_.Spawn(p, "dropper", [&](Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Micros(1));
          DeferredWake wake;
          co_await a.Post(env, &wake);
        });
        kernel_.Run();
      },
      "DIPC_CHECK failed");
}

}  // namespace
}  // namespace dipc::os
