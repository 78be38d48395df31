// Unit tests for the zero-copy channel subsystem (src/chan/): futex-style
// blocking, MPMC fairness, capability move semantics (sender revocation),
// dead-peer teardown, and Plane::Abort, which runs that teardown on demand.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chan/channel.h"
#include "chan/mpmc_queue.h"
#include "chan/plane.h"
#include "os/deadline.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "hw/machine.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "sim/random.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;

class ChanTest : public ::testing::Test {
 protected:
  ChanTest() : machine_(4), codoms_(machine_), kernel_(machine_, codoms_), dipc_(kernel_) {}

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
  core::Dipc dipc_;
};

// --- MPMC queue ---

// Every user pushes only slots it holds, so a queue always has room for a
// push: a pop on an empty queue blocks until a push, and a push past
// capacity is a lost or duplicated slot, which aborts.
TEST_F(ChanTest, MpmcBlockingPushOnFullAndPopOnEmpty) {
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue q(kernel_, proc, 2, proc.default_domain());
  std::vector<uint64_t> popped;
  kernel_.Spawn(proc, "consumer", [&](os::Env env) -> sim::Task<void> {
    while (true) {
      auto v = co_await q.Pop(env);
      if (!v.ok()) {
        EXPECT_EQ(v.code(), ErrorCode::kBrokenChannel);
        co_return;
      }
      popped.push_back(v.value());
    }
  });
  kernel_.Spawn(proc, "producer", [&](os::Env env) -> sim::Task<void> {
    for (uint64_t v = 1; v <= 5; v += 2) {
      co_await env.kernel->Sleep(env, Duration::Micros(20));  // the consumer parks first
      const uint64_t two[] = {v, v + 1};
      EXPECT_TRUE((co_await q.PushN(env, std::span(two, v < 5 ? 2 : 1))).ok());
    }
    q.Close();
  });
  kernel_.Run();
  EXPECT_EQ(popped, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.blocked_pops(), 3u);  // one park for each batch

  EXPECT_DEATH(
      {
        MpmcQueue full(kernel_, proc, 2, proc.default_domain());
        kernel_.Spawn(proc, "overflow", [&](os::Env env) -> sim::Task<void> {
          const uint64_t three[] = {1, 2, 3};
          (void)co_await full.PushN(env, three);
        });
        kernel_.Run();
      },
      "DIPC_CHECK failed");
}

TEST_F(ChanTest, MpmcFifoWakeupsAreFairAcrossConsumers) {
  constexpr uint64_t kItems = 10;
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue q(kernel_, proc, kItems, proc.default_domain());
  std::vector<uint64_t> got_a, got_b;
  auto consumer = [&](std::vector<uint64_t>& out) {
    return [&q, &out](os::Env env) -> sim::Task<void> {
      while (true) {
        auto v = co_await q.Pop(env);
        if (!v.ok()) {
          co_return;
        }
        out.push_back(v.value());
      }
    };
  };
  kernel_.Spawn(proc, "consumer-a", consumer(got_a), /*pin_cpu=*/1);
  kernel_.Spawn(proc, "consumer-b", consumer(got_b), /*pin_cpu=*/2);
  kernel_.Spawn(
      proc, "producer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(10));  // park both consumers first
        for (uint64_t v = 0; v < kItems; ++v) {
          EXPECT_TRUE((co_await q.Push(env, v)).ok());
        }
        q.Close();
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(got_a.size() + got_b.size(), kItems);
  // FIFO futex wakeups under the deterministic event queue split the work
  // evenly; neither consumer may starve.
  EXPECT_GE(got_a.size(), 3u) << "consumer-a starved";
  EXPECT_GE(got_b.size(), 3u) << "consumer-b starved";
}

TEST_F(ChanTest, MpmcTightCapacityStressLosesNoWakeups) {
  // Regression: the futex park used to park unconditionally after its syscall
  // suspension points, so a wake issued while the blocker was still
  // entering the kernel found no parked thread and was lost — both sides
  // could park forever. One slot circulates between a free queue and a
  // data queue, as a plane's buffers do, so with the peers on different
  // CPUs each waits for the other on every item and crosses that window; a
  // lost wake leaves the sim idle with items undelivered.
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue free(kernel_, proc, 1, proc.default_domain());
  MpmcQueue q(kernel_, proc, 1, proc.default_domain());
  free.Prime(0);
  constexpr uint64_t kItems = 64;
  std::vector<uint64_t> popped;
  kernel_.Spawn(
      proc, "producer",
      [&](os::Env env) -> sim::Task<void> {
        for (uint64_t v = 0; v < kItems; ++v) {
          EXPECT_TRUE((co_await free.Pop(env)).ok());
          EXPECT_TRUE((co_await q.Push(env, v)).ok());
        }
        q.Close();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      proc, "consumer",
      [&](os::Env env) -> sim::Task<void> {
        while (true) {
          auto v = co_await q.Pop(env);
          if (!v.ok()) {
            co_return;
          }
          popped.push_back(v.value());
          EXPECT_TRUE((co_await free.Push(env, 0)).ok());
        }
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  ASSERT_EQ(popped.size(), kItems);
  for (uint64_t v = 0; v < kItems; ++v) {
    EXPECT_EQ(popped[v], v);
  }
}

TEST_F(ChanTest, MpmcConcurrentProducersNeverDoubleClaimASlot) {
  // Regression: Push used to suspend (co_await Spend) between the room check
  // and the tail_/count_ update, so two producers resuming at the same sim
  // time could both pass the check and write the same slot. Each claim must
  // take its own slot, and both values must survive.
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue q(kernel_, proc, 2, proc.default_domain());
  auto producer = [&q](uint64_t v) {
    return [&q, v](os::Env env) -> sim::Task<void> {
      EXPECT_TRUE((co_await q.Push(env, v)).ok());
    };
  };
  kernel_.Spawn(proc, "producer-a", producer(1), /*pin_cpu=*/0);
  kernel_.Spawn(proc, "producer-b", producer(2), /*pin_cpu=*/1);
  std::vector<uint64_t> popped;
  kernel_.Spawn(
      proc, "consumer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(20));  // let the producers race
        for (int i = 0; i < 2; ++i) {
          auto v = co_await q.Pop(env);
          EXPECT_TRUE(v.ok());
          popped.push_back(v.value());
        }
      },
      /*pin_cpu=*/2);
  kernel_.Run();
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(popped, (std::vector<uint64_t>{1, 2}));  // nothing lost or duplicated
}

TEST_F(ChanTest, MpmcConcurrentConsumersNeverPopTheSameSlot) {
  // Regression, consumer side: with one value queued and two consumers
  // racing, Pop used to let both pass the empty check before either retired
  // head_/count_, handing the same slot to both. Now one must block until
  // the producer publishes the second value.
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue q(kernel_, proc, 4, proc.default_domain());
  q.Prime(7);  // exactly one value available when the consumers race
  std::vector<uint64_t> got;
  auto consumer = [&q, &got](os::Env env) -> sim::Task<void> {
    auto v = co_await q.Pop(env);
    EXPECT_TRUE(v.ok());
    got.push_back(v.value());
  };
  kernel_.Spawn(proc, "consumer-a", consumer, /*pin_cpu=*/1);
  kernel_.Spawn(proc, "consumer-b", consumer, /*pin_cpu=*/2);
  kernel_.Spawn(
      proc, "producer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(20));  // let the consumers race
        EXPECT_TRUE((co_await q.Push(env, 9)).ok());
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<uint64_t>{7, 9}));  // no duplicate delivery
}

// --- Channel: zero-copy ownership transfer ---

TEST_F(ChanTest, ChannelRoundTripIsZeroCopy) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  const std::string payload = "granted, not copied";
  std::string received;
  hw::VirtAddr sent_va = 0;
  hw::VirtAddr recv_va = 0;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto buf = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(buf.ok());
    sent_va = buf.value().va;
    EXPECT_TRUE(
        env.kernel->UserWrite(*env.self, buf.value().va, std::as_bytes(std::span(payload)))
            .ok());
    EXPECT_TRUE((co_await chan.Send(env, buf.value(), payload.size())).ok());
  });
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    auto msg = co_await chan.Recv(env);
    EXPECT_TRUE(msg.ok());
    recv_va = msg.value().va;
    std::vector<char> buf(msg.value().len);
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, msg.value().va, std::as_writable_bytes(std::span(buf)))
            .ok());
    received.assign(buf.begin(), buf.end());
    EXPECT_TRUE((co_await chan.Release(env, msg.value())).ok());
  });
  kernel_.Run();
  EXPECT_EQ(received, payload);
  // Zero copy: the receiver reads the exact buffer the sender wrote.
  EXPECT_EQ(sent_va, recv_va);
  EXPECT_EQ(chan.sends(), 1u);
  EXPECT_EQ(chan.recvs(), 1u);
}

TEST_F(ChanTest, SenderAccessFaultsAfterSend) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  ErrorCode before = ErrorCode::kOk;
  ErrorCode after = ErrorCode::kOk;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto buf = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(buf.ok());
    hw::VirtAddr va = buf.value().va;
    auto pre = co_await env.kernel->TouchUser(env, va, 64, hw::AccessType::kWrite);
    before = pre.code();
    EXPECT_TRUE((co_await chan.Send(env, buf.value(), 64)).ok());
    // Ownership moved: the sender's capability was revoked, and its domain
    // never had APL access to the data domain.
    auto post = co_await env.kernel->TouchUser(env, va, 64, hw::AccessType::kWrite);
    after = post.code();
  });
  kernel_.Run();
  EXPECT_EQ(before, ErrorCode::kOk);
  EXPECT_EQ(after, ErrorCode::kFault);
}

TEST_F(ChanTest, ReceiverViewIsReadOnly) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  ErrorCode read_code = ErrorCode::kFault;
  ErrorCode write_code = ErrorCode::kOk;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto buf = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(buf.ok());
    EXPECT_TRUE((co_await chan.Send(env, buf.value(), 128)).ok());
  });
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    auto msg = co_await chan.Recv(env);
    EXPECT_TRUE(msg.ok());
    auto r = co_await env.kernel->TouchUser(env, msg.value().va, 128, hw::AccessType::kRead);
    read_code = r.code();
    // Published messages are immutable (§3): the receiver's capability is
    // read-only, so writes fault.
    auto w = co_await env.kernel->TouchUser(env, msg.value().va, 128, hw::AccessType::kWrite);
    write_code = w.code();
  });
  kernel_.Run();
  EXPECT_EQ(read_code, ErrorCode::kOk);
  EXPECT_EQ(write_code, ErrorCode::kFault);
}

TEST_F(ChanTest, AcquireBlocksWhenAllBuffersInFlight) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  double third_acquire_at = 0;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto buf = co_await chan.AcquireBuf(env);  // third call blocks: 2 slots
      EXPECT_TRUE(buf.ok());
      if (i == 2) {
        third_acquire_at = env.kernel->now().micros();
      }
      EXPECT_TRUE((co_await chan.Send(env, buf.value(), 32)).ok());
    }
    chan.Close();
  });
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(30));
    while (true) {
      auto msg = co_await chan.Recv(env);
      if (!msg.ok()) {
        EXPECT_EQ(msg.code(), ErrorCode::kBrokenChannel);  // orderly close
        co_return;
      }
      EXPECT_TRUE((co_await chan.Release(env, msg.value())).ok());
    }
  });
  kernel_.Run();
  // The third acquire had to wait for the consumer's first Release.
  EXPECT_GE(third_acquire_at, 30.0);
}

TEST_F(ChanTest, RecvOnDeadPeerSurfacesError) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  ErrorCode blocked_recv = ErrorCode::kOk;
  ErrorCode later_recv = ErrorCode::kOk;
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    auto msg = co_await chan.Recv(env);  // blocks: nothing was ever sent
    blocked_recv = msg.code();
    auto again = co_await chan.Recv(env);  // fails immediately once broken
    later_recv = again.code();
  });
  os::Process& killer_proc = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer_proc, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(25));
    dipc_.KillProcess(prod);  // producer crashes with the consumer parked
  });
  kernel_.Run();
  EXPECT_EQ(blocked_recv, ErrorCode::kCalleeFailed);
  EXPECT_EQ(later_recv, ErrorCode::kCalleeFailed);
  EXPECT_EQ(chan.broken(), ErrorCode::kCalleeFailed);
}

TEST_F(ChanTest, PeerDeathRevokesInFlightCapabilities) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  ErrorCode touch_after_death = ErrorCode::kOk;
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    auto msg = co_await chan.Recv(env);
    EXPECT_TRUE(msg.ok());
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // killer runs here
    auto s = co_await env.kernel->TouchUser(env, msg.value().va, 16, hw::AccessType::kRead);
    touch_after_death = s.code();
    // Releasing a message whose peer died must surface the crash, not a
    // caller error (the teardown already revoked the capability).
    auto rel = co_await chan.Release(env, msg.value());
    EXPECT_EQ(rel.code(), ErrorCode::kCalleeFailed);
  });
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto buf = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(buf.ok());
    EXPECT_TRUE((co_await chan.Send(env, buf.value(), 16)).ok());
  });
  os::Process& killer_proc = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer_proc, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(25));
    dipc_.KillProcess(prod);
  });
  kernel_.Run();
  // The crash unwound every outstanding grant, including the receiver's.
  EXPECT_EQ(touch_after_death, ErrorCode::kFault);
}

// --- Peer death swept across every suspension window ---
//
// The sim is deterministic, so sweeping the kill time at finer granularity
// than any single Spend lands the death inside every suspension point of the
// send/recv paths (AcquireBuf's, Send's and Recv's Spends, the CapStore, the
// descriptor push). Whatever window is hit, two invariants must hold: an
// operation never reports success while handing out a dead or unrecorded
// grant, and after the dust settles every async capability ever minted has
// been revoked (epoch >= 1 in the revocation table — only the channel mints
// async caps here, so an epoch still at 0 is a leaked grant).

TEST_F(ChanTest, SenderWindowsSweptByPeerDeathLeakNoGrant) {
  for (int step = 1; step <= 80; ++step) {
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("consumer");
    auto ch = Channel::Create(dipc, prod, cons, {.slots = 2, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    Channel& chan = *ch.value();
    kernel.Spawn(
        prod, "producer",
        [&](os::Env env) -> sim::Task<void> {
          hw::VirtAddr last_va = 0;
          while (true) {
            auto buf = co_await chan.AcquireBuf(env);
            if (!buf.ok()) {
              EXPECT_EQ(buf.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              break;
            }
            last_va = buf.value().va;
            auto sent = co_await chan.Send(env, buf.value(), 64);
            if (!sent.ok()) {
              EXPECT_EQ(sent.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              break;
            }
          }
          if (last_va != 0) {
            // Whether the death landed before or after the last Send, the
            // sender must have lost access; a surviving write grant is the
            // exact leak the broken_ re-checks exist to prevent.
            auto touch =
                co_await env.kernel->TouchUser(env, last_va, 16, hw::AccessType::kWrite);
            EXPECT_EQ(touch.code(), ErrorCode::kFault) << "kill step " << step;
          }
        },
        /*pin_cpu=*/0);
    kernel.Spawn(
        cons, "consumer",
        [&](os::Env env) -> sim::Task<void> {
          while (true) {
            auto msg = co_await chan.Recv(env);
            if (!msg.ok()) {
              co_return;  // this side is the one being killed
            }
            (void)co_await chan.Release(env, msg.value());
          }
        },
        /*pin_cpu=*/1);
    os::Process& killer = dipc.CreateDipcProcess("killer");
    kernel.Spawn(
        killer, "killer",
        [&](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Nanos(step * 37.0));
          dipc.KillProcess(cons);
        },
        /*pin_cpu=*/2);
    kernel.Run();
    codoms::RevocationTable& rt = codoms.revocations();
    for (uint64_t id = 0; id < rt.size(); ++id) {
      EXPECT_GE(rt.Epoch(id), 1u) << "unrevoked capability " << id << ", kill step " << step;
    }
  }
}

TEST_F(ChanTest, ReceiverWindowsSweptByPeerDeathLeakNoGrant) {
  for (int step = 1; step <= 80; ++step) {
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("consumer");
    auto ch = Channel::Create(dipc, prod, cons, {.slots = 2, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    Channel& chan = *ch.value();
    kernel.Spawn(
        prod, "producer",
        [&](os::Env env) -> sim::Task<void> {
          while (true) {  // this side is the one being killed
            auto buf = co_await chan.AcquireBuf(env);
            if (!buf.ok()) {
              co_return;
            }
            if (!(co_await chan.Send(env, buf.value(), 64)).ok()) {
              co_return;
            }
          }
        },
        /*pin_cpu=*/0);
    kernel.Spawn(
        cons, "consumer",
        [&](os::Env env) -> sim::Task<void> {
          while (true) {
            auto msg = co_await chan.Recv(env);
            if (!msg.ok()) {
              EXPECT_EQ(msg.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              co_return;
            }
            // Tasks resume by symmetric transfer, so no death can interleave
            // between Recv's internal broken_ check and this statement: an
            // ok Recv on an already-broken channel means Recv handed out a
            // grant that teardown had revoked.
            EXPECT_EQ(chan.broken(), ErrorCode::kOk) << "kill step " << step;
            auto r = co_await env.kernel->TouchUser(env, msg.value().va, 16,
                                                    hw::AccessType::kRead);
            if (chan.broken() == ErrorCode::kOk) {
              EXPECT_EQ(r.code(), ErrorCode::kOk) << "kill step " << step;
            }
            // else: the peer died inside the touch itself; the in-flight
            // grant was legitimately revoked and a fault is correct.
            auto rel = co_await chan.Release(env, msg.value());
            if (!rel.ok()) {
              EXPECT_EQ(rel.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              co_return;
            }
          }
        },
        /*pin_cpu=*/1);
    os::Process& killer = dipc.CreateDipcProcess("killer");
    kernel.Spawn(
        killer, "killer",
        [&](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Nanos(step * 37.0));
          dipc.KillProcess(prod);
        },
        /*pin_cpu=*/2);
    kernel.Run();
    codoms::RevocationTable& rt = codoms.revocations();
    for (uint64_t id = 0; id < rt.size(); ++id) {
      EXPECT_GE(rt.Epoch(id), 1u) << "unrevoked capability " << id << ", kill step " << step;
    }
  }
}

// --- Batched queue operations ---

TEST_F(ChanTest, MpmcPushNPopNMoveValuesInOrder) {
  // Ten values in batches of up to three through a four-slot ring, each
  // batch pushed once its room was popped from a free queue (as a plane's
  // buffers move): the batches wrap the ring's end and arrive in order.
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue free(kernel_, proc, 4, proc.default_domain());
  MpmcQueue q(kernel_, proc, 4, proc.default_domain());
  for (uint64_t i = 0; i < 4; ++i) {
    free.Prime(i);
  }
  std::vector<uint64_t> popped;
  kernel_.Spawn(
      proc, "producer",
      [&](os::Env env) -> sim::Task<void> {
        uint64_t next = 0;
        while (next < 10) {
          uint64_t room[3];
          auto n = co_await free.PopN(env, std::span(room, std::min<uint64_t>(3, 10 - next)));
          DIPC_CHECK(n.ok());
          std::vector<uint64_t> vals;
          for (uint64_t i = 0; i < n.value(); ++i) {
            vals.push_back(next++);
          }
          EXPECT_TRUE((co_await q.PushN(env, std::span(vals))).ok());
        }
        q.Close();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      proc, "consumer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(10));  // the producer waits for room
        while (true) {
          uint64_t out[3];
          auto n = co_await q.PopN(env, std::span(out));
          if (!n.ok()) {
            co_return;
          }
          for (uint64_t i = 0; i < n.value(); ++i) {
            popped.push_back(out[i]);
          }
          EXPECT_TRUE((co_await free.PushN(env, std::span(out, n.value()))).ok());
        }
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  ASSERT_EQ(popped.size(), 10u);
  for (uint64_t v = 0; v < 10; ++v) {
    EXPECT_EQ(popped[v], v);
  }
}

TEST_F(ChanTest, BatchedPushWakeChainsAcrossParkedConsumers) {
  // A batched push issues at most one futex wake; parked consumers beyond
  // the first must be woken by the wake *chain* (a consumer that pops while
  // a backlog remains passes the wake on). Without chaining, consumer-b
  // would park forever and the queue would end the run non-empty.
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue q(kernel_, proc, 8, proc.default_domain());
  std::vector<uint64_t> got_a, got_b;
  auto consumer = [&q](std::vector<uint64_t>& out) {
    return [&q, &out](os::Env env) -> sim::Task<void> {
      auto v = co_await q.Pop(env);
      if (v.ok()) {
        out.push_back(v.value());
      }
    };
  };
  kernel_.Spawn(proc, "consumer-a", consumer(got_a), /*pin_cpu=*/1);
  kernel_.Spawn(proc, "consumer-b", consumer(got_b), /*pin_cpu=*/2);
  kernel_.Spawn(
      proc, "producer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(10));  // park both
        uint64_t vals[2] = {7, 9};
        EXPECT_TRUE((co_await q.PushN(env, std::span(vals))).ok());
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(got_a.size(), 1u) << "consumer-a starved";
  EXPECT_EQ(got_b.size(), 1u) << "consumer-b never chained awake";
  EXPECT_EQ(q.size(), 0u);
}

TEST_F(ChanTest, UncontendedOpsIssueNoFutexWakes) {
  // Wake suppression: with nobody parked, Push/Pop must never pay the
  // FUTEX_WAKE syscall (the live waiter counters read zero).
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue q(kernel_, proc, 8, proc.default_domain());
  kernel_.Spawn(proc, "t", [&](os::Env env) -> sim::Task<void> {
    for (uint64_t v = 0; v < 4; ++v) {
      EXPECT_TRUE((co_await q.Push(env, v)).ok());
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE((co_await q.Pop(env)).ok());
    }
  });
  kernel_.Run();
  EXPECT_EQ(q.futex_wakes(), 0u);
  os::TimeBreakdown b = kernel_.accounting().Summed();
  EXPECT_EQ(b[os::TimeCat::kSyscallCrossing], Duration::Zero());
}

// --- Batched channel operations ---

TEST_F(ChanTest, BatchRoundTripDeliversAllPayloadsZeroCopy) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 8, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  constexpr int kBatch = 4;
  std::vector<hw::VirtAddr> sent_vas;
  std::vector<std::string> received;
  std::vector<hw::VirtAddr> recv_vas;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto bufs = co_await chan.AcquireBufBatch(env, kBatch);
    DIPC_CHECK(bufs.ok());
    EXPECT_EQ(bufs.value().size(), static_cast<size_t>(kBatch));
    std::vector<SendItem> items;
    for (int i = 0; i < kBatch; ++i) {
      const SendBuf& b = bufs.value()[i];
      chan.BindSendCap(*env.self, b);
      std::string payload = "batch message " + std::to_string(i);
      EXPECT_TRUE(
          env.kernel->UserWrite(*env.self, b.va, std::as_bytes(std::span(payload))).ok());
      sent_vas.push_back(b.va);
      items.push_back(SendItem{b, payload.size()});
    }
    EXPECT_TRUE((co_await chan.SendBatch(env, items)).ok());
  });
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(20));  // let the batch land
    auto msgs = co_await chan.RecvBatch(env, kBatch);
    DIPC_CHECK(msgs.ok());
    EXPECT_EQ(msgs.value().size(), static_cast<size_t>(kBatch));
    for (const Msg& m : msgs.value()) {
      chan.BindRecvCap(*env.self, m);
      std::vector<char> buf(m.len);
      EXPECT_TRUE(
          env.kernel->UserRead(*env.self, m.va, std::as_writable_bytes(std::span(buf))).ok());
      received.emplace_back(buf.begin(), buf.end());
      recv_vas.push_back(m.va);
    }
    EXPECT_TRUE((co_await chan.ReleaseBatch(env, msgs.value())).ok());
  });
  kernel_.Run();
  ASSERT_EQ(received.size(), static_cast<size_t>(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(received[i], "batch message " + std::to_string(i));  // FIFO order
    EXPECT_EQ(recv_vas[i], sent_vas[i]);  // zero copy: same buffer both sides
  }
  EXPECT_EQ(chan.sends(), static_cast<uint64_t>(kBatch));
  EXPECT_EQ(chan.recvs(), static_cast<uint64_t>(kBatch));
  EXPECT_EQ(chan.LiveGrantCount(), 0u);  // everything released and revoked
}

TEST_F(ChanTest, SendBatchRejectsDuplicateBuffersAndBadLengths) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto bufs = co_await chan.AcquireBufBatch(env, 2);
    DIPC_CHECK(bufs.ok());
    SendItem dup[2] = {SendItem{bufs.value()[0], 16}, SendItem{bufs.value()[0], 16}};
    EXPECT_EQ((co_await chan.SendBatch(env, dup)).code(), ErrorCode::kInvalidArgument);
    SendItem zero[1] = {SendItem{bufs.value()[0], 0}};
    EXPECT_EQ((co_await chan.SendBatch(env, zero)).code(), ErrorCode::kInvalidArgument);
    // The rejected batches must leave ownership untouched: a correct batch
    // over the same buffers still works.
    SendItem good[2] = {SendItem{bufs.value()[0], 16}, SendItem{bufs.value()[1], 16}};
    EXPECT_TRUE((co_await chan.SendBatch(env, good)).ok());
  });
  kernel_.Run();
  EXPECT_EQ(chan.sends(), 2u);
}

TEST_F(ChanTest, SteadyStateSendPathMintsNothingAndChargesNoMintCost) {
  // The epoch-cached hot path: after one full slot rotation every per-slot
  // template is minted; from then on grants are counter re-snapshots. To
  // prove the steady state charges zero mint cost (not merely "few mints"),
  // poison the mint cost to 100 us after warmup — any CapFromApl in the
  // measured window would blow the elapsed time by orders of magnitude.
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  constexpr uint32_t kSlots = 2;
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = kSlots, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  kernel_.Spawn(prod, "worker", [&](os::Env env) -> sim::Task<void> {
    auto cycle = [&](int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        auto buf = co_await chan.AcquireBuf(env);
        DIPC_CHECK(buf.ok());
        DIPC_CHECK((co_await chan.Send(env, buf.value(), 64)).ok());
        auto msg = co_await chan.Recv(env);
        DIPC_CHECK(msg.ok());
        DIPC_CHECK((co_await chan.Release(env, msg.value())).ok());
      }
    };
    co_await cycle(2 * kSlots);  // warm every slot's write + read template
    EXPECT_EQ(chan.cold_mints(), 2u * kSlots);  // one wcap + one rcap per slot
    const uint64_t mints_before = codoms_.mint_count();
    machine_.costs().cap_setup = Duration::Micros(100);  // poison the mint
    sim::Time t0 = env.kernel->now();
    co_await cycle(20);
    double elapsed_us = (env.kernel->now() - t0).micros();
    EXPECT_EQ(codoms_.mint_count(), mints_before) << "steady state minted a capability";
    EXPECT_EQ(chan.cold_mints(), 2u * kSlots);
    // 20 messages of pure fast path: far below a single poisoned mint.
    EXPECT_LT(elapsed_us, 100.0);
  });
  kernel_.Run();
}

// (The batch>=2x per-message bound and the fan-out cost bound live in
// tests/bench_bounds_test.cc.)

TEST_F(ChanTest, FuzzedGrantRevokeRebindInterleavingsNeverResurrectStaleEpochs) {
  // Epoch-rebind property: after ANY interleaving of grant (mint/rebind),
  // revoke, and rebind, a capability snapshot whose epoch predates a
  // revocation of its counter must fault, and only the creator domain may
  // rebind. The interleavings are fuzzed with a seeded RNG rather than
  // hand-picked; the seed is in the trace on failure.
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    hw::Machine machine(1);
    codoms::Codoms cd(machine);
    hw::PageTable& pt = machine.CreatePageTable();
    hw::DomainTag runtime = cd.apl_table().AllocateTag();
    hw::DomainTag data = cd.apl_table().AllocateTag();
    hw::DomainTag holder = cd.apl_table().AllocateTag();  // no grant over data
    cd.apl_table().Grant(runtime, data, codoms::Perm::kWrite);
    constexpr hw::VirtAddr kBase = 0x40000;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(pt.MapPage(kBase + i * hw::kPageSize, machine.mem().AllocFrame(),
                             hw::PageFlags{.writable = true}, data)
                      .ok());
    }
    codoms::ThreadCapContext rt_ctx(1);
    rt_ctx.current_domain = runtime;
    codoms::ThreadCapContext outsider_ctx(2);
    outsider_ctx.current_domain = holder;
    codoms::ThreadCapContext holder_ctx(3);
    holder_ctx.current_domain = holder;
    sim::Rng rng(seed);
    sim::Duration cost;
    std::optional<codoms::Capability> tmpl;  // the rebindable cached grant
    std::vector<codoms::Capability> held;    // every snapshot ever handed out
    auto check_all_held = [&](int step) {
      for (const codoms::Capability& cap : held) {
        const bool live =
            cd.revocations().Epoch(cap.revocation_id) == cap.revocation_epoch;
        // The architectural validity check and the full data-access path
        // (capability register fallback) must agree with the counter.
        EXPECT_EQ(cap.ValidFor(holder_ctx.thread_id, 0, cd.revocations()), live)
            << "step " << step;
        holder_ctx.regs.Set(0, cap);
        auto access = cd.CheckDataAccess(0, pt, holder_ctx, kBase + 64, 128,
                                         hw::AccessType::kRead);
        EXPECT_EQ(access.ok(), live) << "step " << step;
        if (!live) {
          EXPECT_EQ(access.code(), ErrorCode::kFault) << "step " << step;
        }
        holder_ctx.regs.Clear(0);
      }
    };
    for (int step = 0; step < 160; ++step) {
      switch (rng.UniformInt(0, 4)) {
        case 0: {  // grant: cold mint or warm rebind of the cached template
          if (!tmpl.has_value()) {
            auto minted = cd.CapFromApl(0, pt, rt_ctx, kBase, 4 * hw::kPageSize,
                                        codoms::Perm::kRead, codoms::CapType::kAsync, &cost);
            ASSERT_TRUE(minted.ok());
            tmpl = minted.value();
          } else {
            auto rebound = cd.CapRebind(*tmpl, rt_ctx, &cost);
            ASSERT_TRUE(rebound.ok());
            tmpl = rebound.value();
          }
          held.push_back(*tmpl);
          break;
        }
        case 1:  // revoke: every snapshot at or below this epoch dies
          if (tmpl.has_value()) {
            ASSERT_TRUE(cd.CapRevoke(*tmpl).ok());
          }
          break;
        case 2:  // rebind from a non-creator domain must be denied
          if (tmpl.has_value()) {
            EXPECT_EQ(cd.CapRebind(*tmpl, outsider_ctx, &cost).code(),
                      ErrorCode::kPermissionDenied)
                << "step " << step;
          }
          break;
        case 3:  // a revoked-then-rebound counter revives ONLY new snapshots
          if (tmpl.has_value()) {
            ASSERT_TRUE(cd.CapRevoke(*tmpl).ok());
            auto rebound = cd.CapRebind(*tmpl, rt_ctx, &cost);
            ASSERT_TRUE(rebound.ok());
            EXPECT_NE(rebound.value().revocation_epoch, tmpl->revocation_epoch);
            tmpl = rebound.value();
            held.push_back(*tmpl);
          }
          break;
        default:
          check_all_held(step);
          break;
      }
    }
    check_all_held(-1);
    // Terminal revocation: nothing survives.
    if (tmpl.has_value()) {
      ASSERT_TRUE(cd.CapRevoke(*tmpl).ok());
    }
    for (const codoms::Capability& cap : held) {
      EXPECT_FALSE(cap.ValidFor(holder_ctx.thread_id, 0, cd.revocations()));
      holder_ctx.regs.Set(0, cap);
      EXPECT_EQ(
          cd.CheckDataAccess(0, pt, holder_ctx, kBase, 64, hw::AccessType::kRead).code(),
          ErrorCode::kFault);
      holder_ctx.regs.Clear(0);
    }
    EXPECT_EQ(cd.revocations().live_count(), 0u);
  }
}

// --- Batched paths swept by peer death (no grant may survive) ---

TEST_F(ChanTest, BatchedSenderWindowsSweptByPeerDeathLeakNoGrant) {
  for (int step = 1; step <= 80; ++step) {
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("consumer");
    auto ch = Channel::Create(dipc, prod, cons, {.slots = 4, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    std::shared_ptr<Channel> chan = ch.value();
    kernel.Spawn(
        prod, "producer",
        [&, chan](os::Env env) -> sim::Task<void> {
          hw::VirtAddr last_va = 0;
          while (true) {
            auto bufs = co_await chan->AcquireBufBatch(env, 3);
            if (!bufs.ok()) {
              EXPECT_EQ(bufs.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              break;
            }
            std::vector<SendItem> items;
            for (const SendBuf& b : bufs.value()) {
              chan->BindSendCap(*env.self, b);
              last_va = b.va;
              items.push_back(SendItem{b, 64});
            }
            auto sent = co_await chan->SendBatch(env, items);
            if (!sent.ok()) {
              EXPECT_EQ(sent.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              break;
            }
          }
          if (last_va != 0) {
            auto touch =
                co_await env.kernel->TouchUser(env, last_va, 16, hw::AccessType::kWrite);
            EXPECT_EQ(touch.code(), ErrorCode::kFault) << "kill step " << step;
          }
        },
        /*pin_cpu=*/0);
    kernel.Spawn(
        cons, "consumer",
        [&, chan](os::Env env) -> sim::Task<void> {
          while (true) {  // this side is the one being killed
            auto msgs = co_await chan->RecvBatch(env, 3);
            if (!msgs.ok()) {
              co_return;
            }
            (void)co_await chan->ReleaseBatch(env, msgs.value());
          }
        },
        /*pin_cpu=*/1);
    os::Process& killer = dipc.CreateDipcProcess("killer");
    kernel.Spawn(
        killer, "killer",
        [&](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Nanos(step * 37.0));
          dipc.KillProcess(cons);
        },
        /*pin_cpu=*/2);
    kernel.Run();
    // Epoch-cached world: "revoked" means the counter moved past every
    // recorded snapshot, so check liveness directly, not just counter > 0.
    EXPECT_EQ(chan->LiveGrantCount(), 0u) << "kill step " << step;
    codoms::RevocationTable& rt = codoms.revocations();
    for (uint64_t id = 0; id < rt.size(); ++id) {
      EXPECT_GE(rt.Epoch(id), 1u) << "unrevoked capability " << id << ", kill step " << step;
    }
  }
}

TEST_F(ChanTest, BatchedReceiverWindowsSweptByPeerDeathLeakNoGrant) {
  for (int step = 1; step <= 80; ++step) {
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("consumer");
    auto ch = Channel::Create(dipc, prod, cons, {.slots = 4, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    std::shared_ptr<Channel> chan = ch.value();
    kernel.Spawn(
        prod, "producer",
        [&, chan](os::Env env) -> sim::Task<void> {
          while (true) {  // this side is the one being killed
            auto bufs = co_await chan->AcquireBufBatch(env, 3);
            if (!bufs.ok()) {
              co_return;
            }
            std::vector<SendItem> items;
            for (const SendBuf& b : bufs.value()) {
              chan->BindSendCap(*env.self, b);
              items.push_back(SendItem{b, 64});
            }
            if (!(co_await chan->SendBatch(env, items)).ok()) {
              co_return;
            }
          }
        },
        /*pin_cpu=*/0);
    kernel.Spawn(
        cons, "consumer",
        [&, chan](os::Env env) -> sim::Task<void> {
          while (true) {
            auto msgs = co_await chan->RecvBatch(env, 3);
            if (!msgs.ok()) {
              EXPECT_EQ(msgs.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              co_return;
            }
            EXPECT_EQ(chan->broken(), ErrorCode::kOk) << "kill step " << step;
            for (const Msg& m : msgs.value()) {
              chan->BindRecvCap(*env.self, m);
              auto r = co_await env.kernel->TouchUser(env, m.va, 16, hw::AccessType::kRead);
              if (chan->broken() == ErrorCode::kOk) {
                EXPECT_EQ(r.code(), ErrorCode::kOk) << "kill step " << step;
              }
              // else: the peer died inside the touch; the in-flight grant
              // was legitimately revoked and a fault is correct.
            }
            auto rel = co_await chan->ReleaseBatch(env, msgs.value());
            if (!rel.ok()) {
              EXPECT_EQ(rel.code(), ErrorCode::kCalleeFailed) << "kill step " << step;
              co_return;
            }
          }
        },
        /*pin_cpu=*/1);
    os::Process& killer = dipc.CreateDipcProcess("killer");
    kernel.Spawn(
        killer, "killer",
        [&](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Nanos(step * 37.0));
          dipc.KillProcess(prod);
        },
        /*pin_cpu=*/2);
    kernel.Run();
    EXPECT_EQ(chan->LiveGrantCount(), 0u) << "kill step " << step;
    codoms::RevocationTable& rt = codoms.revocations();
    for (uint64_t id = 0; id < rt.size(); ++id) {
      EXPECT_GE(rt.Epoch(id), 1u) << "unrevoked capability " << id << ", kill step " << step;
    }
  }
}

TEST_F(ChanTest, EpochCachedCapsFromDeadEpochFaultOnAccess) {
  // Warm the epoch caches with a full rotation, then kill the producer while
  // the consumer holds a *rebound* (not freshly minted) capability: the
  // teardown's counter bump must invalidate the cached epoch, so access
  // faults — the §4.2 immediate-revocation guarantee survives the caching.
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  ErrorCode touch_after_death = ErrorCode::kOk;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {  // two full rotations: all templates cached
      auto buf = co_await chan.AcquireBuf(env);
      if (!buf.ok()) {
        co_return;
      }
      if (!(co_await chan.Send(env, buf.value(), 64)).ok()) {
        co_return;
      }
    }
  });
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto msg = co_await chan.Recv(env);
      if (!msg.ok()) {
        co_return;
      }
      if (i < 2) {
        EXPECT_TRUE((co_await chan.Release(env, msg.value())).ok());
        continue;
      }
      // Hold the third message (its read cap was epoch-rebound, the slot
      // already rotated once) across the producer's death.
      co_await env.kernel->Sleep(env, Duration::Micros(50));
      auto s = co_await env.kernel->TouchUser(env, msg.value().va, 16, hw::AccessType::kRead);
      touch_after_death = s.code();
    }
  });
  os::Process& killer_proc = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer_proc, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(25));
    dipc_.KillProcess(prod);
  });
  kernel_.Run();
  EXPECT_EQ(touch_after_death, ErrorCode::kFault);
  EXPECT_EQ(chan.LiveGrantCount(), 0u);
}

TEST_F(ChanTest, EndpointsExchangeThroughEntryRequest) {
  // The consumer publishes an "open" entry; the producer entry_requests it
  // and receives a SenderEndpoint fd through the call — the dIPC-native way
  // to hand out channel ends (§5.2.2 delegation).
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  std::shared_ptr<Channel> chan;
  core::EntryDesc entry;
  entry.name = "chan.open";
  entry.signature = core::EntrySignature{.in_regs = 1, .out_regs = 1, .stack_bytes = 0};
  entry.policy = core::IsolationPolicy::Low();
  entry.fn = [&](os::Env env, core::CallArgs) -> sim::Task<uint64_t> {
    auto ch = Channel::Create(dipc_, prod, cons, {.slots = 4, .buf_bytes = 4096});
    DIPC_CHECK(ch.ok());
    chan = ch.value();
    os::Fd fd = prod.fds().Insert(std::make_shared<SenderEndpoint>(chan));
    (void)env;
    co_return static_cast<uint64_t>(fd);
  };
  auto handle = dipc_.EntryRegister(cons, *dipc_.DomDefault(cons), {entry});
  ASSERT_TRUE(handle.ok());
  auto req = dipc_.EntryRequest(prod, *handle.value(),
                                {{entry.signature, core::IsolationPolicy::Low()}});
  ASSERT_TRUE(req.ok());
  ASSERT_TRUE(dipc_.GrantCreate(*dipc_.DomDefault(prod), *req.value().proxy_domain).ok());
  core::ProxyRef proxy = req.value().proxies[0];

  std::string received;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    uint64_t fd = co_await proxy.Call(env, core::CallArgs{});
    EXPECT_EQ(env.self->TakeError(), ErrorCode::kOk);
    auto ep = prod.fds().GetAs<SenderEndpoint>(static_cast<os::Fd>(fd));
    EXPECT_NE(ep, nullptr);
    auto buf = co_await ep->AcquireBuf(env);
    EXPECT_TRUE(buf.ok());
    const std::string msg = "hello over entry_request";
    EXPECT_TRUE(
        env.kernel->UserWrite(*env.self, buf.value().va, std::as_bytes(std::span(msg))).ok());
    EXPECT_TRUE((co_await ep->Send(env, buf.value(), msg.size())).ok());
    ep->Close();
  });
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    while (chan == nullptr) {  // wait for the producer's open call
      co_await env.kernel->Sleep(env, Duration::Micros(5));
    }
    ReceiverEndpoint ep(chan);
    auto msg = co_await ep.Recv(env);
    EXPECT_TRUE(msg.ok());
    std::vector<char> buf(msg.value().len);
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, msg.value().va, std::as_writable_bytes(std::span(buf)))
            .ok());
    received.assign(buf.begin(), buf.end());
    EXPECT_TRUE((co_await ep.Release(env, msg.value())).ok());
  });
  kernel_.Run();
  EXPECT_EQ(received, "hello over entry_request");
}

// --- Abandon (give back an acquired-but-unsent buffer) ---

TEST_F(ChanTest, AbandonReturnsSlotToPoolAndRevokesGrant) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  EXPECT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto a = co_await chan.AcquireBuf(env);
    auto b = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
    EXPECT_EQ(chan.LiveGrantCount(), 2u);
    // Abandoning kills the write grant and recycles the slot: the next
    // acquire succeeds with zero receiver involvement. Without Abandon
    // this acquire would deadlock (both slots held, nothing in flight).
    EXPECT_TRUE((co_await chan.Abandon(env, a.value())).ok());
    EXPECT_EQ(chan.LiveGrantCount(), 1u);
    // Abandoning a buffer the caller no longer owns is a caller bug. (Like
    // Send, Abandon identifies the buffer by slot index — once the slot is
    // re-acquired, the stale SendBuf aliases the new grant again.)
    EXPECT_EQ((co_await chan.Abandon(env, a.value())).code(), ErrorCode::kInvalidArgument);
    auto c = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(chan.LiveGrantCount(), 2u);
    std::vector<SendBuf> rest{b.value(), c.value()};
    EXPECT_TRUE((co_await chan.AbandonBatch(env, rest)).ok());
    EXPECT_EQ(chan.LiveGrantCount(), 0u);
  });
  kernel_.Run();
}

TEST_F(ChanTest, AbandonedBufferIsSendableAfterReacquire) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 1, .buf_bytes = 4096});
  EXPECT_TRUE(ch.ok());
  Channel& chan = *ch.value();
  std::string received;
  kernel_.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    auto first = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(first.ok());
    EXPECT_TRUE((co_await chan.Abandon(env, first.value())).ok());
    // The recycled slot re-grants cleanly (epoch rebind) and the full
    // send/recv path still works on it.
    auto again = co_await chan.AcquireBuf(env);
    EXPECT_TRUE(again.ok());
    const std::string payload = "recycled slot";
    EXPECT_TRUE(
        env.kernel->UserWrite(*env.self, again.value().va, std::as_bytes(std::span(payload)))
            .ok());
    EXPECT_TRUE((co_await chan.Send(env, again.value(), payload.size())).ok());
  });
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    auto msg = co_await chan.Recv(env);
    EXPECT_TRUE(msg.ok());
    std::vector<char> buf(msg.value().len);
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, msg.value().va, std::as_writable_bytes(std::span(buf)))
            .ok());
    received.assign(buf.begin(), buf.end());
    EXPECT_TRUE((co_await chan.Release(env, msg.value())).ok());
  });
  kernel_.Run();
  EXPECT_EQ(received, "recycled slot");
}

// --- Abort: the dead-peer unwind on demand ---

// Aborts `plane` (4 slots) with every kind of grant in flight and calls
// parked on both sides. Receiver 0 receives one message and keeps it. With
// `queued` a second message waits at receiver 0; without it, receiver 0's
// next Recv parks. Producer 0 keeps every other slot acquired and unsent,
// the last producer parks in AcquireBuf on the empty pool, and every
// receiver past 0 parks in Recv. Abort(kBrokenChannel) must leave no live
// grant, under any endpoint's owner key or at all, and every parked call
// and each holder's next call must return kBrokenChannel.
void ExpectAbortUnwinds(hw::Machine& machine, os::Kernel& kernel,
                        const std::shared_ptr<Plane>& plane,
                        std::span<os::Process* const> producers,
                        std::span<os::Process* const> receivers, bool queued) {
  SCOPED_TRACE(queued ? "a message queued" : "a Recv parked");
  const uint32_t slots = plane->config().slots;
  std::vector<ErrorCode> parked;  // what each parked call returned
  std::vector<ErrorCode> later;   // each holder's next call after the abort
  kernel.Spawn(*receivers[0], "rx0", [&, plane](os::Env env) -> sim::Task<void> {
    auto msg = co_await plane->Recv(env, 0);
    EXPECT_TRUE(msg.ok());
    if (!queued) {
      parked.push_back((co_await plane->Recv(env, 0)).code());
    }
    co_await env.kernel->Sleep(env, Duration::Micros(200));
    later.push_back((co_await plane->Release(env, 0, msg.value())).code());
  });
  for (uint32_t r = 1; r < receivers.size(); ++r) {
    kernel.Spawn(*receivers[r], "rx", [&, plane, r](os::Env env) -> sim::Task<void> {
      parked.push_back((co_await plane->Recv(env, r)).code());
    });
  }
  kernel.Spawn(*producers[0], "tx0", [&, plane](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < (queued ? 2 : 1); ++i) {
      auto buf = co_await plane->AcquireBuf(env, 0);
      EXPECT_TRUE(buf.ok());
      EXPECT_TRUE((co_await plane->SendTo(env, 0, buf.value(), 64, 0)).ok());
    }
    auto rest = co_await plane->AcquireBufBatch(env, 0, slots);
    EXPECT_TRUE(rest.ok());
    co_await env.kernel->Sleep(env, Duration::Micros(200));
    later.push_back((co_await plane->SendTo(env, 0, rest.value()[0], 64, 0)).code());
  });
  const auto last = static_cast<uint32_t>(producers.size() - 1);
  kernel.Spawn(*producers[last], "tx-parked", [&, plane, last](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // the pool is empty by now
    parked.push_back((co_await plane->AcquireBuf(env, last)).code());
  });
  uint64_t grants_at_abort = 0;
  machine.events().ScheduleAt(kernel.now() + Duration::Micros(100), [&] {
    grants_at_abort = plane->LiveGrantCount();
    EXPECT_EQ(plane->pool_parked(), 1u);
    plane->Abort(ErrorCode::kBrokenChannel);
  });
  kernel.Run();
  EXPECT_EQ(grants_at_abort, slots);  // each slot received, queued or acquired
  EXPECT_EQ(plane->broken(), ErrorCode::kBrokenChannel);
  EXPECT_EQ(plane->LiveGrantCount(), 0u);
  const codoms::RevocationTable& rt = kernel.codoms().revocations();
  for (uint32_t p = 0; p < plane->producer_count(); ++p) {
    EXPECT_EQ(rt.LiveCountForOwner(plane->producer_owner(p)), 0u) << "producer " << p;
  }
  for (uint32_t r = 0; r < plane->receiver_count(); ++r) {
    EXPECT_EQ(rt.LiveCountForOwner(plane->receiver_owner(r)), 0u) << "receiver " << r;
  }
  EXPECT_EQ(rt.live_count(), 0u);
  const size_t n_parked = receivers.size() + (queued ? 0 : 1);
  EXPECT_EQ(parked, std::vector<ErrorCode>(n_parked, ErrorCode::kBrokenChannel));
  EXPECT_EQ(later, std::vector<ErrorCode>(2, ErrorCode::kBrokenChannel));
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(kernel.futex_waiters()->value(), 0);
#endif
}

TEST_F(ChanTest, AbortRevokesEveryGrantOfAChannelAndFailsItsParkedCalls) {
  for (bool queued : {true, false}) {
    std::vector<os::Process*> prod{&dipc_.CreateDipcProcess("producer")};
    std::vector<os::Process*> cons{&dipc_.CreateDipcProcess("consumer")};
    auto ch = Channel::Create(dipc_, *prod[0], *cons[0], {.slots = 4, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    ExpectAbortUnwinds(machine_, kernel_, ch.value(), prod, cons, queued);
  }
}

TEST_F(ChanTest, AbortRevokesEveryGrantOfAFanOutPlaneAndFailsItsParkedCalls) {
  for (bool queued : {true, false}) {
    std::vector<os::Process*> prod{&dipc_.CreateDipcProcess("producer")};
    std::vector<os::Process*> cons{&dipc_.CreateDipcProcess("consumer-0"),
                                   &dipc_.CreateDipcProcess("consumer-1")};
    auto fan = Plane::Create(dipc_, *prod[0], cons, {.slots = 4, .buf_bytes = 4096});
    ASSERT_TRUE(fan.ok());
    ExpectAbortUnwinds(machine_, kernel_, fan.value(), prod, cons, queued);
  }
}

TEST_F(ChanTest, AbortRevokesEveryGrantOfAFanInPlaneAndFailsItsParkedCalls) {
  for (bool queued : {true, false}) {
    std::vector<os::Process*> prod{&dipc_.CreateDipcProcess("producer-0"),
                                   &dipc_.CreateDipcProcess("producer-1")};
    std::vector<os::Process*> cons{&dipc_.CreateDipcProcess("consumer")};
    auto fan = Plane::Create(dipc_, prod, *cons[0], {.slots = 4, .buf_bytes = 4096});
    ASSERT_TRUE(fan.ok());
    ExpectAbortUnwinds(machine_, kernel_, fan.value(), prod, cons, queued);
  }
}

// Abort leaves a plane that is already broken as it is: a dead peer's
// kCalleeFailed stays, and an aborted plane keeps kBrokenChannel through a
// second Abort with another code and a later peer death.
TEST_F(ChanTest, AbortKeepsTheCodeOfAPlaneAlreadyBroken) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  auto dead = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  auto aborted = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(dead.ok() && aborted.ok());
  aborted.value()->Abort(ErrorCode::kBrokenChannel);
  dipc_.KillProcess(prod);
  dead.value()->Abort(ErrorCode::kBrokenChannel);
  aborted.value()->Abort(ErrorCode::kCalleeFailed);
  EXPECT_EQ(dead.value()->broken(), ErrorCode::kCalleeFailed);
  EXPECT_EQ(aborted.value()->broken(), ErrorCode::kBrokenChannel);
  ErrorCode from_dead = ErrorCode::kOk;
  ErrorCode from_aborted = ErrorCode::kOk;
  kernel_.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    from_dead = (co_await dead.value()->Recv(env)).code();
    from_aborted = (co_await aborted.value()->Recv(env)).code();
  });
  kernel_.Run();
  EXPECT_EQ(from_dead, ErrorCode::kCalleeFailed);
  EXPECT_EQ(from_aborted, ErrorCode::kBrokenChannel);
}

// --- The producer's slot reserve (1x1 planes) ---

// Several producer threads share one 2-slot Channel while a slow consumer
// receives and releases two messages at a time. A pop that finds both
// freed slots keeps one; the other goes to the reserve only when no
// sibling is inside the pool pop, and is pushed back to the pool (waking
// that sibling) otherwise. So every send completes, and no producer is
// ever parked on the empty pool while the reserve holds a slot.
TEST_F(ChanTest, ProducerThreadsNeverParkOnTheEmptyPoolWhileTheReserveHoldsASlot) {
  constexpr int kProducers = 4;
  constexpr int kSends = 12;
  constexpr int kTotal = kProducers * kSends;
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  os::Process& cons = dipc_.CreateDipcProcess("consumer");
  os::Process& watch = dipc_.CreateDipcProcess("monitor");
  auto ch = Channel::Create(dipc_, prod, cons, {.slots = 2, .buf_bytes = 256});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Channel> chan = ch.value();
  int sent = 0;
  int received = 0;
  int samples_parked = 0;
  int samples_reserved = 0;
  int parked_with_reserve = 0;
  for (int p = 0; p < kProducers; ++p) {
    kernel_.Spawn(
        prod, "producer",
        [&, chan](os::Env env) -> sim::Task<void> {
          for (int i = 0; i < kSends; ++i) {
            auto buf = co_await chan->AcquireBuf(env);
            DIPC_CHECK(buf.ok());
            EXPECT_TRUE((co_await chan->Send(env, buf.value(), 64)).ok());
            ++sent;
          }
        },
        /*pin_cpu=*/p % 2);
  }
  kernel_.Spawn(
      cons, "consumer",
      [&, chan](os::Env env) -> sim::Task<void> {
        while (received < kTotal) {
          co_await env.kernel->Sleep(env, Duration::Micros(2));
          auto msgs = co_await chan->RecvBatch(env, 2);
          DIPC_CHECK(msgs.ok());
          received += static_cast<int>(msgs.value().size());
          EXPECT_TRUE((co_await chan->ReleaseBatch(env, msgs.value())).ok());
        }
      },
      /*pin_cpu=*/2);
  kernel_.Spawn(
      watch, "monitor",
      [&, chan](os::Env env) -> sim::Task<void> {
        while (received < kTotal) {
          const bool parked = chan->pool_parked() > 0;
          samples_parked += parked ? 1 : 0;
          samples_reserved += chan->reserved() > 0 ? 1 : 0;
          parked_with_reserve += parked && chan->reserved() > 0 ? 1 : 0;
          co_await env.kernel->Sleep(env, Duration::Nanos(20));
        }
      },
      /*pin_cpu=*/3);
  kernel_.Run();
  EXPECT_EQ(sent, kTotal);
  EXPECT_EQ(received, kTotal);
  EXPECT_GT(samples_parked, 0) << "no producer ever waited: the test exercises nothing";
  EXPECT_GT(samples_reserved, 0) << "the reserve never held a slot";
  EXPECT_EQ(parked_with_reserve, 0) << "a producer parked while the reserve held a slot";
}

// A lockstep one-message round trip over a DuplexChannel pops each ring's
// shared free pool once per `slots` acquires: the first pop takes every
// free slot and the reserve serves the next slots - 1 acquires, so the
// pool's line, which the peer's Release writes, is read once per pool-full.
TEST_F(ChanTest, LockstepDuplexRoundTripsPopEachPoolOncePerSlotsAcquires) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  constexpr uint32_t kSlots = 8;
  constexpr int kCalls = 64;
  os::Process& client = dipc_.CreateDipcProcess("client");
  os::Process& server = dipc_.CreateDipcProcess("server");
  auto dx = DuplexChannel::Create(dipc_, client, server, {.slots = kSlots, .buf_bytes = 256});
  ASSERT_TRUE(dx.ok());
  std::shared_ptr<DuplexEndpoint> cli = dx.value()->a_end();
  std::shared_ptr<DuplexEndpoint> srv = dx.value()->b_end();
  kernel_.Spawn(
      server, "server",
      [srv](os::Env env) -> sim::Task<void> {
        while (true) {
          auto req = co_await srv->Recv(env);
          if (!req.ok()) {
            co_return;
          }
          EXPECT_TRUE((co_await srv->Release(env, req.value())).ok());
          auto buf = co_await srv->AcquireBuf(env);
          DIPC_CHECK(buf.ok());
          EXPECT_TRUE((co_await srv->Send(env, buf.value(), 64)).ok());
        }
      },
      /*pin_cpu=*/1);
  kernel_.Spawn(
      client, "client",
      [cli, dx = dx.value()](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < kCalls; ++i) {
          auto buf = co_await cli->AcquireBuf(env);
          DIPC_CHECK(buf.ok());
          EXPECT_TRUE((co_await cli->Send(env, buf.value(), 64)).ok());
          auto resp = co_await cli->Recv(env);
          DIPC_CHECK(resp.ok());
          EXPECT_TRUE((co_await cli->Release(env, resp.value())).ok());
        }
        dx->Close();
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  for (Channel* ring : {&dx.value()->forward(), &dx.value()->reverse()}) {
    const std::string prefix = "chan/" + std::to_string(ring->obs_id());
    SCOPED_TRACE(prefix);
    EXPECT_EQ(obs::Registry::Default().GetCounter(prefix + "/acquires")->value(), kCalls);
    EXPECT_EQ(obs::Registry::Default().GetCounter(prefix + "/pool_pops")->value(),
              kCalls / kSlots);
  }
}

// --- Deadlines on the blocking primitives ---

TEST_F(ChanTest, MpmcPushAndPopHonorDeadlines) {
  // A push never waits, so only the pop has a deadline to honor.
  os::Process& proc = dipc_.CreateDipcProcess("p");
  MpmcQueue q(kernel_, proc, 1, proc.default_domain());
  kernel_.Spawn(proc, "solo", [&](os::Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await q.Push(env, 7)).ok());
    auto v = co_await q.Pop(env);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.value(), 7u);
    auto empty =
        co_await q.Pop(env, os::Deadline::After(env.kernel->now(), Duration::Micros(5)));
    EXPECT_EQ(empty.code(), ErrorCode::kTimedOut);
  });
  kernel_.Run();
  EXPECT_EQ(q.timeouts(), 1u);
}

}  // namespace
}  // namespace dipc::chan
