// Unit tests for planes with a receiver group (src/chan/plane.h): broadcast and
// sharded delivery, per-receiver capability isolation, credit-based flow
// control that waits for the slowest receiver, duplex endpoints, the
// per-receiver revocation regression for dead receivers, and the credit
// gauges across a failed broadcast.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chan/channel.h"
#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;

class FanOutTest : public ::testing::Test {
 protected:
  FanOutTest() : machine_(6), codoms_(machine_), kernel_(machine_, codoms_), dipc_(kernel_) {}

  std::vector<os::Process*> MakeReceivers(int n) {
    std::vector<os::Process*> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(&dipc_.CreateDipcProcess("worker-" + std::to_string(i)));
    }
    return out;
  }

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
  core::Dipc dipc_;
};

TEST_F(FanOutTest, BroadcastDeliversEveryMessageToEveryReceiver) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(3);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  constexpr int kMsgs = 7;  // > slots: forces rotation through every slot
  std::vector<std::vector<std::string>> got(3);
  for (uint32_t r = 0; r < 3; ++r) {
    kernel_.Spawn(*receivers[r], "worker", [&, fan, r](os::Env env) -> sim::Task<void> {
      while (true) {
        auto msg = co_await fan->Recv(env, r);
        if (!msg.ok()) {
          EXPECT_EQ(msg.code(), ErrorCode::kBrokenChannel);  // orderly close
          co_return;
        }
        std::vector<char> buf(msg.value().len);
        EXPECT_TRUE(env.kernel
                        ->UserRead(*env.self, msg.value().va,
                                   std::as_writable_bytes(std::span(buf)))
                        .ok());
        got[r].emplace_back(buf.begin(), buf.end());
        EXPECT_TRUE((co_await fan->Release(env, r, msg.value())).ok());
      }
    });
  }
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      DIPC_CHECK(buf.ok());
      std::string payload = "msg-" + std::to_string(i);
      EXPECT_TRUE(
          env.kernel->UserWrite(*env.self, buf.value().va, std::as_bytes(std::span(payload)))
              .ok());
      EXPECT_TRUE((co_await fan->Send(env, 0, buf.value(), payload.size())).ok());
    }
    fan->Close();
  });
  kernel_.Run();
  for (uint32_t r = 0; r < 3; ++r) {
    ASSERT_EQ(got[r].size(), static_cast<size_t>(kMsgs)) << "receiver " << r;
    for (int i = 0; i < kMsgs; ++i) {
      EXPECT_EQ(got[r][i], "msg-" + std::to_string(i)) << "receiver " << r;
    }
  }
  EXPECT_EQ(fan->sends(), static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(fan->deliveries(), static_cast<uint64_t>(3 * kMsgs));
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
}

TEST_F(FanOutTest, ShardedSendToRoundRobinsAndParallelizes) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(3);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  constexpr int kMsgs = 12;
  std::vector<int> counts(3, 0);
  for (uint32_t r = 0; r < 3; ++r) {
    kernel_.Spawn(*receivers[r], "worker", [&, fan, r](os::Env env) -> sim::Task<void> {
      while (true) {
        auto msg = co_await fan->Recv(env, r);
        if (!msg.ok()) {
          co_return;
        }
        ++counts[r];
        EXPECT_TRUE((co_await fan->Release(env, r, msg.value())).ok());
      }
    });
  }
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      DIPC_CHECK(buf.ok());
      uint32_t shard = fan->NextShard();
      DIPC_CHECK(shard < fan->receiver_count());
      EXPECT_TRUE((co_await fan->SendTo(env, 0, buf.value(), 64, shard)).ok());
    }
    fan->Close();
  });
  kernel_.Run();
  // Round-robin: an exact three-way split, one delivery per publish.
  EXPECT_EQ(counts[0], kMsgs / 3);
  EXPECT_EQ(counts[1], kMsgs / 3);
  EXPECT_EQ(counts[2], kMsgs / 3);
  EXPECT_EQ(fan->deliveries(), static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
}

TEST_F(FanOutTest, CreditGateBlocksProducerUntilSlowestReceiverReleases) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(2);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  double third_send_at = 0;
  // Receiver 0 releases immediately; receiver 1 (the slowest) sits on its
  // deliveries until t=40us.
  kernel_.Spawn(*receivers[0], "fast", [&, fan](os::Env env) -> sim::Task<void> {
    while (true) {
      auto msg = co_await fan->Recv(env, 0);
      if (!msg.ok()) {
        co_return;
      }
      EXPECT_TRUE((co_await fan->Release(env, 0, msg.value())).ok());
    }
  });
  kernel_.Spawn(*receivers[1], "slow", [&, fan](os::Env env) -> sim::Task<void> {
    std::vector<Msg> held;
    for (int i = 0; i < 2; ++i) {
      auto msg = co_await fan->Recv(env, 1);
      DIPC_CHECK(msg.ok());
      held.push_back(msg.value());
    }
    co_await env.kernel->Sleep(env, Duration::Micros(40));
    EXPECT_TRUE((co_await fan->ReleaseBatch(env, 1, held)).ok());
    while (true) {
      auto msg = co_await fan->Recv(env, 1);
      if (!msg.ok()) {
        co_return;
      }
      EXPECT_TRUE((co_await fan->Release(env, 1, msg.value())).ok());
    }
  });
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      DIPC_CHECK(buf.ok());
      EXPECT_TRUE((co_await fan->Send(env, 0, buf.value(), 64)).ok());
      if (i == 2) {
        third_send_at = env.kernel->now().micros();
      }
    }
    fan->Close();
  });
  kernel_.Run();
  // The third message could only be admitted once the slow receiver
  // returned credit at t=40 — backpressure from the slowest live receiver.
  EXPECT_GE(third_send_at, 40.0);
  EXPECT_GT(fan->blocked_on_credit(), 0u);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
}

TEST_F(FanOutTest, DeadReceiverIsRevokedIndividuallyWithoutBreakingGroup) {
  // The acceptance regression: kill one receiver while it holds an
  // unreleased delivery and another sits in its FIFO. Its grants (and only
  // its grants) must die, its slots must recycle, and the two survivors
  // must keep receiving as if nothing happened.
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(3);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  constexpr int kBefore = 2;   // messages delivered before the kill
  constexpr int kAfter = 6;    // messages broadcast after the kill
  std::vector<int> got(3, 0);
  hw::VirtAddr victim_held_va = 0;
  for (uint32_t r = 0; r < 3; ++r) {
    kernel_.Spawn(*receivers[r], "worker", [&, fan, r](os::Env env) -> sim::Task<void> {
      int seen = 0;
      while (true) {
        auto msg = co_await fan->Recv(env, r);
        if (!msg.ok()) {
          // The victim sees its own crash; survivors see the orderly close.
          EXPECT_EQ(msg.code(),
                    r == 1 ? ErrorCode::kCalleeFailed : ErrorCode::kBrokenChannel)
              << "receiver " << r;
          co_return;
        }
        ++got[r];
        if (r == 1 && ++seen == 1) {
          // Hold the first delivery unreleased across the kill (t=30us).
          victim_held_va = msg.value().va;
          co_await env.kernel->Sleep(env, Duration::Micros(60));
          auto touch =
              co_await env.kernel->TouchUser(env, msg.value().va, 16, hw::AccessType::kRead);
          // The grant died with the process: access faults, release reports
          // the crash.
          EXPECT_EQ(touch.code(), ErrorCode::kFault);
          EXPECT_EQ((co_await fan->Release(env, r, msg.value())).code(),
                    ErrorCode::kCalleeFailed);
          continue;
        }
        EXPECT_TRUE((co_await fan->Release(env, r, msg.value())).ok());
      }
    });
  }
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < kBefore; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      DIPC_CHECK(buf.ok());
      EXPECT_TRUE((co_await fan->Send(env, 0, buf.value(), 64)).ok());
    }
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // killer fires at 30
    EXPECT_FALSE(fan->receiver_alive(1));
    for (int i = 0; i < kAfter; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      DIPC_CHECK(buf.ok());
      EXPECT_TRUE((co_await fan->Send(env, 0, buf.value(), 64)).ok());
    }
    fan->Close();
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(30));
    dipc_.KillProcess(*receivers[1]);
    // Per-receiver bookkeeping: the dead receiver's entire grant set is
    // revoked at kill time, while the survivors' grants stay untouched.
    EXPECT_EQ(codoms_.revocations().LiveCountForOwner(fan->receiver_owner(1)), 0u);
  });
  kernel_.Run();
  // The channel never broke and the survivors saw every message.
  EXPECT_EQ(fan->broken(), ErrorCode::kOk);
  EXPECT_EQ(got[0], kBefore + kAfter);
  EXPECT_EQ(got[2], kBefore + kAfter);
  // The victim popped only the first message (held across the kill); the
  // second died in its failed FIFO, and nothing after the kill reached it.
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(fan->live_receiver_count(), 2u);
  EXPECT_EQ(codoms_.revocations().LiveCountForOwner(fan->receiver_owner(1)), 0u);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  ASSERT_NE(victim_held_va, 0u);
}

TEST_F(FanOutTest, ProducerDeathBreaksGroupAndRevokesEveryGrant) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(2);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  std::vector<ErrorCode> recv_errors(2, ErrorCode::kOk);
  for (uint32_t r = 0; r < 2; ++r) {
    kernel_.Spawn(*receivers[r], "worker", [&, fan, r](os::Env env) -> sim::Task<void> {
      while (true) {
        auto msg = co_await fan->Recv(env, r);
        if (!msg.ok()) {
          recv_errors[r] = msg.code();
          co_return;
        }
        (void)co_await fan->Release(env, r, msg.value());
      }
    });
  }
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    auto buf = co_await fan->AcquireBuf(env, 0);
    DIPC_CHECK(buf.ok());
    EXPECT_TRUE((co_await fan->Send(env, 0, buf.value(), 64)).ok());
    co_await env.kernel->Sleep(env, Duration::Millis(10));  // killed meanwhile
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(40));
    dipc_.KillProcess(prod);
  });
  kernel_.Run();
  EXPECT_EQ(fan->broken(), ErrorCode::kCalleeFailed);
  EXPECT_EQ(recv_errors[0], ErrorCode::kCalleeFailed);
  EXPECT_EQ(recv_errors[1], ErrorCode::kCalleeFailed);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  // Every async counter this world ever minted belongs to the channel, and
  // the teardown revoked them all.
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanOutTest, SteadyStateBroadcastMintsNothingAfterWarmup) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(2);
  constexpr uint32_t kSlots = 2;
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = kSlots, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  for (uint32_t r = 0; r < 2; ++r) {
    kernel_.Spawn(*receivers[r], "worker", [&, fan, r](os::Env env) -> sim::Task<void> {
      while (true) {
        auto msg = co_await fan->Recv(env, r);
        if (!msg.ok()) {
          co_return;
        }
        EXPECT_TRUE((co_await fan->Release(env, r, msg.value())).ok());
      }
    });
  }
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    auto cycle = [&](int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        auto buf = co_await fan->AcquireBuf(env, 0);
        DIPC_CHECK(buf.ok());
        DIPC_CHECK((co_await fan->Send(env, 0, buf.value(), 64)).ok());
      }
    };
    co_await cycle(3 * kSlots);  // warm every write + per-receiver read template
    // One write template per slot, one read template per (receiver, slot).
    EXPECT_EQ(fan->cold_mints(), kSlots + 2 * kSlots);
    const uint64_t mints_before = codoms_.mint_count();
    machine_.costs().cap_setup = Duration::Micros(100);  // poison the mint
    sim::Time t0 = env.kernel->now();
    co_await cycle(16);
    double elapsed_us = (env.kernel->now() - t0).micros();
    EXPECT_EQ(codoms_.mint_count(), mints_before) << "steady state minted a capability";
    EXPECT_LT(elapsed_us, 100.0);
    fan->Close();
  });
  kernel_.Run();
}

TEST_F(FanOutTest, DuplexEndpointsRoundTripAndCloseBothWays) {
  // Duplex endpoints: requests forward, completions on the paired reverse
  // ring, both directions through one object per side.
  os::Process& client = dipc_.CreateDipcProcess("client");
  os::Process& server = dipc_.CreateDipcProcess("server");
  auto dx = DuplexChannel::Create(dipc_, client, server, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(dx.ok());
  std::shared_ptr<DuplexEndpoint> cli = dx.value()->a_end();
  std::shared_ptr<DuplexEndpoint> srv = dx.value()->b_end();
  constexpr int kCalls = 5;
  int served = 0;
  std::vector<uint64_t> replies;
  kernel_.Spawn(server, "server", [&, srv](os::Env env) -> sim::Task<void> {
    while (true) {
      auto req = co_await srv->Recv(env);
      if (!req.ok()) {
        co_return;  // client closed the forward ring
      }
      uint64_t v = 0;
      EXPECT_TRUE(env.kernel
                      ->UserRead(*env.self, req.value().va,
                                 std::as_writable_bytes(std::span(&v, 1)))
                      .ok());
      ++served;
      EXPECT_TRUE((co_await srv->Release(env, req.value())).ok());
      auto buf = co_await srv->AcquireBuf(env);
      DIPC_CHECK(buf.ok());
      uint64_t resp = v * 10;
      EXPECT_TRUE(
          env.kernel->UserWrite(*env.self, buf.value().va, std::as_bytes(std::span(&resp, 1)))
              .ok());
      EXPECT_TRUE((co_await srv->Send(env, buf.value(), 8)).ok());
    }
  });
  kernel_.Spawn(client, "client", [&, cli](os::Env env) -> sim::Task<void> {
    for (uint64_t i = 1; i <= kCalls; ++i) {
      auto buf = co_await cli->AcquireBuf(env);
      DIPC_CHECK(buf.ok());
      EXPECT_TRUE(
          env.kernel->UserWrite(*env.self, buf.value().va, std::as_bytes(std::span(&i, 1)))
              .ok());
      EXPECT_TRUE((co_await cli->Send(env, buf.value(), 8)).ok());
      auto resp = co_await cli->Recv(env);
      DIPC_CHECK(resp.ok());
      uint64_t v = 0;
      EXPECT_TRUE(env.kernel
                      ->UserRead(*env.self, resp.value().va,
                                 std::as_writable_bytes(std::span(&v, 1)))
                      .ok());
      replies.push_back(v);
      EXPECT_TRUE((co_await cli->Release(env, resp.value())).ok());
    }
    cli->Close();
  });
  kernel_.Run();
  EXPECT_EQ(served, kCalls);
  ASSERT_EQ(replies.size(), static_cast<size_t>(kCalls));
  for (uint64_t i = 1; i <= kCalls; ++i) {
    EXPECT_EQ(replies[i - 1], i * 10);
  }
}

TEST_F(FanOutTest, DeadShardSendToIsRetryableAndAbandonRecyclesSlots) {
  // The producer-side ownership contract: while broken() == kOk a failed
  // SendTo leaves the buffer owned, so it can be resharded onto a live
  // receiver, and AbandonBatch hands unsent buffers back to the pool
  // (revoking the write grants) instead of leaking them.
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(2);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  int shard0_got = 0;
  kernel_.Spawn(*receivers[0], "live", [&, fan](os::Env env) -> sim::Task<void> {
    while (true) {
      auto msg = co_await fan->Recv(env, 0);
      if (!msg.ok()) {
        co_return;
      }
      ++shard0_got;
      EXPECT_TRUE((co_await fan->Release(env, 0, msg.value())).ok());
    }
  });
  kernel_.Spawn(*receivers[1], "doomed", [&, fan](os::Env env) -> sim::Task<void> {
    // Takes deliveries but never releases; dies holding them (t=30us).
    while (true) {
      auto msg = co_await fan->Recv(env, 1);
      if (!msg.ok()) {
        co_return;
      }
    }
  });
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    // Fill shard 1's credit line / the whole pool, then keep going: the
    // third acquire can only proceed once the kill recycles the slots the
    // dead receiver pinned.
    for (int i = 0; i < 2; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      DIPC_CHECK(buf.ok());
      DIPC_CHECK((co_await fan->SendTo(env, 0, buf.value(), 64, 1)).ok());
    }
    auto buf = co_await fan->AcquireBuf(env, 0);
    DIPC_CHECK(buf.ok());
    EXPECT_GE(env.kernel->now().micros(), 30.0);  // needed the kill's recycle
    // The shard is dead: the send fails, the buffer stays ours, and the
    // retry onto the live shard delivers it.
    auto dead = co_await fan->SendTo(env, 0, buf.value(), 64, 1);
    EXPECT_EQ(dead.code(), ErrorCode::kCalleeFailed);
    EXPECT_EQ(fan->broken(), ErrorCode::kOk);
    EXPECT_TRUE((co_await fan->SendTo(env, 0, buf.value(), 64, 0)).ok());
    // Abandon: gather the whole pool (AcquireBufBatch drains what's there,
    // so accumulate while the in-flight message comes back), hand it
    // straight back, and prove the pool is whole by re-gathering it.
    auto gather_all = [&]() -> sim::Task<std::vector<SendBuf>> {
      std::vector<SendBuf> held;
      while (held.size() < 2) {
        auto got = co_await fan->AcquireBufBatch(env, 0, 2 - static_cast<uint32_t>(held.size()));
        DIPC_CHECK(got.ok());
        held.insert(held.end(), got.value().begin(), got.value().end());
      }
      co_return held;
    };
    std::vector<SendBuf> all = co_await gather_all();
    EXPECT_TRUE((co_await fan->AbandonBatch(env, 0, all)).ok());
    std::vector<SendBuf> again = co_await gather_all();
    EXPECT_TRUE((co_await fan->AbandonBatch(env, 0, again)).ok());
    fan->Close();
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(30));
    dipc_.KillProcess(*receivers[1]);
  });
  kernel_.Run();
  EXPECT_EQ(shard0_got, 1);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanOutTest, ReboundReceiverReentersRotationWithoutSkewingShards) {
  // NextShard fairness regression: a receiver that dies and is later rebound
  // must re-enter the round-robin at its old index — the cursor may neither
  // double-visit its neighbours nor skip the revived slot.
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(3);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 6, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  std::vector<int> got(4, 0);  // 0, 1 (old incarnation), 2, 1 (rebound)
  auto recv_loop = [&, fan](uint32_t r, int counter) {
    return [&, fan, r, counter](os::Env env) -> sim::Task<void> {
      while (true) {
        auto msg = co_await fan->Recv(env, r);
        if (!msg.ok()) {
          co_return;
        }
        ++got[counter];
        if (!(co_await fan->Release(env, r, msg.value())).ok()) {
          co_return;
        }
      }
    };
  };
  for (uint32_t r = 0; r < 3; ++r) {
    kernel_.Spawn(*receivers[r], "worker", recv_loop(r, static_cast<int>(r)));
  }
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    auto shard_send = [&](int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        auto buf = co_await fan->AcquireBuf(env, 0);
        DIPC_CHECK(buf.ok());
        uint32_t shard = fan->NextShard();
        DIPC_CHECK(shard < fan->receiver_count());
        DIPC_CHECK((co_await fan->SendTo(env, 0, buf.value(), 64, shard)).ok());
      }
    };
    co_await shard_send(2);  // cursor now past slots 0 and 1
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // killer fires at 30
    EXPECT_FALSE(fan->receiver_alive(1));
    co_await shard_send(1);  // lands on slot 2 (slot 1 is dead, not skipped-forever)
    os::Process& fresh = dipc_.CreateDipcProcess("worker-1b");
    EXPECT_TRUE(fan->RebindReceiver(1, fresh).ok());
    kernel_.Spawn(fresh, "worker", recv_loop(1, 3));
    co_await shard_send(9);  // full rotations: exactly three per live slot
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // drain releases
    fan->Close();
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(30));
    dipc_.KillProcess(*receivers[1]);
  });
  kernel_.Run();
  EXPECT_EQ(got[0], 1 + 3);  // one before the kill, three after the rebind
  EXPECT_EQ(got[1], 1);      // the old incarnation saw only its first shard
  EXPECT_EQ(got[2], 1 + 3);
  EXPECT_EQ(got[3], 3);  // the rebound slot takes its full share, no skew
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanOutTest, ShardDeathDuringSendSpendLeavesBufferOwnedAndRetryable) {
  // The mid-send ownership regression: the target dies while the producer is
  // suspended inside SendTo's runtime charge. The failed send must leave the
  // producer owning the buffer — the old code revoked the write grant before
  // the suspension, so the death sweep freed the slot while the caller was
  // promised it could retry, aliasing the next acquire.
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(2);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  int live_got = 0;
  kernel_.Spawn(*receivers[0], "live", [&, fan](os::Env env) -> sim::Task<void> {
    while (true) {
      auto msg = co_await fan->Recv(env, 0);
      if (!msg.ok()) {
        co_return;
      }
      ++live_got;
      EXPECT_TRUE((co_await fan->Release(env, 0, msg.value())).ok());
    }
  });
  kernel_.Spawn(*receivers[1], "doomed", [&, fan](os::Env env) -> sim::Task<void> {
    auto msg = co_await fan->Recv(env, 1);
    EXPECT_FALSE(msg.ok());  // killed while parked
  });
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    auto buf = co_await fan->AcquireBuf(env, 0);
    DIPC_CHECK(buf.ok());
    // Widen the send's Spend window so the killer (t=5us) fires inside it.
    machine_.costs().chan_fast_path = Duration::Micros(10);
    auto s = co_await fan->SendTo(env, 0, buf.value(), 64, 1);
    EXPECT_GE(env.kernel->now().micros(), 10.0);  // we were inside the Spend
    EXPECT_EQ(s.code(), ErrorCode::kCalleeFailed);
    EXPECT_EQ(fan->broken(), ErrorCode::kOk);
    EXPECT_FALSE(fan->receiver_alive(1));
    // Ownership survived the mid-Spend death: the write grant is live and
    // the very same buffer reshards onto the live receiver.
    EXPECT_GE(fan->LiveGrantCount(), 1u);
    EXPECT_TRUE((co_await fan->SendTo(env, 0, buf.value(), 64, 0)).ok());
    co_await env.kernel->Sleep(env, Duration::Millis(1));  // drain the release
    fan->Close();
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(5));
    dipc_.KillProcess(*receivers[1]);
  });
  kernel_.Run();
  EXPECT_EQ(live_got, 1);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanOutTest, AllReceiversDeadFailsProducerOps) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(2);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  ErrorCode send_err = ErrorCode::kOk;
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // both killed at 20/30
    auto buf = co_await fan->AcquireBuf(env, 0);
    if (!buf.ok()) {
      send_err = buf.code();
      co_return;
    }
    send_err = (co_await fan->Send(env, 0, buf.value(), 64)).code();
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(20));
    dipc_.KillProcess(*receivers[0]);
    co_await env.kernel->Sleep(env, Duration::Micros(10));
    dipc_.KillProcess(*receivers[1]);
  });
  kernel_.Run();
  EXPECT_EQ(send_err, ErrorCode::kCalleeFailed);
  EXPECT_EQ(fan->live_receiver_count(), 0u);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
}

TEST_F(FanOutTest, FailedBroadcastLeavesEveryCreditGaugeEqualToItsBalance) {
#if defined(DIPC_FAULT_OFF) || defined(DIPC_OBS_OFF)
  GTEST_SKIP() << "fault injection or observability compiled out";
#else
  // Store hit 2 is receiver 1's read grant: receiver 0's was already planned
  // (one credit consumed) when the broadcast fails with kFault, so the undo
  // must hand that credit back AND show it in receiver 0's gauge.
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  auto receivers = MakeReceivers(2);
  auto ch = Plane::Create(dipc_, prod, receivers, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  auto plan = fault::Plan::Parse("rule codoms/store fail at=2\n");
  ASSERT_TRUE(plan.ok());
  fault::Injector::Global().Arm(plan.value(), &machine_.events());
  ErrorCode sent = ErrorCode::kOk;
  kernel_.Spawn(prod, "producer", [&, fan](os::Env env) -> sim::Task<void> {
    auto buf = co_await fan->AcquireBuf(env, 0);
    DIPC_CHECK(buf.ok());
    sent = (co_await fan->Send(env, 0, buf.value(), 64)).code();
    EXPECT_TRUE((co_await fan->Abandon(env, 0, buf.value())).ok());
    fan->Close();
  });
  kernel_.Run();
  fault::Injector::Global().Disarm();
  EXPECT_EQ(sent, ErrorCode::kFault);
  const std::string prefix = "fanout/" + std::to_string(fan->obs_id()) + "/rx/";
  for (uint32_t r = 0; r < fan->receiver_count(); ++r) {
    EXPECT_EQ(fan->credits(r), fan->credit_line()) << "receiver " << r;
    EXPECT_EQ(obs::Registry::Default().GetGauge(prefix + std::to_string(r) + "/credits")->value(),
              static_cast<int64_t>(fan->credits(r)))
        << "receiver " << r;
  }
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
#endif
}

}  // namespace
}  // namespace dipc::chan
