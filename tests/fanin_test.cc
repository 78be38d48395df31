// Unit tests for planes with a producer group (src/chan/plane.h): M->1 delivery with
// per-producer grants, the death matrix (producer dies mid-send, consumer
// dies with queued descriptors, credit-exhaustion timeouts) and
// supervisor-style RebindProducer.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "hw/machine.h"
#include "os/deadline.h"
#include "os/kernel.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;

class FanInTest : public ::testing::Test {
 protected:
  FanInTest() : machine_(6), codoms_(machine_), kernel_(machine_, codoms_), dipc_(kernel_) {}

  std::vector<os::Process*> MakeProducers(int n) {
    std::vector<os::Process*> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(&dipc_.CreateDipcProcess("client-" + std::to_string(i)));
    }
    return out;
  }

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
  core::Dipc dipc_;
};

TEST_F(FanInTest, ManyProducersDeliverIntoOneConsumerFifo) {
  auto producers = MakeProducers(3);
  os::Process& cons = dipc_.CreateDipcProcess("server");
  auto ch = Plane::Create(dipc_, producers, cons, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  constexpr int kPerProducer = 5;  // 15 total > slots: rotates the pool
  std::vector<int> got(3, 0);
  int total = 0;
  kernel_.Spawn(cons, "server", [&, fan](os::Env env) -> sim::Task<void> {
    while (true) {
      auto msg = co_await fan->Recv(env, 0);
      if (!msg.ok()) {
        EXPECT_EQ(msg.code(), ErrorCode::kBrokenChannel);  // orderly close
        co_return;
      }
      uint8_t tag = 0xff;
      EXPECT_TRUE(env.kernel
                      ->UserRead(*env.self, msg.value().va,
                                 std::span<std::byte>(reinterpret_cast<std::byte*>(&tag), 1))
                      .ok());
      EXPECT_LT(tag, 3);
      if (tag < 3) {
        ++got[tag];
      }
      ++total;
      EXPECT_TRUE((co_await fan->Release(env, 0, msg.value())).ok());
    }
  });
  for (uint32_t p = 0; p < 3; ++p) {
    kernel_.Spawn(*producers[p], "client", [&, fan, p](os::Env env) -> sim::Task<void> {
      for (int i = 0; i < kPerProducer; ++i) {
        auto buf = co_await fan->AcquireBuf(env, p);
        DIPC_CHECK(buf.ok());
        uint8_t tag = static_cast<uint8_t>(p);
        DIPC_CHECK(env.kernel
                       ->UserWrite(*env.self, buf.value().va,
                                   std::span<const std::byte>(
                                       reinterpret_cast<const std::byte*>(&tag), 1))
                       .ok());
        DIPC_CHECK((co_await fan->Send(env, p, buf.value(), 64)).ok());
      }
      if (p == 0) {  // one producer closes after everyone quiesces
        co_await env.kernel->Sleep(env, Duration::Millis(1));
        fan->Close();
      }
    });
  }
  kernel_.Run();
  EXPECT_EQ(total, 3 * kPerProducer);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(got[p], kPerProducer) << "producer " << p;
  }
  EXPECT_EQ(fan->sends(), static_cast<uint64_t>(3 * kPerProducer));
  EXPECT_EQ(fan->recvs(), static_cast<uint64_t>(3 * kPerProducer));
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanInTest, ProducerDeathMidSendExcisesOnlyThatProducer) {
  // Death matrix row 1: a producer dies while suspended inside Send's
  // runtime charge. Its grants must be revoked (its owner key fully drained
  // from the RevocationTable), its held slots recycled, and the surviving
  // producers must keep flowing.
  auto producers = MakeProducers(2);
  os::Process& cons = dipc_.CreateDipcProcess("server");
  auto ch = Plane::Create(dipc_, producers, cons, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  const uint64_t doomed_owner = fan->producer_owner(0);
  int delivered = 0;
  kernel_.Spawn(*producers[0], "doomed", [&, fan](os::Env env) -> sim::Task<void> {
    auto buf = co_await fan->AcquireBuf(env, 0);
    DIPC_CHECK(buf.ok());
    // Widen the send's Spend window so the killer (t=5us) lands inside it.
    machine_.costs().chan_fast_path = Duration::Micros(10);
    auto s = co_await fan->Send(env, 0, buf.value(), 64);
    // The process was killed mid-charge; whatever the coroutine observes on
    // resume, it must not be a successful publish of a revoked grant.
    (void)s;
    co_return;
  });
  kernel_.Spawn(*producers[1], "survivor", [&, fan](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(50));  // after the kill
    machine_.costs().chan_fast_path = Duration::Nanos(80);
    EXPECT_FALSE(fan->producer_alive(0));
    EXPECT_TRUE(fan->producer_alive(1));
    EXPECT_EQ(fan->broken(), ErrorCode::kOk);  // group not broken
    for (int i = 0; i < 6; ++i) {  // > slots: the doomed slot was recycled
      auto buf = co_await fan->AcquireBuf(env, 1);
      DIPC_CHECK(buf.ok());
      DIPC_CHECK((co_await fan->Send(env, 1, buf.value(), 64)).ok());
    }
    co_await env.kernel->Sleep(env, Duration::Millis(1));
    fan->Close();
  });
  kernel_.Spawn(cons, "server", [&, fan](os::Env env) -> sim::Task<void> {
    while (true) {
      auto msg = co_await fan->Recv(env, 0);
      if (!msg.ok()) {
        co_return;
      }
      ++delivered;
      EXPECT_TRUE((co_await fan->Release(env, 0, msg.value())).ok());
    }
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(5));
    dipc_.KillProcess(*producers[0]);
  });
  kernel_.Run();
  EXPECT_GE(delivered, 6);  // all survivor sends arrived
  EXPECT_EQ(codoms_.revocations().LiveCountForOwner(doomed_owner), 0u);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanInTest, ConsumerDeathWithQueuedDescriptorsRevokesEverything) {
  // Death matrix row 2: the consumer dies with published-but-undelivered
  // descriptors in the FIFO and a producer parked on exhausted credit. The
  // whole channel breaks, every grant (both owner keys) is swept, and the
  // parked producer is woken with the breakage instead of wedging.
  auto producers = MakeProducers(2);
  os::Process& cons = dipc_.CreateDipcProcess("server");
  auto ch = Plane::Create(dipc_, producers, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  const uint64_t p0_owner = fan->producer_owner(0);
  const uint64_t cons_owner = fan->receiver_owner(0);
  bool woke_with_breakage = false;
  kernel_.Spawn(*producers[0], "client", [&, fan](os::Env env) -> sim::Task<void> {
    // Queue two messages the consumer will never drain (it never Recvs),
    // exhausting p0's credit line...
    for (int i = 0; i < 2; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      DIPC_CHECK(buf.ok());
      DIPC_CHECK((co_await fan->Send(env, 0, buf.value(), 64)).ok());
    }
    // ...then park on credit. The killer fires at t=30us; the consumer's
    // death must fail this wait rather than leave it wedged forever.
    auto buf = co_await fan->AcquireBuf(env, 0);
    EXPECT_FALSE(buf.ok());
    EXPECT_EQ(buf.code(), ErrorCode::kCalleeFailed);
    woke_with_breakage = true;
    // Post-breakage producer ops fail fast.
    auto again = co_await fan->AcquireBuf(env, 1);
    EXPECT_EQ(again.code(), ErrorCode::kCalleeFailed);
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "killer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(30));
    dipc_.KillProcess(cons);
  });
  kernel_.Run();
  EXPECT_TRUE(woke_with_breakage);
  EXPECT_EQ(fan->broken(), ErrorCode::kCalleeFailed);
  // Nothing leaks: the queued descriptors' read grants, the write grants,
  // both owner keys, all drained.
  EXPECT_EQ(codoms_.revocations().LiveCountForOwner(p0_owner), 0u);
  EXPECT_EQ(codoms_.revocations().LiveCountForOwner(cons_owner), 0u);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanInTest, CreditExhaustionTimeoutLeaksNoGrantsOrCredits) {
  // Death matrix row 3: a deadline expires while waiting on credit. The
  // timeout must consume no credit, mint no grant, and the producer must be
  // able to proceed normally once the consumer frees a slot.
  auto producers = MakeProducers(1);
  os::Process& cons = dipc_.CreateDipcProcess("server");
  auto ch = Plane::Create(dipc_, producers, cons, {.slots = 1, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  int delivered = 0;
  kernel_.Spawn(*producers[0], "client", [&, fan](os::Env env) -> sim::Task<void> {
    auto first = co_await fan->AcquireBuf(env, 0);
    DIPC_CHECK(first.ok());
    DIPC_CHECK((co_await fan->Send(env, 0, first.value(), 64)).ok());
    EXPECT_EQ(fan->credits(0), 0u);
    const uint64_t grants_before = fan->LiveGrantCount();
    // The consumer sits on the message until t=100us; this wait dies first.
    auto timed = co_await fan->AcquireBuf(
        env, 0, os::Deadline::After(env.kernel->now(), Duration::Micros(20)));
    EXPECT_EQ(timed.code(), ErrorCode::kTimedOut);
    EXPECT_EQ(fan->credits(0), 0u);
    EXPECT_EQ(fan->LiveGrantCount(), grants_before);  // no grant minted
    // Once the release lands, the same producer proceeds with no residue.
    auto after = co_await fan->AcquireBuf(
        env, 0, os::Deadline::After(env.kernel->now(), Duration::Millis(1)));
    DIPC_CHECK(after.ok());
    DIPC_CHECK((co_await fan->Send(env, 0, after.value(), 64)).ok());
    co_await env.kernel->Sleep(env, Duration::Millis(1));
    fan->Close();
  });
  kernel_.Spawn(cons, "server", [&, fan](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(100));
    while (true) {
      auto msg = co_await fan->Recv(env, 0);
      if (!msg.ok()) {
        co_return;
      }
      ++delivered;
      EXPECT_TRUE((co_await fan->Release(env, 0, msg.value())).ok());
    }
  });
  kernel_.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_GE(fan->blocked_on_credit(), 1u);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(FanInTest, RebindProducerSplicesFreshIncarnationWithFullCreditLine) {
  // Supervisor respawn path: kill a producer that is holding an acquired
  // slot AND has a message queued, rebind the slot to a fresh process, and
  // verify the fresh incarnation gets a clean line while the dead
  // incarnation's late-released message refunds nobody.
  auto producers = MakeProducers(2);
  os::Process& cons = dipc_.CreateDipcProcess("server");
  auto ch = Plane::Create(dipc_, producers, cons, {.slots = 2, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Plane> fan = ch.value();
  const uint64_t old_owner = fan->producer_owner(0);
  int delivered = 0;
  kernel_.Spawn(*producers[0], "doomed", [&, fan](os::Env env) -> sim::Task<void> {
    auto queued = co_await fan->AcquireBuf(env, 0);
    DIPC_CHECK(queued.ok());
    DIPC_CHECK((co_await fan->Send(env, 0, queued.value(), 64)).ok());
    auto held = co_await fan->AcquireBuf(env, 0);  // held, never sent
    DIPC_CHECK(held.ok());
    co_await env.kernel->Sleep(env, Duration::Millis(10));  // killed at 30us
  });
  kernel_.Spawn(cons, "server", [&, fan](os::Env env) -> sim::Task<void> {
    // Wait past kill (30us) + rebind (60us) before draining, so the queued
    // message's release happens against the *rebound* incarnation.
    co_await env.kernel->Sleep(env, Duration::Micros(100));
    while (true) {
      auto msg = co_await fan->Recv(env, 0);
      if (!msg.ok()) {
        co_return;
      }
      ++delivered;
      EXPECT_TRUE((co_await fan->Release(env, 0, msg.value())).ok());
    }
  });
  os::Process& killer = dipc_.CreateDipcProcess("killer");
  kernel_.Spawn(killer, "supervisor", [&, fan](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(30));
    dipc_.KillProcess(*producers[0]);
    EXPECT_FALSE(fan->producer_alive(0));
    // The dead incarnation's owner key is already fully drained even though
    // its published message is still queued (read grant belongs to the
    // consumer's key, not the producer's).
    EXPECT_EQ(codoms_.revocations().LiveCountForOwner(old_owner), 0u);
    co_await env.kernel->Sleep(env, Duration::Micros(30));
    os::Process& fresh = dipc_.CreateDipcProcess("client-0b");
    EXPECT_TRUE(fan->RebindProducer(0, fresh).ok());
    EXPECT_TRUE(fan->producer_alive(0));
    EXPECT_NE(fan->producer_owner(0), old_owner);  // fresh owner key
    EXPECT_EQ(fan->credits(0), fan->credit_line());  // full line, no residue
    kernel_.Spawn(fresh, "client", [&, fan](os::Env env2) -> sim::Task<void> {
      // Let the consumer drain the old incarnation's queued message first;
      // its release must NOT overfill our fresh credit line.
      co_await env2.kernel->Sleep(env2, Duration::Micros(200));
      EXPECT_LE(fan->credits(0), fan->credit_line());
      for (int i = 0; i < 3; ++i) {
        auto buf = co_await fan->AcquireBuf(env2, 0);
        DIPC_CHECK(buf.ok());
        DIPC_CHECK((co_await fan->Send(env2, 0, buf.value(), 64)).ok());
      }
      co_await env2.kernel->Sleep(env2, Duration::Millis(1));
      EXPECT_EQ(fan->credits(0), fan->credit_line());
      fan->Close();
    });
  });
  kernel_.Run();
  EXPECT_EQ(delivered, 1 + 3);  // the dead incarnation's publish + 3 fresh
  EXPECT_EQ(codoms_.revocations().LiveCountForOwner(old_owner), 0u);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

}  // namespace
}  // namespace dipc::chan
