// Robustness regressions for the deadline-aware blocking paths: timed
// channel/fan-out operations return kTimedOut (not hang) with no leaked
// capability grants, peer death beats a pending deadline, the semaphore's
// kernel-entry failure window, and the fan-out receiver rebind that the
// OLTP supervisor uses to respawn dead workers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chan/channel.h"
#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "hw/machine.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "os/semaphore.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() : machine_(4), codoms_(machine_), kernel_(machine_, codoms_), dipc_(kernel_) {}

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
  core::Dipc dipc_;
};

TEST_F(RobustnessTest, ChannelRecvBatchTimesOutWithNoLeakedGrants) {
  os::Process& a = dipc_.CreateDipcProcess("a");
  os::Process& b = dipc_.CreateDipcProcess("b");
  auto ch = Channel::Create(dipc_, a, b, {.slots = 4, .buf_bytes = 256});
  ASSERT_TRUE(ch.ok());
  const Duration limit = Duration::Millis(1);
  bool checked = false;
  kernel_.Spawn(b, "rx", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    const sim::Time deadline_at = k.now() + limit;
    // Nobody ever sends: the blocked batch must come back kTimedOut, by the
    // deadline, having minted no receive grants.
    auto msgs = co_await ch.value()->RecvBatch(env, 4, os::Deadline::At(deadline_at));
    EXPECT_EQ(msgs.code(), ErrorCode::kTimedOut);
    EXPECT_LE(k.now(), deadline_at + Duration::Micros(1));
    EXPECT_EQ(ch.value()->LiveGrantCount(), 0u);
    checked = true;
  });
  kernel_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(RobustnessTest, ChannelAcquireBufTimesOutWhenSlotsExhausted) {
  os::Process& a = dipc_.CreateDipcProcess("a");
  os::Process& b = dipc_.CreateDipcProcess("b");
  constexpr uint32_t kSlots = 2;
  auto ch = Channel::Create(dipc_, a, b, {.slots = kSlots, .buf_bytes = 256});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Channel> c = ch.value();
  bool timed_out = false;
  kernel_.Spawn(a, "tx", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    // Hold every slot, then ask for one more under a deadline.
    auto held = co_await c->AcquireBufBatch(env, kSlots);
    EXPECT_TRUE(held.ok());
    EXPECT_EQ(held.value().size(), kSlots);
    auto extra = co_await c->AcquireBuf(env, os::Deadline::After(k.now(), Duration::Millis(1)));
    EXPECT_EQ(extra.code(), ErrorCode::kTimedOut);
    timed_out = true;
    // The held buffers' grants are legitimate; the timed-out acquire must
    // not have added any. Send them on so teardown drains cleanly.
    for (const SendBuf& buf : held.value()) {
      c->BindSendCap(*env.self, buf);
      EXPECT_TRUE((co_await c->Send(env, buf, 16)).ok());
    }
    c->Close();
  });
  kernel_.Spawn(b, "rx", [&](os::Env env) -> sim::Task<void> {
    while (true) {
      auto msg = co_await c->Recv(env);
      if (!msg.ok()) {
        EXPECT_EQ(msg.code(), ErrorCode::kBrokenChannel);
        co_return;
      }
      EXPECT_TRUE((co_await c->Release(env, msg.value())).ok());
    }
  });
  kernel_.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(c->LiveGrantCount(), 0u);
}

TEST_F(RobustnessTest, FanOutRecvBatchTimesOutAgainstWedgedProducer) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  std::vector<os::Process*> rxs{&dipc_.CreateDipcProcess("w0"), &dipc_.CreateDipcProcess("w1")};
  auto fr = Plane::Create(dipc_, prod, rxs, {.slots = 4, .buf_bytes = 256});
  ASSERT_TRUE(fr.ok());
  std::shared_ptr<Plane> fan = fr.value();
  bool checked = false;
  kernel_.Spawn(*rxs[0], "rx", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    const sim::Time deadline_at = k.now() + Duration::Millis(1);
    auto msgs = co_await fan->RecvBatch(env, 0, 4, os::Deadline::At(deadline_at));
    EXPECT_EQ(msgs.code(), ErrorCode::kTimedOut);
    EXPECT_LE(k.now(), deadline_at + Duration::Micros(1));
    EXPECT_EQ(fan->LiveGrantCount(), 0u);
    checked = true;
  });
  kernel_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(RobustnessTest, FanOutSendTimesOutWhenCreditsExhausted) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  std::vector<os::Process*> rxs{&dipc_.CreateDipcProcess("w0")};
  // credit line == slots == 2: two unconsumed sends exhaust admission.
  auto fr = Plane::Create(dipc_, prod, rxs, {.slots = 2, .buf_bytes = 256});
  ASSERT_TRUE(fr.ok());
  std::shared_ptr<Plane> fan = fr.value();
  bool timed_out = false;
  kernel_.Spawn(prod, "tx", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    for (int i = 0; i < 2; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      EXPECT_TRUE(buf.ok());
      EXPECT_TRUE((co_await fan->SendTo(env, 0, buf.value(), 16, 0)).ok());
    }
    // The receiver never releases: the third send must give up at its
    // deadline inside credit admission, still owning no slot.
    auto buf = co_await fan->AcquireBuf(env, 0, os::Deadline::After(k.now(), Duration::Millis(1)));
    EXPECT_EQ(buf.code(), ErrorCode::kTimedOut);
    timed_out = true;
  });
  kernel_.Run();
  EXPECT_TRUE(timed_out);
  // Two delivered-but-unconsumed messages hold their read grants; the
  // timed-out acquire added none on top.
  EXPECT_EQ(fan->credits(0), fan->credit_line() - 2);
}

TEST_F(RobustnessTest, PeerDeathBeatsPendingDeadline) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  std::vector<os::Process*> rxs{&dipc_.CreateDipcProcess("w0")};
  auto fr = Plane::Create(dipc_, prod, rxs, {.slots = 2, .buf_bytes = 256});
  ASSERT_TRUE(fr.ok());
  std::shared_ptr<Plane> fan = fr.value();
  bool checked = false;
  kernel_.Spawn(*rxs[0], "rx", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    const sim::Time deadline_at = k.now() + Duration::Millis(50);
    // The producer dies at ~1ms: the blocked receive must fail with the
    // death code well before its 50ms deadline, not sit out the timer.
    auto msg = co_await fan->Recv(env, 0, os::Deadline::At(deadline_at));
    EXPECT_FALSE(msg.ok());
    EXPECT_EQ(msg.code(), ErrorCode::kCalleeFailed);
    EXPECT_LT(k.now(), deadline_at - Duration::Millis(40));
    checked = true;
  });
  os::Process& reaper_home = dipc_.CreateDipcProcess("reaper-home");
  kernel_.Spawn(reaper_home, "reaper", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Millis(1));
    dipc_.KillProcess(prod);
  });
  kernel_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(RobustnessTest, SemaphoreWaitUntilTimesOutWithoutConsumingTokens) {
  os::Process& p = dipc_.CreateDipcProcess("p");
  auto sem = std::make_shared<os::Semaphore>(0);
  bool checked = false;
  kernel_.Spawn(p, "waiter", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    const sim::Time deadline_at = k.now() + Duration::Millis(1);
    auto s = co_await sem->WaitUntil(env, os::Deadline::At(deadline_at));
    EXPECT_EQ(s.code(), ErrorCode::kTimedOut);
    EXPECT_LE(k.now(), deadline_at + Duration::Micros(1));
    checked = true;
  });
  kernel_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(sem->count(), 0);
  EXPECT_EQ(sem->waiter_count(), 0u);
}

TEST_F(RobustnessTest, SemaphoreFailWakesParkedWaiterWithItsCode) {
  os::Process& p = dipc_.CreateDipcProcess("p");
  auto sem = std::make_shared<os::Semaphore>(0);
  bool checked = false;
  kernel_.Spawn(p, "waiter", [&](os::Env env) -> sim::Task<void> {
    auto s = co_await sem->WaitUntil(env, os::Deadline::Never());
    EXPECT_EQ(s.code(), ErrorCode::kBrokenChannel);
    checked = true;
  });
  kernel_.Spawn(p, "failer", [&](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Millis(1));
    sem->Fail(kernel_, ErrorCode::kBrokenChannel);
  });
  kernel_.Run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(sem->failed());
}

TEST_F(RobustnessTest, SemaphoreFailBeforeWaitFailsFast) {
  os::Process& p = dipc_.CreateDipcProcess("p");
  auto sem = std::make_shared<os::Semaphore>(0);
  sem->Fail(kernel_, ErrorCode::kCalleeFailed);
  bool checked = false;
  kernel_.Spawn(p, "waiter", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    const sim::Time start = k.now();
    auto s = co_await sem->WaitUntil(env, os::Deadline::After(k.now(), Duration::Millis(100)));
    EXPECT_EQ(s.code(), ErrorCode::kCalleeFailed);
    EXPECT_LT(k.now() - start, Duration::Micros(1));  // no park, no timer wait
    checked = true;
  });
  kernel_.Run();
  EXPECT_TRUE(checked);
}

// The historical hang: Fail() lands AFTER the user-space failed_/count_
// checks but BEFORE the futex park. The wakeup sweep finds no parked waiter,
// so without the in-kernel re-check the thread would park on an object
// nobody will ever post again. The window here is [t+9ns, t+~150ns] (user
// fast path, then kernel entry + futex-wait work); the Fail event at t+50ns
// lands squarely inside it.
TEST_F(RobustnessTest, SemaphoreFailInKernelEntryWindowDoesNotHang) {
  os::Process& p = dipc_.CreateDipcProcess("p");
  auto sem = std::make_shared<os::Semaphore>(0);
  bool checked = false;
  kernel_.Spawn(p, "waiter", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    k.machine().events().ScheduleAt(k.now() + Duration::Nanos(50), [&] {
      sem->Fail(kernel_, ErrorCode::kCalleeFailed);
    });
    auto s = co_await sem->WaitUntil(env, os::Deadline::Never());
    EXPECT_EQ(s.code(), ErrorCode::kCalleeFailed);
    checked = true;
  });
  kernel_.Run();  // terminating at all proves the no-hang property
  EXPECT_TRUE(checked);
}

// The supervisor's healing step: a receiver dies, OnProcessDeath sweeps its
// slot, RebindReceiver re-homes the slot to a fresh process, and delivery
// resumes with a full credit line. Undelivered messages to the dead
// incarnation are recycled, never delivered twice.
TEST_F(RobustnessTest, RebindReceiverRestoresDeliveryAfterDeath) {
  os::Process& prod = dipc_.CreateDipcProcess("producer");
  std::vector<os::Process*> rxs{&dipc_.CreateDipcProcess("w0"), &dipc_.CreateDipcProcess("w1")};
  auto fr = Plane::Create(dipc_, prod, rxs, {.slots = 4, .buf_bytes = 256});
  ASSERT_TRUE(fr.ok());
  std::shared_ptr<Plane> fan = fr.value();

  int delivered_to_fresh = 0;
  kernel_.Spawn(prod, "tx", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    // Phase 1: two messages parked at w0, which dies without consuming them.
    for (int i = 0; i < 2; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      EXPECT_TRUE(buf.ok());
      EXPECT_TRUE((co_await fan->SendTo(env, 0, buf.value(), 16, 0)).ok());
    }
    dipc_.KillProcess(*rxs[0]);
    EXPECT_FALSE(fan->receiver_alive(0));
    // Phase 2: heal slot 0 into a fresh process and verify the full credit
    // line came back (the dead incarnation's undelivered messages were
    // recycled by the sweep, not carried over).
    os::Process& fresh = dipc_.CreateDipcProcess("w0-respawn");
    EXPECT_TRUE(fan->RebindReceiver(0, fresh).ok());
    EXPECT_TRUE(fan->receiver_alive(0));
    EXPECT_EQ(fan->credits(0), fan->credit_line());
    kernel_.Spawn(fresh, "rx", [&](os::Env env2) -> sim::Task<void> {
      while (true) {
        auto msg = co_await fan->Recv(env2, 0);
        if (!msg.ok()) {
          EXPECT_EQ(msg.code(), ErrorCode::kBrokenChannel);
          co_return;
        }
        ++delivered_to_fresh;
        EXPECT_TRUE((co_await fan->Release(env2, 0, msg.value())).ok());
      }
    });
    for (int i = 0; i < 3; ++i) {
      auto buf = co_await fan->AcquireBuf(env, 0);
      EXPECT_TRUE(buf.ok());
      EXPECT_TRUE((co_await fan->SendTo(env, 0, buf.value(), 16, 0)).ok());
    }
    // Let the fresh receiver drain, then shut down in order.
    co_await k.Sleep(env, Duration::Millis(1));
    fan->Close();
  });
  kernel_.Run();
  EXPECT_EQ(delivered_to_fresh, 3);
  EXPECT_EQ(fan->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

}  // namespace
}  // namespace dipc::chan
