// Spin-then-park on empty channel queues (MpmcQueue::PopN): when a pop
// spins instead of parking, what ends the spin, how the spun time is
// billed, and the schedules in which spinning must not happen at all. And
// the wake-and-park handoff (os::DeferredWake) a queue wait takes instead:
// the FUTEX_SWAP park's cost and CPU, and every path that falls back to an
// ordinary wake.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "chan/channel.h"
#include "chan/futex.h"
#include "chan/mpmc_queue.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "os/deadline.h"
#include "os/kernel.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;
using sim::Time;

class ChanSpinTest : public ::testing::Test {
 protected:
  ChanSpinTest()
      : machine_(4),
        codoms_(machine_),
        kernel_(machine_, codoms_),
        dipc_(kernel_),
        prod_(dipc_.CreateDipcProcess("producer")),
        cons_(dipc_.CreateDipcProcess("consumer")) {
    hw::DomainTag tag = codoms_.apl_table().AllocateTag();
    codoms_.apl_table().Grant(prod_.default_domain(), tag, codoms::Perm::kWrite);
    codoms_.apl_table().Grant(cons_.default_domain(), tag, codoms::Perm::kWrite);
    q_ = std::make_unique<MpmcQueue>(kernel_, prod_, 4, tag);
  }

  // The producer (CPU 0) pushes 1, stays busy for `busy`, then does `then`
  // (push 2 by default). The consumer (CPU 1) pops 1 at t = 1 us, when the
  // producer is still running, so its next pop finds the queue empty with
  // a running last publisher and spins.
  void SpawnProducer(Duration busy, std::function<sim::Task<void>(os::Env)> then = {}) {
    kernel_.Spawn(
        prod_, "producer",
        [this, busy, then](os::Env env) -> sim::Task<void> {
          EXPECT_TRUE((co_await q_->Push(env, 1)).ok());
          co_await env.kernel->Spend(*env.self, busy, os::TimeCat::kUser);
          if (then) {
            co_await then(env);
          } else {
            EXPECT_TRUE((co_await q_->Push(env, 2)).ok());
            push_done_ = env.kernel->now();
          }
          co_await env.kernel->Spend(*env.self, Duration::Micros(5), os::TimeCat::kUser);
        },
        /*pin_cpu=*/0);
  }

  // Runs the consumer side: the warm-up pop, then `second` pop.
  void SpawnConsumer(std::function<sim::Task<void>(os::Env)> second) {
    kernel_.Spawn(
        cons_, "consumer",
        [this, second](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Micros(1));
          auto first = co_await q_->Pop(env);
          EXPECT_TRUE(first.ok() && first.value() == 1u);
          pop_called_ = env.kernel->now();
          co_await second(env);
        },
        /*pin_cpu=*/1);
  }

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
  core::Dipc dipc_;
  os::Process& prod_;
  os::Process& cons_;
  std::unique_ptr<MpmcQueue> q_;
  Time push_done_;
  Time pop_called_;
};

TEST_F(ChanSpinTest, BudgetIsTheParkPlusWakeCriticalPath) {
  static_assert(SpinBudget(hw::CostModel{}) == Duration::Nanos(1474));
  EXPECT_EQ(SpinBudget(kernel_.costs()), Duration::Nanos(1474));
  // A function of the cost model, not a knob of its own.
  hw::CostModel slow_ipi;
  slow_ipi.ipi_deliver += Duration::Nanos(1000);
  EXPECT_EQ(SpinBudget(slow_ipi), Duration::Nanos(2474));
}

TEST_F(ChanSpinTest, PushEndsTheSpinOneLineTransferLaterWithNoFutexWake) {
  SpawnProducer(Duration::Micros(2));
  os::TimeBreakdown cpu_before;
  os::TimeBreakdown cpu_after;
  sim::Duration proc_cpu;
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    cpu_before = kernel_.accounting().cpu(1);
    const sim::Duration proc_before = cons_.cpu_time();
    auto v = co_await q_->Pop(env);
    EXPECT_TRUE(v.ok() && v.value() == 2u);
    cpu_after = kernel_.accounting().cpu(1);
    proc_cpu = cons_.cpu_time() - proc_before;
  });
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  // The spin began after the pop's fast path and saw the push one cache
  // line transfer after the producer's push returned.
  EXPECT_EQ(kernel_.spun(), (push_done_ + cm.remote_transfer) - (pop_called_ + cm.chan_fast_path));
  EXPECT_LT(kernel_.spun(), SpinBudget(cm));
  EXPECT_EQ(q_->spin_hits(), 1u);
  EXPECT_EQ(q_->spin_misses(), 0u);
  EXPECT_EQ(q_->blocked_pops(), 0u);
  EXPECT_EQ(q_->futex_wakes(), 0u);  // a spinner is not a futex waiter
  // The whole pop, spin included, is user time of the spinner's CPU and
  // process: no syscall, no idle gap, no dispatch.
  const os::TimeBreakdown d = cpu_after - cpu_before;
  EXPECT_EQ(d[os::TimeCat::kUser], d.Total());
  EXPECT_GE(d[os::TimeCat::kUser], kernel_.spun());
  EXPECT_EQ(proc_cpu, d[os::TimeCat::kUser]);
}

TEST_F(ChanSpinTest, SpinThatOutlastsTheBudgetParksAndCountsAMiss) {
  SpawnProducer(Duration::Micros(5));
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    auto v = co_await q_->Pop(env);
    EXPECT_TRUE(v.ok() && v.value() == 2u);
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.spun(), SpinBudget(kernel_.costs()));
  EXPECT_EQ(q_->spin_hits(), 0u);
  EXPECT_EQ(q_->spin_misses(), 1u);
  EXPECT_EQ(q_->blocked_pops(), 1u);  // parks only: the spin is not one
  EXPECT_EQ(q_->futex_wakes(), 1u);   // the parked consumer needs the wake
}

TEST_F(ChanSpinTest, CloseAndFailEndTheSpinWithTheirCode) {
  for (ErrorCode code : {ErrorCode::kBrokenChannel, ErrorCode::kCalleeFailed}) {
    SCOPED_TRACE(static_cast<int>(code));
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& p = dipc.CreateDipcProcess("p");
    MpmcQueue q(kernel, p, 4, p.default_domain());
    Time closed_at;
    kernel.Spawn(
        p, "producer",
        [&](os::Env env) -> sim::Task<void> {
          EXPECT_TRUE((co_await q.Push(env, 1)).ok());
          co_await env.kernel->Spend(*env.self, Duration::Micros(2), os::TimeCat::kUser);
          closed_at = env.kernel->now();
          if (code == ErrorCode::kBrokenChannel) {
            q.Close();
          } else {
            q.Fail(code);
          }
        },
        0);
    ErrorCode got = ErrorCode::kOk;
    Time returned_at;
    kernel.Spawn(
        p, "consumer",
        [&](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Micros(1));
          EXPECT_TRUE((co_await q.Pop(env)).ok());
          got = (co_await q.Pop(env)).code();
          returned_at = env.kernel->now();
        },
        1);
    kernel.Run();
    EXPECT_EQ(got, code);
    EXPECT_EQ(returned_at, closed_at + kernel.costs().remote_transfer);
    EXPECT_GT(kernel.spun(), Duration::Zero());
    EXPECT_EQ(q.blocked_pops(), 0u);
    EXPECT_EQ(q.spin_hits() + q.spin_misses(), 0u);
  }
}

TEST_F(ChanSpinTest, DeadlineEndsTheSpinWithTimedOut) {
  SpawnProducer(Duration::Micros(5));
  Time deadline_at;
  Time returned_at;
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    deadline_at = env.kernel->now() + Duration::Nanos(300);
    auto v = co_await q_->Pop(env, os::Deadline::At(deadline_at));
    EXPECT_EQ(v.code(), ErrorCode::kTimedOut);
    returned_at = env.kernel->now();
  });
  kernel_.Run();
  EXPECT_EQ(returned_at, deadline_at);
  EXPECT_EQ(kernel_.spun(), Duration::Nanos(300) - kernel_.costs().chan_fast_path);
  EXPECT_EQ(q_->timeouts(), 1u);
  EXPECT_EQ(q_->blocked_pops(), 0u);
  EXPECT_EQ(q_->spin_misses(), 0u);
}

TEST_F(ChanSpinTest, AcquireThatTimesOutMidSpinLeaksNoGrant) {
  // One slot: the second AcquireBuf finds the pool empty while the
  // receiver (its last publisher, through Release) is busy with message 2.
  auto ch = Channel::Create(dipc_, prod_, cons_, {.slots = 1, .buf_bytes = 64});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Channel> c = ch.value();
  uint64_t live_after_timeout = 99;
  kernel_.Spawn(
      prod_, "sender",
      [&, c](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 2; ++i) {
          auto b = co_await c->AcquireBuf(env);
          DIPC_CHECK(b.ok());
          EXPECT_TRUE((co_await c->Send(env, b.value(), 8)).ok());
        }
        auto late = co_await c->AcquireBuf(
            env, os::Deadline::After(env.kernel->now(), Duration::Nanos(500)));
        EXPECT_EQ(late.code(), ErrorCode::kTimedOut);
        live_after_timeout = c->LiveGrantCount();
      },
      0);
  kernel_.Spawn(
      cons_, "receiver",
      [&, c](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 2; ++i) {
          auto m = co_await c->Recv(env);
          DIPC_CHECK(m.ok());
          co_await env.kernel->Spend(*env.self, Duration::Micros(3), os::TimeCat::kUser);
          EXPECT_TRUE((co_await c->Release(env, m.value())).ok());
        }
      },
      1);
  kernel_.Run();
  EXPECT_GT(kernel_.spun(), Duration::Zero());
  EXPECT_EQ(live_after_timeout, 1u);  // message 2's read grant, nothing more
  EXPECT_EQ(c->LiveGrantCount(), 0u);
  EXPECT_EQ(codoms_.revocations().live_count(), 0u);
}

TEST_F(ChanSpinTest, ThreadQueuedOnTheSpinnersCpuEndsTheSpin) {
  SpawnProducer(Duration::Micros(5));
  bool intruder_ran = false;
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    // Half a microsecond into the pop, a thread pinned here becomes runnable.
    machine_.events().ScheduleAfter(Duration::Nanos(500), [&] {
      kernel_.Spawn(
          cons_, "intruder",
          [&](os::Env) -> sim::Task<void> {
            intruder_ran = true;
            co_return;
          },
          /*pin_cpu=*/1);
    });
    auto v = co_await q_->Pop(env);
    EXPECT_TRUE(v.ok() && v.value() == 2u);
  });
  kernel_.Run();
  EXPECT_TRUE(intruder_ran);
  // need_resched: the spin ended the instant the intruder was queued, and
  // the consumer parked to give it the CPU.
  EXPECT_EQ(kernel_.spun(), Duration::Nanos(500) - kernel_.costs().chan_fast_path);
  EXPECT_EQ(q_->spin_misses(), 1u);
  EXPECT_EQ(q_->blocked_pops(), 1u);
}

TEST_F(ChanSpinTest, WaiterParksAtOnceWhenItsLastPublisherIsParked) {
  SpawnProducer(Duration::Zero(), [this](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(5));  // parked, not running
    EXPECT_TRUE((co_await q_->Push(env, 2)).ok());
  });
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    auto v = co_await q_->Pop(env);
    EXPECT_TRUE(v.ok() && v.value() == 2u);
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.spun(), Duration::Zero());
  EXPECT_EQ(q_->spin_hits() + q_->spin_misses(), 0u);
  EXPECT_EQ(q_->blocked_pops(), 1u);
}

TEST_F(ChanSpinTest, WaiterParksAtOnceWhenItsLastPublisherWaitsInARunQueue) {
  // The producer wakes from a short sleep onto CPU 0, which a hog holds:
  // it sits in CPU 0's run queue when the consumer finds the queue empty.
  SpawnProducer(Duration::Zero(), [this](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Nanos(100));
    EXPECT_TRUE((co_await q_->Push(env, 2)).ok());
  });
  kernel_.Spawn(
      prod_, "hog",
      [](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Spend(*env.self, Duration::Micros(10), os::TimeCat::kUser);
      },
      /*pin_cpu=*/0);
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    auto v = co_await q_->Pop(env);
    EXPECT_TRUE(v.ok() && v.value() == 2u);
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.spun(), Duration::Zero());
  EXPECT_EQ(q_->spin_hits() + q_->spin_misses(), 0u);
  EXPECT_EQ(q_->blocked_pops(), 1u);
}

// ---- Wake-and-park ----
//
// A consumer parks on q_ (unpinned, so it starts on CPU 0); a waker pinned
// to CPU 1 pushes to q_ once it is parked, taking the wake back, and then
// waits on a queue of its own (`mine`) with the wake in hand.

TEST_F(ChanSpinTest, FutexSwapRunsTheWaiterOnTheWakersCpuAndKeepsTheWakersDeadline) {
  os::WaitQueue qa;
  os::WaitQueue qb;
  bool a_blocked = true;
  bool b_blocked = true;
  const hw::CostModel& cm = kernel_.costs();
  Time park_began;
  Time waiter_back;
  Time waker_back;
  hw::CpuId waiter_cpu = 0;
  size_t parked_on_qb = 0;
  bool waker_timed_out = false;
  kernel_.Spawn(cons_, "waiter", [&](os::Env env) -> sim::Task<void> {
    (void)co_await FutexBlockUntil(env, qa, os::Deadline::Never(), [&] { return a_blocked; });
    waiter_back = env.kernel->now();
    waiter_cpu = env.self->last_cpu();
    parked_on_qb = qb.size();
  });
  kernel_.Spawn(
      prod_, "waker",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        a_blocked = false;
        os::DeferredWake wake = qa.TakeForSwap(env);
        EXPECT_TRUE(static_cast<bool>(wake));
        park_began = env.kernel->now();
        waker_timed_out = co_await FutexBlockUntil(
            env, qb, os::Deadline::After(park_began, Duration::Micros(5)), std::move(wake),
            [&] { return b_blocked; });
        waker_back = env.kernel->now();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  // On the waker's CPU, one syscall entry, the kernel's wait and wake work
  // and a register save/restore after the park began — no IPI, idle exit
  // or scheduler pick — then the waiter's own sysret.
  EXPECT_EQ(waiter_cpu, 1u);
  EXPECT_EQ(waiter_back - park_began,
            cm.syscall_trap + cm.syscall_dispatch + os::kFutexWaitKernel +
                os::kFutexWakeKernel + cm.register_save + cm.register_restore +
                cm.sysret);
  EXPECT_EQ(kernel_.handoffs(), 1u);
  // The waker parked on its own queue, and its deadline timer fired there.
  EXPECT_EQ(parked_on_qb, 1u);
  EXPECT_TRUE(waker_timed_out);
  EXPECT_GE(waker_back - park_began, Duration::Micros(5));
}

// Runs the shape above with `between` run after the push to q_ and before
// the waker's pop on `mine`; returns the waker's CPU-1 time across that pop.
os::TimeBreakdown WakerPopCost(os::Kernel& kernel, os::Process& prod, os::Process& cons,
                               MpmcQueue& q, MpmcQueue& mine, hw::CpuId* consumer_cpu,
                               std::function<void()> between) {
  os::TimeBreakdown cost;
  kernel.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await q.Pop(env)).ok());
    *consumer_cpu = env.self->last_cpu();
  });
  kernel.Spawn(
      prod, "waker",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        os::DeferredWake wake;
        const uint64_t v = 1;
        EXPECT_TRUE((co_await q.PushN(env, std::span(&v, 1), nullptr, {}, &wake)).ok());
        EXPECT_TRUE(static_cast<bool>(wake));
        between();
        const os::TimeBreakdown before = env.kernel->accounting().cpu(1);
        uint64_t out = 0;
        (void)co_await mine.PopN(env, std::span(&out, 1), {}, std::move(wake));
        cost = env.kernel->accounting().cpu(1) - before;
      },
      /*pin_cpu=*/1);
  kernel.Run();
  return cost;
}

TEST_F(ChanSpinTest, PopThatFindsSlotsQueuedIssuesItsDeferredWakeAtFullCost) {
  MpmcQueue mine(kernel_, prod_, 4, prod_.default_domain());
  mine.Prime(7);
  hw::CpuId consumer_cpu = 1;
  const os::TimeBreakdown d =
      WakerPopCost(kernel_, prod_, cons_, *q_, mine, &consumer_cpu, [] {});
  // One FUTEX_WAKE syscall with its kernel work and the IPI to the
  // consumer's idle CPU; the consumer went through the scheduler there.
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(d[os::TimeCat::kSyscallDispatch], cm.syscall_dispatch);
  EXPECT_EQ(d[os::TimeCat::kKernel], os::kFutexWakeKernel + cm.ipi_send);
  EXPECT_EQ(consumer_cpu, 0u);
  EXPECT_EQ(kernel_.handoffs(), 0u);
  EXPECT_EQ(q_->futex_wakes(), 1u);  // the deferred wake counts once
  EXPECT_EQ(mine.blocked_pops(), 0u);
}

TEST_F(ChanSpinTest, CloseBetweenThePublishAndThePopIssuesTheDeferredWakeAtFullCost) {
  MpmcQueue mine(kernel_, prod_, 4, prod_.default_domain());
  hw::CpuId consumer_cpu = 1;
  const os::TimeBreakdown d =
      WakerPopCost(kernel_, prod_, cons_, *q_, mine, &consumer_cpu, [&mine] { mine.Close(); });
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(d[os::TimeCat::kSyscallDispatch], cm.syscall_dispatch);
  EXPECT_EQ(d[os::TimeCat::kKernel], os::kFutexWakeKernel + cm.ipi_send);
  EXPECT_EQ(consumer_cpu, 0u);
  EXPECT_EQ(kernel_.handoffs(), 0u);
  EXPECT_EQ(mine.blocked_pops(), 0u);
}

TEST_F(ChanSpinTest, InjectedWakeDropAlsoDropsADeferredWakeAndTheDeadlineRecovers) {
#ifdef DIPC_FAULT_OFF
  GTEST_SKIP() << "fault injection compiled out (-DDIPC_FAULT_OFF)";
#else
  auto plan = fault::Plan::Parse("rule chan/futex_wake drop_wake at=1\n");
  ASSERT_TRUE(plan.ok());
  fault::Injector::Global().Arm(plan.value(), &machine_.events());
  const Time deadline = Time::Zero() + Duration::Micros(20);
  Time consumer_back;
  uint64_t got = 0;
  bool deferred = true;
  kernel_.Spawn(cons_, "consumer", [&](os::Env env) -> sim::Task<void> {
    auto v = co_await q_->Pop(env, os::Deadline::At(deadline));
    EXPECT_TRUE(v.ok());
    got = v.ok() ? v.value() : 0;
    consumer_back = env.kernel->now();
  });
  kernel_.Spawn(
      prod_, "waker",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        os::DeferredWake wake;
        const uint64_t v = 1;
        EXPECT_TRUE((co_await q_->PushN(env, std::span(&v, 1), nullptr, {}, &wake)).ok());
        deferred = static_cast<bool>(wake);
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  fault::Injector::Global().Disarm();
  EXPECT_FALSE(deferred);  // dropped, not handed back
  EXPECT_EQ(got, 1u);      // the parked pop's deadline found the slot
  EXPECT_GE(consumer_back, deadline);
  EXPECT_EQ(q_->timeouts(), 0u);
  EXPECT_EQ(q_->futex_wakes(), 0u);
  EXPECT_EQ(kernel_.handoffs(), 0u);
#endif
}

TEST_F(ChanSpinTest, PopHoldingADeferredWakeNeverSpins) {
  // `mine`'s last publisher stays on CPU 2, so an empty pop of `mine`
  // would spin — but this one owes its CPU to the consumer it deferred.
  MpmcQueue mine(kernel_, prod_, 4, prod_.default_domain());
  hw::CpuId consumer_cpu = 0;
  uint64_t second = 0;
  kernel_.Spawn(cons_, "consumer", [&](os::Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await q_->Pop(env)).ok());
    consumer_cpu = env.self->last_cpu();
  });
  kernel_.Spawn(
      prod_, "publisher",
      [&](os::Env env) -> sim::Task<void> {
        EXPECT_TRUE((co_await mine.Push(env, 1)).ok());
        co_await env.kernel->Spend(*env.self, Duration::Micros(10), os::TimeCat::kUser);
        EXPECT_TRUE((co_await mine.Push(env, 2)).ok());
      },
      /*pin_cpu=*/2);
  kernel_.Spawn(
      prod_, "waker",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        EXPECT_TRUE((co_await mine.Pop(env)).ok());
        os::DeferredWake wake;
        const uint64_t v = 1;
        EXPECT_TRUE((co_await q_->PushN(env, std::span(&v, 1), nullptr, {}, &wake)).ok());
        uint64_t out = 0;
        EXPECT_TRUE((co_await mine.PopN(env, std::span(&out, 1), {}, std::move(wake))).ok());
        second = out;
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  EXPECT_EQ(second, 2u);
  EXPECT_EQ(kernel_.spun(), Duration::Zero());
  EXPECT_EQ(mine.spin_hits() + mine.spin_misses(), 0u);
  EXPECT_EQ(mine.blocked_pops(), 1u);
  EXPECT_EQ(kernel_.handoffs(), 1u);
  EXPECT_EQ(consumer_cpu, 1u);
}

TEST_F(ChanSpinTest, PushThatParksForRoomSwapsToTheConsumerItDeferred) {
  // Six values into a 4-slot queue: the first chunk fills it and defers the
  // parked consumer's wake, so the push's own park for room must switch to
  // that consumer — it is the only thread that can free a slot.
  std::vector<uint64_t> got;
  kernel_.Spawn(cons_, "consumer", [&](os::Env env) -> sim::Task<void> {
    while (got.size() < 6) {
      auto v = co_await q_->Pop(env);
      EXPECT_TRUE(v.ok());
      got.push_back(v.ok() ? v.value() : 0);
    }
  });
  kernel_.Spawn(
      prod_, "producer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(1));
        os::DeferredWake wake;
        const uint64_t values[] = {1, 2, 3, 4, 5, 6};
        EXPECT_TRUE((co_await q_->PushN(env, values, nullptr, {}, &wake)).ok());
        if (wake) {
          co_await os::FutexWake(env, *wake.Take());
        }
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_GE(q_->blocked_pushes(), 1u);
  EXPECT_GE(kernel_.handoffs(), 1u);
}

// A DuplexChannel ping-pong between a client and a server thread; returns
// the number of completed calls.
int RunPingPong(core::Dipc& dipc, int client_cpu, int server_cpu, int calls, int warmup,
                os::TimeBreakdown* steady, uint64_t* steady_switches) {
  os::Kernel& kernel = dipc.kernel();
  os::Process& client = dipc.CreateDipcProcess("client");
  os::Process& server = dipc.CreateDipcProcess("server");
  auto dx = DuplexChannel::Create(dipc, client, server, {.slots = 2, .buf_bytes = 256});
  DIPC_CHECK(dx.ok());
  std::shared_ptr<DuplexEndpoint> cli = dx.value()->a_end();
  std::shared_ptr<DuplexEndpoint> srv = dx.value()->b_end();
  kernel.Spawn(
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
      server_cpu);
  int done = 0;
  os::TimeBreakdown before;
  uint64_t switches_before = 0;
  kernel.Spawn(
      client, "client",
      [&, cli](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < calls; ++i) {
          if (i == warmup) {
            before = kernel.accounting().Summed();
            switches_before = kernel.context_switches();
          }
          auto buf = co_await cli->AcquireBuf(env);
          DIPC_CHECK(buf.ok());
          EXPECT_TRUE((co_await cli->Send(env, buf.value(), 64)).ok());
          auto resp = co_await cli->Recv(env);
          DIPC_CHECK(resp.ok());
          EXPECT_TRUE((co_await cli->Release(env, resp.value())).ok());
          ++done;
        }
        if (steady != nullptr) {
          *steady = kernel.accounting().Summed() - before;
          *steady_switches = kernel.context_switches() - switches_before;
        }
        cli->Close();
      },
      client_cpu);
  kernel.Run();
  return done;
}

TEST_F(ChanSpinTest, CrossCpuDuplexPingPongMakesNoFutexWakesAfterWarmup) {
  os::TimeBreakdown steady;
  uint64_t switches = 0;
  ASSERT_EQ(RunPingPong(dipc_, 0, 1, 200, 10, &steady, &switches), 200);
  // Both sides spin for the other's reply: after warm-up no FUTEX_WAKE (or
  // FUTEX_WAIT) syscall is made, nothing is dispatched, no CPU idles
  // through an IPI.
  EXPECT_EQ(steady[os::TimeCat::kSyscallCrossing], Duration::Zero());
  EXPECT_EQ(steady[os::TimeCat::kKernel], Duration::Zero());
  EXPECT_EQ(steady[os::TimeCat::kSchedule], Duration::Zero());
  EXPECT_EQ(switches, 0u);
  EXPECT_GT(kernel_.spun(), Duration::Zero());
}

TEST_F(ChanSpinTest, PingPongPinnedToOneCpuSpinsZeroNanoseconds) {
  // Each side's peer waits for the same CPU (need_resched) or sits in its
  // run queue, so every wait parks at once: spinning would only delay the
  // peer the waiter is waiting for.
  ASSERT_EQ(RunPingPong(dipc_, 0, 0, 50, 0, nullptr, nullptr), 50);
  EXPECT_EQ(kernel_.spun(), Duration::Zero());
}

}  // namespace
}  // namespace dipc::chan
