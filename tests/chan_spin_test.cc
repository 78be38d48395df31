// The futex core's spin rule (os/futex.h) on channel waits: when an empty
// pop, a full push or a credit-line wait spins instead of parking, what ends
// the spin, how the spun time is billed, and the schedules in which
// spinning must not happen at all. And the wake-and-park handoff
// (os::DeferredWake) a queue wait takes instead: the FUTEX_SWAP park's cost
// and CPU, and every path that falls back to an ordinary wake.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chan/channel.h"
#include "chan/futex.h"
#include "chan/mpmc_queue.h"
#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "obs/metrics.h"
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

  // The producer (CPU 0) pushes 1, stays busy for 2 us, notes `left_at_`
  // and leaves its CPU through `leave` (an empty one exits). A late pusher
  // (CPU 2), asleep until then, pushes 2 at t = 6 us. The consumer's second
  // pop spins on the producer until it leaves, then parks until the late
  // push wakes it.
  void SpawnLeavingPublisher(std::function<sim::Task<void>(os::Env)> leave) {
    kernel_.Spawn(
        prod_, "producer",
        [this, leave](os::Env env) -> sim::Task<void> {
          EXPECT_TRUE((co_await q_->Push(env, 1)).ok());
          co_await env.kernel->Spend(*env.self, Duration::Micros(2), os::TimeCat::kUser);
          left_at_ = env.kernel->now();
          if (leave) {
            co_await leave(env);
          }
        },
        /*pin_cpu=*/0);
    kernel_.Spawn(
        prod_, "late",
        [this](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Micros(6));
          EXPECT_TRUE((co_await q_->Push(env, 2)).ok());
        },
        /*pin_cpu=*/2);
    SpawnConsumer([this](os::Env env) -> sim::Task<void> {
      auto v = co_await q_->Pop(env);
      EXPECT_TRUE(v.ok() && v.value() == 2u);
    });
  }

  // SpawnLeavingPublisher's outcome: the spin ended one line transfer after
  // the producer left its CPU, `leave_cost` after `left_at_`; it missed, and
  // the consumer parked until the late push's FUTEX_WAKE. `other_spins` is
  // what other threads spun meanwhile.
  void ExpectTheSpinEndedWhenThePublisherLeft(Duration leave_cost,
                                              Duration other_spins = Duration::Zero()) {
    const hw::CostModel& cm = kernel_.costs();
    EXPECT_EQ(kernel_.spun() - other_spins,
              (left_at_ + leave_cost + cm.remote_transfer) - (pop_called_ + cm.chan_fast_path));
    EXPECT_EQ(q_->spin_hits(), 0u);
    EXPECT_EQ(q_->spin_misses(), 1u);
    EXPECT_EQ(q_->blocked_pops(), 1u);
    EXPECT_EQ(q_->futex_wakes(), 1u);
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
  Time left_at_;
};

// A FUTEX_WAIT's way into the kernel: what a park costs its thread before
// it leaves the CPU.
Duration KernelEntryOfAPark(const hw::CostModel& cm) {
  return cm.syscall_trap + cm.syscall_dispatch + os::kFutexWaitKernel;
}

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

TEST_F(ChanSpinTest, SpinLastsWhileThePublisherRuns) {
  // The producer stays busy on its CPU for 5 us, longer than a park and its
  // wake would take the consumer (SpinBudget): no time budget cuts the spin
  // short, so the push ends it.
  SpawnProducer(Duration::Micros(5));
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    auto v = co_await q_->Pop(env);
    EXPECT_TRUE(v.ok() && v.value() == 2u);
  });
  obs::Counter* spun_ns = obs::Registry::Default().GetCounter("os/sched/spun_ns");
  const uint64_t spun_ns_before = spun_ns->value();
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(kernel_.spun(), (push_done_ + cm.remote_transfer) - (pop_called_ + cm.chan_fast_path));
  EXPECT_GT(kernel_.spun(), SpinBudget(cm));
  EXPECT_EQ(q_->spin_hits(), 1u);
  EXPECT_EQ(q_->spin_misses(), 0u);
  EXPECT_EQ(q_->blocked_pops(), 0u);
  EXPECT_EQ(q_->futex_wakes(), 0u);
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(spun_ns->value() - spun_ns_before, static_cast<uint64_t>(kernel_.spun().picos() / 1000));
#endif
  (void)spun_ns_before;
}

// The cache-model accesses between two snapshots.
hw::CacheStats Delta(const hw::CacheStats& after, const hw::CacheStats& before) {
  return {after.l1_hits - before.l1_hits, after.l2_hits - before.l2_hits,
          after.l3_hits - before.l3_hits, after.mem_accesses - before.mem_accesses,
          after.remote_transfers - before.remote_transfers};
}

TEST_F(ChanSpinTest, SpunPopPaysOneLineTransferForItsCellAndReadsItFromL1) {
  // The push that ends the spin writes value 2 into the line the producer
  // already holds (an L1 hit on its CPU). The spin ends when that line
  // reaches the consumer: its one remote transfer. The pop's own read of
  // the cell that follows is an L1 hit, not a second transfer.
  SpawnProducer(Duration::Micros(2));
  hw::CacheStats before;
  hw::CacheStats after;
  Time returned;
  SpawnConsumer([&](os::Env env) -> sim::Task<void> {
    before = machine_.caches().stats();
    auto v = co_await q_->Pop(env);
    EXPECT_TRUE(v.ok() && v.value() == 2u);
    after = machine_.caches().stats();
    returned = env.kernel->now();
  });
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(q_->spin_hits(), 1u);
  const hw::CacheStats d = Delta(after, before);
  EXPECT_EQ(d.remote_transfers, 1u);
  EXPECT_EQ(d.l1_hits, 2u);  // the push's write and the pop's read
  EXPECT_EQ(d.l2_hits + d.l3_hits + d.mem_accesses, 0u);
  // After the spin, the pop pays its read's L1 hit and APL check only.
  const Time spin_end = push_done_ + cm.remote_transfer;
  EXPECT_EQ(kernel_.spun(), spin_end - (pop_called_ + cm.chan_fast_path));
  EXPECT_EQ(returned - spin_end, cm.l1_hit + cm.apl_cache_lookup);
}

TEST_F(ChanSpinTest, EachSpinEndsWhenTheHeadCellReachesItsSpinnerAlsoThroughAWakeChain) {
  // A 16-slot queue. Eight warm-up values fill the first line of its ring
  // (slots 0-7) and give each consumer's CPU its TLB and APL entries; the
  // next two values land in slots 8 and 9, a line no consumer has read.
  // Consumers A, B and C (CPUs 1, 2, 3) then spin on the empty queue in
  // that order while the producer runs, and one push of two values ends
  // A's and B's spins. A's read of the line is the remote transfer; B's,
  // after it, finds the line in L3, so B resumes first and takes value 9.
  // Its pop leaves value 10 queued with C still spinning: the wake chain
  // ends C's spin when the new head cell's line reaches C, from L3 too. A
  // finds the queue empty and times out.
  const hw::DomainTag tag = codoms_.apl_table().AllocateTag();
  codoms_.apl_table().Grant(prod_.default_domain(), tag, codoms::Perm::kWrite);
  codoms_.apl_table().Grant(cons_.default_domain(), tag, codoms::Perm::kWrite);
  MpmcQueue q(kernel_, prod_, 16, tag);
  Time push_done;
  kernel_.Spawn(
      prod_, "producer",
      [&](os::Env env) -> sim::Task<void> {
        const uint64_t warm[] = {1, 2, 3, 4, 5, 6, 7, 8};
        EXPECT_TRUE((co_await q.PushN(env, warm)).ok());
        co_await env.kernel->Spend(*env.self, Duration::Micros(3), os::TimeCat::kUser);
        const uint64_t two[] = {9, 10};
        EXPECT_TRUE((co_await q.PushN(env, two)).ok());
        push_done = env.kernel->now();
        co_await env.kernel->Spend(*env.self, Duration::Micros(5), os::TimeCat::kUser);
      },
      /*pin_cpu=*/0);
  uint64_t got[3] = {};
  Time returned[3];
  ErrorCode a_got = ErrorCode::kOk;
  for (int c = 0; c < 3; ++c) {
    kernel_.Spawn(
        cons_, "consumer",
        [&, c](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Nanos(500 + 100 * c));
          for (int i = 0; i < (c == 0 ? 6 : 1); ++i) {
            EXPECT_TRUE((co_await q.Pop(env)).ok());
          }
          auto v = co_await q.Pop(env, os::Deadline::At(Time::Zero() + Duration::Micros(20)));
          returned[c] = env.kernel->now();
          if (c == 0) {
            a_got = v.code();
          } else if (v.ok()) {
            got[c] = v.value();
          }
        },
        /*pin_cpu=*/1 + c);
  }
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(got[1], 9u);
  EXPECT_EQ(got[2], 10u);
  EXPECT_EQ(a_got, ErrorCode::kTimedOut);
  // After each spin, the pop's read of the cell is an L1 hit.
  const Duration read = cm.l1_hit + cm.apl_cache_lookup;
  EXPECT_EQ(returned[1] - push_done, cm.l3_hit + read);
  EXPECT_EQ(returned[2] - returned[1], cm.l3_hit + read);
  EXPECT_EQ(q.spin_hits(), 2u);
  EXPECT_EQ(q.spin_misses(), 1u);  // A's spins fell through to a park when the producer left
}

TEST_F(ChanSpinTest, AcquireThatSpunOnAnEmptyPoolPaysOneLineTransferForItsSlot) {
  // One slot. The receiver holds message 1 on its CPU for 3 us, so the
  // sender's third AcquireBuf finds the free pool empty with its last
  // publisher running, and spins until the receiver's Release pushes the
  // slot back (an L1 hit on the receiver's CPU, which pushed it last time
  // too). The spin ends when the pool's head cell reaches the sender: one
  // remote transfer, and the pop's read of the cell is an L1 hit.
  auto ch = Channel::Create(dipc_, prod_, cons_, {.slots = 1, .buf_bytes = 64});
  ASSERT_TRUE(ch.ok());
  std::shared_ptr<Channel> c = ch.value();
  hw::CacheStats before;
  hw::CacheStats after;
  Time acquire_called;
  Time acquired;
  Time released;
  Duration spun_in_acquire;
  kernel_.Spawn(
      prod_, "sender",
      [&, c](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 3; ++i) {
          if (i == 2) {
            co_await env.kernel->Spend(*env.self, Duration::Micros(1), os::TimeCat::kUser);
            before = machine_.caches().stats();
            acquire_called = env.kernel->now();
          }
          const Duration spun_before = env.kernel->spun();
          auto b = co_await c->AcquireBuf(env);
          DIPC_CHECK(b.ok());
          if (i == 2) {
            after = machine_.caches().stats();
            acquired = env.kernel->now();
            spun_in_acquire = env.kernel->spun() - spun_before;
          }
          EXPECT_TRUE((co_await c->Send(env, b.value(), 8)).ok());
        }
      },
      0);
  kernel_.Spawn(
      cons_, "receiver",
      [&, c](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 3; ++i) {
          auto m = co_await c->Recv(env);
          DIPC_CHECK(m.ok());
          if (i == 1) {
            co_await env.kernel->Spend(*env.self, Duration::Micros(3), os::TimeCat::kUser);
          }
          EXPECT_TRUE((co_await c->Release(env, m.value())).ok());
          if (i == 1) {
            released = env.kernel->now();
          }
        }
      },
      1);
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  const Time spin_end = released + cm.remote_transfer;
  EXPECT_EQ(spun_in_acquire, spin_end - (acquire_called + cm.chan_fast_path));
  // After its spin the acquire pays no second transfer for the pool's cell.
  EXPECT_LT(acquired - spin_end, cm.remote_transfer) << (acquired - spin_end).nanos() << " ns";
  const hw::CacheStats d = Delta(after, before);
  EXPECT_EQ(d.remote_transfers, 1u);
  EXPECT_EQ(d.l1_hits, 2u);  // the release's write and the acquire's read
  EXPECT_EQ(d.l2_hits + d.l3_hits + d.mem_accesses, 0u);
  EXPECT_EQ(c->LiveGrantCount(), 0u);
}

TEST_F(ChanSpinTest, PublisherThatParksEndsTheSpinAndTheWaiterParks) {
  os::WaitQueue elsewhere;
  bool blocked = true;
  SpawnLeavingPublisher([&](os::Env env) -> sim::Task<void> {
    (void)co_await os::FutexBlockUntil(
        env, elsewhere, os::Deadline::After(env.kernel->now(), Duration::Micros(10)),
        [&] { return blocked; });
  });
  kernel_.Run();
  ExpectTheSpinEndedWhenThePublisherLeft(KernelEntryOfAPark(kernel_.costs()));
}

TEST_F(ChanSpinTest, PublisherThatSwapsEndsTheSpinAndTheWaiterParks) {
  // The producer's park is a FUTEX_SWAP to a thread parked on `qa`, which
  // then runs on the producer's CPU: the producer left it all the same.
  os::WaitQueue qa;
  os::WaitQueue qb;
  bool a_blocked = true;
  bool b_blocked = true;
  kernel_.Spawn(
      prod_, "swapped_to",
      [&](os::Env env) -> sim::Task<void> {
        (void)co_await os::FutexBlockUntil(env, qa, os::Deadline::Never(),
                                           [&] { return a_blocked; });
      },
      /*pin_cpu=*/0);
  SpawnLeavingPublisher([&](os::Env env) -> sim::Task<void> {
    a_blocked = false;
    os::DeferredWake wake = qa.TakeForSwap(env);
    EXPECT_TRUE(static_cast<bool>(wake));
    (void)co_await os::FutexBlockUntil(
        env, qb, os::Deadline::After(env.kernel->now(), Duration::Micros(10)), std::move(wake),
        [&] { return b_blocked; });
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.handoffs(), 1u);
  ExpectTheSpinEndedWhenThePublisherLeft(KernelEntryOfAPark(kernel_.costs()));
}

TEST_F(ChanSpinTest, PublisherThatSleepsEndsTheSpinAndTheWaiterParks) {
  SpawnLeavingPublisher([](os::Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(10));
  });
  kernel_.Run();
  ExpectTheSpinEndedWhenThePublisherLeft(Duration::Zero());
}

TEST_F(ChanSpinTest, PublisherThatExitsEndsTheSpinAndTheWaiterParks) {
  SpawnLeavingPublisher({});
  kernel_.Run();
  ExpectTheSpinEndedWhenThePublisherLeft(Duration::Zero());
}

TEST_F(ChanSpinTest, PublisherThatSpinsEndsTheSpinAndTheWaiterParks) {
  // The producer's own pop of `other`, whose publisher keeps running on CPU
  // 3, spins. A spinning publisher publishes nothing, so the consumer's spin
  // ends as the producer's begins; the producer's ends when `other`'s
  // publisher exits.
  MpmcQueue other(kernel_, prod_, 4, prod_.default_domain());
  Time other_publisher_exits;
  kernel_.Spawn(
      prod_, "other_publisher",
      [&](os::Env env) -> sim::Task<void> {
        EXPECT_TRUE((co_await other.Push(env, 1)).ok());
        co_await env.kernel->Spend(*env.self, Duration::Micros(10), os::TimeCat::kUser);
        other_publisher_exits = env.kernel->now();
      },
      /*pin_cpu=*/3);
  SpawnLeavingPublisher([&](os::Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await other.Pop(env)).ok());
    left_at_ = env.kernel->now();
    auto v = co_await other.Pop(env, os::Deadline::After(left_at_, Duration::Micros(20)));
    EXPECT_EQ(v.code(), ErrorCode::kTimedOut);
  });
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(other.spin_misses(), 1u);
  ExpectTheSpinEndedWhenThePublisherLeft(
      cm.chan_fast_path,
      (other_publisher_exits + cm.remote_transfer) - (left_at_ + cm.chan_fast_path));
}

TEST_F(ChanSpinTest, PublisherKilledOnItsWayOntoACpuEndsTheSpin) {
  // The producer, unpinned, pushes 1 and parks; a waker on CPU 2 wakes it
  // at t ~ 10 us, and a 5 us wake latency keeps it runnable on its way onto
  // CPU 0, which is where the consumer's second pop finds it and spins.
  // The waker kills it before it gets there.
  kernel_.set_wake_latency(Duration::Micros(5));
  os::WaitQueue parked;
  bool blocked = true;
  os::Thread* producer = nullptr;
  Time killed_at;
  Time pop_called;
  ErrorCode got = ErrorCode::kOk;
  kernel_.Spawn(prod_, "producer", [&](os::Env env) -> sim::Task<void> {
    producer = env.self;
    EXPECT_TRUE((co_await q_->Push(env, 1)).ok());
    (void)co_await os::FutexBlockUntil(env, parked, os::Deadline::Never(),
                                       [&] { return blocked; });
    ADD_FAILURE() << "a killed thread never runs again";
  });
  kernel_.Spawn(
      prod_, "waker",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(10));
        blocked = false;
        co_await os::FutexWake(env, parked);
        co_await env.kernel->Sleep(env, Duration::Micros(3));
        EXPECT_EQ(producer->state(), os::ThreadState::kRunnable);
        killed_at = env.kernel->now();
        env.kernel->KillThread(*producer);
      },
      /*pin_cpu=*/2);
  kernel_.Spawn(
      cons_, "consumer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(12));
        EXPECT_TRUE((co_await q_->Pop(env)).ok());
        pop_called = env.kernel->now();
        got = (co_await q_->Pop(env, os::Deadline::After(pop_called, Duration::Micros(20))))
                  .code();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(got, ErrorCode::kTimedOut);
  EXPECT_LT(pop_called, killed_at);
  EXPECT_EQ(kernel_.spun(), (killed_at + cm.remote_transfer) - (pop_called + cm.chan_fast_path));
  EXPECT_EQ(q_->spin_misses(), 1u);
  EXPECT_EQ(q_->blocked_pops(), 1u);
}

TEST_F(ChanSpinTest, ThreadsWaitingOnEachOthersQueuesBothParkInsteadOfSpinning) {
  // a publishes to qb and waits on qa; b publishes to qa and waits on qb.
  // a's wait finds b running and spins. b's wait then finds its publisher
  // a spinning, so it parks at once, and that park ends a's spin: a parks
  // too. Neither spins on the other for ever; both time out parked.
  MpmcQueue qa(kernel_, prod_, 4, prod_.default_domain());
  MpmcQueue qb(kernel_, prod_, 4, prod_.default_domain());
  const os::Deadline deadline = os::Deadline::At(Time::Zero() + Duration::Micros(20));
  Time a_waits;
  Time b_waits;
  ErrorCode a_got = ErrorCode::kOk;
  ErrorCode b_got = ErrorCode::kOk;
  kernel_.Spawn(
      prod_, "a",
      [&](os::Env env) -> sim::Task<void> {
        EXPECT_TRUE((co_await qb.Push(env, 1)).ok());
        co_await env.kernel->Spend(*env.self, Duration::Micros(1), os::TimeCat::kUser);
        EXPECT_TRUE((co_await qa.Pop(env)).ok());
        a_waits = env.kernel->now();
        a_got = (co_await qa.Pop(env, deadline)).code();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      prod_, "b",
      [&](os::Env env) -> sim::Task<void> {
        EXPECT_TRUE((co_await qa.Push(env, 1)).ok());
        co_await env.kernel->Spend(*env.self, Duration::Micros(2), os::TimeCat::kUser);
        EXPECT_TRUE((co_await qb.Pop(env)).ok());
        b_waits = env.kernel->now();
        b_got = (co_await qb.Pop(env, deadline)).code();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(a_got, ErrorCode::kTimedOut);
  EXPECT_EQ(b_got, ErrorCode::kTimedOut);
  EXPECT_LT(a_waits, b_waits);
  EXPECT_EQ(kernel_.spun(), (b_waits + cm.chan_fast_path + KernelEntryOfAPark(cm) +
                             cm.remote_transfer) - (a_waits + cm.chan_fast_path));
  EXPECT_EQ(qa.spin_misses(), 1u);
  EXPECT_EQ(qa.spin_hits(), 0u);
  EXPECT_EQ(qb.spin_hits() + qb.spin_misses(), 0u);
  EXPECT_EQ(qa.blocked_pops(), 1u);
  EXPECT_EQ(qb.blocked_pops(), 1u);
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

// ---- Credit lines ----
//
// A one-slot fan-out plane with one receiver, so a credit line of 1: the
// producer sends message 1, which the receiver releases (naming itself the
// credit line's publisher), then message 2, which the receiver holds while
// it stays busy for `hold`. The producer's third AcquireBuf finds no credit
// and spins on the busy receiver.
struct CreditSpinRun {
  std::shared_ptr<Plane> plane;
  Time acquire_called;
  Time acquired;
  Duration spun_in_acquire;
  ErrorCode acquire_code = ErrorCode::kOk;
  Time released;
  os::TimeBreakdown release_cost;
};

void RunCreditSpin(core::Dipc& dipc, os::Process& prod, os::Process& cons, Duration hold,
                   CreditSpinRun* run, std::function<void()> during_spin = {}) {
  os::Kernel& kernel = dipc.kernel();
  std::vector<os::Process*> receivers = {&cons};
  auto made = Plane::Create(dipc, prod, std::span(receivers),
                            {.slots = 1, .buf_bytes = 64});
  DIPC_CHECK(made.ok());
  run->plane = made.value();
  std::shared_ptr<Plane> plane = run->plane;
  kernel.Spawn(
      prod, "producer",
      [&kernel, plane, run, during_spin](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 2; ++i) {
          auto b = co_await plane->AcquireBuf(env, 0);
          DIPC_CHECK(b.ok());
          EXPECT_TRUE((co_await plane->Send(env, 0, b.value(), 8)).ok());
          co_await env.kernel->Spend(*env.self, Duration::Micros(2), os::TimeCat::kUser);
        }
        if (during_spin) {
          kernel.machine().events().ScheduleAfter(Duration::Micros(1), during_spin);
        }
        run->acquire_called = kernel.now();
        const Duration spun_before = kernel.spun();
        auto third = co_await plane->AcquireBuf(env, 0);
        run->acquired = kernel.now();
        run->spun_in_acquire = kernel.spun() - spun_before;
        run->acquire_code = third.code();
        if (third.ok()) {
          EXPECT_TRUE((co_await plane->Abandon(env, 0, third.value())).ok());
        }
      },
      /*pin_cpu=*/0);
  kernel.Spawn(
      cons, "receiver",
      [&kernel, plane, run, hold](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < 2; ++i) {
          auto m = co_await plane->Recv(env, 0);
          if (!m.ok()) {
            co_return;
          }
          if (i == 1) {
            co_await env.kernel->Spend(*env.self, hold, os::TimeCat::kUser);
          }
          const os::TimeBreakdown before = kernel.accounting().cpu(1);
          const base::Status released = co_await plane->Release(env, 0, m.value());
          if (i == 1 && released.ok()) {
            run->released = kernel.now();
            run->release_cost = kernel.accounting().cpu(1) - before;
          }
        }
      },
      /*pin_cpu=*/1);
  kernel.Run();
}

TEST_F(ChanSpinTest, FanOutProducerOutOfCreditSpinsUntilTheReleaseRefillsThePool) {
  CreditSpinRun run;
  RunCreditSpin(dipc_, prod_, cons_, Duration::Micros(5), &run);
  const hw::CostModel& cm = kernel_.costs();
  EXPECT_EQ(run.acquire_code, ErrorCode::kOk);
  // The spin began at the AcquireBuf call and saw the credit one line
  // transfer after the Release returned, which is after the freed slot went
  // back into the pool: the producer found it there without a second wait.
  EXPECT_EQ(run.spun_in_acquire, (run.released + cm.remote_transfer) - run.acquire_called);
  EXPECT_GT(run.spun_in_acquire, SpinBudget(cm));
  EXPECT_EQ(run.plane->credit_spin_hits(), 1u);
  EXPECT_EQ(run.plane->credit_spin_misses(), 0u);
  EXPECT_EQ(run.plane->blocked_on_credit(), 0u);
#ifndef DIPC_OBS_OFF
  const std::string pool = "fanout/" + std::to_string(run.plane->obs_id()) + "/free/";
  EXPECT_EQ(obs::Registry::Default().GetCounter(pool + "spin_hits")->value(), 0u);
  EXPECT_EQ(obs::Registry::Default().GetCounter(pool + "blocked_pops")->value(), 0u);
#endif
  // The Release that ended the spin made no syscall: no FUTEX_WAKE.
  EXPECT_EQ(run.release_cost[os::TimeCat::kSyscallCrossing], Duration::Zero());
  EXPECT_EQ(run.release_cost[os::TimeCat::kKernel], Duration::Zero());
  EXPECT_EQ(run.plane->LiveGrantCount(), 0u);
}

TEST_F(ChanSpinTest, CloseFailAndExciseEachEndACreditSpinWithTheirOwnError) {
  enum class Event { kClose, kFail, kExcise };
  for (Event event : {Event::kClose, Event::kFail, Event::kExcise}) {
    SCOPED_TRACE(static_cast<int>(event));
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("receiver");
    CreditSpinRun run;
    Time event_at;
    RunCreditSpin(dipc, prod, cons, Duration::Micros(5), &run, [&] {
      event_at = kernel.now();
      switch (event) {
        case Event::kClose:
          run.plane->Close();
          break;
        case Event::kFail:
          dipc.KillProcess(prod);  // the single producer side: the plane breaks
          break;
        case Event::kExcise:
          dipc.KillProcess(cons);  // the group's only receiver is excised
          break;
      }
    });
    const ErrorCode want =
        event == Event::kClose ? ErrorCode::kBrokenChannel : ErrorCode::kCalleeFailed;
    EXPECT_EQ(run.acquire_code, want);
    EXPECT_EQ(run.plane->broken(),
              event == Event::kFail ? ErrorCode::kCalleeFailed : ErrorCode::kOk);
    EXPECT_EQ(run.plane->receiver_alive(0), event != Event::kExcise);
    // The spin saw the event one line transfer later, while the receiver
    // was still busy on its CPU.
    EXPECT_EQ(run.acquired, event_at + kernel.costs().remote_transfer);
    EXPECT_EQ(run.spun_in_acquire, run.acquired - run.acquire_called);
    EXPECT_EQ(run.plane->credit_spin_hits() + run.plane->credit_spin_misses(), 0u);
    EXPECT_EQ(run.plane->blocked_on_credit(), 0u);
  }
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
        EXPECT_TRUE((co_await q.PushN(env, std::span(&v, 1), &wake)).ok());
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
        EXPECT_TRUE((co_await q_->PushN(env, std::span(&v, 1), &wake)).ok());
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
        EXPECT_TRUE((co_await q_->PushN(env, std::span(&v, 1), &wake)).ok());
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
