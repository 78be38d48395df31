// Unit tests for the discrete-event engine and coroutine tasks.
#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/time.h"

namespace dipc::sim {
namespace {

using Nanos = Duration;

TEST(Time, DurationArithmetic) {
  Duration a = Duration::Nanos(2.0);
  Duration b = Duration::Micros(1.0);
  EXPECT_EQ((a + b).nanos(), 1002.0);
  EXPECT_EQ((b - a).nanos(), 998.0);
  EXPECT_EQ((a * 3).nanos(), 6.0);
  EXPECT_LT(a, b);
  EXPECT_EQ(Duration::Seconds(1.0).picos(), 1'000'000'000'000LL);
}

TEST(Time, TimePlusDuration) {
  Time t = Time::Zero() + Duration::Nanos(5);
  EXPECT_EQ(t.nanos(), 5.0);
  EXPECT_EQ((t - Time::Zero()).nanos(), 5.0);
}

TEST(Time, SubNanosecondResolution) {
  // A 3.1 GHz cycle (~322.6 ps) must not round to zero.
  Duration cycle = Duration::Nanos(1.0 / 3.1);
  EXPECT_GT(cycle.picos(), 0);
  Duration sum = Duration::Zero();
  for (int i = 0; i < 31; ++i) {
    sum += cycle;
  }
  EXPECT_NEAR(sum.nanos(), 10.0, 0.02);  // 31 cycles; <=1 ps rounding per cycle
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Time::Zero() + Duration::Nanos(30), [&] { order.push_back(3); });
  q.ScheduleAt(Time::Zero() + Duration::Nanos(10), [&] { order.push_back(1); });
  q.ScheduleAt(Time::Zero() + Duration::Nanos(20), [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().nanos(), 30.0);
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.ScheduleAt(Time::Zero() + Duration::Nanos(5), [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  EventId id = q.ScheduleAfter(Duration::Nanos(10), [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel
  q.RunUntilIdle();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RunUntilAdvancesClockPastDrain) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAfter(Duration::Nanos(10), [&] { ++fired; });
  q.RunUntil(Time::Zero() + Duration::Nanos(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now().nanos(), 100.0);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAfter(Duration::Nanos(10), [&] { ++fired; });
  q.ScheduleAfter(Duration::Nanos(200), [&] { ++fired; });
  q.RunUntil(Time::Zero() + Duration::Nanos(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      q.ScheduleAfter(Duration::Nanos(1), chain);
    }
  };
  q.ScheduleAfter(Duration::Nanos(1), chain);
  q.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now().nanos(), 5.0);
}

TEST(EventQueue, StaleIdCancelsNothingAfterItsStorageIsReused) {
  EventQueue q;
  std::vector<int> fired;
  // Cancelled: the next event may take over its storage.
  EventId cancelled = q.ScheduleAfter(Duration::Nanos(10), [&] { fired.push_back(1); });
  ASSERT_TRUE(q.Cancel(cancelled));
  EventId second = q.ScheduleAfter(Duration::Nanos(10), [&] { fired.push_back(2); });
  EXPECT_NE(second, cancelled);
  EXPECT_FALSE(q.Cancel(cancelled));
  // Fired: likewise.
  q.RunUntilIdle();
  EventId third = q.ScheduleAfter(Duration::Nanos(10), [&] { fired.push_back(3); });
  EXPECT_FALSE(q.Cancel(second));
  EXPECT_FALSE(q.Cancel(cancelled));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  q.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
  // Many rounds through the same storage: every old id stays dead.
  std::vector<EventId> old{cancelled, second, third};
  for (int round = 0; round < 100; ++round) {
    EventId id = q.ScheduleAfter(Duration::Nanos(1), [] {});
    for (EventId o : old) {
      EXPECT_FALSE(q.Cancel(o));
    }
    if (round % 2 == 0) {
      EXPECT_TRUE(q.Cancel(id));
    } else {
      q.RunUntilIdle();
    }
    old.push_back(id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameInstantKeepsSchedulingOrderAcrossCancelsAndReschedules) {
  EventQueue q;
  const Time at = Time::Zero() + Duration::Nanos(50);
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.ScheduleAt(at, [&order, i] { order.push_back(i); }));
  }
  ASSERT_TRUE(q.Cancel(ids[1]));
  ASSERT_TRUE(q.Cancel(ids[4]));
  // Rescheduled at the same instant: after every event already there.
  q.ScheduleAt(at, [&order] { order.push_back(10); });
  ASSERT_TRUE(q.Cancel(ids[0]));
  q.ScheduleAt(at, [&order] { order.push_back(11); });
  // An earlier instant still goes first; one scheduled from inside an event
  // at the same instant goes last.
  q.ScheduleAt(at - Duration::Nanos(1), [&] {
    order.push_back(-1);
    q.ScheduleAt(at, [&order] { order.push_back(12); });
  });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{-1, 2, 3, 5, 10, 11, 12}));
}

TEST(EventQueue, PendingAndEmptyCountOnlyLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EventId a = q.ScheduleAfter(Duration::Nanos(10), [] {});
  EventId b = q.ScheduleAfter(Duration::Nanos(20), [] {});
  EXPECT_EQ(q.pending(), 2u);
  ASSERT_TRUE(q.Cancel(b));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  ASSERT_TRUE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());  // two cancelled entries remain queued, none live
  EXPECT_FALSE(q.RunOne());
  // An event in flight is no longer pending, and cannot cancel itself.
  EventId self = kInvalidEventId;
  uint64_t seen_pending = 99;
  bool self_cancel = true;
  self = q.ScheduleAfter(Duration::Nanos(5), [&] {
    seen_pending = q.pending();
    self_cancel = q.Cancel(self);
  });
  q.ScheduleAfter(Duration::Nanos(6), [] {});
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(seen_pending, 1u);
  EXPECT_FALSE(self_cancel);
  EXPECT_EQ(q.total_fired(), 1u);
}

TEST(EventQueue, RunUntilStepsPastACancelledHead) {
  EventQueue q;
  int fired = 0;
  EventId head = q.ScheduleAfter(Duration::Nanos(10), [&] { fired += 100; });
  q.ScheduleAfter(Duration::Nanos(30), [&] { ++fired; });
  ASSERT_TRUE(q.Cancel(head));
  EXPECT_EQ(q.RunUntil(Time::Zero() + Duration::Nanos(20)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.now().nanos(), 20.0);
  EXPECT_EQ(q.RunUntil(Time::Zero() + Duration::Nanos(30)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now().nanos(), 30.0);
}

TEST(EventQueue, AdvancesInPlaceOnlyInsideARunAndAheadOfEveryLiveEvent) {
  EventQueue q;
  EXPECT_FALSE(q.AdvanceInPlace(Duration::Nanos(5)));  // no event runs
  EXPECT_EQ(q.now(), Time::Zero());
  std::vector<bool> advanced;
  std::vector<double> at;
  auto try_advances = [&](std::vector<double> steps) {
    for (double ns : steps) {
      advanced.push_back(q.AdvanceInPlace(Duration::Nanos(ns)));
    }
    at.push_back(q.now().nanos());
  };
  q.ScheduleAt(Time::Zero() + Duration::Nanos(20), [] {});
  q.ScheduleAt(Time::Zero() + Duration::Nanos(10), [&] { try_advances({5}); });
  // RunUntil's deadline bounds the advance: 15 lies past 14.
  EXPECT_EQ(q.RunUntil(Time::Zero() + Duration::Nanos(14)), 1u);
  EXPECT_EQ(advanced, (std::vector<bool>{false}));
  // Under RunUntilIdle only live events bound it: the cancelled one at 17
  // overtakes nothing, 18 lies ahead of 20, and 20 ties with it.
  ASSERT_TRUE(q.Cancel(q.ScheduleAt(Time::Zero() + Duration::Nanos(17), [] {})));
  q.ScheduleAt(Time::Zero() + Duration::Nanos(16), [&] { try_advances({2, 2, 5}); });
  EXPECT_EQ(q.RunUntilIdle(), 3u);  // two events and one advance in place
  EXPECT_EQ(advanced, (std::vector<bool>{false, true, false, false}));
  EXPECT_EQ(at, (std::vector<double>{10.0, 18.0}));
  EXPECT_EQ(q.total_fired(), 4u);
  EXPECT_FALSE(q.AdvanceInPlace(Duration::Nanos(5)));  // no event runs
}

// --- Task / coroutine tests ---

Task<int> ReturnsValue() { co_return 42; }

Task<int> AddsNested() {
  int a = co_await ReturnsValue();
  int b = co_await ReturnsValue();
  co_return a + b;
}

TEST(Task, TopLevelCompletion) {
  bool done = false;
  Task<int> t = ReturnsValue();
  EXPECT_FALSE(t.done());
  t.Start([&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(t.TakeResult(), 42);
}

TEST(Task, NestedComposition) {
  Task<int> t = AddsNested();
  t.Start();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.TakeResult(), 84);
}

Task<void> SuspendsOnce(std::coroutine_handle<>* out, int* stage) {
  *stage = 1;
  co_await SuspendTo([out](std::coroutine_handle<> h) { *out = h; });
  *stage = 2;
}

TEST(Task, SuspendToParksAndResumes) {
  std::coroutine_handle<> h;
  int stage = 0;
  Task<void> t = SuspendsOnce(&h, &stage);
  t.Start();
  EXPECT_EQ(stage, 1);
  EXPECT_FALSE(t.done());
  ASSERT_TRUE(h);
  h.resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(t.done());
}

Task<int> SuspendingChild(std::coroutine_handle<>* out) {
  co_await SuspendTo([out](std::coroutine_handle<> h) { *out = h; });
  co_return 7;
}

Task<int> ParentOfSuspending(std::coroutine_handle<>* out) {
  int v = co_await SuspendingChild(out);
  co_return v * 3;
}

TEST(Task, ResumeOfInnermostDrivesWholeStack) {
  std::coroutine_handle<> h;
  Task<int> t = ParentOfSuspending(&h);
  t.Start();
  EXPECT_FALSE(t.done());
  h.resume();  // resuming the child must also complete the parent
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.TakeResult(), 21);
}

struct TestError {};

Task<void> Throws() {
  throw TestError{};
  co_return;  // unreachable; makes this a coroutine
}

Task<void> PropagatesFromChild() { co_await Throws(); }

TEST(Task, ExceptionPropagatesThroughAwait) {
  Task<void> t = PropagatesFromChild();
  t.Start();
  ASSERT_TRUE(t.done());
  EXPECT_THROW(t.TakeResult(), TestError);
}

// Coroutine + event queue: the integration the whole simulator relies on.
Task<void> WaitsTwice(EventQueue* q, std::vector<double>* stamps) {
  stamps->push_back(q->now().nanos());
  co_await SuspendTo([q](std::coroutine_handle<> h) {
    q->ScheduleAfter(Duration::Nanos(10), [h] { h.resume(); });
  });
  stamps->push_back(q->now().nanos());
  co_await SuspendTo([q](std::coroutine_handle<> h) {
    q->ScheduleAfter(Duration::Nanos(5), [h] { h.resume(); });
  });
  stamps->push_back(q->now().nanos());
}

TEST(Task, DrivenByEventQueue) {
  EventQueue q;
  std::vector<double> stamps;
  Task<void> t = WaitsTwice(&q, &stamps);
  t.Start();
  q.RunUntilIdle();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(stamps, (std::vector<double>{0.0, 10.0, 15.0}));
}

// Frames of different sizes, nested and recycled many times over: every
// result must come back intact through reused frame memory.
template <size_t kBytes>
Task<uint64_t> FrameOfSize(uint64_t seed) {
  std::array<uint64_t, kBytes / 8> locals{};
  for (size_t i = 0; i < locals.size(); ++i) {
    locals[i] = seed + i;
  }
  co_await SuspendTo([](std::coroutine_handle<> h) { h.resume(); });
  uint64_t sum = 0;
  for (uint64_t v : locals) {
    sum += v;
  }
  co_return sum;
}

Task<uint64_t> NestedFrames(int depth, uint64_t seed) {
  if (depth == 0) {
    co_return co_await FrameOfSize<8>(seed);
  }
  uint64_t a = co_await FrameOfSize<64>(seed);
  uint64_t b = co_await NestedFrames(depth - 1, seed + 1);
  uint64_t c = co_await FrameOfSize<1024>(seed);
  uint64_t d = co_await FrameOfSize<4096>(seed);  // past the pooled sizes
  co_return a + b + c + d;
}

uint64_t ExpectedNested(int depth, uint64_t seed) {
  auto frame = [](size_t n, uint64_t s) { return n * s + n * (n - 1) / 2; };
  if (depth == 0) {
    return frame(1, seed);
  }
  return frame(8, seed) + ExpectedNested(depth - 1, seed + 1) + frame(128, seed) +
         frame(512, seed);
}

TEST(Task, ManyNestedFramesOfDifferentSizesSurviveReuse) {
  for (int round = 0; round < 200; ++round) {
    const int depth = round % 7;
    Task<uint64_t> t = NestedFrames(depth, static_cast<uint64_t>(round));
    t.Start();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.TakeResult(), ExpectedNested(depth, static_cast<uint64_t>(round)));
  }
}

// --- Rng / stats ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Exponential(50.0));
  }
  EXPECT_NEAR(s.mean(), 50.0, 2.0);
}

TEST(RunningStat, MeanAndStddev) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.Percentile(100), 100.0, 0.01);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.1);
}

}  // namespace
}  // namespace dipc::sim
