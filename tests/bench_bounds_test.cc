// Performance bounds asserted as regular ctests, so the perf properties the
// benches demonstrate are gates, not dashboards:
//   - batched channel streaming at 64 B must cost less per message at every
//     batch size than at batch 1, and must not get dearer from batch 1 up
//     to 16 (the futex convoy made batch 4 cost 1.7x batch 1);
//   - fan-out at 4 receivers must publish a message (with four per-receiver
//     grants, stores and descriptor pushes) for under 2x the point-to-point
//     per-message cost on the batched hot path — the shared tolls (runtime
//     entry, free-pool op, sender revoke, fast path) must actually amortize;
//   - the observability layer's modeled per-event trace cost must stay
//     within 5% of the untraced batched hot path (the observer effect is a
//     budget, not a hope);
//   - an idle fabric call must cost less than two cross-CPU park-plus-wake
//     critical paths: its two wake hops (request, response) hand the CPU
//     over directly instead of waking a thread elsewhere, and less than
//     three such direct switches: the caller receives its own completion;
//   - fan-out and fan-in with one peer must cost at most 1.1x the
//     point-to-point channel at batch 1: a credit-line wait spins while its
//     publisher runs, as the channel's queue waits do;
//   - broadcast to eight receivers at batch 1 must cost under 1 us per
//     published message: the producer's credit waits spin on the receiver
//     that releases last instead of parking;
//   - a stream's per-message cost must not depend on how many messages it
//     runs: the window counts every message released inside it;
//   - a synchronous round trip's time breakdown must close: its parts,
//     summed over the world's CPUs, equal CPUs x round trip;
//   - a synchronous round trip must not depend on how many rounds it runs:
//     the window holds exactly the timed rounds;
//   - a one-slot channel round trip across two CPUs must cost under four
//     cache-line transfers: it moves three lines, and a spinning waiter's
//     transfer of the cell it watches is also its read of that cell.
// The measurements are the bench harness's own (bench/micro_harness.cc), so
// the gate and the reported numbers can never drift apart; the simulation
// is deterministic, so the ratios are stable.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "chan/futex.h"
#include "hw/cost_model.h"
#include "micro_harness.h"
#include "obs/trace.h"

namespace dipc::bench {
namespace {

double ChannelPerMessageNs(int batch) {
  return MeasureStream({.payload_bytes = 64, .batch = batch, .messages = 512});
}

double FanOutPerMessageNs(uint32_t receivers, int batch, int messages = 512) {
  return MeasureStream({.shape = StreamShape::kFanOut,
                        .group = receivers,
                        .payload_bytes = 64,
                        .batch = batch,
                        .messages = messages});
}

TEST(BenchBounds, BatchedStreamingBeatsBatch1AndNeverGetsDearerUpToBatch16) {
  // The monotone check stops at 16, where little toll is left to amortize:
  // bench_chan_batch's 64 B and 4 KiB columns still fall to batch 64, and
  // its 64 KiB column stays within 0.02% from batch 8 on.
  const double b1 = ChannelPerMessageNs(1);
  double prev = b1;
  for (int batch : {2, 4, 8, 16, 32, 64}) {
    const double cost = ChannelPerMessageNs(batch);
    EXPECT_LT(cost, b1) << "batch=" << batch << ": " << cost << " ns/msg, batch=1: " << b1;
    if (batch <= 16) {
      EXPECT_LE(cost, prev) << "batch=" << batch << ": " << cost << " ns/msg, batch="
                            << batch / 2 << ": " << prev;
    }
    prev = cost;
  }
}

TEST(BenchBounds, FanOutAtFourReceiversStaysUnderTwicePointToPointCost) {
  // Publishing to four receivers does 4x the per-receiver work (grant,
  // store, descriptor push) but shares everything else; on the batched hot
  // path the total must stay under 2x one point-to-point message.
  double p2p = ChannelPerMessageNs(32);
  double fan4 = FanOutPerMessageNs(4, 32);
  EXPECT_LT(fan4 / p2p, 2.0) << "p2p: " << p2p << " ns/msg, fanout N=4: " << fan4 << " ns/msg";
  // And fanning out to one receiver must not regress the point-to-point
  // design it specializes to.
  double fan1 = FanOutPerMessageNs(1, 32);
  EXPECT_LT(fan1 / p2p, 1.25) << "p2p: " << p2p << " ns/msg, fanout N=1: " << fan1 << " ns/msg";
}

TEST(BenchBounds, TracingOverheadAtBatch32StaysWithinFivePercent) {
  // Tracing charges obs::TraceRing::kEventCost simulated time per recorded
  // event on costed paths. At batch=32 the per-batch events (acquire, send,
  // recv, release) and per-message warm rebinds must amortize to <= 5% of
  // the untraced per-message cost; metric counters are free by design.
  obs::Trace().Disable();
  double off = ChannelPerMessageNs(32);
  obs::Trace().Enable();
  obs::Trace().Clear();
  double on = ChannelPerMessageNs(32);
  // The measured window must fit the ring: a wraparound would silently
  // discard the oldest events and the "traced" cost would be measured on a
  // run whose trace is no longer reconstructible.
  EXPECT_EQ(obs::Trace().total_dropped(), 0u)
      << "trace ring wrapped during the overhead measurement";
  obs::Trace().Disable();
  EXPECT_LE(on, off * 1.05) << "untraced: " << off << " ns/msg, traced: " << on << " ns/msg";
#ifndef DIPC_OBS_OFF
  // The observer effect is modeled, so tracing must perturb the timeline —
  // identical numbers would mean the events are not on the costed paths at
  // all. (Not strictly slower: shifted park/wake timing can batch wakeups
  // differently, so the net per-message delta is small and can go either
  // way; the 5% bound above is the real budget.)
  EXPECT_NE(on, off);
#endif
}

TEST(BenchBounds, IdleFabricCallCostsLessThanTwoCrossCpuWakes) {
  // designpoints' fabric_shared_trio@1 row: one tenant calling four idle
  // workers. chan::SpinBudget is one cross-CPU park plus its wake (1474 ns
  // at default costs); a call whose two hops each paid one would cost at
  // least the bound.
  const double call = MeasureFabricEcho({.tenants = 1, .workers = 4, .calls_per_tenant = 32});
  const double bound = 2 * chan::SpinBudget(hw::CostModel{}).nanos();
  EXPECT_LT(call, bound) << "idle fabric call: " << call << " ns, bound: " << bound << " ns";
}

TEST(BenchBounds, IdleFabricCallCostsLessThanThreeSwaps) {
  // The same row against the direct switch itself: a FUTEX_SWAP pays a
  // syscall entry and exit, the futex wait and wake work and a register
  // save/restore (394 ns at default costs). The caller receives its own
  // completion, so an idle call makes two swaps plus its queue work; a
  // completion relayed through a third thread pays a third swap on top.
  const hw::CostModel c{};
  const double swap = (c.syscall_trap + c.syscall_dispatch + os::kFutexWaitKernel +
                       os::kFutexWakeKernel + c.register_save + c.register_restore + c.sysret)
                          .nanos();
  const double call = MeasureFabricEcho({.tenants = 1, .workers = 4, .calls_per_tenant = 32});
  EXPECT_LT(call, 3 * swap) << "idle fabric call: " << call << " ns, one swap: " << swap
                            << " ns";
}

TEST(BenchBounds, OnePeerFanOutAndFanInCostAtMostTenPercentOverChannelAtBatch1) {
  // designpoints' fanout_*_b1@1 and fanin_b1@1 rows against chan_stream_b1.
  const double p2p = ChannelPerMessageNs(1);
  const double fan_out = FanOutPerMessageNs(1, 1, 768);
  const double fan_in = MeasureStream(
      {.shape = StreamShape::kFanIn, .group = 1, .payload_bytes = 64, .batch = 1, .messages = 768});
  EXPECT_LE(fan_out, 1.1 * p2p) << "p2p: " << p2p << " ns/msg, fanout N=1: " << fan_out;
  EXPECT_LE(fan_in, 1.1 * p2p) << "p2p: " << p2p << " ns/msg, fanin N=1: " << fan_in;
}

TEST(BenchBounds, EightReceiverBroadcastAtBatch1CostsUnderOneMicrosecond) {
  // designpoints' fanout_bcast_b1@8 row.
  const double bcast8 = FanOutPerMessageNs(8, 1, 768);
  EXPECT_LT(bcast8, 1000.0) << "fanout bcast N=8 batch=1: " << bcast8 << " ns/msg";
}

TEST(BenchBounds, CrossCpuOneSlotRoundTripCostsUnderFourLineTransfers) {
  // designpoints' chan_cross_cpu@64 row: a one-slot Channel across two
  // CPUs. A round trip moves three lines between them (the descriptor
  // cell, the payload line and the free pool's cell), and a spinning
  // waiter's transfer of the cell it watches is also its read of that
  // cell, so the round trip costs under four remote transfers.
  const MicroConfig cross{.arg_bytes = 64, .rounds = 150, .cross_cpu = true};
  const double func = MeasureFunction({.arg_bytes = 64, .rounds = 150}).roundtrip_ns;
  const double round_trip = MeasureChannel(cross).roundtrip_ns - func;
  const double bound = 4 * hw::CostModel{}.remote_transfer.nanos();
  EXPECT_LT(round_trip, bound) << "chan_cross_cpu@64: " << round_trip << " ns, bound: " << bound
                               << " ns";
}

TEST(BenchBounds, StreamCostDoesNotDependOnRunLength) {
  // The window opens at the release that completes the warmup-th message,
  // so every message released inside it is one it counts. A window opened
  // at the producer's warmup-th publish also released the messages then in
  // flight without counting them, and read a 64 KiB batch-32 Channel stream
  // 15.9% dearer per message over 256 messages than over 1,024.
  for (StreamShape shape : {StreamShape::kChannel, StreamShape::kFanOut, StreamShape::kFanIn}) {
    auto per_message = [shape](int messages) {
      return MeasureStream({.shape = shape,
                            .group = 4,
                            .payload_bytes = 65536,
                            .batch = 32,
                            .messages = messages});
    };
    const double short_run = per_message(256);
    const double long_run = per_message(1024);
    EXPECT_NEAR(short_run / long_run, 1.0, 0.001)
        << "shape " << static_cast<int>(shape) << ": " << short_run << " ns/msg over 256 messages, "
        << long_run << " over 1024";
  }
}

TEST(BenchBounds, SyncBreakdownSumsToCpusTimesRoundTrip) {
  // Every round-trip measurement, at 1 B and 64 KiB (L4 passes its argument
  // in registers), on one CPU and, where the primitive has a callee thread,
  // across two. A world has only the CPUs its threads use, and the window
  // flushes idle time at both edges, so every picosecond of each CPU inside
  // it is in one category. Each category's per-round share is truncated to
  // a whole picosecond, hence the slack of one per category.
  struct Case {
    std::string name;
    uint32_t cpus;
    std::function<MicroResult()> measure;
  };
  std::vector<Case> cases;
  for (bool cross : {false, true}) {
    cases.push_back({"l4", cross ? 2u : 1u,
                     [cross] { return MeasureL4({.rounds = 40, .cross_cpu = cross}); }});
  }
  for (uint64_t bytes : {uint64_t{1}, uint64_t{65536}}) {
    const MicroConfig same{.arg_bytes = bytes, .rounds = 40};
    const MicroConfig cross{.arg_bytes = bytes, .rounds = 40, .cross_cpu = true};
    cases.push_back({"function", 1, [same] { return MeasureFunction(same); }});
    cases.push_back({"syscall", 1, [same] { return MeasureSyscall(same); }});
    cases.push_back({"dipc", 1, [bytes] {
                       return MeasureDipc({.cross_process = true,
                                           .high_policy = true,
                                           .arg_bytes = bytes,
                                           .rounds = 40});
                     }});
    cases.push_back({"user_rpc", 2, [cross] { return MeasureDipcUserRpc(cross); }});
    for (const MicroConfig& c : {same, cross}) {
      const uint32_t cpus = c.cross_cpu ? 2 : 1;
      cases.push_back({"semaphore", cpus, [c] { return MeasureSemaphore(c); }});
      cases.push_back({"pipe", cpus, [c] { return MeasurePipe(c); }});
      cases.push_back({"rpc", cpus, [c] { return MeasureLocalRpc(c); }});
      cases.push_back({"channel", cpus, [c] { return MeasureChannel(c); }});
    }
  }
  for (const Case& c : cases) {
    const MicroResult r = c.measure();
    const double window_ps = c.cpus * r.roundtrip_ns * 1e3;
    const double parts_ps = static_cast<double>(r.breakdown.Total().picos());
    EXPECT_NEAR(parts_ps, window_ps, static_cast<double>(os::kNumTimeCats))
        << c.name << " on " << c.cpus << " CPU(s): parts " << parts_ps << " ps, CPUs x round trip "
        << window_ps << " ps";
  }
}

TEST(BenchBounds, SyncRoundTripDoesNotDependOnRoundCount) {
  // The window holds the caller's timed rounds and nothing else: no work of
  // the callee's that no later round waits for, and no stop call. Before,
  // it read the clock once the world had run out, so it also held the
  // Channel consumer's read and release of the last message and L4's stop
  // call, and a short run read dearer per round than a long one.
  for (bool cross : {false, true}) {
    const auto ratio = [](const std::function<double(int)>& round_trip) {
      return round_trip(40) / round_trip(80);
    };
    for (uint64_t bytes : {uint64_t{1}, uint64_t{65536}, uint64_t{1} << 20}) {
      const double r = ratio([&](int rounds) {
        return MeasureChannel({.arg_bytes = bytes, .rounds = rounds, .cross_cpu = cross})
            .roundtrip_ns;
      });
      EXPECT_NEAR(r, 1.0, 1e-4) << "channel, " << bytes << " B, cross_cpu " << cross
                                << ": 40 rounds over 80 rounds " << r;
    }
    const double r = ratio([&](int rounds) {
      return MeasureL4({.rounds = rounds, .cross_cpu = cross}).roundtrip_ns;
    });
    EXPECT_NEAR(r, 1.0, 1e-4) << "l4, cross_cpu " << cross << ": 40 rounds over 80 rounds " << r;
  }
}

}  // namespace
}  // namespace dipc::bench
