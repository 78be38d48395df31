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
//     critical paths: its three wake hops (request, response, completion)
//     hand the CPU over directly instead of waking a thread elsewhere.
// The measurements are the bench harness's own (bench/micro_harness.cc), so
// the gate and the reported numbers can never drift apart; the simulation
// is deterministic, so the ratios are stable.
#include <gtest/gtest.h>

#include "chan/futex.h"
#include "hw/cost_model.h"
#include "micro_harness.h"
#include "obs/trace.h"

namespace dipc::bench {
namespace {

double ChannelPerMessageNs(int batch) {
  return MeasureChannelStream(
      {.payload_bytes = 64, .batch = batch, .messages = 512, .cross_cpu = true});
}

double FanOutPerMessageNs(uint32_t receivers, int batch) {
  return MeasureFanOutStream(
      {.payload_bytes = 64, .receivers = receivers, .batch = batch, .messages = 512});
}

TEST(BenchBounds, BatchedStreamingBeatsBatch1AndNeverGetsDearerUpToBatch16) {
  // Past 16 the cost may rise again: bigger batches overlap producer and
  // consumer less, which is not a convoy.
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
  // at default costs); a call whose hops each paid one would cost >= 3x.
  const double call = MeasureFabricEcho({.tenants = 1, .workers = 4, .calls_per_tenant = 32});
  const double bound = 2 * chan::SpinBudget(hw::CostModel{}).nanos();
  EXPECT_LT(call, bound) << "idle fabric call: " << call << " ns, bound: " << bound << " ns";
}

}  // namespace
}  // namespace dipc::bench
