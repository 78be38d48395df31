// Batched channel hot path: steady-state per-message cost of the zero-copy
// channel as a function of the publish batch size, across payload sizes.
//
// At batch == 1 every message pays the full per-message software toll
// (free-list pop, descriptor push/pop, free-list push, accounting, and a
// futex wake whenever the peer parked). batch == N publishes N descriptors
// per queue operation and pays that toll once per batch — the
// doorbell/notification-batching cure for fixed per-operation overhead
// ("Rethinking Programmed I/O"; MOO-IPC's control-plane argument).
// The capability work itself (epoch rebind + store + load + revoke) stays
// per message but is already mint-free in steady state (§4.2 revocation
// counters as the rotation mechanism), so the amortizable toll is exactly
// what this sweep shows shrinking.
//
// Pass --json to also write BENCH_chan_batch.json.
#include <cstdio>

#include "micro_harness.h"

namespace {

using dipc::bench::JsonEmitter;
using dipc::bench::MeasureStream;

constexpr int kBatches[] = {1, 2, 4, 8, 16, 32, 64};
constexpr uint64_t kPayloads[] = {64, 4096, 65536};

void PrintBatchSweep(JsonEmitter& json) {
  std::printf("=== Batched channel: per-message cost vs batch size [ns] ===\n");
  std::printf("%9s", "batch");
  for (uint64_t p : kPayloads) {
    std::printf(" %9lluB", static_cast<unsigned long long>(p));
  }
  std::printf("\n");
  double small_b1 = 0, small_b32 = 0;
  for (int b : kBatches) {
    std::printf("%9d", b);
    for (uint64_t p : kPayloads) {
      char series[32];
      std::snprintf(series, sizeof(series), "payload%llu", static_cast<unsigned long long>(p));
      // Each (payload, batch) point is its own metrics window: under
      // --metrics the registry is snapshotted + zeroed at this boundary.
      char point[48];
      std::snprintf(point, sizeof(point), "%s_b%d", series, b);
      json.BeginSeries(point);
      double ns = MeasureStream({.payload_bytes = p, .batch = b});
      std::printf(" %10.1f", ns);
      json.Row(series, static_cast<uint64_t>(b), ns);
      if (p == kPayloads[0] && b == 1) {
        small_b1 = ns;
      }
      if (p == kPayloads[0] && b == 32) {
        small_b32 = ns;
      }
    }
    std::printf("\n");
  }
  // The speedup is printed, not emitted: every row is a cost where lower is
  // better, and payload64@1 and @32 already carry it.
  std::printf(
      "(batch amortizes the fixed per-message toll: queue ops, accounting and futex\n"
      " wakes are paid once per batch; capability rotation stays per message but is\n"
      " mint-free in steady state. batch=32 vs batch=1 at %lluB: %.2fx)\n\n",
      static_cast<unsigned long long>(kPayloads[0]),
      small_b32 > 0 ? small_b1 / small_b32 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("chan_batch", argc, argv);
  PrintBatchSweep(json);
  return 0;
}
