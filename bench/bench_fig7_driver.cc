// Figure 7: bandwidth and latency overheads of isolating the Infiniband
// user-level driver, vs the in-application baseline, across transfer sizes
// 2^0..2^12. The paper: only dIPC sustains the NIC's low latency (~1%
// overhead); syscalls cost ~10%; full IPC costs >100% latency and >60%
// bandwidth at 4 KB.
// Pass --json to also write BENCH_fig7_driver.json.
#include <cstdio>

#include "apps/netpipe/netpipe.h"
#include "micro_harness.h"

namespace {

using dipc::apps::DriverIsolation;
using dipc::apps::NetpipeResult;
using dipc::apps::RunNetpipe;
using dipc::bench::JsonEmitter;

struct Variant {
  DriverIsolation iso;
  const char* key;
};

constexpr Variant kVariants[] = {
    {DriverIsolation::kDipcDomain, "dipc"},   {DriverIsolation::kDipcProcess, "dipc_proc"},
    {DriverIsolation::kKernel, "kernel"},     {DriverIsolation::kSemaphore, "sem"},
    {DriverIsolation::kPipe, "pipe"},         {DriverIsolation::kChannel, "chan"},
};

void PrintFig7(JsonEmitter& json) {
  std::printf("=== Figure 7: Infiniband driver isolation overheads ===\n");
  std::printf("latency overhead [%%] (lower is better)\n");
  std::printf("%9s %10s %10s %10s %10s %10s %10s\n", "size[B]", "dIPC", "dIPC+proc", "Kernel",
              "Sem", "Pipe", "Chan");
  for (int p = 0; p <= 12; p += 2) {
    uint64_t n = 1ull << p;
    // One metrics series per size row (baseline + all variants), so the
    // --metrics counters of each sweep point stay attributable.
    json.BeginSeries("lat_n" + std::to_string(n));
    double base = RunNetpipe({.isolation = DriverIsolation::kInline, .transfer_bytes = n})
                      .latency_us;
    std::printf("%9llu", static_cast<unsigned long long>(n));
    for (const Variant& v : kVariants) {
      double lat = RunNetpipe({.isolation = v.iso, .transfer_bytes = n}).latency_us;
      std::printf(" %9.1f%%", 100.0 * (lat - base) / base);
      json.Row(std::string(v.key) + "_lat_overhead_pct", n, 100.0 * (lat - base) / base);
    }
    std::printf("\n");
  }
  std::printf("\nbandwidth overhead [%%] (lower is better)\n");
  std::printf("%9s %10s %10s %10s %10s %10s %10s\n", "size[B]", "dIPC", "dIPC+proc", "Kernel",
              "Sem", "Pipe", "Chan");
  for (int p = 6; p <= 12; p += 2) {
    uint64_t n = 1ull << p;
    json.BeginSeries("bw_n" + std::to_string(n));
    double base = RunNetpipe({.isolation = DriverIsolation::kInline, .transfer_bytes = n})
                      .bandwidth_mbps;
    std::printf("%9llu", static_cast<unsigned long long>(n));
    for (const Variant& v : kVariants) {
      double bw = RunNetpipe({.isolation = v.iso, .transfer_bytes = n}).bandwidth_mbps;
      std::printf(" %9.1f%%", 100.0 * (base - bw) / base);
      json.Row(std::string(v.key) + "_bw_overhead_pct", n, 100.0 * (base - bw) / base);
    }
    std::printf("\n");
  }
  // Streaming burst sweep for the channel variant: batched post_send
  // publication amortizes the per-request driver-invocation toll (the
  // doorbell-batching argument applied to the isolated-driver hop).
  std::printf("\nchannel driver, streaming bursts (64 B): per-request time [us]\n");
  std::printf("%9s %12s\n", "burst", "per-req[us]");
  for (int burst : {1, 4, 16, 64}) {
    json.BeginSeries("chan_burst_b" + std::to_string(burst));
    NetpipeResult r = RunNetpipe({.isolation = DriverIsolation::kChannel,
                                  .transfer_bytes = 64,
                                  .rounds = 64,
                                  .burst = burst});
    std::printf("%9d %12.3f\n", burst, r.round_trip_us);
    json.Row("chan_burst_per_req", static_cast<uint64_t>(burst), r.round_trip_us * 1e3);
  }
  std::printf("\npaper: dIPC ~1%% latency overhead, syscalls ~10%%, IPC >100%%;\n");
  std::printf("       pipe copies push bandwidth overhead above 60%% at 4 KB.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("fig7_driver", argc, argv);
  PrintFig7(json);
  return 0;
}
