// Channel design points: the same synchronous producer->consumer payload
// sweep as Figure 6, run over four IPC designs —
//   pipe     copy through the kernel (2 crossings + 2 copies per message),
//   rpc      UNIX-socket RPC with user-level (de)marshalling,
//   dipc     synchronous cross-process dIPC call passing a capability,
//   chan     the zero-copy shared-memory channel (src/chan/): ownership
//            moves by capability grant/revoke (epoch-cached: steady state
//            mints nothing), so transfer cost is O(1) in payload size,
//   stream1/stream32   the same channel driven as a pipeline instead of a
//            ping-pong, publishing 1 vs 32 descriptors per batch — the
//            batched hot path's per-message cost.
// Copy-based designs grow linearly with the argument size; dipc and chan
// only pay production/consumption of the payload (cache effects), which is
// the paper's Fig. 6 argument extended to streaming channels.
//
// Pass --json to also write BENCH_chan_designpoints.json.
#include <cstdio>
#include <string>

#include "micro_harness.h"

namespace {

using dipc::bench::JsonEmitter;
using dipc::bench::MeasureChannel;
using dipc::bench::MeasureDipc;
using dipc::bench::MeasureFunction;
using dipc::bench::MeasureLocalRpc;
using dipc::bench::MeasurePipe;
using dipc::bench::MeasureStream;
using dipc::bench::MicroConfig;
using dipc::bench::StreamConfig;
using dipc::bench::StreamShape;

void PrintDesignPoints(JsonEmitter& json) {
  std::printf(
      "=== Channel design points: added producer->consumer time vs payload size [ns] ===\n");
  std::printf("%9s %10s %10s %10s %10s %10s %10s %10s\n", "size[B]", "pipe!=", "rpc!=",
              "dipc+proc", "chan!=", "chan=", "stream1", "stream32");
  for (int p = 0; p <= 20; p += 2) {
    uint64_t n = 1ull << p;
    // One metrics window per payload size: under --metrics the registry is
    // snapshotted + zeroed here, so each size row's counters stand alone.
    char point[48];
    std::snprintf(point, sizeof(point), "designpoints_n%llu", static_cast<unsigned long long>(n));
    json.BeginSeries(point);
    int rounds = n >= (1 << 16) ? 40 : 150;
    MicroConfig cross{.arg_bytes = n, .rounds = rounds, .cross_cpu = true};
    MicroConfig same{.arg_bytes = n, .rounds = rounds, .cross_cpu = false};
    double func = MeasureFunction({.arg_bytes = n, .rounds = rounds}).roundtrip_ns;
    double pipe = MeasurePipe(cross).roundtrip_ns - func;
    double rpc = MeasureLocalRpc(cross).roundtrip_ns - func;
    double dipc = MeasureDipc({.cross_process = true, .high_policy = false, .arg_bytes = n,
                               .rounds = rounds})
                      .roundtrip_ns -
                  func;
    double chan_x = MeasureChannel(cross).roundtrip_ns - func;
    double chan_s = MeasureChannel(same).roundtrip_ns - func;
    int messages = n >= (1 << 16) ? 256 : 1024;
    double stream1 = MeasureStream({.payload_bytes = n, .batch = 1, .messages = messages});
    double stream32 = MeasureStream({.payload_bytes = n, .batch = 32, .messages = messages});
    std::printf("%9llu %10.0f %10.0f %10.1f %10.0f %10.0f %10.1f %10.1f\n",
                static_cast<unsigned long long>(n), pipe, rpc, dipc, chan_x, chan_s, stream1,
                stream32);
    json.Row("pipe", n, pipe);
    json.Row("rpc", n, rpc);
    json.Row("dipc", n, dipc);
    json.Row("chan_cross_cpu", n, chan_x);
    json.Row("chan_same_cpu", n, chan_s);
    json.Row("chan_stream_b1", n, stream1);
    json.Row("chan_stream_b32", n, stream32);
  }
  std::printf(
      "(pipe/rpc grow with size: per-byte kernel copies. chan's grant/revoke transfer\n"
      " is O(1); chan!= residual growth is the cross-core cache transfer of the\n"
      " payload itself, which every design pays and chan= avoids. stream1/stream32\n"
      " are pipelined per-message costs; 32-batching amortizes the fixed toll)\n\n");
}

// One fan row in its own --metrics window, labelled <series>@<x>: under
// --metrics the registry is snapshotted and zeroed here.
double FanRow(JsonEmitter& json, const char* series, uint32_t x, const StreamConfig& config) {
  json.BeginSeries(std::string(series) + "@" + std::to_string(x));
  double ns = MeasureStream(config);
  json.Row(series, x, ns);
  return ns;
}

// Receiver-count sweep: the fan-out plane's per-published-message cost as
// the group grows — broadcast (every receiver gets its own grant over every
// message) vs round-robin sharding (the OLTP request-distribution shape),
// at batch 1 and 32. Broadcast pays one grant+store+descriptor-push per
// receiver; everything else (runtime entry, free-pool op, sender revoke,
// fast path) is shared, so per-message cost grows sublinearly in N.
void PrintFanOutSweep(JsonEmitter& json) {
  std::printf("=== Fan-out: per-published-message cost vs receiver count [ns] ===\n");
  std::printf("%10s %12s %12s %12s %12s\n", "receivers", "bcast b1", "bcast b32", "shard b1",
              "shard b32");
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    std::printf("%10u", n);
    for (bool shard : {false, true}) {
      for (int batch : {1, 32}) {
        char series[32];
        std::snprintf(series, sizeof(series), "fanout_%s_b%d", shard ? "shard" : "bcast", batch);
        std::printf(" %12.1f", FanRow(json, series, n,
                                      {.shape = StreamShape::kFanOut, .group = n,
                                       .batch = batch, .messages = 768, .shard = shard}));
      }
    }
    std::printf("\n");
  }
  std::printf(
      "(broadcast at N receivers delivers N messages per publish; sharding keeps one\n"
      " delivery per publish and parallelizes consumption across receiver CPUs)\n\n");
}

// Producer-count sweep for the mirror-image fan-in plane: per-published-
// message cost as more client domains feed the one consumer. Every producer
// has its own per-slot write templates and credit line, but the descriptor
// plane is one shared MpmcQueue, so per-message cost stays near-flat while
// admission parallelizes across producer CPUs.
void PrintFanInSweep(JsonEmitter& json) {
  std::printf("=== Fan-in: per-published-message cost vs producer count [ns] ===\n");
  std::printf("%10s %12s %12s\n", "producers", "b1", "b32");
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    std::printf("%10u", n);
    for (int batch : {1, 32}) {
      char series[32];
      std::snprintf(series, sizeof(series), "fanin_b%d", batch);
      std::printf(" %12.1f", FanRow(json, series, n,
                                    {.shape = StreamShape::kFanIn, .group = n, .batch = batch,
                                     .messages = 768}));
    }
    std::printf("\n");
  }
  std::printf(
      "(all producers publish into one shared consumer FIFO; credit lines keep one\n"
      " producer from pinning the pool, write grants stay per-producer)\n\n");
}

// Multi-tenant fabric echo: ns per request/response round trip as the
// tenant count grows, shared-trio vs per-channel trios. Shared trios keep
// the whole fabric inside the 32-entry per-CPU APL cache at any tenant
// count; per-channel trios exceed it somewhere past ~5 tenants (2 planes x
// 3 tags each) and every cross-domain access starts paying the miss.
void PrintFabricSweep(dipc::bench::JsonEmitter& json) {
  std::printf("=== Service fabric: ns per echo call vs tenants (4 workers) ===\n");
  std::printf("%10s %14s %14s\n", "tenants", "shared-trio", "per-chan trios");
  for (uint32_t tenants : {1u, 16u, 64u, 512u}) {
    // Hundreds of tenants mean thousands of live channels; fewer calls per
    // tenant keep the big rows tractable.
    int calls = tenants >= 64 ? 8 : 32;
    char point[48];
    std::snprintf(point, sizeof(point), "fabric_n%u", tenants);
    json.BeginSeries(point);
    double shared = dipc::bench::MeasureFabricEcho(
        {.tenants = tenants, .workers = 4, .calls_per_tenant = calls, .shared_trio = true});
    double pertrio = dipc::bench::MeasureFabricEcho(
        {.tenants = tenants, .workers = 4, .calls_per_tenant = calls, .shared_trio = false});
    std::printf("%10u %14.1f %14.1f\n", tenants, shared, pertrio);
    json.Row("fabric_shared_trio", tenants, shared);
    json.Row("fabric_pertrio", tenants, pertrio);
  }
  std::printf(
      "(each tenant is a client domain with its own fan-out request plane and\n"
      " fan-in response plane over 4 shared worker domains; opid-matched dispatch)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("chan_designpoints", argc, argv);
  PrintDesignPoints(json);
  PrintFanOutSweep(json);
  PrintFanInSweep(json);
  PrintFabricSweep(json);
  return 0;
}
