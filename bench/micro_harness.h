// Shared micro-benchmark harness: one synchronous producer->consumer call
// with an argument of a given size, measured over every IPC primitive the
// paper compares (§7.2, Figures 2, 5 and 6).
//
// Semantics follow the paper: the caller writes the argument, the callee
// reads it. Arguments <= 8 bytes travel in registers for function calls,
// dIPC and L4; Sem uses a pre-shared buffer (no copies); Pipe and RPC copy
// through the kernel; dIPC passes a pointer plus a CODOMs capability.
//
// Every round-trip measurement (MeasureFunction ... MeasureChannel) runs in
// a world with only the CPUs its threads use: one, or two when the callee
// runs on another CPU (MeasureDipcUserRpc always). The caller runs on CPU 0,
// makes 8 untimed warm-up round trips and then `rounds` timed ones. The
// window opens as the first timed round trip starts and closes as the last
// one returns, and idle time open at either edge is counted in it, so the
// breakdown's parts sum to CPUs x round trip (each part is truncated to a
// whole picosecond per round).
#ifndef DIPC_BENCH_MICRO_HARNESS_H_
#define DIPC_BENCH_MICRO_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "os/accounting.h"

namespace dipc::bench {

struct MicroConfig {
  uint64_t arg_bytes = 1;
  int rounds = 300;
  bool cross_cpu = false;
};

struct MicroResult {
  double roundtrip_ns = 0;
  os::TimeBreakdown breakdown;  // per round trip, summed over CPUs
};

MicroResult MeasureFunction(const MicroConfig& config);
MicroResult MeasureSyscall(const MicroConfig& config);
MicroResult MeasureSemaphore(const MicroConfig& config);
MicroResult MeasurePipe(const MicroConfig& config);
MicroResult MeasureLocalRpc(const MicroConfig& config);
MicroResult MeasureL4(const MicroConfig& config);

struct DipcMicroConfig {
  bool cross_process = false;  // "+proc"
  bool high_policy = false;    // Low vs High isolation
  uint64_t arg_bytes = 1;
  int rounds = 300;
  bool elide_tls_switch = false;  // §6.1.2's wrfsbase optimization headroom
};
MicroResult MeasureDipc(const DipcMicroConfig& config);

// "dIPC - User RPC (!=CPU)": cross-CPU RPC semantics implemented at user
// level — the arguments are copied into a shared buffer and a thread on
// another CPU processes them; the OS only synchronizes the threads (§7.2).
MicroResult MeasureDipcUserRpc(const MicroConfig& config);

// Zero-copy shared-memory channel (src/chan/): a one-slot channel gives
// synchronous producer->consumer semantics; the payload moves by capability
// grant, so the transfer cost is O(1) in arg_bytes.
MicroResult MeasureChannel(const MicroConfig& config);

// Streaming (pipelined) transfer over one chan::Plane (src/chan/plane.h):
// the producers publish `messages` payloads in batches of up to `batch`
// (AcquireBufBatch/SendBatch), the receivers drain, read and release them
// in batches of up to `batch` (RecvBatch/ReleaseBatch); batch 1 pays the
// fixed software toll on every message, a larger batch once per batch. The
// shape names the plane:
//   kChannel  the 1x1 Channel (chan/channel.h);
//   kFanOut   one producer feeding `group` receivers: every message to
//             every receiver, or with `shard` each batch to the next live
//             receiver round-robin (the OLTP request-distribution shape);
//   kFanIn    `group` producers, each publishing its share, feeding one
//             receiver through one shared descriptor FIFO.
// The single endpoint runs on CPU 0, the group's endpoint i on CPU 1 + i,
// and the last producer closes the plane after its last send. A warmup of
// one slot rotation plus one batch per producer mints every capability
// template and warms the segments. Returns the steady-state ns per
// published message, measured from the release that completes the
// warmup-th message (a broadcast counts each receiver's release) to the
// last release.
enum class StreamShape : uint8_t { kChannel, kFanOut, kFanIn };
struct StreamConfig {
  StreamShape shape = StreamShape::kChannel;
  uint32_t group = 1;  // receivers of kFanOut, producers of kFanIn
  uint64_t payload_bytes = 64;
  int batch = 1;
  int messages = 2048;  // across all producers
  bool shard = false;   // kFanOut only
};
double MeasureStream(const StreamConfig& config);

// Service-fabric echo (src/fabric/fabric.h): `tenants` client domains each
// drive `calls_per_tenant` request/response round trips across `workers`
// worker domains through the N x M fabric (per-tenant fan-out request
// plane + fan-in response plane, opid-matched dispatch). `shared_trio`
// toggles one domain-tag trio per plane direction (APL-cache friendly, the
// default) against a private trio per channel — at hundreds of tenants the
// latter overwhelms the 32-entry per-CPU APL cache and every access pays
// the miss. Returns the steady-state ns per completed call.
struct FabricEchoConfig {
  uint32_t tenants = 8;
  uint32_t workers = 4;
  int calls_per_tenant = 32;
  uint64_t req_bytes = 64;
  uint64_t resp_bytes = 64;
  bool shared_trio = true;
};
double MeasureFabricEcho(const FabricEchoConfig& config);

// The bench binaries' command line: each accepts exactly these flags, and
// JsonEmitter's constructor prints a usage line to stderr and exits with
// status 2 on any other argument.
//   --json           write the recorded (series, x, value) rows to
//                    BENCH_<name>.json on destruction: the machine-readable
//                    perf trajectory consumed by CI.
//   --metrics        embed the obs::Registry snapshots as a "metrics" object
//                    in BENCH_<name>.json (or print them to stdout when
//                    --json is absent).
//   --trace[=path]   enable the global obs::TraceRing for the run and export
//                    Chrome trace_event JSON to `path` on destruction
//                    (default BENCH_<name>.trace.json). Tracing charges a
//                    modeled per-event cost, so traced numbers are *not*
//                    comparable with untraced ones — CI runs --trace as a
//                    separate invocation.
class JsonEmitter {
 public:
  JsonEmitter(std::string name, int argc, char** argv);
  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;
  ~JsonEmitter();

  bool enabled() const { return enabled_; }
  bool metrics() const { return metrics_; }
  bool tracing() const { return !trace_path_.empty(); }
  void Row(const std::string& series, uint64_t x, double value_ns);

  // Marks a series boundary for --metrics: snapshots the metric registry
  // under the previously opened label and zeroes it, so each series'
  // counters cover only its own measurement instead of accumulating
  // everything the binary ran before it. No-op without --metrics. Counts made
  // before the first boundary are dropped, and a bench that opens no series
  // writes an empty "metrics" map.
  void BeginSeries(const std::string& label);

 private:
  std::string name_;
  bool enabled_ = false;
  bool metrics_ = false;
  std::string trace_path_;  // empty = tracing off
  struct RowData {
    std::string series;
    uint64_t x;
    double value_ns;
  };
  std::vector<RowData> rows_;
  // --metrics per-series snapshots, in BeginSeries order; open_series_ is
  // the label accumulating since the last boundary ("" = none opened yet).
  std::vector<std::pair<std::string, std::string>> series_metrics_;
  std::string open_series_;
};

}  // namespace dipc::bench

#endif  // DIPC_BENCH_MICRO_HARNESS_H_
