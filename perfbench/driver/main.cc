// perfbench driver: runs one seeded workload against the simulator and
// prints its raw results as one JSON object on stdout. perfbench/run.py
// builds this binary, derives the metrics and checks the outputs.
//
//   perfbench_driver --workload sync_call|chan_stream|fabric_rpc --seed N
//                    --ops N [--spans PATH]
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "micro_harness.h"

namespace {

// Set-up repetitions per run. The first ones also warm the host allocator,
// so run.py reports their median as setup_s.
constexpr int kSetupReps = 9;

using perfbench::Fields;
using perfbench::Params;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload sync_call|chan_stream|fabric_rpc --seed N "
               "--ops N [--spans PATH]\n");
  return 2;
}

// The 1-byte fig5 anchor set, measured with bench_fig5_sync_calls' exact
// configurations (same harness functions), so the values equal its rows.
void MeasureAnchors(Fields& out) {
  using namespace dipc::bench;
  MicroConfig same{.arg_bytes = 1, .rounds = 400, .cross_cpu = false};
  out.Num("anchor.func_ns", MeasureFunction(same).roundtrip_ns);
  out.Num("anchor.dipc_low_ns",
          MeasureDipc({.cross_process = false, .high_policy = false}).roundtrip_ns);
  out.Num("anchor.dipc_high_ns",
          MeasureDipc({.cross_process = false, .high_policy = true}).roundtrip_ns);
  out.Num("anchor.dipc_proc_low_ns",
          MeasureDipc({.cross_process = true, .high_policy = false}).roundtrip_ns);
  out.Num("anchor.dipc_proc_high_ns",
          MeasureDipc({.cross_process = true, .high_policy = true}).roundtrip_ns);
  out.Num("anchor.sem_same_ns", MeasureSemaphore(same).roundtrip_ns);
  out.Num("anchor.l4_same_ns", MeasureL4(same).roundtrip_ns);
  out.Num("anchor.rpc_same_ns", MeasureLocalRpc(same).roundtrip_ns);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  Params params;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--workload") == 0 && (v = next())) {
      workload = v;
    } else if (std::strcmp(argv[i], "--seed") == 0 && (v = next())) {
      params.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--ops") == 0 && (v = next())) {
      params.ops = std::strtoll(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--spans") == 0 && (v = next())) {
      spans_path = v;
    } else {
      return Usage();
    }
  }
  double (*run)(const Params&, Fields&) = nullptr;
  if (workload == "sync_call") {
    run = perfbench::RunSyncCall;
  } else if (workload == "chan_stream") {
    run = perfbench::RunChanStream;
  } else if (workload == "fabric_rpc") {
    run = perfbench::RunFabricRpc;
  }
  if (run == nullptr || params.ops <= 0) {
    return Usage();
  }

  // Set-up repetitions build and warm a fresh world each and throw it away;
  // the last one goes on into the measured window. Spans cover that one only.
  std::string setup_s = "[";
  Fields out;
  for (int r = 0; r < kSetupReps; ++r) {
    const bool last = r == kSetupReps - 1;
    Params p = params;
    p.measure = last;
    if (last && !spans_path.empty()) {
      perfbench::Spans().Enable();
    }
    Fields scratch;
    double s = run(p, last ? out : scratch);
    if (scratch.failed()) {
      out.Fail("warm-up of a set-up repetition failed its output checks");
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", r == 0 ? "" : ", ", s);
    setup_s += buf;
  }
  setup_s += "]";
  out.Raw("host.setup_s", setup_s);
  MeasureAnchors(out);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.Int("host.peak_rss_kb", ru.ru_maxrss);
  if (!spans_path.empty() && !perfbench::Spans().Write(spans_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.Json().c_str());
  return 0;
}
