// Figure 6: added execution time of a producer->consumer synchronous call as
// the argument size grows (2^0 .. 2^20 bytes), relative to the baseline
// function call. Copy-based primitives (Pipe, RPC) grow with size; Sem only
// pays production/consumption; dIPC passes references (capabilities) and
// stays flat until cache effects. The L1$/L2$ knees come out of the cache
// model.
#include <cstdio>
#include <string>

#include "micro_harness.h"

namespace {

using dipc::bench::MeasureDipc;
using dipc::bench::MeasureDipcUserRpc;
using dipc::bench::MeasureFunction;
using dipc::bench::MeasureLocalRpc;
using dipc::bench::MeasurePipe;
using dipc::bench::MeasureSemaphore;
using dipc::bench::MeasureSyscall;
using dipc::bench::MicroConfig;

void PrintFig6(dipc::bench::JsonEmitter& json) {
  std::printf("=== Figure 6: added time vs argument size [ns], relative to a function call ===\n");
  std::printf("%9s %9s %9s %9s %9s %9s %9s %9s %9s\n", "size[B]", "syscall", "sem!=", "pipe!=",
              "rpc!=", "dipcL=", "dipcH=", "+procL=", "userRPC");
  for (int p = 0; p <= 20; p += 2) {
    uint64_t n = 1ull << p;
    // One metrics window per argument size: under --metrics the registry is
    // snapshotted and zeroed here, so each size's counters stand alone.
    json.BeginSeries("argsize_n" + std::to_string(n));
    int rounds = n >= (1 << 16) ? 40 : 150;
    MicroConfig same{.arg_bytes = n, .rounds = rounds, .cross_cpu = false};
    MicroConfig cross{.arg_bytes = n, .rounds = rounds, .cross_cpu = true};
    double func = MeasureFunction(same).roundtrip_ns;
    double sys = MeasureSyscall(same).roundtrip_ns - func;
    double sem = MeasureSemaphore(cross).roundtrip_ns - func;
    double pipe = MeasurePipe(cross).roundtrip_ns - func;
    double rpc = MeasureLocalRpc(cross).roundtrip_ns - func;
    double dl = MeasureDipc({.cross_process = false, .high_policy = false, .arg_bytes = n,
                             .rounds = rounds})
                    .roundtrip_ns -
                func;
    double dh = MeasureDipc({.cross_process = false, .high_policy = true, .arg_bytes = n,
                             .rounds = rounds})
                    .roundtrip_ns -
                func;
    double dpl = MeasureDipc({.cross_process = true, .high_policy = false, .arg_bytes = n,
                              .rounds = rounds})
                     .roundtrip_ns -
                 func;
    double urpc = MeasureDipcUserRpc(cross).roundtrip_ns - func;
    std::printf("%9llu %9.0f %9.0f %9.0f %9.0f %9.1f %9.1f %9.1f %9.0f\n",
                static_cast<unsigned long long>(n), sys, sem, pipe, rpc, dl, dh, dpl, urpc);
    json.Row("syscall", n, sys);
    json.Row("sem", n, sem);
    json.Row("pipe", n, pipe);
    json.Row("rpc", n, rpc);
    json.Row("dipc_low", n, dl);
    json.Row("dipc_high", n, dh);
    json.Row("dipc_proc_low", n, dpl);
    json.Row("user_rpc", n, urpc);
  }
  std::printf("(L1$ = 32 KB, L2$ = 256 KB: expect knees there for the copying primitives)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  dipc::bench::JsonEmitter json("fig6_argsize", argc, argv);
  PrintFig6(json);
  return 0;
}
