// Figure 5: performance of synchronous calls in dIPC and other primitives
// (1-byte argument). Also §7.2's derived claims: dIPC is 64.12x faster than
// local RPC and 8.87x faster than L4; asymmetric policies span up to 8.47x;
// cross-process speedups range 14.16x-120.67x; eliding the TLS switch would
// buy 1.54x-3.22x.
#include <cstdio>

#include "micro_harness.h"

namespace {

using dipc::bench::MeasureDipc;
using dipc::bench::MeasureDipcUserRpc;
using dipc::bench::MeasureFunction;
using dipc::bench::MeasureL4;
using dipc::bench::MeasureLocalRpc;
using dipc::bench::MeasurePipe;
using dipc::bench::MeasureSemaphore;
using dipc::bench::MeasureSyscall;
using dipc::bench::MicroConfig;

using dipc::bench::JsonEmitter;

struct Row {
  const char* name;
  const char* key;
  double ns;
};

void PrintFig5Table(JsonEmitter& json) {
  MicroConfig same{.arg_bytes = 1, .rounds = 400, .cross_cpu = false};
  MicroConfig cross{.arg_bytes = 1, .rounds = 400, .cross_cpu = true};

  // Each primitive gets its own metrics series (BeginSeries resets the
  // registry), so --metrics counters attribute to one measurement each.
  json.BeginSeries("func");
  double func = MeasureFunction(same).roundtrip_ns;
  json.BeginSeries("syscall");
  double sys = MeasureSyscall(same).roundtrip_ns;
  json.BeginSeries("dipc_low");
  double dipc_low = MeasureDipc({.cross_process = false, .high_policy = false}).roundtrip_ns;
  json.BeginSeries("dipc_high");
  double dipc_high = MeasureDipc({.cross_process = false, .high_policy = true}).roundtrip_ns;
  json.BeginSeries("sem_same");
  double sem_same = MeasureSemaphore(same).roundtrip_ns;
  json.BeginSeries("sem_cross");
  double sem_cross = MeasureSemaphore(cross).roundtrip_ns;
  json.BeginSeries("pipe_same");
  double pipe_same = MeasurePipe(same).roundtrip_ns;
  json.BeginSeries("pipe_cross");
  double pipe_cross = MeasurePipe(cross).roundtrip_ns;
  json.BeginSeries("dipc_proc_low");
  double proc_low = MeasureDipc({.cross_process = true, .high_policy = false}).roundtrip_ns;
  json.BeginSeries("dipc_proc_high");
  double proc_high = MeasureDipc({.cross_process = true, .high_policy = true}).roundtrip_ns;
  json.BeginSeries("rpc_same");
  double rpc_same = MeasureLocalRpc(same).roundtrip_ns;
  json.BeginSeries("rpc_cross");
  double rpc_cross = MeasureLocalRpc(cross).roundtrip_ns;
  json.BeginSeries("l4_same");
  double l4_same = MeasureL4(same).roundtrip_ns;
  json.BeginSeries("l4_cross");
  double l4_cross = MeasureL4(cross).roundtrip_ns;
  json.BeginSeries("dipc_user_rpc");
  double user_rpc = MeasureDipcUserRpc(cross).roundtrip_ns;
  json.BeginSeries("dipc_proc_low_notls");
  double proc_low_notls =
      MeasureDipc({.cross_process = true, .high_policy = false, .arg_bytes = 1, .rounds = 300,
                   .elide_tls_switch = true})
          .roundtrip_ns;
  json.BeginSeries("dipc_proc_high_notls");
  double proc_high_notls =
      MeasureDipc({.cross_process = true, .high_policy = true, .arg_bytes = 1, .rounds = 300,
                   .elide_tls_switch = true})
          .roundtrip_ns;

  std::printf("=== Figure 5: synchronous calls, 1-byte argument ===\n");
  std::printf("%-28s %12s %10s\n", "primitive", "time [ns]", "x func");
  Row rows[] = {
      {"Func.", "func", func},
      {"Syscall", "syscall", sys},
      {"dIPC - Low (=CPU)", "dipc_low", dipc_low},
      {"dIPC - High (=CPU)", "dipc_high", dipc_high},
      {"Sem. (=CPU)", "sem_same", sem_same},
      {"Sem. (!=CPU)", "sem_cross", sem_cross},
      {"Pipe (=CPU)", "pipe_same", pipe_same},
      {"Pipe (!=CPU)", "pipe_cross", pipe_cross},
      {"dIPC +proc - Low (=CPU)", "dipc_proc_low", proc_low},
      {"dIPC +proc - High (=CPU)", "dipc_proc_high", proc_high},
      {"L4 (=CPU)", "l4_same", l4_same},
      {"L4 (!=CPU)", "l4_cross", l4_cross},
      {"Local RPC (=CPU)", "rpc_same", rpc_same},
      {"Local RPC (!=CPU)", "rpc_cross", rpc_cross},
      {"dIPC - User RPC (!=CPU)", "dipc_user_rpc", user_rpc},
  };
  for (const Row& r : rows) {
    std::printf("%-28s %12.1f %9.0fx\n", r.name, r.ns, r.ns / func);
    json.Row(r.key, 0, r.ns);
  }
  json.Row("dipc_proc_low_notls", 0, proc_low_notls);
  json.Row("dipc_proc_high_notls", 0, proc_high_notls);
  std::printf("\n--- paper anchors (measured vs paper) ---\n");
  std::printf("RPC(=CPU) / dIPC+proc-High : %7.2fx   (paper: 64.12x)\n", rpc_same / proc_high);
  std::printf("L4(=CPU)  / dIPC+proc-High : %7.2fx   (paper:  8.87x)\n", l4_same / proc_high);
  std::printf("dIPC High / Low (=CPU)     : %7.2fx   (paper:  8.47x)\n", dipc_high / dipc_low);
  std::printf("Sem(=CPU) / dIPC+proc-High : %7.2fx   (paper: 14.16x)\n", sem_same / proc_high);
  std::printf("RPC(=CPU) / dIPC+proc-Low  : %7.2fx   (paper: 120.67x)\n", rpc_same / proc_low);
  std::printf("User RPC vs RPC(!=CPU)     : %7.2fx   (paper: ~2x faster)\n", rpc_cross / user_rpc);
  std::printf("TLS elision: +proc Low %.2fx, High %.2fx   (paper: 1.54x-3.22x)\n",
              proc_low / proc_low_notls, proc_high / proc_high_notls);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("fig5_sync_calls", argc, argv);
  PrintFig5Table(json);
  return 0;
}
