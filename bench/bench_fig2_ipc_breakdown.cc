// Figure 2: time breakdown of different IPC primitives (1-byte argument)
// into the paper's blocks: (1) user code, (2) syscall+2*swapgs+sysret,
// (3) syscall dispatch trampoline, (4) kernel/privileged code,
// (5) schedule/context switch, (6) page table switch, (7) idle/IO wait.
#include <cstdio>

#include "micro_harness.h"

namespace {

using dipc::bench::MeasureL4;
using dipc::bench::MeasureLocalRpc;
using dipc::bench::MeasureSemaphore;
using dipc::bench::MicroConfig;
using dipc::bench::MicroResult;
using dipc::os::TimeCat;

using dipc::bench::JsonEmitter;

void PrintRow(JsonEmitter& json, const char* name, const char* key, const MicroResult& r) {
  std::printf("%-20s %8.0f | %6.0f %6.0f %6.0f %6.0f %6.0f %6.0f %6.0f\n", name, r.roundtrip_ns,
              r.breakdown[TimeCat::kUser].nanos(), r.breakdown[TimeCat::kSyscallCrossing].nanos(),
              r.breakdown[TimeCat::kSyscallDispatch].nanos(), r.breakdown[TimeCat::kKernel].nanos(),
              r.breakdown[TimeCat::kSchedule].nanos(),
              r.breakdown[TimeCat::kPageTableSwitch].nanos(),
              r.breakdown[TimeCat::kIdle].nanos());
  const std::string k(key);
  json.Row(k + "_total", 0, r.roundtrip_ns);
  json.Row(k + "_user", 0, r.breakdown[TimeCat::kUser].nanos());
  json.Row(k + "_syscall", 0, r.breakdown[TimeCat::kSyscallCrossing].nanos());
  json.Row(k + "_dispatch", 0, r.breakdown[TimeCat::kSyscallDispatch].nanos());
  json.Row(k + "_kernel", 0, r.breakdown[TimeCat::kKernel].nanos());
  json.Row(k + "_sched", 0, r.breakdown[TimeCat::kSchedule].nanos());
  json.Row(k + "_pgtable", 0, r.breakdown[TimeCat::kPageTableSwitch].nanos());
  json.Row(k + "_idle", 0, r.breakdown[TimeCat::kIdle].nanos());
}

void PrintFig2(JsonEmitter& json) {
  std::printf("=== Figure 2: IPC primitive time breakdown [ns per round trip] ===\n");
  std::printf("%-20s %8s | %6s %6s %6s %6s %6s %6s %6s\n", "primitive", "total", "(1)usr",
              "(2)sys", "(3)dsp", "(4)krn", "(5)sch", "(6)pgt", "(7)idl");
  MicroConfig same{.arg_bytes = 1, .rounds = 400, .cross_cpu = false};
  MicroConfig cross{.arg_bytes = 1, .rounds = 400, .cross_cpu = true};
  // One metrics series per primitive: BeginSeries resets the registry, so
  // --metrics counters attribute to the measurement that produced them.
  json.BeginSeries("sem_same");
  PrintRow(json, "Sem. (=CPU)", "sem_same", MeasureSemaphore(same));
  json.BeginSeries("sem_cross");
  PrintRow(json, "Sem. (!=CPU)", "sem_cross", MeasureSemaphore(cross));
  json.BeginSeries("l4_same");
  PrintRow(json, "L4 (=CPU)", "l4_same", MeasureL4(same));
  json.BeginSeries("l4_cross");
  PrintRow(json, "L4 (!=CPU)", "l4_cross", MeasureL4(cross));
  json.BeginSeries("rpc_same");
  PrintRow(json, "Local RPC (=CPU)", "rpc_same", MeasureLocalRpc(same));
  json.BeginSeries("rpc_cross");
  PrintRow(json, "Local RPC (!=CPU)", "rpc_cross", MeasureLocalRpc(cross));
  std::printf("(reference: function call ~2 ns, empty syscall ~34 ns)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("fig2_ipc_breakdown", argc, argv);
  PrintFig2(json);
  return 0;
}
