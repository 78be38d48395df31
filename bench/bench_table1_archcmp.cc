// Table 1: best-case round-trip domain switch with bulk data communication
// across architectures, modeled with this library's cost model:
//
//   Conventional: 2 syscalls + 4 swapgs + 2 sysret + page-table switch,
//                 data by memcpy.
//   CHERI:        2 exceptions for the switch, capability setup for data.
//   MMP:          2 pipeline flushes, data via pre-shared buffer copy or
//                 privileged protection-table writes.
//   CODOMs:       call + return, capability setup for data.
// Pass --json to also write BENCH_table1_archcmp.json.
#include <cstdio>
#include <string>

#include "hw/cost_model.h"
#include "micro_harness.h"

namespace {

using dipc::bench::JsonEmitter;
using dipc::hw::CostModel;

struct ArchCosts {
  double switch_ns;   // round-trip domain switch
  double data64_ns;   // communicate 64 B
  double data4k_ns;   // communicate 4 KB
};

// memcpy through warm caches: ~1 line per 64 B at L1 speed.
double CopyCost(const CostModel& cm, uint64_t bytes) {
  double lines = static_cast<double>((bytes + 63) / 64);
  return cm.l1_hit.nanos() * lines * 2;  // read src + write dst
}

ArchCosts Conventional(const CostModel& cm) {
  double sw = 2 * (cm.syscall_trap + cm.sysret + cm.syscall_dispatch).nanos() +
              2 * cm.page_table_switch.nanos() + 2 * cm.current_switch.nanos();
  return {sw, CopyCost(cm, 64), CopyCost(cm, 4096)};
}

ArchCosts Cheri(const CostModel& cm) {
  double sw = 2 * cm.exception_roundtrip.nanos();
  return {sw, cm.cap_setup.nanos(), cm.cap_setup.nanos()};
}

ArchCosts Mmp(const CostModel& cm) {
  double sw = 2 * cm.pipeline_flush.nanos();
  // Data: copy into a pre-shared buffer, or write+invalidate entries in the
  // privileged protection table (one table write per 4 KB region, kernel
  // mediated). We show the copy variant (the cheap one for small data).
  return {sw, CopyCost(cm, 64), CopyCost(cm, 4096)};
}

ArchCosts Codoms(const CostModel& cm) {
  double sw = cm.function_call.nanos() + 2 * cm.domain_switch.nanos() +
              2 * cm.apl_cache_lookup.nanos();
  return {sw, cm.cap_setup.nanos(), cm.cap_setup.nanos()};
}

void PrintTable1(JsonEmitter& json) {
  CostModel cm;
  std::printf("=== Table 1: best-case round-trip domain switch + bulk data [ns] ===\n");
  std::printf("%-16s %12s %12s %12s %14s\n", "architecture", "switch", "64B data", "4KB data",
              "switch+4KB");
  auto row = [&json](const char* name, const char* key, ArchCosts c) {
    std::printf("%-16s %12.1f %12.1f %12.1f %14.1f\n", name, c.switch_ns, c.data64_ns, c.data4k_ns,
                c.switch_ns + c.data4k_ns);
    // Pure cost-model arithmetic emits no counters, but the series boundary
    // keeps the --metrics schema uniform across all benches (and would catch
    // any simulation sneaking into a future cost model).
    json.BeginSeries(key);
    json.Row(std::string(key) + "_switch", 0, c.switch_ns);
    json.Row(std::string(key) + "_data64", 0, c.data64_ns);
    json.Row(std::string(key) + "_data4k", 0, c.data4k_ns);
  };
  row("Conventional", "conventional", Conventional(cm));
  row("CHERI", "cheri", Cheri(cm));
  row("MMP", "mmp", Mmp(cm));
  row("CODOMs", "codoms", Codoms(cm));
  std::printf("(CODOMs: call+return with capability setup; no traps, no flushes)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("table1_archcmp", argc, argv);
  PrintTable1(json);
  return 0;
}
