// Figure 1: time breakdown of the OLTP web application stack — unmodified
// Linux (process isolation + IPC) vs an Ideal unsafe single-process build.
// The paper reports Linux 51%/23%/24% user/kernel/idle, Ideal 81%/16%/1%,
// and a 1.92x IPC-overhead gap on the in-memory configuration.
// Pass --json to also write BENCH_fig1_breakdown.json.
#include <cstdio>

#include "apps/oltp/oltp.h"
#include "micro_harness.h"

namespace {

using dipc::apps::DbStorage;
using dipc::apps::OltpConfig;
using dipc::apps::OltpMode;
using dipc::apps::OltpResult;
using dipc::apps::RunOltp;

OltpConfig Fig1Config(OltpMode mode) {
  OltpConfig c;
  c.mode = mode;
  c.storage = DbStorage::kMemory;
  // Lightly loaded (one primary thread per CPU): Figure 1 reports per-op
  // *latency* and its breakdown; the idle share is the synchronous-IPC
  // stall time, visible when the system is not saturated.
  c.threads = 4;
  c.warmup = dipc::sim::Duration::Millis(60);
  c.measure = dipc::sim::Duration::Millis(500);
  return c;
}

void PrintFig1(dipc::bench::JsonEmitter& json) {
  // Series boundaries bracket each configuration so --metrics counters
  // attribute to the run that produced them, not the whole process.
  json.BeginSeries("linux");
  OltpResult linux_r = RunOltp(Fig1Config(OltpMode::kLinuxIpc));
  json.BeginSeries("chan");
  OltpResult chan_r = RunOltp(Fig1Config(OltpMode::kChan));
  json.BeginSeries("ideal");
  OltpResult ideal_r = RunOltp(Fig1Config(OltpMode::kIdeal));
  std::printf("=== Figure 1: OLTP stack time breakdown (in-memory DB, lightly loaded) ===\n");
  std::printf("%-16s %12s %8s %8s %8s\n", "config", "latency[ms]", "user%", "kernel%", "idle%");
  auto row = [&json](const char* name, const char* key, const OltpResult& r) {
    std::printf("%-16s %12.2f %7.0f%% %7.0f%% %7.0f%%\n", name, r.avg_latency_ms,
                100 * r.UserFrac(), 100 * r.KernelFrac(), 100 * r.IdleFrac());
    json.Row(std::string(key) + "_latency", 0, r.avg_latency_ms * 1e6);
    json.Row(std::string(key) + "_user_pct", 0, 100 * r.UserFrac());
    json.Row(std::string(key) + "_kernel_pct", 0, 100 * r.KernelFrac());
    json.Row(std::string(key) + "_idle_pct", 0, 100 * r.IdleFrac());
  };
  row("Linux", "linux", linux_r);
  row("Chan (zero-copy)", "chan", chan_r);
  row("Ideal (unsafe)", "ideal", ideal_r);
  std::printf("\nIPC overhead (latency ratio Linux/Ideal): %.2fx   (paper: 1.92x)\n",
              linux_r.avg_latency_ms / ideal_r.avg_latency_ms);
  std::printf("paper breakdowns: Linux 51%%/23%%/24%%, Ideal 81%%/16%%/1%%\n");
  std::printf("(Chan: Linux thread structure over zero-copy channels — the copy+glue\n"
              " share of the Linux gap disappears, the false-concurrency share stays)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  dipc::bench::JsonEmitter json("fig1_breakdown", argc, argv);
  PrintFig1(json);
  return 0;
}
