// Figure 8: throughput of the dynamic web stack under vanilla Linux, dIPC
// and the Ideal unsafe build, for the on-disk and in-memory database
// configurations across 4..512 threads per component. The paper reports
// dIPC speedups up to 3.18x (on-disk) and 5.12x (in-memory), always >= 94%
// of the Ideal configuration's efficiency.
// Pass --json to also write BENCH_fig8_oltp.json.
#include <cstdio>
#include <string>

#include "apps/oltp/oltp.h"
#include "micro_harness.h"

namespace {

using dipc::apps::DbStorage;
using dipc::apps::OltpConfig;
using dipc::apps::OltpMode;
using dipc::apps::OltpResult;
using dipc::apps::RunOltp;
using dipc::bench::JsonEmitter;

constexpr int kThreadSweep[] = {4, 16, 64, 256, 512};

OltpConfig Fig8Config(OltpMode mode, DbStorage storage, int threads) {
  OltpConfig c;
  c.mode = mode;
  c.storage = storage;
  c.threads = threads;
  c.warmup = dipc::sim::Duration::Millis(50);
  c.measure = dipc::sim::Duration::Millis(350);
  return c;
}

void PrintPanel(JsonEmitter& json, DbStorage storage) {
  const char* skey = storage == DbStorage::kDisk ? "disk" : "mem";
  std::printf("--- %s DB ---\n", storage == DbStorage::kDisk ? "on-disk" : "in-memory");
  std::printf("%8s %14s %14s %14s %14s %10s %10s %8s\n", "threads", "Linux[op/m]", "Chan[op/m]",
              "dIPC[op/m]", "Ideal[op/m]", "dIPC x", "Ideal x", "dIPC eff");
  for (int threads : kThreadSweep) {
    // Each configuration is its own metrics window: under --metrics the
    // registry is snapshotted + zeroed at this boundary, so a snapshot
    // covers exactly one RunOltp and not the whole binary's history.
    auto run = [&](OltpMode mode, const char* prefix) {
      json.BeginSeries(std::string(prefix) + "_" + skey + "_t" + std::to_string(threads));
      return RunOltp(Fig8Config(mode, storage, threads));
    };
    OltpResult linux_r = run(OltpMode::kLinuxIpc, "linux");
    OltpResult chan_r = run(OltpMode::kChan, "chan");
    OltpResult dipc_r = run(OltpMode::kDipc, "dipc");
    OltpResult ideal_r = run(OltpMode::kIdeal, "ideal");
    std::printf("%8d %14.0f %14.0f %14.0f %14.0f %9.2fx %9.2fx %7.0f%%\n", threads,
                linux_r.ops_per_min, chan_r.ops_per_min, dipc_r.ops_per_min, ideal_r.ops_per_min,
                dipc_r.ops_per_min / linux_r.ops_per_min,
                ideal_r.ops_per_min / linux_r.ops_per_min,
                100.0 * dipc_r.ops_per_min / ideal_r.ops_per_min);
    auto per_op_ns = [](const OltpResult& r) {
      return r.operations > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.operations) : 0.0;
    };
    json.Row(std::string("linux_") + skey, threads, per_op_ns(linux_r));
    json.Row(std::string("chan_") + skey, threads, per_op_ns(chan_r));
    json.Row(std::string("dipc_") + skey, threads, per_op_ns(dipc_r));
    json.Row(std::string("ideal_") + skey, threads, per_op_ns(ideal_r));
  }
  std::printf("\n");
}

// Receiver-count sweep for the fan-out-sharded channel mode: how the chan
// tier scales with the number of PHP/DB worker domains the web tier shards
// across (64 web threads, in-memory DB).
void PrintWorkerSweep(JsonEmitter& json) {
  std::printf("--- Chan mode: PHP/DB worker-domain sweep (64 threads, in-memory) ---\n");
  std::printf("%8s %14s %14s\n", "workers", "Chan[op/m]", "ns/op");
  for (int workers : {1, 2, 4, 8}) {
    OltpConfig c = Fig8Config(OltpMode::kChan, DbStorage::kMemory, 64);
    c.chan_workers = workers;
    json.BeginSeries("chan_mem_workers_w" + std::to_string(workers));
    OltpResult r = RunOltp(c);
    double per_op_ns =
        r.operations > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.operations) : 0.0;
    std::printf("%8d %14.0f %14.0f\n", workers, r.ops_per_min, per_op_ns);
    json.Row("chan_mem_workers", workers, per_op_ns);
  }
  std::printf("\n");
}

// Multi-tenant fabric sweep: many web-tier client domains sharing the same
// 4-worker PHP tier through the service fabric. With shared trios the whole
// fabric presents a handful of domain tags to the 32-entry per-CPU APL
// cache no matter the tenant count; with per-channel trios every tenant's
// plane pair brings its own, and hundreds of tenants thrash the cache.
void PrintTenantSweep(JsonEmitter& json) {
  std::printf("--- Chan mode: multi-tenant fabric sweep (64 threads, 4 workers, in-memory) ---\n");
  std::printf("%8s %10s %14s %14s\n", "tenants", "trios", "Chan[op/m]", "ns/op");
  for (bool shared : {true, false}) {
    const char* series = shared ? "oltp_tenants_shared" : "oltp_tenants_pertrio";
    for (int tenants : {1, 8, 32, 128}) {
      OltpConfig c = Fig8Config(OltpMode::kChan, DbStorage::kMemory, 64);
      c.chan_workers = 4;
      c.tenants = tenants;
      c.shared_trios = shared;
      // The big rows multiply the live-channel count into the thousands;
      // a shorter window keeps the whole sweep tractable.
      c.measure = dipc::sim::Duration::Millis(tenants >= 32 ? 100 : 250);
      json.BeginSeries(std::string(series) + "_n" + std::to_string(tenants));
      OltpResult r = RunOltp(c);
      double per_op_ns =
          r.operations > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.operations) : 0.0;
      std::printf("%8d %10s %14.0f %14.0f\n", tenants, shared ? "shared" : "per-chan",
                  r.ops_per_min, per_op_ns);
      json.Row(series, static_cast<uint64_t>(tenants), per_op_ns);
    }
  }
  std::printf("\n");
}

void PrintFig8(JsonEmitter& json) {
  std::printf("=== Figure 8: dynamic web serving throughput (4 CPUs) ===\n");
  PrintPanel(json, DbStorage::kDisk);
  PrintPanel(json, DbStorage::kMemory);
  PrintWorkerSweep(json);
  PrintTenantSweep(json);
  std::printf("paper: dIPC up to 3.18x (disk) / 5.12x (memory) over Linux;\n");
  std::printf("       speedups peak at 16 threads; dIPC >= 94%% of Ideal everywhere.\n");
  std::printf("(Chan: fan-out-sharded worker domains over zero-copy channels; JSON rows\n");
  std::printf(" are per-operation wall time in ns)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("fig8_oltp", argc, argv);
  PrintFig8(json);
  return 0;
}
