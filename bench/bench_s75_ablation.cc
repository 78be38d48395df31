// §7.5 ablations on the OLTP macro-benchmark (in-memory, 256 threads):
//
//  (a) Cross-domain call cost sensitivity: the paper argues proxy-mediated
//      calls could be up to 14x slower before voiding dIPC's benefit. We
//      sweep a proxy-cost multiplier and report the retained speedup.
//  (b) Worst-case capability pressure: one 32 B capability load for every
//      cross-domain memory access models ~12% throughput overhead, still
//      leaving ~1.59x over Linux.
//  Also reports the measured cross-domain calls per operation (~211).
// Pass --json to also write BENCH_s75_ablation.json.
#include <cstdio>
#include <vector>

#include "apps/oltp/oltp.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "dipc/proxy.h"
#include "hw/machine.h"
#include "micro_harness.h"
#include "os/kernel.h"

namespace {

using dipc::apps::DbStorage;
using dipc::apps::OltpConfig;
using dipc::apps::OltpMode;
using dipc::apps::OltpResult;
using dipc::apps::RunOltp;
using dipc::bench::JsonEmitter;

double PerOpNs(const OltpResult& r) {
  return r.operations > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.operations) : 0.0;
}

OltpConfig BaseConfig(OltpMode mode) {
  OltpConfig c;
  c.mode = mode;
  c.storage = DbStorage::kMemory;
  c.threads = 256;
  c.warmup = dipc::sim::Duration::Millis(50);
  c.measure = dipc::sim::Duration::Millis(350);
  return c;
}

void PrintAblation(JsonEmitter& json) {
  // Series boundaries bracket each simulated run so --metrics counters
  // attribute per measurement instead of smearing over the whole process.
  json.BeginSeries("linux_base");
  OltpResult linux_r = RunOltp(BaseConfig(OltpMode::kLinuxIpc));
  std::printf("=== §7.5 ablations (in-memory DB, 256 threads) ===\n");
  std::printf("Linux baseline: %.0f ops/min\n\n", linux_r.ops_per_min);
  json.Row("linux_per_op", 0, PerOpNs(linux_r));

  std::printf("(a) proxy-cost sensitivity\n");
  std::printf("%12s %14s %12s\n", "multiplier", "dIPC[op/m]", "vs Linux");
  for (double scale : {1.0, 2.0, 4.0, 8.0, 14.0, 20.0}) {
    OltpConfig c = BaseConfig(OltpMode::kDipc);
    c.proxy_cost_scale = scale;
    json.BeginSeries("proxy_scale_x" + std::to_string(static_cast<int>(scale)));
    OltpResult r = RunOltp(c);
    std::printf("%11.0fx %14.0f %11.2fx\n", scale, r.ops_per_min,
                r.ops_per_min / linux_r.ops_per_min);
    json.Row("dipc_per_op_vs_proxy_scale", static_cast<uint64_t>(scale), PerOpNs(r));
  }
  std::printf("paper: benefit survives up to ~14x slower cross-domain calls.\n\n");

  std::printf("(b) worst-case capability loads\n");
  OltpConfig base = BaseConfig(OltpMode::kDipc);
  json.BeginSeries("dipc_base");
  OltpResult r_base = RunOltp(base);
  OltpConfig caps = base;
  caps.worst_case_cap_loads = true;
  json.BeginSeries("dipc_worst_case_caps");
  OltpResult r_caps = RunOltp(caps);
  std::printf("dIPC             : %14.0f ops/min (%.2fx vs Linux)\n", r_base.ops_per_min,
              r_base.ops_per_min / linux_r.ops_per_min);
  std::printf("dIPC + cap loads : %14.0f ops/min (%.2fx vs Linux, %.1f%% overhead)\n",
              r_caps.ops_per_min, r_caps.ops_per_min / linux_r.ops_per_min,
              100.0 * (1.0 - r_caps.ops_per_min / r_base.ops_per_min));
  std::printf("paper: ~12%% modeled overhead, 1.59x speedup retained.\n\n");
  json.Row("dipc_per_op", 0, PerOpNs(r_base));
  json.Row("dipc_worst_case_caps_per_op", 0, PerOpNs(r_caps));

  double calls_per_op = r_base.operations > 0
                            ? static_cast<double>(r_base.cross_domain_calls) /
                                  static_cast<double>(r_base.operations)
                            : 0;
  std::printf("cross-domain calls per operation: %.0f (paper: 211)\n\n", calls_per_op);
}

// (c) APL-cache pressure: §7.5's first limitation notes that APL-cache
// misses never fire in the paper's benchmarks (7 domains << 32 entries).
// Here we cycle calls over N callee domains to show the cliff once the
// per-CPU working set exceeds the 32-entry cache.
double MeasureAplPressure(int num_domains) {
  dipc::hw::Machine machine(1);
  dipc::codoms::Codoms codoms(machine);
  dipc::os::Kernel kernel(machine, codoms);
  dipc::core::Dipc dipc(kernel);
  dipc::os::Process& caller = dipc.CreateDipcProcess("caller");
  std::vector<dipc::core::ProxyRef> proxies;
  for (int i = 0; i < num_domains; ++i) {
    auto dom = dipc.DomCreate(caller);
    dipc::core::EntryDesc e;
    e.name = "f";
    e.signature = dipc::core::EntrySignature{};
    e.policy = dipc::core::IsolationPolicy::Low();
    e.fn = [](dipc::os::Env, dipc::core::CallArgs) -> dipc::sim::Task<uint64_t> { co_return 0; };
    auto handle = dipc.EntryRegister(caller, *dom.value(), {e});
    auto req = dipc.EntryRequest(caller, *handle.value(), {{e.signature, {}}});
    (void)dipc.GrantCreate(*dipc.DomDefault(caller), *req.value().proxy_domain);
    proxies.push_back(req.value().proxies[0]);
  }
  double per_call = 0;
  kernel.Spawn(caller, "main", [&](dipc::os::Env env) -> dipc::sim::Task<void> {
    // Warm every proxy once.
    for (auto& p : proxies) {
      (void)co_await p.Call(env, dipc::core::CallArgs{});
    }
    dipc::sim::Time t0 = env.kernel->now();
    constexpr int kRounds = 40;
    for (int r = 0; r < kRounds; ++r) {
      for (auto& p : proxies) {
        (void)co_await p.Call(env, dipc::core::CallArgs{});
      }
    }
    per_call = (env.kernel->now() - t0).nanos() / (kRounds * proxies.size());
  });
  kernel.Run();
  return per_call;
}

void PrintAplPressure(JsonEmitter& json) {
  std::printf("(c) APL-cache pressure (32 entries per hardware thread)\n");
  std::printf("%14s %16s\n", "domains cycled", "ns/call (Low)");
  // Each call touches caller + proxy + callee-domain APL entries, so the
  // cache covers roughly 32/3 concurrently-cycling entry points.
  for (int n : {2, 4, 8, 10, 16, 32}) {
    json.BeginSeries("apl_pressure_d" + std::to_string(n));
    double ns = MeasureAplPressure(n);
    std::printf("%14d %16.1f\n", n, ns);
    json.Row("apl_pressure_ns_per_call", static_cast<uint64_t>(n), ns);
  }
  std::printf("paper: misses never occur in its benchmarks (7 domains);\n");
  std::printf("beyond the cache the 300 ns refill exception dominates.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonEmitter json("s75_ablation", argc, argv);
  PrintAblation(json);
  PrintAplPressure(json);
  return 0;
}
