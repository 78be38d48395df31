// Quickstart: two dIPC-enabled processes, one exported entry point, one
// cross-process call that runs in place on the caller's thread.
//
// Build & run:  ./build/example_quickstart
#include <cstdio>

#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "dipc/proxy.h"
#include "hw/machine.h"
#include "os/kernel.h"

using namespace dipc;

int main() {
  // A 4-CPU machine with the CODOMs protection engine and the OS kernel.
  hw::Machine machine(4);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);

  // Two processes in the global virtual address space (§6.1.3).
  os::Process& web = dipc.CreateDipcProcess("web");
  os::Process& db = dipc.CreateDipcProcess("db");

  // The database exports one entry point: query(x) -> x*2 (Table 2,
  // entry_register).
  core::EntryDesc query;
  query.name = "query";
  query.signature = core::EntrySignature{.in_regs = 1, .out_regs = 1, .stack_bytes = 0};
  query.policy = core::IsolationPolicy::High();  // DB wants full isolation
  query.fn = [](os::Env env, core::CallArgs args) -> sim::Task<uint64_t> {
    std::printf("  [db]  query(%llu) executing in process '%s' on thread %llu\n",
                (unsigned long long)args.regs[0], env.self->process().name().c_str(),
                (unsigned long long)env.self->tid());
    co_await env.kernel->Spend(*env.self, sim::Duration::Micros(5), os::TimeCat::kUser);
    co_return args.regs[0] * 2;
  };
  auto handle = dipc.EntryRegister(db, *dipc.DomDefault(db), {query});

  // The web server imports it (entry_request checks the signature, P4) and
  // grants itself call permission on the generated proxy domain.
  auto req = dipc.EntryRequest(web, *handle.value(),
                               {{query.signature, core::IsolationPolicy::Low()}});
  auto grant = dipc.GrantCreate(*dipc.DomDefault(web), *req.value().proxy_domain);
  if (!grant.ok()) {
    std::printf("grant failed\n");
    return 1;
  }
  core::ProxyRef proxy = req.value().proxies[0];

  // A web thread calls across processes with a plain synchronous call.
  kernel.Spawn(web, "worker", [&, proxy](os::Env env) -> sim::Task<void> {
    std::printf("[web] calling db.query(21) from process '%s'...\n",
                env.self->process().name().c_str());
    sim::Time t0 = env.kernel->now();
    core::CallArgs args;
    args.regs[0] = 21;
    uint64_t result = co_await proxy.Call(env, args);
    double ns = (env.kernel->now() - t0).nanos();
    std::printf("[web] got %llu back; the whole call took %.0f ns of virtual time\n",
                (unsigned long long)result, ns);
    std::printf("[web] (first call pays the cold tracker upcall; calling again...)\n");
    t0 = env.kernel->now();
    (void)co_await proxy.Call(env, args);
    std::printf("[web] warm call: %.1f ns (paper: ~107 ns for the High policy)\n",
                (env.kernel->now() - t0).nanos() - 5000.0);
  });

  kernel.Run();
  std::printf("done at t=%.2f us of virtual time\n", kernel.now().micros());
  return 0;
}
