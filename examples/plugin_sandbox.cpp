// Asymmetric isolation (§2.4, §3.3): an application hosting an untrusted
// plugin in a separate CODOMs domain of the *same* process. The app can read
// the plugin's memory directly (no isolation that way), the plugin cannot
// touch the app, and a plugin crash unwinds cleanly to the app with an
// errno-like flag instead of killing it.
//
// Build & run:  ./build/example_plugin_sandbox
#include <cstdio>
#include <string>

#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "dipc/loader.h"
#include "hw/machine.h"
#include "os/kernel.h"

using namespace dipc;

int main() {
  hw::Machine machine(2);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);
  core::Loader loader(dipc);

  os::Process& app = dipc.CreateDipcProcess("app");

  kernel.Spawn(app, "main", [&](os::Env env) -> sim::Task<void> {
    // The annotation DSL stands in for the paper's compiler pass (§5.3.1):
    // one "plugin" domain; the app may read it, not vice versa.
    core::ModuleSpec spec;
    spec.name = "app-with-plugin";
    spec.domains.push_back(core::DomSpec{"plugin"});
    spec.perms.push_back(core::PermSpec{"", "plugin", core::DomPerm::kRead});
    auto mod = loader.Load(env, std::move(spec));
    auto plugin_dom = mod.value().domain("plugin");

    // Plugin-private memory.
    auto pbuf = dipc.DomMmap(app, *plugin_dom, 4096, hw::PageFlags{.writable = true});
    std::printf("[app] plugin heap at 0x%llx\n", (unsigned long long)pbuf.value());

    // Asymmetry in action: the app reads plugin memory directly...
    auto r = co_await env.kernel->TouchUser(env, pbuf.value(), 64, hw::AccessType::kRead);
    std::printf("[app] direct read of plugin memory: %s\n", r.ok() ? "OK" : "FAULT");
    // ...but even the app cannot write it (the grant was read-only).
    auto w = co_await env.kernel->TouchUser(env, pbuf.value(), 64, hw::AccessType::kWrite);
    std::printf("[app] direct write of plugin memory: %s (expected FAULT)\n",
                w.ok() ? "OK" : "FAULT");

    // Register a plugin entry point that misbehaves on request.
    core::EntryDesc entry;
    entry.name = "render";
    entry.signature = core::EntrySignature{.in_regs = 1, .out_regs = 1, .stack_bytes = 0};
    entry.policy = core::IsolationPolicy::Low();  // plugin can't demand much
    entry.fn = [](os::Env e, core::CallArgs a) -> sim::Task<uint64_t> {
      if (a.regs[0] == 0xDEAD) {
        core::Dipc::Crash();  // plugin bug: the thread faults inside the domain
      }
      co_await e.kernel->Spend(*e.self, sim::Duration::Micros(2), os::TimeCat::kUser);
      co_return a.regs[0] + 1;
    };
    auto handle = dipc.EntryRegister(app, *plugin_dom, {entry});
    // The app wants its registers/stack protected from the plugin: caller-
    // side High policy (the stubs+proxy enforce it; the plugin can't opt out,
    // P5).
    auto req = dipc.EntryRequest(app, *handle.value(),
                                 {{entry.signature, core::IsolationPolicy::High()}});
    (void)dipc.GrantCreate(*dipc.DomDefault(app), *req.value().proxy_domain);
    core::ProxyRef render = req.value().proxies[0];

    core::CallArgs ok_args;
    ok_args.regs[0] = 7;
    uint64_t v = co_await render.Call(env, ok_args);
    std::printf("[app] plugin render(7) = %llu\n", (unsigned long long)v);

    core::CallArgs bad_args;
    bad_args.regs[0] = 0xDEAD;
    (void)co_await render.Call(env, bad_args);
    base::ErrorCode err = env.self->TakeError();
    std::printf("[app] plugin crash surfaced as error '%s'; app keeps running (P3)\n",
                std::string(base::ErrorCodeName(err)).c_str());
    v = co_await render.Call(env, ok_args);
    std::printf("[app] plugin still callable afterwards: render(7) = %llu\n",
                (unsigned long long)v);
  });

  kernel.Run();
  return 0;
}
