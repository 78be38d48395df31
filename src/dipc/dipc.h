// The dIPC runtime/OS extension (§5, §6): Table 2's objects and operations,
// dIPC-enabled process management in a global virtual address space, proxy
// generation, per-thread KCS + process-tracker state, crash unwinding, and
// fork/exec compatibility.
#ifndef DIPC_DIPC_DIPC_H_
#define DIPC_DIPC_DIPC_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dipc/global_vas.h"
#include "dipc/kcs.h"
#include "dipc/objects.h"
#include "dipc/policy.h"
#include "dipc/proxy.h"
#include "dipc/tracker.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace dipc::core {

// Per-thread dIPC state (lazily created on first cross-domain call).
struct ThreadDipcState {
  Kcs kcs;
  ProcessTracker tracker;
};

// entry_request's per-entry expectation: the caller's view of the signature
// (must match, P4) and the isolation properties the caller wants added.
struct EntryExpectation {
  EntrySignature signature;
  IsolationPolicy policy;
};

// entry_request's result: a domain handle for the proxy domain (call
// permission) and one resolved proxy per entry.
struct RequestedEntries {
  std::shared_ptr<DomainHandle> proxy_domain;
  std::vector<ProxyRef> proxies;
};

class Dipc {
 public:
  explicit Dipc(os::Kernel& kernel);
  Dipc(const Dipc&) = delete;
  Dipc& operator=(const Dipc&) = delete;
  ~Dipc();

  os::Kernel& kernel() { return kernel_; }
  GlobalVas& vas() { return vas_; }

  // ---- dIPC-enabled processes (§6.1.3) ----

  // Creates a process inside the global VAS: its own 1 GB block, a fresh
  // default domain, and a code page (the PIC "program text" stand-in used
  // for return addresses).
  os::Process& CreateDipcProcess(const std::string& name);

  // POSIX fork: the child gets a *private* copy of the address space and
  // dIPC is temporarily disabled in it (copy-on-write compatibility).
  os::Process& Fork(os::Process& parent);

  // POSIX exec with a PIC executable: re-enables dIPC; the process is loaded
  // at a unique virtual address (a fresh block) with a fresh default domain.
  void Exec(os::Process& proc, const std::string& new_name);

  // ---- Table 2 operations ----

  std::shared_ptr<DomainHandle> DomDefault(os::Process& proc);
  base::Result<std::shared_ptr<DomainHandle>> DomCreate(os::Process& proc);
  base::Result<std::shared_ptr<DomainHandle>> DomCopy(const DomainHandle& src, DomPerm perm);
  base::Result<hw::VirtAddr> DomMmap(os::Process& proc, const DomainHandle& dom, uint64_t len,
                                     hw::PageFlags flags);
  base::Status DomRemap(os::Process& proc, const DomainHandle& dst, const DomainHandle& src,
                        hw::VirtAddr addr, uint64_t size);

  base::Result<std::shared_ptr<GrantHandle>> GrantCreate(const DomainHandle& src,
                                                         const DomainHandle& dst);
  base::Status GrantRevoke(GrantHandle& grant);

  base::Result<std::shared_ptr<EntryHandle>> EntryRegister(os::Process& proc,
                                                           const DomainHandle& dom,
                                                           std::vector<EntryDesc> entries);
  base::Result<RequestedEntries> EntryRequest(os::Process& requester, const EntryHandle& handle,
                                              const std::vector<EntryExpectation>& expected);

  // ---- Faults ----

  // Called from callee code to simulate a crash of the executing thread
  // while inside its current domain (unwinds the KCS, §5.2.1).
  [[noreturn]] static void Crash(base::ErrorCode code = base::ErrorCode::kCalleeFailed);

  // Kills a process: in-flight calls into it unwind to live callers, and
  // registered teardown hooks fire (e.g. channel endpoints surface
  // dead-peer errors to blocked threads).
  void KillProcess(os::Process& proc);

  // Registers a hook fired whenever KillProcess reaps a process. Used by
  // the chan subsystem for dead-peer channel teardown. A hook returning
  // false is unregistered (so per-object hooks don't accumulate after the
  // object they watch is gone).
  using ProcessDeathHook = std::function<bool(os::Process&)>;
  void AddDeathHook(ProcessDeathHook hook) { death_hooks_.push_back(std::move(hook)); }

  // ---- Internal state (used by Proxy; exposed for tests/benches) ----

  ThreadDipcState& thread_state(os::Thread& t);
  // Code address of a domain's text (return-address targets).
  hw::VirtAddr domain_code_va(hw::DomainTag tag) const;
  // Per-process thread id assignment (§5.2.1: primary threads appear with
  // different identifiers on each process).
  uint64_t TidInProcess(os::Thread& t, os::Process& proc);
  // Simulated cold-path upcall cost into the target process's management
  // thread (§6.1.2).
  static constexpr sim::Duration kColdUpcallCost = sim::Duration::Micros(1.8);

  const std::vector<std::unique_ptr<Proxy>>& proxies() const { return proxies_; }

 private:
  friend class Proxy;
  friend class ProxyRef;

  struct ProcessInfo {
    hw::VirtAddr block_base = 0;
    hw::VirtAddr code_va = 0;
    std::unordered_map<uint64_t, uint64_t> tids;  // global tid -> per-process tid
    uint64_t next_tid = 1;
  };

  ProcessInfo& info(os::Process& proc);

  // Allocates an executable, 64 B-slotted code region tagged `tag`; returns
  // its base VA and records it as the domain's text address.
  base::Result<hw::VirtAddr> AllocCodeRegion(os::Process& proc, hw::DomainTag tag, uint64_t slots,
                                             bool privileged);

  os::Kernel& kernel_;
  GlobalVas vas_;
  std::unordered_map<os::Pid, ProcessInfo> process_info_;
  std::unordered_map<uint64_t, std::unique_ptr<ThreadDipcState>> thread_state_;  // by tid
  std::unordered_map<hw::DomainTag, hw::VirtAddr> domain_code_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  std::vector<ProcessDeathHook> death_hooks_;
  // Kill-sweep reentrancy state: nested KillProcess calls queue here and the
  // outermost call drains them (see KillProcess).
  std::vector<os::Process*> pending_kills_;
  bool in_kill_sweep_ = false;
  // Death-sweep churn, registered in the ctor ("dipc/...").
  obs::MetricSet metrics_;
  obs::Counter* m_kill_sweeps_ = nullptr;      // processes actually swept
  obs::Counter* m_death_hook_runs_ = nullptr;  // hook invocations across sweeps
  // Proxy code pages are owned by the runtime, not any process; allocate
  // their VAs from a dedicated block.
  hw::VirtAddr proxy_region_next_ = 0;
  hw::VirtAddr proxy_region_end_ = 0;
};

}  // namespace dipc::core

#endif  // DIPC_DIPC_DIPC_H_
