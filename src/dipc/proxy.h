// Trusted proxies: the runtime-generated thunks that bridge calls across
// domains/processes (§3.1, §5.2.3, §6.1).
//
// A proxy performs an in-place domain switch on the calling thread: it
// pushes a KCS entry, prepares the protected return path (P3), optionally
// switches `current`/TLS/stacks for cross-process calls (§6.1.2), and
// redirects execution into the target function. Crashes unwind the KCS to
// the nearest living caller and surface as an errno-like flag (§5.2.1).
#ifndef DIPC_DIPC_PROXY_H_
#define DIPC_DIPC_PROXY_H_

#include <cstdint>
#include <memory>

#include "dipc/objects.h"
#include "dipc/policy.h"
#include "dipc/proxy_template.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::core {

class Dipc;

// Thrown by callee code (via Dipc::Crash) or by the return path when a
// caller process died; caught by each proxy on the way out (KCS unwinding).
struct CalleeCrash {
  base::ErrorCode code = base::ErrorCode::kCalleeFailed;
};

class Proxy {
 public:
  Proxy(Dipc& dipc, hw::VirtAddr code_va, hw::DomainTag proxy_domain, EntryDesc target,
        hw::DomainTag target_domain, os::Process* callee_process, os::Process* caller_process,
        IsolationPolicy effective_policy, ProxyTemplate tmpl);

  // The cross-domain call: executes entirely on the calling thread.
  // Returns the entry's result register; errors are flagged on the thread
  // (Thread::TakeError) with a zero result.
  sim::Task<uint64_t> Invoke(os::Env env, CallArgs args);

  hw::VirtAddr code_va() const { return code_va_; }
  hw::VirtAddr ret_va() const { return code_va_ + ProxyTemplateLibrary::kRetOffset; }
  hw::DomainTag proxy_domain() const { return proxy_domain_; }
  bool cross_process() const { return cross_process_; }
  const EntryDesc& target() const { return target_; }
  IsolationPolicy effective_policy() const { return policy_; }
  const ProxyTemplate& tmpl() const { return tmpl_; }

  uint64_t invocations() const { return invocations_; }

  // Id shared by this proxy's metrics ("proxy/<id>/...") and trace events.
  uint32_t obs_id() const { return obs_id_; }

 private:
  friend class Dipc;

  Dipc& dipc_;
  hw::VirtAddr code_va_;
  hw::DomainTag proxy_domain_;
  EntryDesc target_;
  hw::DomainTag target_domain_;
  os::Process* callee_process_;
  os::Process* caller_process_;
  IsolationPolicy policy_;
  PolicyCosts policy_costs_;
  ProxyTemplate tmpl_;
  bool cross_process_;
  uint64_t invocations_ = 0;
  uint32_t obs_id_ = 0;
  obs::MetricSet metrics_;
  obs::Counter* m_calls_ = nullptr;     // proxy/<id>/calls
  obs::Counter* m_crashes_ = nullptr;   // proxy/<id>/crashes (callee crash unwinds)
  obs::Histogram* m_call_ns_ = nullptr; // proxy/<id>/call_ns (full in-proxy time)
};

// What entry_request hands back per entry: the resolved proxy plus the
// caller-stub behavior (compiler-generated in a real deployment, §5.3.1).
class ProxyRef {
 public:
  ProxyRef() = default;
  ProxyRef(Proxy* proxy, IsolationPolicy caller_policy, EntrySignature sig)
      : proxy_(proxy), caller_policy_(caller_policy), sig_(sig) {}

  bool valid() const { return proxy_ != nullptr; }
  Proxy* proxy() const { return proxy_; }

  // Caller stub + proxy + callee: the full synchronous cross-domain call.
  // Check env.self->TakeError() for kCalleeFailed/kTimedOut after it returns.
  sim::Task<uint64_t> Call(os::Env env, CallArgs args) const;

  // §5.4 cross-process call time-outs: like Call, but if the callee does not
  // return within `timeout` the thread is "split": the caller resumes with
  // kTimedOut while the callee side keeps running on a fresh kernel thread
  // and is reaped when it returns into the proxy. Requires stack
  // confidentiality+integrity in the effective policy (caller and callee
  // must not share a stack).
  sim::Task<uint64_t> CallWithTimeout(os::Env env, CallArgs args, sim::Duration timeout) const;

  // §5.4 asynchronous calls: "supported in the same way as other
  // asynchronous calls by creating additional threads". Starts the call on
  // a fresh thread and returns immediately; Await() joins it. Requires
  // stack confidentiality for the same reason as timeouts.
  class Pending {
   public:
    bool done() const { return state_ != nullptr && state_->done; }
    // Blocks the calling thread until the result is available; flags any
    // callee error on the awaiting thread (errno-like, §5.2.1).
    sim::Task<uint64_t> Await(os::Env env);

   private:
    friend class ProxyRef;
    struct State {
      bool done = false;
      uint64_t result = 0;
      base::ErrorCode err = base::ErrorCode::kOk;
      os::WaitQueue waiters;
    };
    std::shared_ptr<State> state_;
  };
  Pending CallAsync(os::Env env, CallArgs args) const;

 private:
  Proxy* proxy_ = nullptr;
  IsolationPolicy caller_policy_{};
  EntrySignature sig_{};
};

}  // namespace dipc::core

#endif  // DIPC_DIPC_PROXY_H_
