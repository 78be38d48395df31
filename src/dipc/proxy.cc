#include "dipc/proxy.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "dipc/dipc.h"
#include "fault/fault.h"
#include "obs/trace.h"

namespace dipc::core {

// --- ProxyTemplateLibrary ---

ProxyTemplate ProxyTemplateLibrary::Select(EntrySignature sig, IsolationPolicy policy,
                                           bool cross_process) {
  uint32_t in_b = std::min(sig.in_regs, kInRegsBuckets - 1);
  uint32_t out_b = std::min(sig.out_regs, kOutRegsBuckets - 1);
  uint32_t stack_b = StackBucket(sig.stack_bytes);
  uint32_t policy_b = policy.bits & (kPolicySets - 1);
  uint32_t cross_b = cross_process ? 1 : 0;
  ProxyTemplate t;
  t.id = (((in_b * kOutRegsBuckets + out_b) * kStackBuckets + stack_b) * kPolicySets + policy_b) *
             kCrossProcess +
         cross_b;
  // Templates average ~600 B (§6.1.1); more properties -> more thunk code.
  t.code_bytes = 240 + 40 * static_cast<uint32_t>(std::popcount(policy.bits)) +
                 (cross_process ? 160 : 0) + 8 * sig.in_regs;
  // Relocations: control-flow addresses, domain tags, per-entry immediates.
  t.relocation_count = 6 + 2 * static_cast<uint32_t>(std::popcount(policy.bits));
  return t;
}

sim::Duration ProxyTemplateLibrary::InstantiationCost(const hw::CostModel& cm,
                                                      const ProxyTemplate& t) {
  // Copy the template body and patch each relocation (§6.1.1), then the
  // usual cost of making fresh code visible (icache lines).
  return cm.Cycles(t.code_bytes / 8.0) + cm.Cycles(12.0 * t.relocation_count) +
         cm.Cycles(t.code_bytes / 64.0 * 4.0);
}

// --- Proxy ---

Proxy::Proxy(Dipc& dipc, hw::VirtAddr code_va, hw::DomainTag proxy_domain, EntryDesc target,
             hw::DomainTag target_domain, os::Process* callee_process,
             os::Process* caller_process, IsolationPolicy effective_policy, ProxyTemplate tmpl)
    : dipc_(dipc),
      code_va_(code_va),
      proxy_domain_(proxy_domain),
      target_(std::move(target)),
      target_domain_(target_domain),
      callee_process_(callee_process),
      caller_process_(caller_process),
      policy_(effective_policy),
      tmpl_(tmpl),
      cross_process_(callee_process != caller_process) {
  policy_costs_ = ComputePolicyCosts(dipc.kernel().costs(), policy_, target_.signature);
  obs_id_ = obs::NewObjectId();
  const std::string prefix = "proxy/" + std::to_string(obs_id_);
  m_calls_ = metrics_.GetCounter(prefix + "/calls");
  m_crashes_ = metrics_.GetCounter(prefix + "/crashes");
  m_call_ns_ = metrics_.GetHistogram(prefix + "/call_ns");
}

sim::Task<uint64_t> Proxy::Invoke(os::Env env, CallArgs args) {
  ++invocations_;
  m_calls_->Add();
  os::Kernel& k = dipc_.kernel();
  os::Thread& t = *env.self;
  const hw::CostModel& cm = k.costs();
  codoms::Codoms& cd = k.codoms();
  codoms::ThreadCapContext& ctx = t.cap_ctx();
  hw::CpuId cpu = t.last_cpu();
  hw::PageTable& pt = t.process().page_table();
  ThreadDipcState& ts = dipc_.thread_state(t);

  const hw::DomainTag caller_domain = ctx.current_domain;
  os::Process* caller_proc = &t.process();

  sim::Duration fault_delay;
  {
    // Probed before the control transfer: a kill rule here murders the
    // callee mid-invoke, so this very call runs into the death machinery.
    fault::Decision d = DIPC_FAULT_POINT(kProxyInvoke, cpu);
    if (d.fail()) {
      t.FlagError(base::ErrorCode::kFault);
      co_return 0;
    }
    if (d.action == fault::Action::kDelay) {
      fault_delay = d.delay;
    }
  }

  // (1) The caller's `call proxy` instruction: CODOMs checks the Call
  // permission and the 64 B entry alignment (P2), switching into the proxy
  // domain implicitly.
  auto ct_in = cd.ControlTransfer(cpu, pt, ctx, code_va_);
  if (!ct_in.ok()) {
    t.FlagError(base::ErrorCode::kFault);
    co_return 0;
  }
  sim::Duration call_cost = ct_in.value() + fault_delay;
  // P2: the proxy validates the thread's stack pointer.
  call_cost += cm.Cycles(2);

  const sim::Time proxy_start = k.now();
  const uint64_t arg_bytes =
      8ull * target_.signature.in_regs + target_.signature.stack_bytes;
  obs::Trace().Record(cpu, obs::EventType::kProxyEnter, obs_id_, arg_bytes, proxy_start);
  call_cost += obs::Trace().event_cost();

  // Make sure the proxy can later return into the caller's domain. This APL
  // entry is installed once per (proxy domain, caller domain) pair.
  codoms::AplTable& apl = cd.apl_table();
  if (!codoms::AtLeast(apl.For(proxy_domain_).PermFor(caller_domain), codoms::Perm::kRead)) {
    apl.Grant(proxy_domain_, caller_domain, codoms::Perm::kWrite);
  }

  // (2) prepare_ret (P3): save caller state on the KCS and craft the return
  // capability so the callee can only return into proxy_ret.
  KcsEntry entry;
  entry.caller_process = caller_proc;
  entry.proxy = this;
  entry.caller_domain = caller_domain;
  entry.return_address = dipc_.domain_code_va(caller_domain);
  call_cost += cm.kcs_op;
  if (policy_.Has(kDcsIntegrity)) {
    entry.saved_dcs_base = ctx.dcs.SetBase(ctx.dcs.top());
  }
  sim::Duration cap_cost;
  auto ret_cap = cd.CapFromApl(cpu, pt, ctx, ret_va(), codoms::kEntryAlign, codoms::Perm::kCall,
                               codoms::CapType::kSync, &cap_cost);
  DIPC_CHECK(ret_cap.ok());
  ctx.regs.Set(codoms::kNumCapRegisters - 1, ret_cap.value());
  call_cost += cap_cost;
  call_cost += policy_costs_.proxy_call;

  // (3) track_process_call (§6.1.2): cross-process proxies switch `current`
  // and the TLS segment; the lookup goes through the hardware-domain-tag
  // indexed cache array, then the per-thread tree, then the upcall.
  if (cross_process_) {
    sim::Duration tag_cost;
    auto hw_tag = cd.ReadHwTag(cpu, target_domain_, &tag_cost);
    call_cost += tag_cost;
    if (!hw_tag.ok()) {
      auto ref = cd.EnsureCached(cpu, target_domain_);
      call_cost += ref.cost;
      hw_tag = cd.ReadHwTag(cpu, target_domain_, &tag_cost);
      DIPC_CHECK(hw_tag.ok());
    }
    const TrackerEntry* te = ts.tracker.FastLookup(hw_tag.value(), target_domain_);
    if (te != nullptr) {
      call_cost += cm.tracker_fast_lookup;
    } else {
      te = ts.tracker.WarmLookup(hw_tag.value(), target_domain_);
      if (te != nullptr) {
        call_cost += cm.tracker_warm_lookup;
      } else {
        // Cold path: upcall into the target process's management thread,
        // which creates the per-process structures via a syscall (§6.1.2).
        call_cost += Dipc::kColdUpcallCost;
        te = ts.tracker.ColdInstall(
            hw_tag.value(), target_domain_,
            TrackerEntry{callee_process_, dipc_.TidInProcess(t, *callee_process_)});
      }
    }
    call_cost += cm.Cycles(12);   // stash current on the KCS, install target's
    call_cost += cm.tls_switch;   // wrfsbase (§6.1.2 notes this is costly)
    t.set_process(*callee_process_);  // in-place switch: time-slice donation
  }

  ts.kcs.Push(entry);
  ++ctx.call_depth;

  // (4) Redirect into the target function (the proxy has write access to the
  // callee domain, so an arbitrary jump is permitted).
  auto ct_target = cd.ControlTransfer(cpu, pt, ctx, target_.address);
  DIPC_CHECK(ct_target.ok());
  call_cost += ct_target.value();
  // Callee-side stub work (register zeroing etc. from the effective policy).
  call_cost += policy_costs_.callee_entry;
  co_await k.Spend(t, call_cost, os::TimeCat::kProxy);

  // (5) Execute the callee, in place, on this same thread.
  uint64_t result = 0;
  base::ErrorCode crash_code = base::ErrorCode::kOk;
  try {
    result = co_await target_.fn(env, args);
  } catch (const CalleeCrash& crash) {
    crash_code = crash.code;
  }

  // The thread may have migrated while the callee ran.
  cpu = t.last_cpu();

  if (crash_code != base::ErrorCode::kOk) {
    // Crash/kill: the OS kernel unwinds the KCS (§5.2.1). Restore this
    // frame; if our caller is dead too, keep unwinding in the outer proxy.
    --ctx.call_depth;
    KcsEntry e = ts.kcs.Pop();
    ctx.regs.Clear(codoms::kNumCapRegisters - 1);
    if (policy_.Has(kDcsIntegrity)) {
      ctx.dcs.RestoreBase(e.saved_dcs_base);
    }
    if (cross_process_) {
      t.set_process(*e.caller_process);
    }
    ctx.current_domain = e.caller_domain;
    co_await k.Spend(t, cm.exception_roundtrip + cm.kcs_op, os::TimeCat::kKernel);
    m_crashes_->Add();
    const sim::Duration crash_dur = k.now() - proxy_start;
    m_call_ns_->Record(crash_dur.nanos());
    obs::Trace().Record(t.last_cpu(), obs::EventType::kProxyExit, obs_id_, arg_bytes, k.now(),
                        crash_dur);
    if (!e.caller_process->alive()) {
      throw CalleeCrash{crash_code};  // caller gone: unwind further (P3)
    }
    t.FlagError(crash_code);  // errno-like flag to the resumed caller
    co_return 0;
  }

  // (6) Normal return: the callee returns through the return capability into
  // proxy_ret; deprepare_ret restores the saved state. Nested calls reuse
  // the same capability register, so re-install ours (spilled to the DCS in
  // real CODOMs) before the transfer.
  ctx.regs.Set(codoms::kNumCapRegisters - 1, ret_cap.value());
  sim::Duration ret_cost = policy_costs_.callee_ret;
  auto ct_ret = cd.ControlTransfer(cpu, pt, ctx, ret_va());
  DIPC_CHECK(ct_ret.ok());  // authorized by the capability in register 7
  ret_cost += ct_ret.value();
  ctx.regs.Clear(codoms::kNumCapRegisters - 1);
  --ctx.call_depth;
  KcsEntry e = ts.kcs.Pop();
  ret_cost += cm.kcs_op;
  if (policy_.Has(kDcsIntegrity)) {
    ctx.dcs.RestoreBase(e.saved_dcs_base);
  }
  ret_cost += policy_costs_.proxy_ret;
  if (cross_process_) {
    ret_cost += cm.Cycles(10);   // track_process_ret: restore current from KCS
    ret_cost += cm.tls_switch;   // wrfsbase back
    t.set_process(*e.caller_process);
  }
  if (!e.caller_process->alive()) {
    // The caller died while we were executing: its frame cannot be resumed.
    co_await k.Spend(t, ret_cost + cm.exception_roundtrip, os::TimeCat::kKernel);
    m_crashes_->Add();
    const sim::Duration dead_dur = k.now() - proxy_start;
    m_call_ns_->Record(dead_dur.nanos());
    obs::Trace().Record(t.last_cpu(), obs::EventType::kProxyExit, obs_id_, arg_bytes, k.now(),
                        dead_dur);
    throw CalleeCrash{base::ErrorCode::kCalleeFailed};
  }
  // Jump back to the caller's text (read permission installed above).
  if (e.return_address != 0) {
    auto ct_back = cd.ControlTransfer(cpu, pt, ctx, e.return_address);
    DIPC_CHECK(ct_back.ok());
    ret_cost += ct_back.value();
  } else {
    ctx.current_domain = e.caller_domain;
  }
  ret_cost += obs::Trace().event_cost();
  co_await k.Spend(t, ret_cost, os::TimeCat::kProxy);
  const sim::Duration call_dur = k.now() - proxy_start;
  m_call_ns_->Record(call_dur.nanos());
  obs::Trace().Record(t.last_cpu(), obs::EventType::kProxyExit, obs_id_, arg_bytes, k.now(),
                      call_dur);
  co_return result;
}

// --- ProxyRef ---

sim::Task<uint64_t> ProxyRef::Call(os::Env env, CallArgs args) const {
  DIPC_CHECK(proxy_ != nullptr);
  os::Kernel& k = *env.kernel;
  // Caller stub (isolate_call): user code, inlined and co-optimized with the
  // application in a real deployment (§5.3.1).
  PolicyCosts stub = ComputePolicyCosts(k.costs(), caller_policy_, sig_);
  if (stub.caller_call > sim::Duration::Zero()) {
    co_await k.Spend(*env.self, stub.caller_call, os::TimeCat::kUser);
  }
  uint64_t result = co_await proxy_->Invoke(env, args);
  // deisolate_call.
  if (stub.caller_ret > sim::Duration::Zero()) {
    co_await k.Spend(*env.self, stub.caller_ret, os::TimeCat::kUser);
  }
  co_return result;
}

ProxyRef::Pending ProxyRef::CallAsync(os::Env env, CallArgs args) const {
  DIPC_CHECK(proxy_ != nullptr);
  os::Kernel& k = *env.kernel;
  Pending pending;
  pending.state_ = std::make_shared<Pending::State>();
  auto st = pending.state_;
  if (!proxy_->effective_policy().Has(kStackConfidentiality)) {
    st->done = true;
    st->err = base::ErrorCode::kNotSupported;
    return pending;
  }
  Proxy* proxy = proxy_;
  // The "additional thread" of §5.4: a sibling in the caller's process that
  // performs the synchronous call on the caller's behalf.
  k.Spawn(env.self->process(), env.self->name() + "-async",
          [st, proxy, args](os::Env senv) -> sim::Task<void> {
            senv.self->cap_ctx().current_domain = senv.self->process().default_domain();
            st->result = co_await proxy->Invoke(senv, args);
            st->err = senv.self->TakeError();
            st->done = true;
            st->waiters.WakeAll(*senv.kernel, senv.self->last_cpu());
          });
  return pending;
}

sim::Task<uint64_t> ProxyRef::Pending::Await(os::Env env) {
  DIPC_CHECK(state_ != nullptr);
  while (!state_->done) {
    co_await state_->waiters.Wait(env);
  }
  if (state_->err != base::ErrorCode::kOk) {
    env.self->FlagError(state_->err);
  }
  co_return state_->result;
}

sim::Task<uint64_t> ProxyRef::CallWithTimeout(os::Env env, CallArgs args,
                                              sim::Duration timeout) const {
  DIPC_CHECK(proxy_ != nullptr);
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  // §5.4: splitting "will only work if the timed-out caller uses a stack
  // separate from the callee's".
  if (!proxy_->effective_policy().Has(kStackConfidentiality)) {
    self.FlagError(base::ErrorCode::kNotSupported);
    co_return 0;
  }
  struct SplitState {
    bool done = false;
    bool timed_out = false;
    uint64_t result = 0;
    base::ErrorCode err = base::ErrorCode::kOk;
    os::Thread* caller = nullptr;
  };
  auto st = std::make_shared<SplitState>();
  st->caller = &self;
  Proxy* proxy = proxy_;
  // The callee side runs on a thread that can outlive the caller's wait —
  // this is the "split" thread of §5.4. (The design splits lazily on
  // timeout; we pre-split, which preserves the observable semantics.)
  k.Spawn(self.process(), self.name() + "-split",
          [st, proxy, args](os::Env senv) -> sim::Task<void> {
            senv.self->cap_ctx().current_domain = senv.self->process().default_domain();
            uint64_t r = co_await proxy->Invoke(senv, args);
            st->result = r;
            st->err = senv.self->TakeError();
            st->done = true;
            if (!st->timed_out) {
              (void)senv.kernel->MakeRunnable(*st->caller, senv.self->last_cpu());
            }
            // else: the split thread is reaped silently when it returns into
            // the proxy (recorded in the KCS).
          });
  // Arm the timeout: wake the caller with a flagged error if it fires first.
  k.machine().events().ScheduleAfter(timeout, [st, &k] {
    if (!st->done && !st->timed_out) {
      st->timed_out = true;
      (void)k.MakeRunnable(*st->caller, std::nullopt);
    }
  });
  co_await k.Block(env);
  if (st->timed_out && !st->done) {
    self.FlagError(base::ErrorCode::kTimedOut);
    co_return 0;
  }
  if (st->err != base::ErrorCode::kOk) {
    self.FlagError(st->err);
  }
  co_return st->result;
}

}  // namespace dipc::core
