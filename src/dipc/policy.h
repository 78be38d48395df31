// dIPC isolation properties (§5.2.3).
//
// Each entry point carries an isolation policy: a set of properties chosen
// independently by caller and callee (the effective policy is the union,
// Table 2's entry_request). Properties split into what untrusted user stubs
// implement (register/stack handling the compiler can co-optimize) and what
// the trusted proxy must do (stack switching, DCS bounds — privileged state).
#ifndef DIPC_DIPC_POLICY_H_
#define DIPC_DIPC_POLICY_H_

#include <cstdint>

#include "hw/cost_model.h"
#include "sim/time.h"

namespace dipc::core {

// Property bits (§5.2.3).
enum PolicyBits : uint32_t {
  kRegIntegrity = 1u << 0,         // caller stub: save/restore live registers
  kRegConfidentiality = 1u << 1,   // stubs: zero non-argument/non-result regs
  kStackIntegrity = 1u << 2,       // caller stub: caps over args + unused stack
  kStackConfidentiality = 1u << 3, // proxy: split stacks, copy args by signature
  kDcsIntegrity = 1u << 4,         // proxy: raise DCS base, restore on return
  kDcsConfidentiality = 1u << 5,   // proxy: separate capability stack (callee side)
};

struct IsolationPolicy {
  uint32_t bits = 0;

  constexpr bool Has(uint32_t bit) const { return (bits & bit) != 0; }

  // Effective policy of a call: union of caller- and callee-requested
  // properties (§5.2.3: "activated when any side requests it").
  constexpr IsolationPolicy Union(IsolationPolicy other) const {
    return IsolationPolicy{bits | other.bits};
  }

  constexpr bool operator==(const IsolationPolicy&) const = default;

  // The paper's two reference points (§7.2):
  // Low — minimal non-trivial policy: proxy-mediated entry only.
  static constexpr IsolationPolicy Low() { return IsolationPolicy{0}; }
  // High — equivalent to full mutual process isolation.
  static constexpr IsolationPolicy High() {
    return IsolationPolicy{kRegIntegrity | kRegConfidentiality | kStackIntegrity |
                           kStackConfidentiality | kDcsIntegrity | kDcsConfidentiality};
  }
};

// Entry point signature (Table 2: "number of input/output registers and
// stack size"). P4 requires caller and callee to agree on it exactly.
struct EntrySignature {
  uint32_t in_regs = 0;      // argument registers (0..6)
  uint32_t out_regs = 1;     // result registers (0..2)
  uint32_t stack_bytes = 0;  // in-stack argument bytes

  constexpr bool operator==(const EntrySignature&) const = default;
};

// --- Stub/proxy cost model ---
//
// The compiler-generated user stubs are inlined and co-optimized with the
// application (§5.3.1), so their costs depend on the signature; the proxy's
// privileged pieces are fixed thunk code. All constants in cycles @3.1 GHz.

struct PolicyCosts {
  sim::Duration caller_call;  // caller stub before the call (isolate_call)
  sim::Duration caller_ret;   // caller stub after return (deisolate_call)
  sim::Duration callee_entry; // callee stub on entry
  sim::Duration callee_ret;   // callee stub before returning (isolate_ret)
  sim::Duration proxy_call;   // proxy isolate_pcall extras
  sim::Duration proxy_ret;    // proxy deisolate_pcall extras
};

inline PolicyCosts ComputePolicyCosts(const hw::CostModel& cm, IsolationPolicy policy,
                                      EntrySignature sig) {
  PolicyCosts c{};
  if (policy.Has(kRegIntegrity)) {
    // Save/restore callee-saved live registers to the stack (~6 regs worst
    // case without liveness info, §7.4 folds this as "all non-volatile live").
    c.caller_call += cm.Cycles(30);
    c.caller_ret += cm.Cycles(30);
  }
  if (policy.Has(kRegConfidentiality)) {
    // Zero non-argument registers before, non-result after (xor chains).
    c.caller_call += cm.Cycles(8);
    c.callee_ret += cm.Cycles(8);
  }
  if (policy.Has(kStackIntegrity)) {
    // Two capabilities: in-stack arguments + unused stack area (§5.2.3).
    c.caller_call += cm.cap_setup * 2;
    c.caller_ret += cm.cap_setup;  // restore
  }
  if (policy.Has(kStackConfidentiality)) {
    // Proxy switches stack pointers; arguments copied by signature.
    c.proxy_call += cm.Cycles(20) + cm.Cycles(sig.stack_bytes / 8.0);
    c.proxy_ret += cm.Cycles(16);
  }
  if (policy.Has(kDcsIntegrity)) {
    // Privileged DCS base adjust + restore.
    c.proxy_call += cm.Cycles(5);
    c.proxy_ret += cm.Cycles(5);
  }
  if (policy.Has(kDcsConfidentiality)) {
    // Separate capability stack for the callee (switch both ways).
    c.proxy_call += cm.Cycles(12);
    c.proxy_ret += cm.Cycles(12);
  }
  return c;
}

}  // namespace dipc::core

#endif  // DIPC_DIPC_POLICY_H_
