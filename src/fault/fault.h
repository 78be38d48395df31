// Deterministic, seeded fault injection for the simulated runtime.
//
// A process-wide `Injector` exposes named probe points threaded through the
// hot layers (capability mint/rebind/store, MPMC slot claim, futex
// park/wake, fan-out credit grant, channel/fan-out send, proxy invoke,
// death sweeps). A `Plan` — parsed from a small text format or built in
// code — arms the injector with probabilistic rates and scripted triggers
// ("kill domain D at the Nth send"). Everything is driven by sim time plus
// one SplitMix64 stream, so a given (seed, plan) replays the exact same
// fault sequence; the injector keeps a padding-free decision log that tests
// memcmp across runs to prove it.
//
// Disarmed, a probe is one branch on a plain bool. Compiled with
// -DDIPC_FAULT_OFF the whole class collapses to a constexpr-false stub and
// every probe block is dead-code-eliminated — call sites carry no #ifdefs.
//
// Plan text format (one directive per line, '#' comments):
//   seed <n>
//   rule <point> <action> [p=<prob>] [at=<n>] [every=<n>] [max=<n>]
//                         [delay_ns=<ns>] [victim=<process-name>]
// Actions: fail | delay | drop_wake | kill. Triggers compose as OR: a rule
// fires at its `at`-th probe of the point, every `every`-th probe, or with
// probability `p` per probe; `max` caps total fires. `kill` invokes the
// registered kill handler with `victim` (a process name) and otherwise lets
// the probed operation proceed — the kill itself is the perturbation.
#ifndef DIPC_FAULT_FAULT_H_
#define DIPC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "sim/random.h"
#include "sim/time.h"

namespace dipc::sim {
class EventQueue;
}  // namespace dipc::sim

namespace dipc::fault {

// Canonical probe-point names, expanded from the X-macro manifest
// src/fault/probes.def — the same file tools/dipclint reads, so a probe
// site, a plan and the linter can never disagree about what exists.
namespace points {
#define DIPC_FAULT_PROBE(ident, name) inline constexpr std::string_view ident = name;
#include "fault/probes.def"
#undef DIPC_FAULT_PROBE
}  // namespace points

// Every manifest point, for validation and iteration.
inline constexpr std::string_view kAllPoints[] = {
#define DIPC_FAULT_PROBE(ident, name) points::ident,
#include "fault/probes.def"
#undef DIPC_FAULT_PROBE
};

// True iff `point` is a manifest probe point. Plan::Parse rejects rules
// targeting unknown points: a typo'd point would arm a rule that no probe
// site ever consults, i.e. a fault plan that silently tests nothing.
constexpr bool IsKnownPoint(std::string_view point) {
  for (std::string_view p : kAllPoints) {
    if (p == point) {
      return true;
    }
  }
  return false;
}

enum class Action : uint32_t {
  kNone = 0,
  kFail = 1,      // the probed operation returns ErrorCode::kFault
  kDelay = 2,     // the probed operation spends `delay` extra sim time
  kDropWake = 3,  // the probed wake is silently dropped (recovered by deadlines)
  kKill = 4,      // the registered kill handler murders `victim`
};

const char* ActionName(Action a);

struct Rule {
  std::string point;
  Action action = Action::kNone;
  double probability = 0.0;               // per-probe chance; 0 = scripted only
  uint64_t at = 0;                        // fire at the Nth probe (1-based); 0 = off
  uint64_t every = 0;                     // fire every Nth probe; 0 = off
  uint64_t max_fires = 0;                 // total fire cap; 0 = unlimited
  sim::Duration delay = sim::Duration::Zero();  // payload for kDelay
  std::string victim;                     // payload for kKill (process name)
};

struct Plan {
  uint64_t seed = 1;
  std::vector<Rule> rules;

  // Parses the text format documented above. Returns kInvalidArgument on
  // malformed input; `error` (optional) receives a line-numbered message.
  static base::Result<Plan> Parse(std::string_view text, std::string* error = nullptr);
};

// What a probe told the call site to do.
struct Decision {
  Action action = Action::kNone;
  sim::Duration delay = sim::Duration::Zero();

  bool fail() const { return action == Action::kFail; }
  bool drop_wake() const { return action == Action::kDropWake; }
};

// One fired fault, in a fixed 40-byte padding-free layout so the whole log
// is memcmp-comparable across runs (the replay-determinism contract).
struct FiredRecord {
  uint64_t seq = 0;         // 0-based fire ordinal
  uint64_t time_ps = 0;     // sim time of the probe
  uint64_t point_hash = 0;  // FNV-1a of the point name
  uint32_t action = 0;      // Action
  uint32_t rule = 0;        // index into Plan::rules
  uint64_t payload = 0;     // delay ps for kDelay, else 0
};
static_assert(sizeof(FiredRecord) == 40, "decision log must be padding-free");

// FNV-1a, the hash FiredRecord::point_hash uses.
constexpr uint64_t HashPoint(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

#ifndef DIPC_FAULT_OFF

class Injector {
 public:
  // The process-wide injector every probe site consults.
  static Injector& Global();

  // Arms with a plan; `clock` (may be null) timestamps the decision log.
  // Re-arming resets all counters, the RNG stream and the log.
  void Arm(Plan plan, const sim::EventQueue* clock);
  void Disarm();
  bool armed() const { return armed_; }

  // Handler invoked synchronously inside Probe for kKill rules; receives
  // Rule::victim. The harness resolves names to processes and calls
  // Dipc::KillProcess (reentrancy-safe; see dipc.cc).
  void SetKillHandler(std::function<void(const std::string&)> handler);

  // Consults the plan at a named point. Disarmed: one branch. Armed: bumps
  // the per-point probe count, evaluates rules in plan order and returns
  // the first firing rule's decision (kKill runs the handler and returns
  // kNone — the kill is the side effect). `cpu` tags the trace event.
  Decision Probe(std::string_view point, uint32_t cpu = 0);

  uint64_t probe_count() const { return probe_count_; }
  // Probes of `point` since the last Arm: 0 means no rule on it could fire.
  uint64_t probes(std::string_view point) const;
  uint64_t fire_count() const { return log_.size(); }
  const std::vector<FiredRecord>& log() const { return log_; }

 private:
  struct RuleState {
    uint64_t fires = 0;
  };

  Decision Fire(size_t rule_index, std::string_view point, uint32_t cpu);

  bool armed_ = false;
  Plan plan_;
  const sim::EventQueue* clock_ = nullptr;
  sim::Rng rng_{1};
  std::function<void(const std::string&)> kill_handler_;
  std::vector<RuleState> rule_state_;
  // point name -> probes seen. Small (a handful of points), linear scan.
  std::vector<std::pair<std::string, uint64_t>> point_probes_;
  uint64_t probe_count_ = 0;
  std::vector<FiredRecord> log_;
};

#else  // DIPC_FAULT_OFF: constexpr-false stub; probe blocks compile away.

class Injector {
 public:
  static Injector& Global() {
    static Injector stub;
    return stub;
  }
  void Arm(Plan, const sim::EventQueue*) {}
  void Disarm() {}
  static constexpr bool armed() { return false; }
  void SetKillHandler(std::function<void(const std::string&)>) {}
  Decision Probe(std::string_view, uint32_t = 0) { return {}; }
  uint64_t probe_count() const { return 0; }
  uint64_t probes(std::string_view) const { return 0; }
  uint64_t fire_count() const { return 0; }
  const std::vector<FiredRecord>& log() const {
    static const std::vector<FiredRecord> empty;
    return empty;
  }
};

#endif  // DIPC_FAULT_OFF

// Shorthand for the global injector.
inline Injector& Global() { return Injector::Global(); }

}  // namespace dipc::fault

// The one sanctioned probe-site spelling: consults the global injector at a
// manifest point (a bare `points::` ident from probes.def), paying a single
// branch when disarmed and vanishing entirely under -DDIPC_FAULT_OFF
// (armed() is constexpr false, so the whole ternary folds to `Decision{}`).
// Optional trailing argument: the probing CPU, for trace attribution.
// tools/dipclint's PROBE-MANIFEST rule checks every use of this macro
// against probes.def; raw Injector::Probe calls in src/ are lint findings.
#define DIPC_FAULT_POINT(point, ...)                                        \
  (::dipc::fault::Injector::Global().armed()                                \
       ? ::dipc::fault::Injector::Global().Probe(                           \
             ::dipc::fault::points::point __VA_OPT__(, ) __VA_ARGS__)       \
       : ::dipc::fault::Decision{})

#endif  // DIPC_FAULT_FAULT_H_
