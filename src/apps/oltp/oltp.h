// The multi-tier OLTP web stack of §2 and §7.4: an Apache-like Web frontend,
// a PHP-like interpreter, and a MariaDB-like database running a
// DVDStore-like transaction mix, wired in one of three ways:
//
//   kLinuxIpc — each tier a separate process; tiers talk over UNIX sockets
//               (FastCGI-style web<->php, client/server protocol php<->db)
//               with per-tier service-thread pools (§2.3's false concurrency).
//   kChan     — the tiers talk over zero-copy capability channels
//               (src/chan/) composed into an N x M service fabric
//               (src/fabric/): `tenants` web-tier client domains shard
//               requests across `chan_workers` PHP worker domains through
//               per-tenant fan-out request planes (per-receiver grants +
//               credit-based flow control) and get completions back over
//               per-tenant fan-in response planes; each PHP worker reaches
//               its DB peer over a duplex channel. Requests and responses
//               move by ownership grant instead of per-byte socket copies
//               with no marshalling glue, and the worker tiers need
//               chan_workers service threads per tenant instead of one per
//               web worker (§2.3's false concurrency).
//   kDipc     — tiers are dIPC processes; calls cross tiers in place through
//               generated proxies, arguments by reference, no service threads.
//   kIdeal    — all tiers in one process, plain function calls (the unsafe
//               upper bound of Figure 1).
//
// Per operation the stack makes 1 web->php request and kDbInteractions
// php<->db interactions, matching the paper's measured ~211 cross-domain
// calls per operation (§7.5).
#ifndef DIPC_APPS_OLTP_OLTP_H_
#define DIPC_APPS_OLTP_OLTP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "base/result.h"
#include "os/accounting.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/time.h"

namespace dipc::chan {
class DuplexEndpoint;
}  // namespace dipc::chan

namespace dipc::os {
struct Env;
}  // namespace dipc::os

namespace dipc::apps {

enum class OltpMode {
  kLinuxIpc,
  kChan,
  kDipc,
  kIdeal,
};

enum class DbStorage {
  kDisk,    // regular hard disk
  kMemory,  // tmpfs
};

constexpr std::string_view OltpModeName(OltpMode m) {
  switch (m) {
    case OltpMode::kLinuxIpc: return "Linux";
    case OltpMode::kChan: return "Chan (zero-copy)";
    case OltpMode::kDipc: return "dIPC";
    case OltpMode::kIdeal: return "Ideal (unsafe)";
  }
  return "?";
}

struct OltpConfig {
  OltpMode mode = OltpMode::kLinuxIpc;
  DbStorage storage = DbStorage::kMemory;
  // Threads per component (the paper sweeps 4..512). dIPC/Ideal need no
  // service threads: this is the number of primary (web) threads.
  int threads = 64;
  // kChan only: number of PHP/DB worker *domains* (processes) the web tier
  // shards requests across through the fan-out channel. Each worker owns a
  // duplex channel to its DB peer and a completion channel back to the web
  // tier (contrast kLinuxIpc, which needs one service thread per web worker
  // — §2.3's false concurrency).
  int chan_workers = 4;
  // kChan only: number of client (web-tier) *domains* sharing the worker
  // tier. threads are spread round-robin across them; each tenant gets its
  // own request/response plane pair inside the service fabric.
  int tenants = 1;
  // kChan only: one shared domain-tag trio per fabric plane direction
  // (APL-cache friendly) vs a private trio per tenant channel — the
  // many-tenant cache-thrash design point when false.
  bool shared_trios = true;
  sim::Duration warmup = sim::Duration::Millis(40);
  sim::Duration measure = sim::Duration::Millis(400);
  uint64_t seed = 42;
  // kChan robustness knobs (the supervised self-healing fabric). With
  // `supervise` on, a supervisor thread heartbeat-scans the PHP worker
  // domains, kills wedged ones and respawns dead ones (rebinding their
  // fan-out receiver slot), web clients bound every blocking step with
  // `request_deadline` and retry on kTimedOut/kCalleeFailed with capped
  // exponential backoff — each operation completes exactly once (one
  // completion consumed per opid; late duplicates are counted and dropped).
  bool supervise = false;
  sim::Duration heartbeat = sim::Duration::Millis(2);
  sim::Duration request_deadline = sim::Duration::Millis(5);
  int max_retries = 10;
  // Fault plan text (fault::Plan::Parse format) armed for the whole run;
  // empty = no injection. The kill handler resolves victim names against
  // this run's processes.
  std::string fault_plan;
  // Proxy-cost multiplier and extra per-cross-domain-access capability loads
  // for the §7.5 ablations.
  double proxy_cost_scale = 1.0;
  bool worst_case_cap_loads = false;

  // Workload shape. kDbInteractions comes from §7.5's ~211 cross-domain
  // calls per operation: one web->php request and 105 php<->db
  // interactions, each crossing out and back, make 2*(1+105) = 212.
  // kDiskProbability has no written source; it is this model's assumption
  // for the on-disk DB, ~3.2 disk reads per operation (105 * 0.030).
  static constexpr int kDbInteractions = 105;
  static constexpr double kDiskProbability = 0.030;
};

struct OltpResult {
  double ops_per_min = 0;
  double avg_latency_ms = 0;
  uint64_t operations = 0;
  os::TimeBreakdown breakdown;  // summed over CPUs, measurement window only
  double wall_seconds = 0;
  uint64_t cross_domain_calls = 0;  // dIPC/Ideal instrumentation (§7.5)
  // Robustness instrumentation (kChan with supervise/fault_plan).
  uint64_t requests_retried = 0;       // client attempts beyond the first
  uint64_t requests_failed = 0;        // ops given up after max_retries
  uint64_t workers_respawned = 0;      // supervisor kill+respawn cycles
  uint64_t duplicate_completions = 0;  // late completions dropped at dispatch
  uint64_t faults_injected = 0;        // fault::Injector fire count

  double UserFrac() const { return Frac(os::TimeCat::kUser); }
  double KernelFrac() const {
    return Frac(os::TimeCat::kKernel) + Frac(os::TimeCat::kSyscallCrossing) +
           Frac(os::TimeCat::kSyscallDispatch) + Frac(os::TimeCat::kSchedule) +
           Frac(os::TimeCat::kPageTableSwitch) + Frac(os::TimeCat::kProxy);
  }
  double IdleFrac() const { return Frac(os::TimeCat::kIdle); }

 private:
  double Frac(os::TimeCat cat) const {
    double total = breakdown.Total().nanos();
    return total > 0 ? breakdown[cat].nanos() / total : 0;
  }
};

// Runs one configuration on a fresh 4-CPU machine and reports steady-state
// throughput and the time breakdown of the measurement window.
OltpResult RunOltp(const OltpConfig& config);

// kChan's php->db interaction: one request out over `ep`, one reply back,
// zero-copy both ways. Every failure path leaves no buffer owned and no
// grant live while the channel is healthy.
sim::Task<base::Status> DuplexCall(os::Env env, chan::DuplexEndpoint& ep, uint64_t req_bytes,
                                   uint64_t resp_bytes);

}  // namespace dipc::apps

#endif  // DIPC_APPS_OLTP_OLTP_H_
