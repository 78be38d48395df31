// N x M service fabric: M client domains sharded across N worker domains
// behind one handle, with per-worker reverse rings feeding each client.
//
// This generalizes the opid-matched request/response dispatch that
// src/apps/oltp/ used to hand-roll per worker. Per client the fabric
// composes two planes (chan/plane.h) into the duplex pattern pushed N-wide:
//
//        requests (the workers as a receiver group, sharded SendTo)
//   client c ========================================> workers 0..N-1
//        <======================================== responses
//        (the workers as a producer group, the client receiving)
//
//   - Call(): the client-side request path — opid-stamped request, sent to
//     the least-loaded live worker (below) with re-dispatch when the chosen
//     worker dies, per-attempt deadline and capped-backoff retry under the
//     SAME opid, then the wait for its completion (below).
//     Exactly-once: one completions-map entry per operation, delivered at
//     most once; a late completion of an earlier attempt that a caller
//     receives is dropped and counted.
//   - Serve(): the worker-side loop for one (client, worker) pair — drain
//     the request shard, run the app handler, respond with the matching
//     opid into the client's response plane as that worker's producer.
//   - RebindWorker(): the supervisor's respawn path — one call splices a
//     fresh process into worker w's receiver slot on every client's
//     request plane AND its producer slot on every client's response
//     plane (Plane::RebindReceiver + Plane::RebindProducer).
//   - Close(): aborts every plane through the dead-peer unwind
//     (Plane::Abort with kBrokenChannel) and fails every registered
//     completion semaphore, all in one host step. Every grant in flight is
//     revoked: queued, received and not yet released, or acquired and not
//     yet sent, on request and response planes alike. Every parked serve
//     thread, receiving caller, follower and credit waiter returns
//     kBrokenChannel. A response still queued then is retired with its
//     grant, neither delivered nor counted.
//
// Completion: the caller that waits for a completion receives it. A caller
// whose completion has not arrived becomes its client's receiver when no
// other caller is receiving: it parks in the response plane's Recv, then
// reads each response's opid, releases it and delivers it. Otherwise it is
// a follower and parks on its own completion semaphore. A receiver that
// delivers another caller's completion posts that caller's semaphore
// (fabric/<id>/relayed_completions). A receiver whose own completion
// arrived, or whose Recv failed or timed out, hands the role to the first
// waiting caller of its client that is neither delivered nor signalled, by
// posting its semaphore; a woken follower re-checks both, and one that
// leaves with that token untaken (its deadline fired) passes the role on
// the same way. The tokens only wake: the entry's delivered flag says
// whether the call completed, so a completion that lands during a retry's
// back-off ends the call without another request.
//
// Direct hops: each of a call's two wakes is a wake-and-park handoff
// (os::DeferredWake, FUTEX_SWAP-style). Call's request publish defers the
// serve thread it would wake, and the caller's first park (the receiver's
// Recv or the follower's semaphore wait) switches its CPU straight to it.
// Serve's response publish defers the receiving caller, and the Recv of its
// next request switches to it. A relayed completion's Post defers the
// follower, and the receiver's next Recv switches to it. A swap costs a
// syscall entry, the futex wait and wake work and a register save/restore,
// with no IPI, idle exit or scheduler pick; a hop whose holder does not
// park (work already queued, a close) wakes as before, and so does a role
// hand-off, whose poster returns from its call.
//
// Least-loaded dispatch: Call reads the live workers' in-flight counts in
// round-robin order, starting at the client plane's NextShard() pick, and
// sends to the first idle worker, else to the one with the fewest in
// flight (the first of them in scan order). At zero load the pick is the
// round-robin one. The pick claims its worker: it adds one to the chosen
// count in the host step of its reads, so a concurrent pick reads the claim.
// A failed send gives the claim back while the worker is alive, and Serve
// subtracts one when the handler returns; a send that found no idle worker
// counts in fabric/<id>/busy_dispatches.
//
// Load segment: the counts live only in simulated memory, one signed 8-B
// count per worker at the start of its own 64-B line, in one segment under
// a tag of the fabric's own that every client and worker domain may write.
// Every read and update is a timed user access (Kernel::UserAccessCost,
// spent as user time), so a count another CPU just wrote costs the reader
// one coherence transfer; one line per worker keeps a worker's updates from
// invalidating the other counts. An update reads and writes its line in one
// host step before its spend: it behaves as an atomic add. A dead worker is
// skipped, a dead incarnation's late handler leaves the count alone, and
// RebindWorker zeroes the count for the new incarnation. The counts only
// steer dispatch: one a death leaves off by one costs balance, never a
// completion.
//
// Tag strategy: with FabricConfig::shared_trio (default) all request
// planes share one domain-tag trio and all response planes another; with
// the load segment's tag that is 7 tags total no matter how many clients,
// so hundreds of tenants stay within the 32-entry per-CPU APL cache.
// Disabling it gives every channel its own trio (the cache-thrash design
// point the benches sweep).
#ifndef DIPC_FABRIC_FABRIC_H_
#define DIPC_FABRIC_FABRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/thread_annotations.h"
#include "chan/plane.h"
#include "dipc/dipc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "os/semaphore.h"
#include "sim/task.h"

namespace dipc::fabric {

struct FabricConfig {
  uint32_t req_slots = 8;     // per-client request-plane pool
  uint64_t req_bytes = 512;   // >= 8 (the opid header)
  uint32_t resp_slots = 8;    // per-client response-plane pool
  uint64_t resp_bytes = 2048;
  // One shared tag trio across all request planes + one across all response
  // planes (APL-cache friendly) vs a private trio per channel.
  bool shared_trio = true;
  // Per-attempt deadline for every blocking step of Call(); zero waits
  // forever (no retries fire without it).
  sim::Duration call_deadline = sim::Duration::Zero();
  int max_call_retries = 0;  // further attempts after the first
};

class ServiceFabric {
 public:
  // Runs with the request payload (already delivered, not yet released);
  // the fabric handles opid extraction, release and the response itself.
  using Handler = std::function<sim::Task<void>(os::Env, const chan::Msg&)>;

  static base::Result<std::shared_ptr<ServiceFabric>> Create(
      core::Dipc& dipc, std::span<os::Process* const> clients,
      std::span<os::Process* const> workers, FabricConfig cfg = {});

  // One request/response round trip from client `client` (call on a thread
  // of that client's process). `req_len` in [8, req_bytes]. Returns kOk once
  // the completion arrived; kBrokenChannel once the fabric is stopped
  // (Close() before or during the call); kCalleeFailed when every retry was
  // exhausted or the client's planes broke.
  // NOLINT-DIPC(DEADLINE-THREAD): the per-attempt deadline is policy carried
  // by FabricConfig::call_deadline, not a per-call parameter — retry/backoff
  // needs one consistent bound across attempts.
  sim::Task<base::Status> Call(os::Env env, uint32_t client, uint64_t req_len);

  // Worker-side serve loop for one (client, worker) pair; spawn it on a
  // thread of worker w's *current* process (and again after every rebind).
  // Exits when the fabric closes or either plane fails for this endpoint.
  sim::Task<void> Serve(os::Env env, uint32_t client, uint32_t worker, Handler handler);

  // Does nothing: no completion needs a thread of its own. Kept because
  // perfbench's fabric_rpc driver still calls it; it goes with that call.
  void StartAllDispatchers() {}

  // Supervisor respawn: rebind worker w's endpoints on every live client
  // plane to `proc`. Best-effort across broken (dead-client) planes.
  base::Status RebindWorker(uint32_t worker, os::Process& proc);

  // Stops Call/Serve loops, aborts every plane and fails every in-flight
  // completion (see the header): every blocked call returns kBrokenChannel
  // and no grant outlives it.
  void Close();

  // ---- Introspection ----
  uint32_t client_count() const { return static_cast<uint32_t>(client_procs_.size()); }
  uint32_t worker_count() const { return static_cast<uint32_t>(worker_procs_.size()); }
  // Worker liveness as seen by the first live client plane.
  bool worker_alive(uint32_t w) const;
  // True when some live client plane has undelivered work at worker w.
  bool WorkerOutstanding(uint32_t w) const;
  // Requests worker slot w completed, ever (rebinds keep the counter) — the
  // supervisor's wedge heuristic diffs this between heartbeats.
  uint64_t WorkerProgress(uint32_t w) const { return progress_[w]; }
  // True once client c's planes are unusable: its process died, or Close()
  // aborted them.
  bool client_broken(uint32_t c) const;
  uint64_t calls() const { return calls_; }
  uint64_t completions() const { return completed_; }
  uint64_t retries() const { return retried_; }
  uint64_t failures() const { return failed_; }
  uint64_t duplicate_completions() const { return duplicates_; }
  // Completions a receiving caller delivered to another caller of its client.
  uint64_t relayed_completions() const { return relayed_; }
  uint64_t worker_rebinds() const { return rebinds_; }
  // Requests sent while no live worker was idle (each queued behind work).
  uint64_t busy_dispatches() const { return busy_dispatches_; }
  // Worker w's in-flight count as its load line holds it: requests sent to
  // it and not yet through its handler (an untimed read, for tests).
  int64_t WorkerLoad(uint32_t w) const;
  const FabricConfig& config() const { return cfg_; }
  uint32_t obs_id() const { return obs_id_; }
  // Plane access (tests / stress harness).
  const std::shared_ptr<chan::Plane>& request_plane(uint32_t c) const { return req_[c]; }
  const std::shared_ptr<chan::Plane>& response_plane(uint32_t c) const { return resp_[c]; }

 private:
  ServiceFabric(core::Dipc& dipc, std::span<os::Process* const> clients,
                std::span<os::Process* const> workers, FabricConfig cfg);
  void RegisterMetrics();

  // The worker a request goes to: the first idle live worker in `req`'s
  // round-robin order, else the least-loaded one; `busy` when none was
  // idle. worker == worker_count() when no worker is live.
  struct Pick {
    uint32_t worker = 0;
    bool busy = false;
  };
  // Claims the pick: the chosen count goes up by one in the scan's host step.
  sim::Task<Pick> PickWorker(os::Env env, chan::Plane& req);
  // Adds `delta` to worker w's count: one atomic add, spent as user time.
  sim::Task<void> AddLoad(os::Env env, uint32_t w, int64_t delta);
  hw::VirtAddr LoadVa(uint32_t w) const { return load_seg_.base + w * hw::kCacheLineSize; }
  // Worker w's count line in physical memory, for the untimed accesses.
  hw::PhysAddr LoadPa(uint32_t w) const;

  // One call's completion entry. `signalled`: a Post to `sem` is
  // outstanding (its caller has not yet taken the token).
  struct Completion {
    explicit Completion(uint32_t c) : client(c) {}
    const uint32_t client;
    os::Semaphore sem;
    bool delivered = false;
    bool signalled = false;
  };
  // Per client: whether a caller receives (it is in Recv or on its way in),
  // and the callers waiting for their completions, in arrival order.
  struct ClientWaits {
    bool receiving = false;
    std::vector<std::shared_ptr<Completion>> waiting;
  };
  // One attempt's wait for `op`, bounded by `dl`: as its client's receiver
  // when no other caller receives, else as a follower. `wake` goes to the
  // first park. True once `op` is delivered.
  sim::Task<bool> WaitForCompletion(os::Env env, std::shared_ptr<Completion> op, os::Deadline dl,
                                    os::DeferredWake wake);
  // Reads a received response's opid, releases it and delivers it: marks
  // its entry delivered and, when the entry is another caller's with no
  // post outstanding, posts that caller's semaphore with the wake deferred
  // into *wake. No entry, or one already delivered, is a duplicate. `self`
  // is the receiving caller's entry. False when the read or the release
  // failed.
  sim::Task<bool> Deliver(os::Env env, uint32_t client, const chan::Msg& msg, sim::Time t_recv,
                          const Completion& self, os::DeferredWake* wake);
  bool Delivered(const Completion& op);
  // The caller to take over `cw`'s vacant receiving role, marked signalled:
  // the first waiting one neither delivered nor signalled. Null when the
  // role is taken, nobody qualifies or the fabric stopped.
  std::shared_ptr<Completion> NextReceiver(ClientWaits& cw) DIPC_REQUIRES(completions_mu_);

  core::Dipc& dipc_;
  os::Kernel& kernel_;
  std::vector<os::Process*> client_procs_;
  std::vector<os::Process*> worker_procs_;  // current incarnations
  FabricConfig cfg_;
  std::vector<std::shared_ptr<chan::Plane>> req_;   // per client
  std::vector<std::shared_ptr<chan::Plane>> resp_;  // per client
  bool stopped_ = false;
  // Opid-matched completion delivery (fabric-wide unique opids). The map
  // and the per-client waits are shared between the callers of a client;
  // the mutex is held only across lookups and updates, never across a
  // co_await (a Post happens on an entry copied out under the lock).
  uint64_t next_opid_ = 0;
  base::Mutex completions_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Completion>> completions_
      DIPC_GUARDED_BY(completions_mu_);
  std::vector<ClientWaits> waits_ DIPC_GUARDED_BY(completions_mu_);
  std::vector<uint64_t> progress_;  // per worker slot
  chan::Segment load_seg_;          // one count line per worker slot
  uint64_t calls_ = 0;
  uint64_t completed_ = 0;
  uint64_t retried_ = 0;
  uint64_t failed_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t relayed_ = 0;
  uint64_t rebinds_ = 0;
  uint64_t busy_dispatches_ = 0;
  uint32_t obs_id_ = 0;
  obs::MetricSet metrics_;
  obs::Counter* m_calls_ = nullptr;
  obs::Counter* m_completions_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_failures_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_relayed_ = nullptr;
  obs::Counter* m_rebinds_ = nullptr;
  obs::Counter* m_busy_dispatches_ = nullptr;
  obs::Histogram* m_call_ns_ = nullptr;
};

}  // namespace dipc::fabric

#endif  // DIPC_FABRIC_FABRIC_H_
