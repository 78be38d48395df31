#include "apps/oltp/oltp.h"

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/oltp/disk.h"
#include "chan/channel.h"
#include "fabric/fabric.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "dipc/proxy.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "os/semaphore.h"
#include "os/unix_socket.h"
#include "sim/random.h"

namespace dipc::apps {
namespace {

using os::TimeCat;
using sim::Duration;

// ---- Component compute budgets (calibrated to Figure 1's splits) ----

// Apache: request parsing and response assembly.
constexpr Duration kWebParse = Duration::Micros(40);
constexpr Duration kWebRespond = Duration::Micros(30);
// Client-facing network I/O (kernel time in every mode).
constexpr Duration kWebClientIoKernel = Duration::Micros(9);
// PHP: script setup/teardown plus interpretation between DB interactions.
constexpr Duration kPhpSetup = Duration::Micros(28);
constexpr Duration kPhpPerInteraction = Duration::Micros(2.0);
constexpr Duration kPhpTeardown = Duration::Micros(22);
// MariaDB: per-interaction execution and the tmpfs/disk read syscall.
constexpr Duration kDbPerInteractionUser = Duration::Micros(3.0);
constexpr Duration kDbReadKernel = Duration::Micros(0.95);
// Per-message protocol glue in the Linux configuration: FastCGI record
// handling on the web<->php hop, client/server protocol on php<->db
// ((de)marshalling + demultiplexing, §2.2).
constexpr Duration kGlueUser = Duration::Nanos(460);

// Message sizes on the Linux sockets.
constexpr uint64_t kPhpReqBytes = 500;
constexpr uint64_t kPhpRespBytes = 2000;
constexpr uint64_t kDbReqBytes = 150;
constexpr uint64_t kDbRespBytes = 400;

// §7.5 worst-case capability modeling: every cross-domain memory access
// loads one 32 B capability; ~2% of the accesses behind one DB interaction
// are cross-domain.
constexpr int kWorstCaseCapLoadsPerInteraction = 560;

// A cross-tier request path; the three modes provide different transports.
using Edge = std::function<sim::Task<uint64_t>(os::Env, uint64_t)>;

struct Ctx {
  const OltpConfig* config = nullptr;
  os::Kernel* kernel = nullptr;
  Disk* disk = nullptr;  // null for in-memory storage
  bool stopped = false;

  uint64_t ops = 0;
  double latency_sum_ms = 0;
  uint64_t cross_domain_calls = 0;

  // kChan robustness bookkeeping (see OltpConfig::supervise). Retry/failure/
  // duplicate accounting lives in the ServiceFabric now; the supervisor's
  // respawn count is the one piece still owned here.
  uint64_t workers_respawned = 0;

  std::unordered_map<uint64_t, sim::Rng> rngs;
  sim::Rng& RngFor(os::Thread& t) {
    auto it = rngs.find(t.tid());
    if (it == rngs.end()) {
      it = rngs.emplace(t.tid(), sim::Rng(config->seed ^ (t.tid() * 0x9E37ULL))).first;
    }
    return it->second;
  }

  void ResetCounters() {
    ops = 0;
    latency_sum_ms = 0;
    cross_domain_calls = 0;
  }
};

// ---- Component logic (shared by all modes) ----

// One MariaDB interaction: execute + storage read (maybe hitting the disk).
sim::Task<uint64_t> DbInteraction(os::Env env, Ctx& ctx, uint64_t arg) {
  os::Kernel& k = *env.kernel;
  co_await k.Spend(*env.self, kDbPerInteractionUser, TimeCat::kUser);
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kDbReadKernel, TimeCat::kKernel);
  co_await k.SyscallExit(env);
  if (ctx.disk != nullptr && ctx.RngFor(*env.self).Chance(OltpConfig::kDiskProbability)) {
    co_await ctx.disk->Access(env);
  }
  co_return arg + 1;
}

// One PHP request: interpret the script, issuing DB interactions over `db`.
sim::Task<uint64_t> PhpRequest(os::Env env, [[maybe_unused]] Ctx& ctx, const Edge& db,
                               uint64_t arg) {
  os::Kernel& k = *env.kernel;
  co_await k.Spend(*env.self, kPhpSetup, TimeCat::kUser);
  uint64_t acc = arg;
  for (int i = 0; i < OltpConfig::kDbInteractions; ++i) {
    co_await k.Spend(*env.self, kPhpPerInteraction, TimeCat::kUser);
    acc = co_await db(env, acc);
  }
  co_await k.Spend(*env.self, kPhpTeardown, TimeCat::kUser);
  co_return acc;
}

// One web operation: parse, call PHP, respond to the client.
sim::Task<void> WebOp(os::Env env, [[maybe_unused]] Ctx& ctx, const Edge& php, uint64_t opid) {
  os::Kernel& k = *env.kernel;
  co_await k.Spend(*env.self, kWebParse, TimeCat::kUser);
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kWebClientIoKernel, TimeCat::kKernel);
  co_await k.SyscallExit(env);
  (void)co_await php(env, opid);
  co_await k.Spend(*env.self, kWebRespond, TimeCat::kUser);
}

// Closed-loop web worker: back-to-back operations (DVDStore driver with
// zero think time).
sim::Task<void> WebWorker(os::Env env, Ctx& ctx, Edge php) {
  uint64_t opid = 0;
  while (!ctx.stopped) {
    sim::Time t0 = env.kernel->now();
    co_await WebOp(env, ctx, php, opid++);
    ++ctx.ops;
    ctx.latency_sum_ms += (env.kernel->now() - t0).nanos() / 1e6;
  }
}

// ---- Linux-IPC mode plumbing ----

// Fixed-size request/response over a socket end (FastCGI / DB protocol).
sim::Task<base::Status> SockCall(os::Env env, os::UnixStreamEnd& sock, hw::VirtAddr buf,
                                 uint64_t req_bytes, uint64_t resp_bytes) {
  os::Kernel& k = *env.kernel;
  co_await k.Spend(*env.self, kGlueUser, TimeCat::kUser);  // marshal request
  auto sent = co_await sock.Send(env, buf, req_bytes);
  if (!sent.ok()) {
    co_return sent.status();
  }
  auto got = co_await sock.RecvExact(env, buf, resp_bytes);
  if (!got.ok()) {
    co_return got;
  }
  co_await k.Spend(*env.self, kGlueUser, TimeCat::kUser);  // demarshal response
  co_return base::Status::Ok();
}

}  // namespace

// ---- Channel-mode plumbing ----

// Fixed-size request/response over a duplex channel. The request is
// produced directly into the owned buffer and consumed in place on the
// other side — zero copies and zero (de)marshalling glue, unlike SockCall:
// the protocol overhead left is purely the channel fast path plus the
// thread switches.
sim::Task<base::Status> DuplexCall(os::Env env, chan::DuplexEndpoint& ep, uint64_t req_bytes,
                                   uint64_t resp_bytes) {
  (void)resp_bytes;  // the reply length rides in its descriptor
  os::Kernel& k = *env.kernel;
  auto buf = co_await ep.AcquireBuf(env);
  if (!buf.ok()) {
    co_return buf.code();
  }
  auto produced = co_await k.TouchUser(env, buf.value().va, req_bytes, hw::AccessType::kWrite);
  if (!produced.ok()) {
    // The fill failed (caller being torn down): hand the slot back instead
    // of leaking it — a leaked slot eventually wedges every producer.
    (void)co_await ep.Abandon(env, buf.value());
    co_return produced;
  }
  auto sent = co_await ep.Send(env, buf.value(), req_bytes);
  if (!sent.ok()) {
    // A send that fails on a healthy channel (an injected fault) leaves the
    // buffer ours, grant live: hand it back, or a few such failures drain
    // the pool and wedge this caller in AcquireBuf.
    if (ep.out().broken() == base::ErrorCode::kOk) {
      (void)co_await ep.Abandon(env, buf.value());
    }
    co_return sent;
  }
  auto reply = co_await ep.Recv(env);
  if (!reply.ok()) {
    co_return reply.code();
  }
  auto consumed =
      co_await k.TouchUser(env, reply.value().va, reply.value().len, hw::AccessType::kRead);
  (void)consumed;  // a dead peer surfaces through Release below
  co_return co_await ep.Release(env, reply.value());
}

namespace {

// Duplex service loop: receive requests on the inbound ring, run `handler`,
// respond on the outbound one — the zero-copy analogue of ServiceLoop (no
// glue charges: nothing is marshalled, demultiplexing is the descriptor pop
// itself).
sim::Task<void> DuplexServiceLoop(os::Env env, Ctx& ctx, std::shared_ptr<chan::DuplexEndpoint> ep,
                                  uint64_t resp_bytes,
                                  std::function<sim::Task<uint64_t>(os::Env)> handler) {
  os::Kernel& k = *env.kernel;
  while (!ctx.stopped) {
    auto msg = co_await ep->Recv(env);
    if (!msg.ok()) {
      co_return;
    }
    (void)co_await k.TouchUser(env, msg.value().va, msg.value().len, hw::AccessType::kRead);
    (void)co_await handler(env);
    if (!(co_await ep->Release(env, msg.value())).ok()) {
      co_return;
    }
    auto buf = co_await ep->AcquireBuf(env);
    if (!buf.ok()) {
      co_return;
    }
    (void)co_await k.TouchUser(env, buf.value().va, resp_bytes, hw::AccessType::kWrite);
    if (!(co_await ep->Send(env, buf.value(), resp_bytes)).ok()) {
      if (ep->out().broken() == base::ErrorCode::kOk) {
        (void)co_await ep->Abandon(env, buf.value());  // see DuplexCall
      }
      co_return;
    }
  }
}

// Service loop: receive fixed-size requests, run `handler`, send responses.
sim::Task<void> ServiceLoop(os::Env env, Ctx& ctx, std::shared_ptr<os::UnixStreamEnd> sock,
                            uint64_t req_bytes, uint64_t resp_bytes,
                            std::function<sim::Task<uint64_t>(os::Env)> handler) {
  os::Kernel& k = *env.kernel;
  auto buf = k.MapAnonymous(env.self->process(), hw::kPageSize, hw::PageFlags{.writable = true});
  DIPC_CHECK(buf.ok());
  while (!ctx.stopped) {
    auto got = co_await sock->RecvExact(env, buf.value(), req_bytes);
    if (!got.ok()) {
      co_return;
    }
    co_await k.Spend(*env.self, kGlueUser, TimeCat::kUser);  // demux + demarshal
    (void)co_await handler(env);
    co_await k.Spend(*env.self, kGlueUser, TimeCat::kUser);  // marshal response
    auto sent = co_await sock->Send(env, buf.value(), resp_bytes);
    if (!sent.ok()) {
      co_return;
    }
  }
}

}  // namespace

OltpResult RunOltp(const OltpConfig& config) {
  hw::Machine machine(4);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);

  Ctx ctx;
  ctx.config = &config;
  ctx.kernel = &kernel;
  if (config.mode == OltpMode::kLinuxIpc || config.mode == OltpMode::kChan) {
    // Wakeup-to-dispatch latency of a loaded Linux box (runqueue delay,
    // imperfect wake balancing; §7.4). dIPC/Ideal make no IPC wakeups;
    // channel mode keeps the service threads and therefore the wakeups.
    kernel.set_wake_latency(Duration::Micros(1.0));
  }
  std::unique_ptr<Disk> disk;
  if (config.storage == DbStorage::kDisk) {
    disk = std::make_unique<Disk>(kernel);
    ctx.disk = disk.get();
  }

  // Extra per-proxy-call cost for the §7.5 call-overhead ablation.
  const Duration ablation_extra =
      Duration::Nanos(107.0) * (config.proxy_cost_scale - 1.0);
  const Duration cap_load_extra =
      machine.costs().cap_memory_op * kWorstCaseCapLoadsPerInteraction;

  // kChan hooks: snapshot the fabric's robustness counters when the
  // measurement window opens and fold the window's deltas into the result.
  std::function<void()> on_measure_start;
  std::function<void(OltpResult&)> collect_robustness;

  switch (config.mode) {
    case OltpMode::kIdeal: {
      // One unsafe process; direct function calls between tiers.
      os::Process& app = kernel.CreateProcess("app");
      const hw::CostModel& cm = machine.costs();
      for (int i = 0; i < config.threads; ++i) {
        kernel.Spawn(app, "worker", [&ctx, &cm](os::Env env) -> sim::Task<void> {
          Edge db = [&ctx, &cm](os::Env e, uint64_t a) -> sim::Task<uint64_t> {
            ctx.cross_domain_calls += 2;  // §7.5 instrumentation: call+return
            co_await e.kernel->Spend(*e.self, cm.function_call, TimeCat::kUser);
            co_return co_await DbInteraction(e, ctx, a);
          };
          Edge php = [&ctx, &cm, db](os::Env e, uint64_t a) -> sim::Task<uint64_t> {
            ctx.cross_domain_calls += 2;
            co_await e.kernel->Spend(*e.self, cm.function_call, TimeCat::kUser);
            co_return co_await PhpRequest(e, ctx, db, a);
          };
          co_await WebWorker(env, ctx, php);
        });
      }
      break;
    }

    case OltpMode::kDipc: {
      // Three dIPC processes; asymmetric policies: only PHP trusts the other
      // components (§7.4), and stubs are folded into proxies assuming the
      // worst case, so both hops run High-like unions.
      os::Process& web = dipc.CreateDipcProcess("web");
      os::Process& php = dipc.CreateDipcProcess("php");
      os::Process& db = dipc.CreateDipcProcess("db");

      core::EntryDesc db_entry;
      db_entry.name = "interact";
      db_entry.signature = core::EntrySignature{.in_regs = 1, .out_regs = 1, .stack_bytes = 0};
      db_entry.policy = core::IsolationPolicy::High();  // DB enforces isolation
      db_entry.fn = [&ctx, ablation_extra, cap_load_extra,
                     &config](os::Env e, core::CallArgs a) -> sim::Task<uint64_t> {
        if (ablation_extra > Duration::Zero()) {
          co_await e.kernel->Spend(*e.self, ablation_extra, TimeCat::kProxy);
        }
        if (config.worst_case_cap_loads) {
          co_await e.kernel->Spend(*e.self, cap_load_extra, TimeCat::kUser);
        }
        co_return co_await DbInteraction(e, ctx, a.regs[0]);
      };
      auto db_handle = dipc.EntryRegister(db, *dipc.DomDefault(db), {db_entry});
      DIPC_CHECK(db_handle.ok());
      // PHP imports the DB entry (PHP trusts DB: Low on the caller side).
      auto db_req = dipc.EntryRequest(php, *db_handle.value(),
                                      {{db_entry.signature, core::IsolationPolicy::Low()}});
      DIPC_CHECK(db_req.ok());
      DIPC_CHECK(dipc.GrantCreate(*dipc.DomDefault(php), *db_req.value().proxy_domain).ok());
      core::ProxyRef db_proxy = db_req.value().proxies[0];

      core::EntryDesc php_entry;
      php_entry.name = "request";
      php_entry.signature = core::EntrySignature{.in_regs = 1, .out_regs = 1, .stack_bytes = 0};
      php_entry.policy = core::IsolationPolicy::Low();  // PHP trusts callers
      php_entry.fn = [&ctx, db_proxy, ablation_extra](os::Env e,
                                                      core::CallArgs a) -> sim::Task<uint64_t> {
        if (ablation_extra > Duration::Zero()) {
          co_await e.kernel->Spend(*e.self, ablation_extra, TimeCat::kProxy);
        }
        Edge db_edge = [&ctx, db_proxy](os::Env e2, uint64_t v) -> sim::Task<uint64_t> {
          ctx.cross_domain_calls += 2;
          core::CallArgs args;
          args.regs[0] = v;
          co_return co_await db_proxy.Call(e2, args);
        };
        co_return co_await PhpRequest(e, ctx, db_edge, a.regs[0]);
      };
      auto php_handle = dipc.EntryRegister(php, *dipc.DomDefault(php), {php_entry});
      DIPC_CHECK(php_handle.ok());
      // Web is isolated from the interpreter: High on the caller side.
      auto php_req = dipc.EntryRequest(web, *php_handle.value(),
                                       {{php_entry.signature, core::IsolationPolicy::High()}});
      DIPC_CHECK(php_req.ok());
      DIPC_CHECK(dipc.GrantCreate(*dipc.DomDefault(web), *php_req.value().proxy_domain).ok());
      core::ProxyRef php_proxy = php_req.value().proxies[0];

      for (int i = 0; i < config.threads; ++i) {
        kernel.Spawn(web, "worker", [&ctx, php_proxy](os::Env env) -> sim::Task<void> {
          Edge php_edge = [&ctx, php_proxy](os::Env e, uint64_t v) -> sim::Task<uint64_t> {
            ctx.cross_domain_calls += 2;
            core::CallArgs args;
            args.regs[0] = v;
            co_return co_await php_proxy.Call(e, args);
          };
          co_await WebWorker(env, ctx, php_edge);
        });
      }
      break;
    }

    case OltpMode::kChan: {
      // Zero-copy channels composed into the N x M service fabric
      // (src/fabric/): `tenants` web-tier client domains shard requests
      // across `chan_workers` PHP worker *domains* through per-tenant
      // fan-out request planes (per-receiver read grants, credit-based
      // backpressure) and get completions back over per-tenant fan-in
      // response planes, matched to the blocked web worker by operation id
      // inside fabric::Call. Each PHP worker drives its own DB peer thread
      // over a duplex channel. Versus kLinuxIpc this removes both the
      // copies+glue AND most of the false concurrency: the worker tier runs
      // chan_workers serve threads per tenant instead of one per web worker.
      const int W = std::max(1, config.chan_workers);
      const int T = std::max(1, config.tenants);
      // Shared (not stack-local) so the supervisor and the fault-plan kill
      // handler can keep resolving processes after this block exits.
      auto webs = std::make_shared<std::vector<os::Process*>>();
      for (int t = 0; t < T; ++t) {
        webs->push_back(&dipc.CreateDipcProcess("apache"));
      }
      os::Process& db = dipc.CreateDipcProcess("mariadb");
      auto workers = std::make_shared<std::vector<os::Process*>>();
      for (int r = 0; r < W; ++r) {
        workers->push_back(&dipc.CreateDipcProcess("php-worker"));
      }
      codoms::AplTable& apl = codoms.apl_table();
      // Shared domain-tag trio on the php<->db hop (identical trust
      // relationship across workers), so the per-CPU APL cache stays warm.
      // The web<->php planes get theirs from the fabric (shared_trios).
      struct Trio {
        hw::DomainTag ctrl, data, rt;
      };
      auto make_trio = [&apl] {
        return Trio{apl.AllocateTag(), apl.AllocateTag(), apl.AllocateTag()};
      };
      const Trio php_db_t = make_trio();

      // Per-tenant request-plane credits size to that tenant's closed-loop
      // population so admission never throttles below the worker tier's own
      // capacity.
      const auto per_tenant =
          static_cast<uint32_t>((config.threads + T - 1) / T);
      fabric::FabricConfig fcfg;
      fcfg.req_slots = std::max<uint32_t>(8, per_tenant);
      fcfg.req_bytes = kPhpReqBytes;
      fcfg.resp_slots = std::max<uint32_t>(8, 2 * static_cast<uint32_t>(W));
      fcfg.resp_bytes = kPhpRespBytes;
      fcfg.shared_trio = config.shared_trios;
      fcfg.call_deadline =
          config.supervise ? config.request_deadline : Duration::Zero();
      fcfg.max_call_retries = config.max_retries;
      auto fab_r = fabric::ServiceFabric::Create(dipc, *webs, *workers, fcfg);
      DIPC_CHECK(fab_r.ok());
      std::shared_ptr<fabric::ServiceFabric> fab = fab_r.value();

      // Wires one PHP worker slot: its duplex to a fresh DB service thread
      // and one fabric serve loop per tenant plane. Shared so the supervisor
      // can re-run it against a respawned process after RebindWorker — the
      // dead incarnation's duplex failed with it, so every piece is created
      // anew (the fabric planes themselves survive via epoch rebind).
      auto start_worker = std::make_shared<std::function<void(uint32_t, os::Process&)>>();
      *start_worker = [&ctx, &dipc, &kernel, fab, php_db_t, T, &db](uint32_t r,
                                                                    os::Process& php) {
        // PHP worker <-> its DB peer: a duplex channel (requests forward,
        // replies on the paired reverse ring).
        auto dx = chan::DuplexChannel::Create(dipc, php, db,
                                              {.slots = 4,
                                               .buf_bytes = kDbReqBytes,
                                               .ctrl_tag = php_db_t.ctrl,
                                               .data_tag = php_db_t.data,
                                               .rt_tag = php_db_t.rt},
                                              chan::PlaneConfig{.slots = 4,
                                                                .buf_bytes = kDbRespBytes});
        DIPC_CHECK(dx.ok());
        std::shared_ptr<chan::DuplexEndpoint> php_db_end = dx.value()->a_end();
        std::shared_ptr<chan::DuplexEndpoint> db_end = dx.value()->b_end();

        kernel.Spawn(db, "db-svc", [&ctx, db_end](os::Env env) -> sim::Task<void> {
          co_await DuplexServiceLoop(env, ctx, db_end, kDbRespBytes,
                                     [&ctx](os::Env e) -> sim::Task<uint64_t> {
                                       co_return co_await DbInteraction(e, ctx, 0);
                                     });
        });
        Edge db_edge = [&ctx, php_db_end](os::Env e, uint64_t v) -> sim::Task<uint64_t> {
          auto s = co_await DuplexCall(e, *php_db_end, kDbReqBytes, kDbRespBytes);
          (void)s;
          co_return v + 1;
        };
        fabric::ServiceFabric::Handler handler =
            [&ctx, db_edge](os::Env e, const chan::Msg&) -> sim::Task<void> {
          (void)co_await PhpRequest(e, ctx, db_edge, 0);
        };
        // One serve loop per tenant plane: drain that tenant's shard of this
        // worker, interpret, respond with the matching opid.
        for (int c = 0; c < T; ++c) {
          kernel.Spawn(php, "php-worker",
                       [fab, c, r, handler](os::Env env) -> sim::Task<void> {
                         co_await fab->Serve(env, static_cast<uint32_t>(c), r, handler);
                       });
        }
      };
      for (int r = 0; r < W; ++r) {
        (*start_worker)(static_cast<uint32_t>(r), *(*workers)[r]);
      }

      // Fault-plan kill rules resolve victims by process name against this
      // run's topology (first *alive* match, so repeated kill rules murder
      // successive incarnations, not the same corpse).
      fault::Injector::Global().SetKillHandler(
          [&dipc, workers, webs, &db](const std::string& victim) {
            if (victim == db.name()) {
              dipc.KillProcess(db);
              return;
            }
            for (os::Process* p : *workers) {
              if (p->alive() && p->name() == victim) {
                dipc.KillProcess(*p);
                return;
              }
            }
            for (os::Process* p : *webs) {
              if (p->alive() && p->name() == victim) {
                dipc.KillProcess(*p);
                return;
              }
            }
          });

      if (config.supervise) {
        // Supervisor: heartbeat scan over the worker slots. A slot whose
        // process died (fault kill or our own verdict) is respawned into a
        // fresh process via the fabric's epoch-rebind machinery (every
        // tenant plane at once); a slot holding undelivered work with no
        // progress across two consecutive heartbeats is convicted as wedged
        // and killed (the next scan respawns it). Clients ride out the gap
        // on deadlines + retry.
        kernel.Spawn(*(*webs)[0], "supervisor",
                     [&ctx, &dipc, &config, fab, workers,
                      start_worker](os::Env env) -> sim::Task<void> {
                       os::Kernel& k = *env.kernel;
                       const uint32_t n = fab->worker_count();
                       std::vector<uint64_t> last_progress(n, 0);
                       std::vector<int> stagnant(n, 0);
                       while (!ctx.stopped) {
                         co_await k.Sleep(env, config.heartbeat);
                         bool any_live_client = false;
                         for (uint32_t c = 0; c < fab->client_count(); ++c) {
                           any_live_client = any_live_client || !fab->client_broken(c);
                         }
                         if (ctx.stopped || !any_live_client) {
                           co_return;
                         }
                         for (uint32_t r = 0; r < n; ++r) {
                           if (!fab->worker_alive(r)) {
                             os::Process& fresh = dipc.CreateDipcProcess("php-worker");
                             if (!fab->RebindWorker(r, fresh).ok()) {
                               continue;
                             }
                             (*workers)[r] = &fresh;
                             (*start_worker)(r, fresh);
                             ++ctx.workers_respawned;
                             last_progress[r] = fab->WorkerProgress(r);
                             stagnant[r] = 0;
                             continue;
                           }
                           if (fab->WorkerOutstanding(r) &&
                               fab->WorkerProgress(r) == last_progress[r]) {
                             if (++stagnant[r] >= 2) {
                               // Deliveries parked at a worker completing
                               // nothing: wedged (e.g. a lost wake). Kill it;
                               // the sweep recycles its slots and grants.
                               dipc.KillProcess(*(*workers)[r]);
                               stagnant[r] = 0;
                             }
                           } else {
                             stagnant[r] = 0;
                           }
                           last_progress[r] = fab->WorkerProgress(r);
                         }
                       }
                     });
      }
      // Closed-loop web workers, spread round-robin across the tenant
      // domains: each operation is one fabric::Call — opid stamping, shard
      // selection, deadline + capped-backoff retry and exactly-once
      // completion matching all live behind that one call now.
      for (int i = 0; i < config.threads; ++i) {
        const auto c = static_cast<uint32_t>(i % T);
        kernel.Spawn(*(*webs)[c], "worker", [&ctx, fab, c](os::Env env) -> sim::Task<void> {
          Edge php_edge = [&ctx, fab, c](os::Env e, uint64_t v) -> sim::Task<uint64_t> {
            (void)co_await fab->Call(e, c, kPhpReqBytes);
            co_return v;
          };
          co_await WebWorker(env, ctx, php_edge);
        });
      }
      // Robustness accounting lives in the fabric now; snapshot it when the
      // measurement window opens so the result covers that window only.
      auto snap = std::make_shared<std::array<uint64_t, 3>>();
      on_measure_start = [fab, snap] {
        (*snap) = {fab->retries(), fab->failures(), fab->duplicate_completions()};
      };
      collect_robustness = [fab, snap](OltpResult& r) {
        r.requests_retried = fab->retries() - (*snap)[0];
        r.requests_failed = fab->failures() - (*snap)[1];
        r.duplicate_completions = fab->duplicate_completions() - (*snap)[2];
      };
      break;
    }

    case OltpMode::kLinuxIpc: {
      // Three isolated processes; per-worker persistent connections
      // (FastCGI-style) with dedicated service threads in PHP and the DB.
      os::Process& web = kernel.CreateProcess("apache");
      os::Process& php = kernel.CreateProcess("php-fcgi");
      os::Process& db = kernel.CreateProcess("mariadb");
      for (int i = 0; i < config.threads; ++i) {
        auto [web_end, php_end] = os::UnixStreamCore::CreatePair(kernel);
        auto [php_db_end, db_end] = os::UnixStreamCore::CreatePair(kernel);
        // DB service thread: one interaction per request message.
        kernel.Spawn(db, "db-svc", [&ctx, sock = db_end](os::Env env) -> sim::Task<void> {
          co_await ServiceLoop(env, ctx, sock, kDbReqBytes, kDbRespBytes,
                               [&ctx](os::Env e) -> sim::Task<uint64_t> {
                                 co_return co_await DbInteraction(e, ctx, 0);
                               });
        });
        // PHP service thread: interprets the script, calling the DB over its
        // own connection for every interaction.
        kernel.Spawn(php, "php-svc",
                     [&ctx, sock = php_end, dbsock = php_db_end](os::Env env) -> sim::Task<void> {
                       os::Kernel& k = *env.kernel;
                       auto dbbuf = k.MapAnonymous(env.self->process(), hw::kPageSize,
                                                   hw::PageFlags{.writable = true});
                       DIPC_CHECK(dbbuf.ok());
                       Edge db_edge = [&ctx, dbsock, dbbuf](os::Env e,
                                                            uint64_t v) -> sim::Task<uint64_t> {
                         auto s = co_await SockCall(e, *dbsock, dbbuf.value(), kDbReqBytes,
                                                    kDbRespBytes);
                         (void)s;
                         co_return v + 1;
                       };
                       co_await ServiceLoop(env, ctx, sock, kPhpReqBytes, kPhpRespBytes,
                                            [&ctx, &db_edge](os::Env e) -> sim::Task<uint64_t> {
                                              co_return co_await PhpRequest(e, ctx, db_edge, 0);
                                            });
                     });
        // Web worker with its persistent FastCGI connection.
        kernel.Spawn(web, "worker", [&ctx, sock = web_end](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          auto buf = k.MapAnonymous(env.self->process(), hw::kPageSize,
                                    hw::PageFlags{.writable = true});
          DIPC_CHECK(buf.ok());
          Edge php_edge = [&ctx, sock, buf](os::Env e, uint64_t v) -> sim::Task<uint64_t> {
            auto s = co_await SockCall(e, *sock, buf.value(), kPhpReqBytes, kPhpRespBytes);
            (void)s;
            co_return v;
          };
          co_await WebWorker(env, ctx, php_edge);
        });
      }
      break;
    }
  }

  // Arm the fault plan for the whole run (warmup included — the supervisor
  // must already be healing before the measurement window opens).
  bool armed = false;
  if (!config.fault_plan.empty()) {
    std::string perr;
    auto plan = fault::Plan::Parse(config.fault_plan, &perr);
    DIPC_CHECK(plan.ok());
    fault::Injector::Global().Arm(*plan, &machine.events());
    armed = true;
  }

  kernel.RunFor(config.warmup);
  kernel.FlushIdleAccounting();
  kernel.accounting().Reset();
  ctx.ResetCounters();
  if (on_measure_start) {
    on_measure_start();
  }
  kernel.RunFor(config.measure);
  kernel.FlushIdleAccounting();
  ctx.stopped = true;

  OltpResult result;
  result.operations = ctx.ops;
  result.wall_seconds = config.measure.seconds();
  result.ops_per_min = static_cast<double>(ctx.ops) * 60.0 / config.measure.seconds();
  result.avg_latency_ms = ctx.ops > 0 ? ctx.latency_sum_ms / static_cast<double>(ctx.ops) : 0;
  result.breakdown = kernel.accounting().Summed();
  result.cross_domain_calls = ctx.cross_domain_calls;
  result.workers_respawned = ctx.workers_respawned;
  if (collect_robustness) {
    collect_robustness(result);
  }
  if (armed) {
    result.faults_injected = fault::Injector::Global().fire_count();
  }
  // The kill handler (and an armed plan's clock) capture this stack frame;
  // always clear them before it unwinds.
  fault::Injector::Global().Disarm();
  return result;
}

}  // namespace dipc::apps
