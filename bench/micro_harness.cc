#include "micro_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

#include "chan/channel.h"
#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "dipc/proxy.h"
#include "fabric/fabric.h"
#include "hw/machine.h"
#include "l4/l4_gate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/kernel.h"
#include "os/pipe.h"
#include "os/semaphore.h"
#include "rpc/rpc.h"

namespace dipc::bench {
namespace {

using hw::AccessType;
using os::TimeCat;
using sim::Duration;

// One self-contained simulated machine per measurement. A round-trip
// measurement's world has only the CPUs its threads use.
struct World {
  explicit World(uint32_t cpus) : machine(cpus), codoms(machine), kernel(machine, codoms) {}

  hw::Machine machine;
  codoms::Codoms codoms;
  os::Kernel kernel;
};

// Maps a writable buffer one byte larger than an `arg_bytes` argument.
hw::VirtAddr MapArg(World& w, os::Process& p, uint64_t arg_bytes) {
  auto va = w.kernel.MapAnonymous(p, hw::PageRoundUp(arg_bytes + 1),
                                  hw::PageFlags{.writable = true});
  DIPC_CHECK(va.ok());
  return va.value();
}

// Maps `len` bytes of shared memory into both processes at the same VA
// (each side sees its own domain tag; the frames are shared).
hw::VirtAddr MapShared(World& w, os::Process& a, os::Process& b, uint64_t len) {
  auto va = w.kernel.MapAnonymous(a, len, hw::PageFlags{.writable = true});
  DIPC_CHECK(va.ok());
  uint64_t pages = hw::PageRoundUp(len) / hw::kPageSize;
  for (uint64_t i = 0; i < pages; ++i) {
    const hw::Pte* pte = a.page_table().Lookup(va.value() + i * hw::kPageSize);
    DIPC_CHECK(pte != nullptr);
    DIPC_CHECK(b.page_table()
                   .MapPage(va.value() + i * hw::kPageSize, pte->frame,
                            hw::PageFlags{.writable = true}, b.default_domain())
                   .ok());
  }
  return va.value();
}

constexpr int kWarmup = 8;
constexpr const char* kThread = "bench";  // no output names a thread

// The CPU of a callee thread: its caller's CPU 0, or CPU 1 across CPUs.
int CalleeCpu(const MicroConfig& config) { return config.cross_cpu ? 1 : 0; }

// A round is one round trip's share of a thread's work, a coroutine that
// the thread awaits kWarmup + rounds times; awaiting it adds no event.
using Round = std::function<sim::Task<void>(os::Env)>;

// Spawns the callee side on `cpu`: kWarmup + rounds rounds.
void SpawnRounds(World& w, os::Process& p, int cpu, int rounds, Round round) {
  w.kernel.Spawn(
      p, kThread,
      [rounds, round = std::move(round)](os::Env env) -> sim::Task<void> {
        for (int i = -kWarmup; i < rounds; ++i) {
          co_await round(env);
        }
      },
      cpu);
}

// Spawns the caller side on CPU 0 and runs the world to its end. The first
// kWarmup rounds are untimed. The window opens as the first timed round
// starts and closes as the last one returns, and idle time open at either
// edge is flushed into it, so the breakdown sums to CPUs x window. Returns
// the window's round trip and time breakdown per round.
MicroResult TimeRounds(World& w, os::Process& p, int rounds, const Round& round) {
  os::Kernel& k = w.kernel;
  MicroResult r;
  k.Spawn(
      p, kThread,
      [&](os::Env env) -> sim::Task<void> {
        for (int i = 0; i < kWarmup; ++i) {
          co_await round(env);
        }
        k.FlushIdleAccounting();
        k.accounting().Reset();
        const sim::Time t0 = k.now();
        for (int i = 0; i < rounds; ++i) {
          co_await round(env);
        }
        k.FlushIdleAccounting();
        r.roundtrip_ns = (k.now() - t0).nanos() / rounds;
        r.breakdown = k.accounting().Summed();
        for (auto& d : r.breakdown.by_cat) {
          d = Duration::Picos(d.picos() / rounds);
        }
      },
      /*pin_cpu=*/0);
  k.Run();
  return r;
}

}  // namespace

MicroResult MeasureFunction(const MicroConfig& config) {
  World w(1);
  os::Process& p = w.kernel.CreateProcess("app");
  const hw::VirtAddr buf = MapArg(w, p, config.arg_bytes);
  const bool mem_arg = config.arg_bytes > 8;
  return TimeRounds(w, p, config.rounds, [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    if (mem_arg) {
      (void)co_await k.TouchUser(env, buf, config.arg_bytes, AccessType::kWrite);
    }
    co_await k.Spend(*env.self, k.costs().function_call, TimeCat::kUser);
    if (mem_arg) {
      (void)co_await k.TouchUser(env, buf, config.arg_bytes, AccessType::kRead);
    }
  });
}

MicroResult MeasureSyscall(const MicroConfig& config) {
  World w(1);
  os::Process& p = w.kernel.CreateProcess("app");
  const hw::VirtAddr buf = MapArg(w, p, config.arg_bytes);
  hw::PhysAddr kbuf = w.kernel.AllocKernelBuffer(hw::PageRoundUp(config.arg_bytes + 1));
  return TimeRounds(w, p, config.rounds, [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    (void)co_await k.TouchUser(env, buf, config.arg_bytes, AccessType::kWrite);
    co_await k.SyscallEnter(env);
    (void)co_await k.CopyFromUser(env, kbuf, buf, config.arg_bytes);
    co_await k.SyscallExit(env);
  });
}

MicroResult MeasureSemaphore(const MicroConfig& config) {
  World w(1 + CalleeCpu(config));
  os::Process& client = w.kernel.CreateProcess("client");
  os::Process& server = w.kernel.CreateProcess("server");
  hw::VirtAddr shared = MapShared(w, client, server, hw::PageRoundUp(config.arg_bytes + 1));
  os::Semaphore req(0);
  os::Semaphore resp(0);
  SpawnRounds(w, server, CalleeCpu(config), config.rounds, [&](os::Env env) -> sim::Task<void> {
    co_await req.Wait(env);
    (void)co_await env.kernel->TouchUser(env, shared, config.arg_bytes, AccessType::kRead);
    co_await resp.Post(env);
  });
  return TimeRounds(w, client, config.rounds, [&](os::Env env) -> sim::Task<void> {
    (void)co_await env.kernel->TouchUser(env, shared, config.arg_bytes, AccessType::kWrite);
    co_await req.Post(env);
    co_await resp.Wait(env);
  });
}

MicroResult MeasurePipe(const MicroConfig& config) {
  World w(1 + CalleeCpu(config));
  os::Process& client = w.kernel.CreateProcess("client");
  os::Process& server = w.kernel.CreateProcess("server");
  os::Pipe to_srv(w.kernel);
  os::Pipe to_cli(w.kernel);
  const hw::VirtAddr cbuf = MapArg(w, client, config.arg_bytes);
  const hw::VirtAddr sbuf = MapArg(w, server, config.arg_bytes);
  SpawnRounds(w, server, CalleeCpu(config), config.rounds, [&](os::Env env) -> sim::Task<void> {
    DIPC_CHECK((co_await to_srv.ReadExact(env, sbuf, config.arg_bytes)).ok());
    (void)co_await to_cli.Write(env, sbuf, 1);
  });
  return TimeRounds(w, client, config.rounds, [&](os::Env env) -> sim::Task<void> {
    (void)co_await env.kernel->TouchUser(env, cbuf, config.arg_bytes, AccessType::kWrite);
    (void)co_await to_srv.Write(env, cbuf, config.arg_bytes);
    DIPC_CHECK((co_await to_cli.Read(env, cbuf, 1)).ok());
  });
}

MicroResult MeasureLocalRpc(const MicroConfig& config) {
  World w(1 + CalleeCpu(config));
  os::Process& client_proc = w.kernel.CreateProcess("client");
  os::Process& server_proc = w.kernel.CreateProcess("server");
  // Shared: the server stays parked in ServeConn after the run.
  auto server = std::make_shared<rpc::RpcServer>(w.kernel);
  server->RegisterHandler(
      1, [](os::Env env, std::vector<std::byte> body) -> sim::Task<std::vector<std::byte>> {
        // The handler "reads" the argument it was handed (already charged as
        // unmarshal cost); reply is one byte.
        (void)env;
        (void)body;
        co_return std::vector<std::byte>(1);
      });
  auto listener = server->Bind("/rpc/echo");
  DIPC_CHECK(listener.ok());
  w.kernel.Spawn(
      server_proc, kThread,
      [server, listener = listener.value()](os::Env env) -> sim::Task<void> {
        auto conn = co_await listener->Accept(env);
        DIPC_CHECK(conn.ok());
        co_await server->ServeConn(env, std::move(conn).value());
      },
      CalleeCpu(config));
  std::unique_ptr<rpc::RpcClient> client;  // connects in the first round
  std::vector<std::byte> args(config.arg_bytes);
  return TimeRounds(w, client_proc, config.rounds, [&](os::Env env) -> sim::Task<void> {
    if (client == nullptr) {
      auto c = co_await rpc::RpcClient::Connect(env, "/rpc/echo");
      DIPC_CHECK(c.ok());
      client = std::move(c).value();
    }
    DIPC_CHECK((co_await client->Call(env, 1, args)).ok());
  });
}

MicroResult MeasureL4(const MicroConfig& config) {
  World w(1 + CalleeCpu(config));
  os::Process& client = w.kernel.CreateProcess("client");
  os::Process& server = w.kernel.CreateProcess("server");
  // Shared: the server stays parked in ReplyWait after the run.
  auto gate = std::make_shared<l4::L4Gate>(w.kernel);
  w.kernel.Spawn(
      server, kThread,
      [gate](os::Env env) -> sim::Task<void> {
        l4::Message m = co_await gate->Recv(env);
        while (true) {
          m = co_await gate->ReplyWait(env, m);
        }
      },
      CalleeCpu(config));
  l4::Message m;
  m.mr[0] = 1;  // one-byte argument inlined in registers
  return TimeRounds(w, client, config.rounds, [&](os::Env env) -> sim::Task<void> {
    (void)co_await gate->Call(env, m);
  });
}

MicroResult MeasureDipc(const DipcMicroConfig& config) {
  World w(1);
  if (config.elide_tls_switch) {
    w.machine.costs().tls_switch = Duration::Zero();
  }
  core::Dipc dipc(w.kernel);
  os::Process& caller = dipc.CreateDipcProcess("caller");
  os::Process& callee_proc =
      config.cross_process ? dipc.CreateDipcProcess("callee") : caller;
  auto callee_dom =
      config.cross_process ? dipc.DomDefault(callee_proc) : dipc.DomCreate(caller).value();
  core::IsolationPolicy policy =
      config.high_policy ? core::IsolationPolicy::High() : core::IsolationPolicy::Low();
  bool mem_arg = config.arg_bytes > 8;
  const hw::VirtAddr buf = MapArg(w, caller, config.arg_bytes);

  core::EntryDesc entry;
  entry.name = "consume";
  entry.signature = core::EntrySignature{.in_regs = 2, .out_regs = 1, .stack_bytes = 0};
  entry.policy = policy;
  entry.fn = [mem_arg](os::Env env, core::CallArgs args) -> sim::Task<uint64_t> {
    if (mem_arg) {
      // Consume the by-reference argument through the passed capability.
      auto s = co_await env.kernel->TouchUser(env, args.regs[0], args.regs[1],
                                              AccessType::kRead);
      DIPC_CHECK(s.ok());
    }
    co_return 0;
  };
  auto handle = dipc.EntryRegister(callee_proc, *callee_dom, {entry});
  DIPC_CHECK(handle.ok());
  auto req = dipc.EntryRequest(caller, *handle.value(), {{entry.signature, policy}});
  DIPC_CHECK(req.ok());
  DIPC_CHECK(dipc.GrantCreate(*dipc.DomDefault(caller), *req.value().proxy_domain).ok());
  core::ProxyRef proxy = req.value().proxies[0];

  return TimeRounds(w, caller, config.rounds, [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    core::CallArgs args;
    if (mem_arg) {
      (void)co_await k.TouchUser(env, buf, config.arg_bytes, AccessType::kWrite);
      sim::Duration cap_cost;
      auto cap = k.codoms().CapFromApl(env.self->last_cpu(), env.self->process().page_table(),
                                       env.self->cap_ctx(), buf, config.arg_bytes,
                                       codoms::Perm::kRead, codoms::CapType::kSync, &cap_cost);
      DIPC_CHECK(cap.ok());
      co_await k.Spend(*env.self, cap_cost, TimeCat::kUser);
      env.self->cap_ctx().regs.Set(0, cap.value());
      args.regs[0] = buf;
      args.regs[1] = config.arg_bytes;
    }
    (void)co_await proxy.Call(env, args);
    DIPC_CHECK(env.self->TakeError() == base::ErrorCode::kOk);
  });
}

MicroResult MeasureDipcUserRpc(const MicroConfig& config) {
  // Cross-CPU RPC semantics at user level: the client copies the arguments
  // into a shared buffer and a service thread on another CPU consumes them;
  // only futexes enter the kernel.
  World w(2);
  core::Dipc dipc(w.kernel);
  os::Process& proc = dipc.CreateDipcProcess("app");
  const hw::VirtAddr src = MapArg(w, proc, config.arg_bytes);
  const hw::VirtAddr shared = MapArg(w, proc, config.arg_bytes);
  os::Semaphore req(0);
  os::Semaphore resp(0);
  SpawnRounds(w, proc, /*cpu=*/1, config.rounds, [&](os::Env env) -> sim::Task<void> {
    co_await req.Wait(env);
    (void)co_await env.kernel->TouchUser(env, shared, config.arg_bytes, AccessType::kRead);
    co_await resp.Post(env);
  });
  return TimeRounds(w, proc, config.rounds, [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    (void)co_await k.TouchUser(env, src, config.arg_bytes, AccessType::kWrite);
    // User-level copy into the buffer the service thread reads.
    (void)co_await k.TouchUser(env, src, config.arg_bytes, AccessType::kRead);
    (void)co_await k.TouchUser(env, shared, config.arg_bytes, AccessType::kWrite);
    co_await req.Post(env);
    co_await resp.Wait(env);
  });
}

MicroResult MeasureChannel(const MicroConfig& config) {
  World w(1 + CalleeCpu(config));
  core::Dipc dipc(w.kernel);
  os::Process& prod = dipc.CreateDipcProcess("producer");
  os::Process& cons = dipc.CreateDipcProcess("consumer");
  // One slot makes the stream synchronous: AcquireBuf blocks until the
  // consumer released the previous message, matching the round-trip
  // semantics of the other design points.
  chan::PlaneConfig cc{.slots = 1,
                         .buf_bytes = std::max<uint64_t>(config.arg_bytes, 64)};
  auto ch = chan::Channel::Create(dipc, prod, cons, cc);
  DIPC_CHECK(ch.ok());
  chan::Channel& chan = *ch.value();
  SpawnRounds(w, cons, CalleeCpu(config), config.rounds, [&](os::Env env) -> sim::Task<void> {
    auto msg = co_await chan.Recv(env);
    DIPC_CHECK(msg.ok());
    (void)co_await env.kernel->TouchUser(env, msg.value().va, msg.value().len,
                                         AccessType::kRead);
    DIPC_CHECK((co_await chan.Release(env, msg.value())).ok());
  });
  return TimeRounds(w, prod, config.rounds, [&](os::Env env) -> sim::Task<void> {
    auto buf = co_await chan.AcquireBuf(env);
    DIPC_CHECK(buf.ok());
    (void)co_await env.kernel->TouchUser(env, buf.value().va, config.arg_bytes,
                                         AccessType::kWrite);
    DIPC_CHECK((co_await chan.Send(env, buf.value(), config.arg_bytes)).ok());
  });
}

double MeasureStream(const StreamConfig& config) {
  const bool fan_in = config.shape == StreamShape::kFanIn;
  const uint32_t group =
      config.shape == StreamShape::kChannel ? 1 : std::max<uint32_t>(1, config.group);
  const uint32_t n_prod = fan_in ? group : 1;
  const uint32_t n_recv = fan_in ? 1 : group;
  const int batch = std::max(1, config.batch);
  World w(1 + group);
  core::Dipc dipc(w.kernel);
  std::vector<os::Process*> prods;
  std::vector<os::Process*> recvs;
  for (uint32_t p = 0; p < n_prod; ++p) {
    prods.push_back(&dipc.CreateDipcProcess("producer"));
  }
  for (uint32_t r = 0; r < n_recv; ++r) {
    recvs.push_back(&dipc.CreateDipcProcess("receiver"));
  }
  chan::PlaneConfig cc{.slots = std::max<uint32_t>(8, static_cast<uint32_t>(2 * batch) * n_prod),
                       .buf_bytes = std::max<uint64_t>(config.payload_bytes, 64)};
  std::shared_ptr<chan::Plane> plane;
  if (config.shape == StreamShape::kChannel) {
    auto ch = chan::Channel::Create(dipc, *prods[0], *recvs[0], cc);
    DIPC_CHECK(ch.ok());
    plane = ch.value();
  } else {
    auto ch = fan_in ? chan::Plane::Create(dipc, prods, *recvs[0], cc)
                     : chan::Plane::Create(dipc, *prods[0], recvs, cc);
    DIPC_CHECK(ch.ok());
    plane = ch.value();
  }
  const int warmup = static_cast<int>(cc.slots) + batch * static_cast<int>(n_prod);
  const int per_prod =
      (config.messages + warmup + static_cast<int>(n_prod) - 1) / static_cast<int>(n_prod);
  const int total = per_prod * static_cast<int>(n_prod);
  // A broadcast message is released once per receiver.
  const int copies = config.shard ? 1 : static_cast<int>(n_recv);
  sim::Time t0, t_end;
  int released = 0;  // by every receiver; the window opens at warmup * copies
  for (uint32_t r = 0; r < n_recv; ++r) {
    w.kernel.Spawn(
        *recvs[r], "receiver",
        [&, plane, r](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          while (true) {
            auto msgs = co_await plane->RecvBatch(env, r, static_cast<uint32_t>(batch));
            if (!msgs.ok()) {
              co_return;  // kBrokenChannel after the drain
            }
            for (const chan::Msg& m : msgs.value()) {
              plane->BindRecvCap(*env.self, r, m);
              (void)co_await k.TouchUser(env, m.va, m.len, hw::AccessType::kRead);
            }
            DIPC_CHECK((co_await plane->ReleaseBatch(env, r, msgs.value())).ok());
            released += static_cast<int>(msgs.value().size());
            if (released <= warmup * copies) {
              t0 = k.now();
            }
            t_end = k.now();
          }
        },
        /*pin_cpu=*/fan_in ? 0 : static_cast<int>(1 + r));
  }
  int producers_done = 0;
  for (uint32_t p = 0; p < n_prod; ++p) {
    w.kernel.Spawn(
        *prods[p], "producer",
        [&, plane, p](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          for (int sent = 0; sent < per_prod;) {
            const auto want = static_cast<uint32_t>(std::min(batch, per_prod - sent));
            auto bufs = co_await plane->AcquireBufBatch(env, p, want);
            DIPC_CHECK(bufs.ok());
            std::vector<chan::SendItem> items;
            items.reserve(bufs.value().size());
            for (const chan::SendBuf& b : bufs.value()) {
              plane->BindSendCap(*env.self, b);
              (void)co_await k.TouchUser(env, b.va, config.payload_bytes,
                                         hw::AccessType::kWrite);
              items.push_back(chan::SendItem{b, config.payload_bytes});
            }
            if (config.shard) {
              const uint32_t shard = plane->NextShard();
              DIPC_CHECK(shard < plane->receiver_count());
              DIPC_CHECK((co_await plane->SendToBatch(env, p, items, shard)).ok());
            } else {
              DIPC_CHECK((co_await plane->SendBatch(env, p, items)).ok());
            }
            sent += static_cast<int>(items.size());
          }
          if (++producers_done == static_cast<int>(n_prod)) {
            plane->Close();  // the receivers drain, then see the close
          }
        },
        /*pin_cpu=*/fan_in ? static_cast<int>(1 + p) : 0);
  }
  w.kernel.Run();
  DIPC_CHECK(released == total * copies && total > warmup);
  return (t_end - t0).nanos() / (total - warmup);
}

double MeasureFabricEcho(const FabricEchoConfig& config) {
  const uint32_t tenants = std::max<uint32_t>(1, config.tenants);
  const uint32_t workers = std::max<uint32_t>(1, config.workers);
  const int calls = std::max(2, config.calls_per_tenant);
  World world(6);
  core::Dipc dipc(world.kernel);
  std::vector<os::Process*> clients;
  std::vector<os::Process*> worker_procs;
  for (uint32_t c = 0; c < tenants; ++c) {
    clients.push_back(&dipc.CreateDipcProcess("tenant"));
  }
  for (uint32_t w = 0; w < workers; ++w) {
    worker_procs.push_back(&dipc.CreateDipcProcess("worker"));
  }
  auto f = fabric::ServiceFabric::Create(dipc, clients, worker_procs,
                                         {.req_slots = 4,
                                          .req_bytes = std::max<uint64_t>(config.req_bytes, 8),
                                          .resp_slots = 4,
                                          .resp_bytes = std::max<uint64_t>(config.resp_bytes, 8),
                                          .shared_trio = config.shared_trio});
  DIPC_CHECK(f.ok());
  std::shared_ptr<fabric::ServiceFabric> fab = f.value();
  fabric::ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
    co_return;
  };
  for (uint32_t w = 0; w < workers; ++w) {
    for (uint32_t c = 0; c < tenants; ++c) {
      world.kernel.Spawn(*worker_procs[w], "serve",
                         [fab, c, w, echo](os::Env env) -> sim::Task<void> {
                           co_await fab->Serve(env, c, w, echo);
                         });
    }
  }
  // First quarter of every tenant's calls warms the epoch caches (and, per
  // tenant, the APL entries the run will keep touching); the measurement
  // window covers the rest.
  const int warmup = static_cast<int>(tenants) * std::max(1, calls / 4);
  const int total = static_cast<int>(tenants) * calls;
  sim::Time t0, t_end;
  int completed = 0;
  int remaining = static_cast<int>(tenants);
  for (uint32_t c = 0; c < tenants; ++c) {
    world.kernel.Spawn(*clients[c], "web", [&, fab, c](os::Env env) -> sim::Task<void> {
      for (int i = 0; i < calls; ++i) {
        DIPC_CHECK((co_await fab->Call(env, c, fab->config().req_bytes)).ok());
        ++completed;
        if (completed <= warmup) {
          t0 = env.kernel->now();
        }
        t_end = env.kernel->now();
      }
      if (--remaining == 0) {
        fab->Close();
      }
    });
  }
  world.kernel.Run();
  DIPC_CHECK(completed == total && total > warmup);
  return (t_end - t0).nanos() / (total - warmup);
}

JsonEmitter::JsonEmitter(std::string name, int argc, char** argv) : name_(std::move(name)) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      enabled_ = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics_ = true;
    } else if (std::strcmp(arg, "--trace") == 0 || std::strcmp(arg, "--trace=") == 0) {
      trace_path_ = "BENCH_" + name_ + ".trace.json";
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path_ = arg + 8;
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument '%s'\n"
                   "usage: %s [--json] [--metrics] [--trace[=path]]\n",
                   argv[0], arg, argv[0]);
      std::exit(2);
    }
  }
  if (tracing()) {
    obs::Trace().Enable();
  }
}

void JsonEmitter::Row(const std::string& series, uint64_t x, double value_ns) {
  rows_.push_back(RowData{series, x, value_ns});
}

void JsonEmitter::BeginSeries(const std::string& label) {
  if (!metrics_) {
    return;
  }
  if (!open_series_.empty()) {
    series_metrics_.emplace_back(open_series_, obs::Registry::Default().SnapshotJson());
  }
  obs::Registry::Default().Reset();
  open_series_ = label;
}

JsonEmitter::~JsonEmitter() {
  if (tracing()) {
    if (obs::Trace().ExportChromeTrace(trace_path_)) {
      std::fprintf(stderr, "wrote %s\n", trace_path_.c_str());
    } else {
      std::fprintf(stderr, "JsonEmitter: cannot write %s\n", trace_path_.c_str());
    }
    obs::Trace().Disable();
  }
  if (metrics_ && !open_series_.empty()) {
    series_metrics_.emplace_back(open_series_, obs::Registry::Default().SnapshotJson());
    open_series_.clear();
  }
  if (!enabled_) {
    // No BENCH json to embed into: print the snapshots for eyeballing.
    for (const auto& [label, snap] : series_metrics_) {
      std::printf("%s: %s\n", label.c_str(), snap.c_str());
    }
    return;
  }
  std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonEmitter: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"bench\": \"%s\", \"unit\": \"ns\", \"rows\": [", name_.c_str());
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "%s\n  {\"series\": \"%s\", \"x\": %llu, \"value\": %.3f}",
                 i == 0 ? "" : ",", rows_[i].series.c_str(),
                 static_cast<unsigned long long>(rows_[i].x), rows_[i].value_ns);
  }
  std::fprintf(f, "\n]");
  if (metrics_) {
    // Per-series snapshots: each label's counters cover only its own
    // measurement (the registry was reset at every BeginSeries).
    std::fprintf(f, ",\n\"metrics\": {");
    for (size_t i = 0; i < series_metrics_.size(); ++i) {
      std::fprintf(f, "%s\n  \"%s\": %s", i == 0 ? "" : ",", series_metrics_[i].first.c_str(),
                   series_metrics_[i].second.c_str());
    }
    std::fprintf(f, "\n}");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows_.size());
}

}  // namespace dipc::bench
