#include "micro_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

using os::TimeCat;
using sim::Duration;

// One self-contained simulated machine per measurement.
struct World {
  World() : machine(4), codoms(machine), kernel(machine, codoms) {}

  hw::Machine machine;
  codoms::Codoms codoms;
  os::Kernel kernel;
};

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

// Measurement wrapper: runs `rounds+warmup` with accounting reset after the
// warmup; converts totals to per-round values.
struct Window {
  explicit Window(World& w, int rounds) : w(w), rounds(rounds) {}
  void Begin() {
    w.kernel.accounting().Reset();
    t0 = w.kernel.now();
  }
  MicroResult Finish() {
    MicroResult r;
    r.roundtrip_ns = (w.kernel.now() - t0).nanos() / rounds;
    r.breakdown = w.kernel.accounting().Summed();
    for (auto& d : r.breakdown.by_cat) {
      d = Duration::Picos(d.picos() / rounds);
    }
    return r;
  }
  World& w;
  int rounds;
  sim::Time t0;
};

constexpr int kWarmup = 8;

}  // namespace

MicroResult MeasureFunction(const MicroConfig& config) {
  World w;
  os::Process& p = w.kernel.CreateProcess("app");
  auto buf = w.kernel.MapAnonymous(p, hw::PageRoundUp(config.arg_bytes + 1),
                                   hw::PageFlags{.writable = true});
  DIPC_CHECK(buf.ok());
  Window win(w, config.rounds);
  w.kernel.Spawn(p, "main", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    bool mem_arg = config.arg_bytes > 8;
    for (int i = -kWarmup; i < config.rounds; ++i) {
      if (i == 0) {
        win.Begin();
      }
      if (mem_arg) {
        (void)co_await k.TouchUser(env, buf.value(), config.arg_bytes, hw::AccessType::kWrite);
      }
      co_await k.Spend(*env.self, k.costs().function_call, TimeCat::kUser);
      if (mem_arg) {
        (void)co_await k.TouchUser(env, buf.value(), config.arg_bytes, hw::AccessType::kRead);
      }
    }
  });
  w.kernel.Run();
  return win.Finish();
}

MicroResult MeasureSyscall(const MicroConfig& config) {
  World w;
  os::Process& p = w.kernel.CreateProcess("app");
  auto buf = w.kernel.MapAnonymous(p, hw::PageRoundUp(config.arg_bytes + 1),
                                   hw::PageFlags{.writable = true});
  DIPC_CHECK(buf.ok());
  hw::PhysAddr kbuf = w.kernel.AllocKernelBuffer(hw::PageRoundUp(config.arg_bytes + 1));
  Window win(w, config.rounds);
  w.kernel.Spawn(p, "main", [&](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    for (int i = -kWarmup; i < config.rounds; ++i) {
      if (i == 0) {
        win.Begin();
      }
      (void)co_await k.TouchUser(env, buf.value(), config.arg_bytes, hw::AccessType::kWrite);
      co_await k.SyscallEnter(env);
      (void)co_await k.CopyFromUser(env, kbuf, buf.value(), config.arg_bytes);
      co_await k.SyscallExit(env);
    }
  });
  w.kernel.Run();
  return win.Finish();
}

MicroResult MeasureSemaphore(const MicroConfig& config) {
  World w;
  os::Process& client = w.kernel.CreateProcess("client");
  os::Process& server = w.kernel.CreateProcess("server");
  hw::VirtAddr shared = MapShared(w, client, server, hw::PageRoundUp(config.arg_bytes + 1));
  auto req = std::make_shared<os::Semaphore>(0);
  auto resp = std::make_shared<os::Semaphore>(0);
  int server_cpu = config.cross_cpu ? 1 : 0;
  Window win(w, config.rounds);
  w.kernel.Spawn(
      server, "server",
      [&, req, resp](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int i = -kWarmup; i < config.rounds; ++i) {
          co_await req->Wait(env);
          (void)co_await k.TouchUser(env, shared, config.arg_bytes, hw::AccessType::kRead);
          co_await resp->Post(env);
        }
      },
      server_cpu);
  w.kernel.Spawn(
      client, "client",
      [&, req, resp](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int i = -kWarmup; i < config.rounds; ++i) {
          if (i == 0) {
            win.Begin();
          }
          (void)co_await k.TouchUser(env, shared, config.arg_bytes, hw::AccessType::kWrite);
          co_await req->Post(env);
          co_await resp->Wait(env);
        }
      },
      /*pin_cpu=*/0);
  w.kernel.Run();
  return win.Finish();
}

MicroResult MeasurePipe(const MicroConfig& config) {
  World w;
  os::Process& client = w.kernel.CreateProcess("client");
  os::Process& server = w.kernel.CreateProcess("server");
  auto to_srv = std::make_shared<os::Pipe>(w.kernel);
  auto to_cli = std::make_shared<os::Pipe>(w.kernel);
  uint64_t buf_len = hw::PageRoundUp(config.arg_bytes + 1);
  auto cbuf = w.kernel.MapAnonymous(client, buf_len, hw::PageFlags{.writable = true});
  auto sbuf = w.kernel.MapAnonymous(server, buf_len, hw::PageFlags{.writable = true});
  DIPC_CHECK(cbuf.ok() && sbuf.ok());
  int server_cpu = config.cross_cpu ? 1 : 0;
  Window win(w, config.rounds);
  w.kernel.Spawn(
      server, "server",
      [&, to_srv, to_cli](os::Env env) -> sim::Task<void> {
        for (int i = -kWarmup; i < config.rounds; ++i) {
          DIPC_CHECK((co_await to_srv->ReadExact(env, sbuf.value(), config.arg_bytes)).ok());
          (void)co_await to_cli->Write(env, sbuf.value(), 1);
        }
      },
      server_cpu);
  w.kernel.Spawn(
      client, "client",
      [&, to_srv, to_cli](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int i = -kWarmup; i < config.rounds; ++i) {
          if (i == 0) {
            win.Begin();
          }
          (void)co_await k.TouchUser(env, cbuf.value(), config.arg_bytes, hw::AccessType::kWrite);
          (void)co_await to_srv->Write(env, cbuf.value(), config.arg_bytes);
          auto n = co_await to_cli->Read(env, cbuf.value(), 1);
          DIPC_CHECK(n.ok());
        }
      },
      /*pin_cpu=*/0);
  w.kernel.Run();
  return win.Finish();
}

MicroResult MeasureLocalRpc(const MicroConfig& config) {
  World w;
  os::Process& client_proc = w.kernel.CreateProcess("client");
  os::Process& server_proc = w.kernel.CreateProcess("server");
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
  int server_cpu = config.cross_cpu ? 1 : 0;
  w.kernel.Spawn(
      server_proc, "svc",
      [&, server](os::Env env) -> sim::Task<void> {
        auto conn = co_await listener.value()->Accept(env);
        DIPC_CHECK(conn.ok());
        co_await server->ServeConn(env, std::move(conn).value());
      },
      server_cpu);
  Window win(w, config.rounds);
  w.kernel.Spawn(
      client_proc, "cli",
      [&](os::Env env) -> sim::Task<void> {
        auto client = co_await rpc::RpcClient::Connect(env, "/rpc/echo");
        DIPC_CHECK(client.ok());
        std::vector<std::byte> args(config.arg_bytes);
        for (int i = -kWarmup; i < config.rounds; ++i) {
          if (i == 0) {
            win.Begin();
          }
          auto r = co_await client.value()->Call(env, 1, args);
          DIPC_CHECK(r.ok());
        }
      },
      /*pin_cpu=*/0);
  w.kernel.Run();
  return win.Finish();
}

MicroResult MeasureL4(const MicroConfig& config) {
  World w;
  os::Process& client = w.kernel.CreateProcess("client");
  os::Process& server = w.kernel.CreateProcess("server");
  auto gate = std::make_shared<l4::L4Gate>(w.kernel);
  int server_cpu = config.cross_cpu ? 1 : 0;
  w.kernel.Spawn(
      server, "svc",
      [&, gate](os::Env env) -> sim::Task<void> {
        l4::Message m = co_await gate->Recv(env);
        while (m.mr[0] != UINT64_MAX) {
          m = co_await gate->ReplyWait(env, m);
        }
        co_return;
      },
      server_cpu);
  Window win(w, config.rounds);
  w.kernel.Spawn(
      client, "cli",
      [&, gate](os::Env env) -> sim::Task<void> {
        l4::Message m;
        m.mr[0] = 1;  // one-byte argument inlined in registers
        for (int i = -kWarmup; i < config.rounds; ++i) {
          if (i == 0) {
            win.Begin();
          }
          (void)co_await gate->Call(env, m);
        }
        l4::Message stop;
        stop.mr[0] = UINT64_MAX;
        (void)co_await gate->Call(env, stop);
      },
      /*pin_cpu=*/0);
  w.kernel.Run();
  MicroResult r = win.Finish();
  // Finish reads the clock after Run(), which ends once the server has taken
  // the stop message and exited, so the window also holds the stop call's
  // one-way trip, about half a round trip: 470 ns over 400 rounds on one CPU
  // (945.175 ns per round against a marginal 944.000), 0.12% of the row.
  return r;
}

MicroResult MeasureDipc(const DipcMicroConfig& config) {
  World w;
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
  auto buf = w.kernel.MapAnonymous(caller, hw::PageRoundUp(config.arg_bytes + 1),
                                   hw::PageFlags{.writable = true});
  DIPC_CHECK(buf.ok());

  core::EntryDesc entry;
  entry.name = "consume";
  entry.signature = core::EntrySignature{.in_regs = 2, .out_regs = 1, .stack_bytes = 0};
  entry.policy = policy;
  entry.fn = [mem_arg](os::Env env, core::CallArgs args) -> sim::Task<uint64_t> {
    if (mem_arg) {
      // Consume the by-reference argument through the passed capability.
      auto s = co_await env.kernel->TouchUser(env, args.regs[0], args.regs[1],
                                              hw::AccessType::kRead);
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

  Window win(w, config.rounds);
  w.kernel.Spawn(caller, "main", [&, proxy](os::Env env) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    for (int i = -kWarmup; i < config.rounds; ++i) {
      if (i == 0) {
        win.Begin();
      }
      core::CallArgs args;
      if (mem_arg) {
        (void)co_await k.TouchUser(env, buf.value(), config.arg_bytes, hw::AccessType::kWrite);
        sim::Duration cap_cost;
        auto cap = k.codoms().CapFromApl(env.self->last_cpu(), env.self->process().page_table(),
                                         env.self->cap_ctx(), buf.value(), config.arg_bytes,
                                         codoms::Perm::kRead, codoms::CapType::kSync, &cap_cost);
        DIPC_CHECK(cap.ok());
        co_await k.Spend(*env.self, cap_cost, TimeCat::kUser);
        env.self->cap_ctx().regs.Set(0, cap.value());
        args.regs[0] = buf.value();
        args.regs[1] = config.arg_bytes;
      }
      (void)co_await proxy.Call(env, args);
      DIPC_CHECK(env.self->TakeError() == base::ErrorCode::kOk);
    }
  });
  w.kernel.Run();
  return win.Finish();
}

MicroResult MeasureDipcUserRpc(const MicroConfig& config) {
  // Cross-CPU RPC semantics at user level: the client copies the arguments
  // into a shared buffer and a service thread on another CPU consumes them;
  // only futexes enter the kernel.
  World w;
  core::Dipc dipc(w.kernel);
  os::Process& proc = dipc.CreateDipcProcess("app");
  uint64_t buf_len = hw::PageRoundUp(config.arg_bytes + 1);
  auto src = w.kernel.MapAnonymous(proc, buf_len, hw::PageFlags{.writable = true});
  auto shared = w.kernel.MapAnonymous(proc, buf_len, hw::PageFlags{.writable = true});
  DIPC_CHECK(src.ok() && shared.ok());
  auto req = std::make_shared<os::Semaphore>(0);
  auto resp = std::make_shared<os::Semaphore>(0);
  w.kernel.Spawn(
      proc, "service",
      [&, req, resp](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int i = -kWarmup; i < config.rounds; ++i) {
          co_await req->Wait(env);
          (void)co_await k.TouchUser(env, shared.value(), config.arg_bytes,
                                     hw::AccessType::kRead);
          co_await resp->Post(env);
        }
      },
      /*pin_cpu=*/1);
  Window win(w, config.rounds);
  w.kernel.Spawn(
      proc, "client",
      [&, req, resp](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int i = -kWarmup; i < config.rounds; ++i) {
          if (i == 0) {
            win.Begin();
          }
          (void)co_await k.TouchUser(env, src.value(), config.arg_bytes, hw::AccessType::kWrite);
          // User-level copy into the buffer the service thread reads.
          (void)co_await k.TouchUser(env, src.value(), config.arg_bytes, hw::AccessType::kRead);
          (void)co_await k.TouchUser(env, shared.value(), config.arg_bytes,
                                     hw::AccessType::kWrite);
          co_await req->Post(env);
          co_await resp->Wait(env);
        }
      },
      /*pin_cpu=*/0);
  w.kernel.Run();
  return win.Finish();
}

MicroResult MeasureChannel(const MicroConfig& config) {
  World w;
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
  std::shared_ptr<chan::Channel> chan_ptr = ch.value();
  int cons_cpu = config.cross_cpu ? 1 : 0;
  w.kernel.Spawn(
      cons, "consumer",
      [&, chan_ptr](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int i = -kWarmup; i < config.rounds; ++i) {
          auto msg = co_await chan_ptr->Recv(env);
          DIPC_CHECK(msg.ok());
          (void)co_await k.TouchUser(env, msg.value().va, msg.value().len,
                                     hw::AccessType::kRead);
          auto rel = co_await chan_ptr->Release(env, msg.value());
          DIPC_CHECK(rel.ok());
        }
      },
      cons_cpu);
  Window win(w, config.rounds);
  w.kernel.Spawn(
      prod, "producer",
      [&, chan_ptr](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int i = -kWarmup; i < config.rounds; ++i) {
          if (i == 0) {
            win.Begin();
          }
          auto buf = co_await chan_ptr->AcquireBuf(env);
          DIPC_CHECK(buf.ok());
          (void)co_await k.TouchUser(env, buf.value().va, config.arg_bytes,
                                     hw::AccessType::kWrite);
          auto sent = co_await chan_ptr->Send(env, buf.value(), config.arg_bytes);
          DIPC_CHECK(sent.ok());
        }
      },
      /*pin_cpu=*/0);
  w.kernel.Run();
  return win.Finish();
}

double MeasureStream(const StreamConfig& config) {
  const bool fan_in = config.shape == StreamShape::kFanIn;
  const uint32_t group =
      config.shape == StreamShape::kChannel ? 1 : std::max<uint32_t>(1, config.group);
  const uint32_t n_prod = fan_in ? group : 1;
  const uint32_t n_recv = fan_in ? 1 : group;
  const int batch = std::max(1, config.batch);
  hw::Machine machine(1 + group);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);
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
    kernel.Spawn(
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
    kernel.Spawn(
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
  kernel.Run();
  DIPC_CHECK(released == total * copies && total > warmup);
  return (t_end - t0).nanos() / (total - warmup);
}

double MeasureFabricEcho(const FabricEchoConfig& config) {
  const uint32_t tenants = std::max<uint32_t>(1, config.tenants);
  const uint32_t workers = std::max<uint32_t>(1, config.workers);
  const int calls = std::max(2, config.calls_per_tenant);
  hw::Machine machine(6);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);
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
      kernel.Spawn(*worker_procs[w], "serve", [fab, c, w, echo](os::Env env) -> sim::Task<void> {
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
    kernel.Spawn(*clients[c], "web", [&, fab, c](os::Env env) -> sim::Task<void> {
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
  kernel.Run();
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
