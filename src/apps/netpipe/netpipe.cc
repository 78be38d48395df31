#include "apps/netpipe/netpipe.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "chan/channel.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "dipc/proxy.h"
#include "hw/machine.h"
#include "os/kernel.h"
#include "os/pipe.h"
#include "os/semaphore.h"

namespace dipc::apps {
namespace {

using os::TimeCat;
using sim::Duration;

// Driver operation codes (the rsocket-ish verbs we interpose, §7.3).
enum : uint64_t {
  kOpPostSend = 1,
  kOpCompleteRecv = 2,
};

// The driver itself: identical work in every isolation variant.
// post_send: build the WQE and ring the doorbell. complete_recv: spin on the
// completion queue until the echoed message lands, then process the CQE.
sim::Task<uint64_t> DriverWork(os::Env env, uint64_t opcode, uint64_t bytes, TimeCat cat) {
  os::Kernel& k = *env.kernel;
  const hw::CostModel& cm = k.costs();
  if (opcode == kOpPostSend) {
    co_await k.Spend(*env.self, cm.nic_doorbell, cat);
  } else {
    // The wire round trip: out + echo back, paid while polling the CQ.
    Duration rtt = (cm.nic_base_latency + cm.nic_per_byte * bytes) * 2;
    co_await k.Spend(*env.self, rtt, cat);
    co_await k.Spend(*env.self, cm.nic_doorbell, cat);  // CQE processing
  }
  co_return 0;
}

using DriverOp = std::function<sim::Task<uint64_t>(os::Env, uint64_t opcode, uint64_t bytes)>;

// Request/response header crossing the zero-copy channels: opcode + size.
constexpr uint64_t kChanHdrBytes = 16;

// One synchronous verb over a duplex endpoint: the request is written into
// an owned buffer whose ownership moves to the driver on the forward ring
// (no copies), the completion comes back on the paired reverse ring.
sim::Task<base::Status> ChanVerbCall(os::Env env, chan::DuplexEndpoint& ep, uint64_t opcode,
                                     uint64_t bytes) {
  os::Kernel& k = *env.kernel;
  auto buf = co_await ep.AcquireBuf(env);
  if (!buf.ok()) {
    co_return buf.code();
  }
  uint64_t hdr[2] = {opcode, bytes};
  DIPC_CHECK(k.UserWrite(*env.self, buf.value().va, std::as_bytes(std::span(hdr))).ok());
  auto sent = co_await ep.Send(env, buf.value(), kChanHdrBytes);
  if (!sent.ok()) {
    // A send that fails on a healthy channel (an injected fault) leaves the
    // buffer ours, grant live: hand it back before bailing.
    if (ep.out().broken() == base::ErrorCode::kOk) {
      (void)co_await ep.Abandon(env, buf.value());
    }
    co_return sent;
  }
  auto ack = co_await ep.Recv(env);
  if (!ack.ok()) {
    co_return ack.code();
  }
  co_return co_await ep.Release(env, ack.value());
}

// Streaming round for the kChannel variant: `burst` post_send requests are
// published with one batched descriptor push (one queue op, one wake) and
// acknowledged with one batched completion on the reverse ring — the
// doorbell-batching cure for per-request software overhead.
sim::Task<base::Status> ChanBurstRound(os::Env env, chan::DuplexEndpoint& ep, int burst,
                                       uint64_t bytes) {
  os::Kernel& k = *env.kernel;
  auto bufs = co_await ep.AcquireBufBatch(env, static_cast<uint32_t>(burst));
  if (!bufs.ok()) {
    co_return bufs.code();
  }
  std::vector<chan::SendItem> items;
  items.reserve(bufs.value().size());
  for (const chan::SendBuf& b : bufs.value()) {
    ep.BindSendCap(*env.self, b);
    uint64_t hdr[2] = {kOpPostSend, bytes};
    DIPC_CHECK(k.UserWrite(*env.self, b.va, std::as_bytes(std::span(hdr))).ok());
    items.push_back(chan::SendItem{b, kChanHdrBytes});
  }
  auto sent = co_await ep.SendBatch(env, items);
  if (!sent.ok()) {
    if (ep.out().broken() == base::ErrorCode::kOk) {
      (void)co_await ep.AbandonBatch(env, bufs.value());  // see ChanVerbCall
    }
    co_return sent;
  }
  size_t acked = 0;
  while (acked < items.size()) {
    auto acks = co_await ep.RecvBatch(env, static_cast<uint32_t>(items.size() - acked));
    if (!acks.ok()) {
      co_return acks.code();
    }
    acked += acks.value().size();
    auto released = co_await ep.ReleaseBatch(env, acks.value());
    if (!released.ok()) {
      co_return released;
    }
  }
  co_return base::Status::Ok();
}

// Runs the ping-pong rounds and returns the per-round virtual time.
sim::Task<void> PingPong(os::Env env, DriverOp op, int rounds, uint64_t bytes, double* out_us) {
  // Warmup round (cold caches, tracker cold paths, lazy grants).
  (void)co_await op(env, kOpPostSend, bytes);
  (void)co_await op(env, kOpCompleteRecv, bytes);
  sim::Time t0 = env.kernel->now();
  for (int i = 0; i < rounds; ++i) {
    (void)co_await op(env, kOpPostSend, bytes);
    (void)co_await op(env, kOpCompleteRecv, bytes);
  }
  *out_us = (env.kernel->now() - t0).micros() / rounds;
}

}  // namespace

NetpipeResult RunNetpipe(const NetpipeConfig& config) {
  hw::Machine machine(2);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);

  double round_us = 0;
  const uint64_t bytes = config.transfer_bytes;

  switch (config.isolation) {
    case DriverIsolation::kInline: {
      os::Process& app = kernel.CreateProcess("app");
      DriverOp op = [&](os::Env env, uint64_t opcode, uint64_t n) -> sim::Task<uint64_t> {
        co_await kernel.Spend(*env.self, kernel.costs().function_call, TimeCat::kUser);
        co_return co_await DriverWork(env, opcode, n, TimeCat::kUser);
      };
      kernel.Spawn(app, "netpipe", [&, op](os::Env env) -> sim::Task<void> {
        co_await PingPong(env, op, config.rounds, bytes, &round_us);
      });
      break;
    }

    case DriverIsolation::kDipcDomain:
    case DriverIsolation::kDipcProcess: {
      // Asymmetric minimal policy between application and driver (§7.3).
      os::Process& app = dipc.CreateDipcProcess("app");
      bool cross = config.isolation == DriverIsolation::kDipcProcess;
      os::Process& drv_proc = cross ? dipc.CreateDipcProcess("ibdriver") : app;
      auto drv_dom = cross ? dipc.DomDefault(drv_proc) : dipc.DomCreate(app).value();
      core::EntryDesc entry;
      entry.name = "verb";
      entry.signature = core::EntrySignature{.in_regs = 2, .out_regs = 1, .stack_bytes = 0};
      entry.policy = core::IsolationPolicy::Low();
      entry.fn = [](os::Env env, core::CallArgs args) -> sim::Task<uint64_t> {
        co_return co_await DriverWork(env, args.regs[0], args.regs[1], TimeCat::kUser);
      };
      auto handle = dipc.EntryRegister(drv_proc, *drv_dom, {entry});
      DIPC_CHECK(handle.ok());
      auto req = dipc.EntryRequest(app, *handle.value(),
                                   {{entry.signature, core::IsolationPolicy::Low()}});
      DIPC_CHECK(req.ok());
      DIPC_CHECK(dipc.GrantCreate(*dipc.DomDefault(app), *req.value().proxy_domain).ok());
      core::ProxyRef proxy = req.value().proxies[0];
      DriverOp op = [proxy](os::Env env, uint64_t opcode, uint64_t n) -> sim::Task<uint64_t> {
        core::CallArgs args;
        args.regs[0] = opcode;
        args.regs[1] = n;
        co_return co_await proxy.Call(env, args);
      };
      kernel.Spawn(app, "netpipe", [&, op](os::Env env) -> sim::Task<void> {
        co_await PingPong(env, op, config.rounds, bytes, &round_us);
      });
      break;
    }

    case DriverIsolation::kKernel: {
      // In-kernel driver: each verb is a system call through the kernel's
      // verbs stack (fd lookup, locking, request validation) on top of the
      // raw trap cost.
      constexpr Duration kKernelVerbsPath = Duration::Nanos(155.0);
      os::Process& app = kernel.CreateProcess("app");
      DriverOp op = [&](os::Env env, uint64_t opcode, uint64_t n) -> sim::Task<uint64_t> {
        co_await kernel.SyscallEnter(env);
        co_await kernel.Spend(*env.self, kKernelVerbsPath, TimeCat::kKernel);
        uint64_t r = co_await DriverWork(env, opcode, n, TimeCat::kKernel);
        co_await kernel.SyscallExit(env);
        co_return r;
      };
      kernel.Spawn(app, "netpipe", [&, op](os::Env env) -> sim::Task<void> {
        co_await PingPong(env, op, config.rounds, bytes, &round_us);
      });
      break;
    }

    case DriverIsolation::kSemaphore: {
      // Driver process with a shared request page; futex-style signalling.
      // No payload copies (registered memory stays shared).
      os::Process& app = kernel.CreateProcess("app");
      os::Process& drv = kernel.CreateProcess("ibdriver");
      auto req_sem = std::make_shared<os::Semaphore>(0);
      auto resp_sem = std::make_shared<os::Semaphore>(0);
      auto shared = std::make_shared<std::array<uint64_t, 2>>();
      kernel.Spawn(
          drv, "drv-svc",
          [&, req_sem, resp_sem, shared](os::Env env) -> sim::Task<void> {
            while (true) {
              co_await req_sem->Wait(env);
              (void)co_await DriverWork(env, (*shared)[0], (*shared)[1], TimeCat::kUser);
              co_await resp_sem->Post(env);
            }
          },
          /*pin_cpu=*/0);
      DriverOp op = [req_sem, resp_sem, shared](os::Env env, uint64_t opcode,
                                                uint64_t n) -> sim::Task<uint64_t> {
        (*shared)[0] = opcode;
        (*shared)[1] = n;
        co_await req_sem->Post(env);
        co_await resp_sem->Wait(env);
        co_return 0;
      };
      kernel.Spawn(
          app, "netpipe",
          [&, op](os::Env env) -> sim::Task<void> {
            co_await PingPong(env, op, config.rounds, bytes, &round_us);
          },
          /*pin_cpu=*/0);
      break;
    }

    case DriverIsolation::kChannel: {
      // Driver service thread behind a *duplex* zero-copy channel: requests
      // move by capability grant on the forward ring (no copies, registered
      // payload memory stays shared), completions stream back on the paired
      // reverse ring, signalling is wake-suppressed futex, and bursts >1 use
      // the batched descriptor publication.
      os::Process& app = dipc.CreateDipcProcess("app");
      os::Process& drv = dipc.CreateDipcProcess("ibdriver");
      const int burst = std::max(1, config.burst);
      chan::PlaneConfig cc{.slots = std::max(4u, static_cast<uint32_t>(2 * burst)),
                           .buf_bytes = 64};
      auto dx = chan::DuplexChannel::Create(dipc, app, drv, cc);
      DIPC_CHECK(dx.ok());
      std::shared_ptr<chan::DuplexEndpoint> app_end = dx.value()->a_end();
      std::shared_ptr<chan::DuplexEndpoint> drv_end = dx.value()->b_end();
      // Driver: drain request batches, run the verbs, acknowledge with one
      // batched completion publish per drained batch.
      kernel.Spawn(
          drv, "drv-svc",
          [&, drv_end](os::Env env) -> sim::Task<void> {
            os::Kernel& k = *env.kernel;
            while (true) {
              auto msgs = co_await drv_end->RecvBatch(env, drv_end->in().config().slots);
              if (!msgs.ok()) {
                co_return;
              }
              for (const chan::Msg& m : msgs.value()) {
                drv_end->BindRecvCap(*env.self, m);
                uint64_t hdr[2] = {0, 0};
                DIPC_CHECK(
                    k.UserRead(*env.self, m.va, std::as_writable_bytes(std::span(hdr))).ok());
                (void)co_await DriverWork(env, hdr[0], hdr[1], TimeCat::kUser);
              }
              if (!(co_await drv_end->ReleaseBatch(env, msgs.value())).ok()) {
                co_return;
              }
              auto acks = co_await drv_end->AcquireBufBatch(
                  env, static_cast<uint32_t>(msgs.value().size()));
              if (!acks.ok()) {
                co_return;
              }
              std::vector<chan::SendItem> items;
              items.reserve(acks.value().size());
              for (const chan::SendBuf& b : acks.value()) {
                drv_end->BindSendCap(*env.self, b);
                uint64_t hdr[2] = {0, 0};  // completion record
                DIPC_CHECK(k.UserWrite(*env.self, b.va, std::as_bytes(std::span(hdr))).ok());
                items.push_back(chan::SendItem{b, kChanHdrBytes});
              }
              if (!(co_await drv_end->SendBatch(env, items)).ok()) {
                if (drv_end->out().broken() == base::ErrorCode::kOk) {
                  (void)co_await drv_end->AbandonBatch(env, acks.value());  // see ChanVerbCall
                }
                co_return;
              }
            }
          },
          /*pin_cpu=*/0);
      kernel.Spawn(
          app, "netpipe",
          [&, app_end, burst](os::Env env) -> sim::Task<void> {
            if (burst == 1) {
              DriverOp op = [app_end](os::Env e, uint64_t opcode,
                                      uint64_t n) -> sim::Task<uint64_t> {
                DIPC_CHECK((co_await ChanVerbCall(e, *app_end, opcode, n)).ok());
                co_return 0;
              };
              co_await PingPong(env, op, config.rounds, bytes, &round_us);
              app_end->Close();
              co_return;
            }
            // Streaming: measure per-burst rounds and report the per-request
            // equivalent so burst sweeps stay comparable to burst == 1.
            (void)co_await ChanBurstRound(env, *app_end, burst, bytes);  // warmup
            sim::Time t0 = env.kernel->now();
            for (int i = 0; i < config.rounds; ++i) {
              DIPC_CHECK((co_await ChanBurstRound(env, *app_end, burst, bytes)).ok());
            }
            round_us = (env.kernel->now() - t0).micros() / config.rounds / burst;
            app_end->Close();
          },
          /*pin_cpu=*/0);
      break;
    }

    case DriverIsolation::kPipe: {
      // Driver process behind a pipe pair; the payload crosses the pipe both
      // ways (the unnecessary-copy design point of §7.3).
      os::Process& app = kernel.CreateProcess("app");
      os::Process& drv = kernel.CreateProcess("ibdriver");
      auto to_drv = std::make_shared<os::Pipe>(kernel);
      auto from_drv = std::make_shared<os::Pipe>(kernel);
      kernel.Spawn(
          drv, "drv-svc",
          [&, to_drv, from_drv](os::Env env) -> sim::Task<void> {
            os::Kernel& k = *env.kernel;
            auto buf = k.MapAnonymous(env.self->process(), 2 * 1024 * 1024,
                                      hw::PageFlags{.writable = true});
            DIPC_CHECK(buf.ok());
            while (true) {
              // Request header: opcode + size (16 B), then payload for sends.
              if (!(co_await to_drv->ReadExact(env, buf.value(), 16)).ok()) {
                co_return;
              }
              uint64_t hdr[2];
              DIPC_CHECK(k.UserRead(*env.self, buf.value(),
                                    std::as_writable_bytes(std::span(hdr)))
                             .ok());
              uint64_t opcode = hdr[0];
              uint64_t len = hdr[1];
              if (opcode == kOpPostSend) {
                DIPC_CHECK((co_await to_drv->ReadExact(env, buf.value(), len)).ok());
              }
              (void)co_await DriverWork(env, opcode, len, TimeCat::kUser);
              if (opcode == kOpCompleteRecv && len > 0) {
                (void)co_await from_drv->Write(env, buf.value(), len);  // payload back
              } else {
                (void)co_await from_drv->Write(env, buf.value(), 16);  // ack
              }
            }
          },
          /*pin_cpu=*/0);
      auto appbuf = kernel.MapAnonymous(app, 2 * 1024 * 1024, hw::PageFlags{.writable = true});
      DIPC_CHECK(appbuf.ok());
      DriverOp op = [to_drv, from_drv, appbuf](os::Env env, uint64_t opcode,
                                               uint64_t n) -> sim::Task<uint64_t> {
        os::Kernel& k = *env.kernel;
        uint64_t hdr[2] = {opcode, n};
        DIPC_CHECK(k.UserWrite(*env.self, appbuf.value(), std::as_bytes(std::span(hdr))).ok());
        (void)co_await to_drv->Write(env, appbuf.value(), 16);
        if (opcode == kOpPostSend && n > 0) {
          (void)co_await to_drv->Write(env, appbuf.value(), n);  // payload to driver
        }
        uint64_t expect = (opcode == kOpCompleteRecv && n > 0) ? n : 16;
        DIPC_CHECK((co_await from_drv->ReadExact(env, appbuf.value(), expect)).ok());
        co_return 0;
      };
      kernel.Spawn(
          app, "netpipe",
          [&, op](os::Env env) -> sim::Task<void> {
            co_await PingPong(env, op, config.rounds, bytes, &round_us);
          },
          /*pin_cpu=*/0);
      break;
    }
  }

  kernel.Run();

  NetpipeResult result;
  result.round_trip_us = round_us;
  result.latency_us = round_us / 2.0;
  double one_way_s = round_us / 2.0 / 1e6;
  result.bandwidth_mbps =
      one_way_s > 0 ? static_cast<double>(bytes) / one_way_s / 1e6 : 0;
  return result;
}

}  // namespace dipc::apps
