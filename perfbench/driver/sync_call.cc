// sync_call: closed loop, one client thread making synchronous cross-process
// dIPC calls (High policy, ProxyRef::Call), each into one of three callee
// processes chosen by seed. The argument is passed by reference under a
// CapFromApl capability; its size is log-uniform in [1 B, 256 KiB] and the
// callee reads all of it. Arguments sit at seeded offsets in a 1 MiB arena
// (larger than L2, inside L3), so an op's cost depends on what earlier ops
// left in the caches.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "sim/random.h"

namespace perfbench {
namespace {

constexpr uint32_t kCallees = 3;
constexpr uint64_t kMaxArg = 256 * 1024;
constexpr uint64_t kArena = 1024 * 1024;
constexpr int kWarmOps = 64;

struct Op {
  uint64_t offset;
  uint64_t size;
  uint32_t callee;
};

// What the callee returns for an argument of `size` bytes: lets the caller
// check that the call reached the callee it addressed with the argument it
// passed.
uint64_t Expected(uint64_t size, uint32_t callee) { return size ^ (uint64_t{callee + 1} << 40); }

}  // namespace

double RunSyncCall(const Params& params, Fields& out) {
  const auto host_start = std::chrono::steady_clock::now();
  double setup_s = 0;
  sim::Rng rng(params.seed);
  // Warm-up: maximum-size calls that sweep the whole arena and reach every
  // callee (caches, trackers), then a stretch of the regular mix; the
  // measured ops follow.
  std::vector<Op> ops;
  for (uint64_t off = 0, c = 0; off <= kArena || c < kCallees; off += kMaxArg, ++c) {
    ops.push_back({std::min(off, kArena), kMaxArg, static_cast<uint32_t>(c % kCallees)});
  }
  const int64_t warm = static_cast<int64_t>(ops.size()) + kWarmOps;
  const int64_t total = warm + (params.measure ? params.ops : 0);
  const double log_max = std::log(static_cast<double>(kMaxArg));
  while (static_cast<int64_t>(ops.size()) < total) {
    uint64_t size = std::clamp<uint64_t>(static_cast<uint64_t>(std::exp(rng.NextDouble() * log_max)), 1,
                                         kMaxArg);
    uint64_t offset = rng.UniformInt(0, kArena / 8) * 8;
    ops.push_back({offset, size, static_cast<uint32_t>(rng.UniformInt(0, kCallees - 1))});
  }

  World w(4);
  os::Process& caller = w.dipc.CreateDipcProcess("caller");
  auto buf = w.kernel.MapAnonymous(caller, kArena + kMaxArg, hw::PageFlags{.writable = true});
  DIPC_CHECK(buf.ok());

  // The span the callee's read nests under (the caller's in-flight call).
  int32_t call_span = SpanLog::kNone;
  uint64_t cur_op = 0;
  std::vector<core::ProxyRef> proxies;
  const core::IsolationPolicy policy = core::IsolationPolicy::High();
  for (uint32_t c = 0; c < kCallees; ++c) {
    os::Process& callee = w.dipc.CreateDipcProcess("callee");
    core::EntryDesc entry;
    entry.name = "consume";
    entry.signature = core::EntrySignature{.in_regs = 2, .out_regs = 1, .stack_bytes = 0};
    entry.policy = policy;
    entry.fn = [c, &call_span, &cur_op](os::Env env, core::CallArgs args) -> sim::Task<uint64_t> {
      int32_t s = Spans().Begin(SpanName::kHwTouch, env, call_span, cur_op);
      auto read = co_await env.kernel->TouchUser(env, args.regs[0], args.regs[1],
                                                 hw::AccessType::kRead);
      Spans().End(s, env);
      co_return read.ok() ? Expected(args.regs[1], c) : 0;
    };
    auto handle = w.dipc.EntryRegister(callee, *w.dipc.DomDefault(callee), {entry});
    DIPC_CHECK(handle.ok());
    auto req = w.dipc.EntryRequest(caller, *handle.value(), {{entry.signature, policy}});
    DIPC_CHECK(req.ok());
    DIPC_CHECK(w.dipc.GrantCreate(*w.dipc.DomDefault(caller), *req.value().proxy_domain).ok());
    proxies.push_back(req.value().proxies[0]);
  }

  Window win;
  std::vector<int64_t> lat;
  lat.reserve(static_cast<size_t>(total - warm));
  int64_t failed = 0;
  w.kernel.Spawn(
      caller, "client",
      [&](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        for (int64_t i = 0; i < total; ++i) {
          if (i == warm) {
            setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start)
                          .count();
            win.Open(w);
          }
          const Op& op = ops[static_cast<size_t>(i)];
          const hw::VirtAddr arg = buf.value() + op.offset;
          cur_op = static_cast<uint64_t>(i);
          const sim::Time t0 = k.now();
          const int32_t root = Spans().Begin(SpanName::kOp, env, SpanLog::kNone, cur_op);
          int32_t s = Spans().Begin(SpanName::kHwTouch, env, root, cur_op);
          auto wrote = co_await k.TouchUser(env, arg, op.size, hw::AccessType::kWrite);
          Spans().End(s, env);
          s = Spans().Begin(SpanName::kCodomsCap, env, root, cur_op);
          sim::Duration cap_cost;
          auto cap = k.codoms().CapFromApl(env.self->last_cpu(), env.self->process().page_table(),
                                           env.self->cap_ctx(), arg, op.size,
                                           codoms::Perm::kRead, codoms::CapType::kSync, &cap_cost);
          co_await k.Spend(*env.self, cap_cost, os::TimeCat::kUser);
          Spans().End(s, env);
          bool ok = wrote.ok() && cap.ok();
          if (ok) {
            env.self->cap_ctx().regs.Set(0, cap.value());
            core::CallArgs args;
            args.regs[0] = arg;
            args.regs[1] = op.size;
            call_span = Spans().Begin(SpanName::kDipcCall, env, root, cur_op);
            uint64_t result = co_await proxies[op.callee].Call(env, args);
            Spans().End(call_span, env);
            call_span = SpanLog::kNone;
            ok = env.self->TakeError() == base::ErrorCode::kOk &&
                 result == Expected(op.size, op.callee);
          }
          Spans().End(root, env);
          if (i >= warm) {
            lat.push_back((k.now() - t0).picos());
            failed += ok ? 0 : 1;
          } else if (!ok) {
            out.Fail("sync_call: a warm-up call failed");
          }
        }
        if (win.open()) {
          win.Close(w, out);
        } else {
          setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start)
                        .count();
        }
      },
      /*pin_cpu=*/0);
  w.kernel.Run();
  if (!params.measure) {
    return setup_s;
  }
  if (failed > 0) {
    out.Fail("sync_call: " + std::to_string(failed) + " calls did not return kOk with the expected result");
  }
  out.Int("sim.attempted", total - warm);
  out.Int("sim.failed", failed);
  out.Int("sim.ops", total - warm - failed);
  out.IntArray("sim.lat_ps", std::move(lat));
  return setup_s;
}

}  // namespace perfbench
