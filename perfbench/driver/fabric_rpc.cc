// fabric_rpc: open loop. Seeded Poisson arrivals from 16 tenant client
// domains share 4 worker domains through a ServiceFabric (shared trios).
// Each request's handler spends a seeded service time of a few us, then
// makes a seeded number of round trips (6-10, mean 8) over its worker's
// DuplexChannel to one backend domain: the web -> php -> db shape at reduced
// depth. The offered rate climbs through fixed absolute steps; every request
// is timed from its due time.
#include <algorithm>
#include <cmath>
#include <deque>

#include "bench.h"
#include "chan/channel.h"
#include "fabric/fabric.h"
#include "os/semaphore.h"
#include "sim/random.h"

namespace perfbench {
namespace {

constexpr uint32_t kCpus = 8;
constexpr uint32_t kTenants = 16;
constexpr uint32_t kWorkers = 4;
constexpr uint32_t kCallersPerTenant = 4;
constexpr uint64_t kMinReq = 64;
constexpr uint64_t kMaxReq = 2048;
constexpr uint64_t kRespBytes = 256;
constexpr uint64_t kMinDb = 64;
constexpr uint64_t kMaxDb = 256;
// Offered-rate steps in requests per simulated second. Index kNominalStep is
// the nominal rate at which op_p50/op_p99 and the per-layer window are taken;
// the steps above it bracket the rate at the latency limit; the last one
// offers about 1.5x the capacity, so its completion rate is the capacity.
constexpr double kStepRates[] = {80e3, 100e3, 110e3, 120e3, 125e3, 130e3, 200e3};
constexpr size_t kNominalStep = 0;
constexpr size_t kSaturationStep = std::size(kStepRates) - 1;
constexpr double kWarmRate = 50e3;
constexpr int64_t kWarmRequests = 400;
// Latency limit on op_p99 for the rate-at-limit search.
constexpr sim::Duration kLatencyLimit = sim::Duration::Micros(300);
// Quiet gap between steps, after the previous step drained.
constexpr sim::Duration kStepGap = sim::Duration::Micros(50);

struct Request {
  int32_t step;
  uint32_t tenant;
  uint64_t len;
  sim::Time due;
  sim::Time start;
  sim::Time end;
  bool ok = false;
  bool queued = false;  // no idle caller thread of its tenant at arrival
};

struct Tenant {
  std::deque<size_t> pending;  // arrived, not yet picked up by a caller
  os::WaitQueue idle;          // caller threads with nothing to do
};

// A worker's private link to the backend: one duplex channel, guarded by a
// semaphore because all of the worker's serve threads share it.
struct Worker {
  std::shared_ptr<chan::DuplexChannel> db;
  std::shared_ptr<chan::DuplexEndpoint> end;
  std::shared_ptr<os::Semaphore> lock = std::make_shared<os::Semaphore>(1);
  sim::Rng rng{0};
  uint64_t next_seq = 0;
};

struct Header {
  uint64_t seq;
  uint64_t len;
};

uint64_t LogUniform(sim::Rng& rng, uint64_t lo, uint64_t hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi));
  return std::clamp<uint64_t>(static_cast<uint64_t>(std::exp(l + rng.NextDouble() * (h - l))), lo, hi);
}

}  // namespace

double RunFabricRpc(const Params& params, Fields& out) {
  const auto host_start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
  };
  double setup_s = 0;

  // Arrivals of every step, generated up front from the seed: a global
  // Poisson stream with uniformly chosen tenants, step after step.
  sim::Rng rng(params.seed);
  std::vector<double> rates = {kWarmRate};
  if (params.measure) {
    rates.insert(rates.end(), std::begin(kStepRates), std::end(kStepRates));
  }
  std::vector<Request> reqs;
  std::vector<std::vector<double>> gaps_ps(rates.size());
  std::vector<size_t> step_first;
  for (size_t s = 0; s < rates.size(); ++s) {
    step_first.push_back(reqs.size());
    // The nominal step carries the most requests (its percentiles are the
    // headline latencies); the saturation step needs enough to average over
    // bursts; the steps between only locate the rate at the limit.
    const int64_t n = s == 0                       ? kWarmRequests
                      : s == 1 + kNominalStep    ? 2 * params.ops
                      : s == 1 + kSaturationStep ? params.ops / 2
                                                 : params.ops / 4;
    for (int64_t i = 0; i < n; ++i) {
      gaps_ps[s].push_back(rng.Exponential(1e12 / rates[s]));
      reqs.push_back(Request{static_cast<int32_t>(s) - 1,
                             static_cast<uint32_t>(rng.UniformInt(0, kTenants - 1)),
                             LogUniform(rng, kMinReq, kMaxReq), {}, {}, {}});
    }
  }
  step_first.push_back(reqs.size());

  // Workers, tenants and the backend each run several threads at once, so
  // per-process CPU time says nothing about one span.
  Spans().set_busy_known(false);
  World w(kCpus);
  std::vector<os::Process*> clients;
  std::vector<os::Process*> workers;
  for (uint32_t c = 0; c < kTenants; ++c) {
    clients.push_back(&w.dipc.CreateDipcProcess("tenant"));
  }
  for (uint32_t i = 0; i < kWorkers; ++i) {
    workers.push_back(&w.dipc.CreateDipcProcess("worker"));
  }
  os::Process& backend = w.dipc.CreateDipcProcess("backend");
  auto created = fabric::ServiceFabric::Create(
      w.dipc, clients, workers,
      {.req_slots = 8, .req_bytes = kMaxReq, .resp_slots = 8, .resp_bytes = kRespBytes,
       .shared_trio = true});
  DIPC_CHECK(created.ok());
  std::shared_ptr<fabric::ServiceFabric> fab = created.value();
  fab->StartAllDispatchers();

  int64_t bad = 0;
  std::vector<Worker> wk(kWorkers);
  for (uint32_t i = 0; i < kWorkers; ++i) {
    auto d = chan::DuplexChannel::Create(w.dipc, *workers[i], backend,
                                         {.slots = 4, .buf_bytes = kMaxDb});
    DIPC_CHECK(d.ok());
    wk[i].db = d.value();
    wk[i].end = wk[i].db->a_end();
    wk[i].rng = sim::Rng(params.seed * 1000003 + i + 1);
    // Backend loop for this worker's channel: check, read, answer seq + 1.
    w.kernel.Spawn(backend, "db", [&, ep = wk[i].db->b_end()](os::Env env) -> sim::Task<void> {
      os::Kernel& k = *env.kernel;
      while (true) {
        auto m = co_await ep->Recv(env);
        if (!m.ok()) {
          co_return;
        }
        Header h{};
        bool good = k.UserRead(*env.self, m.value().va, std::as_writable_bytes(std::span(&h, 1))).ok() &&
                    h.len == m.value().len;
        int32_t t = Spans().Begin(SpanName::kHwTouch, env, SpanLog::kNone, h.seq);
        (void)co_await k.TouchUser(env, m.value().va, m.value().len, hw::AccessType::kRead);
        Spans().End(t, env);
        good = (co_await ep->Release(env, m.value())).ok() && good;
        auto b = co_await ep->AcquireBuf(env);
        if (!b.ok()) {
          ++bad;
          co_return;
        }
        Header r{h.seq + 1, h.len};
        good = k.UserWrite(*env.self, b.value().va, std::as_bytes(std::span(&r, 1))).ok() && good;
        t = Spans().Begin(SpanName::kHwTouch, env, SpanLog::kNone, h.seq);
        (void)co_await k.TouchUser(env, b.value().va, r.len, hw::AccessType::kWrite);
        Spans().End(t, env);
        good = (co_await ep->Send(env, b.value(), r.len)).ok() && good;
        bad += good ? 0 : 1;
      }
    });
  }

  // Worker handlers: a seeded service time of 2-4 us, then 6-10 seeded
  // round trips to the backend under the worker's channel lock. Each worker
  // draws from its own seeded stream in the order its handlers start.
  std::vector<fabric::ServiceFabric::Handler> handlers;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    handlers.push_back([&, i](os::Env env, const chan::Msg&) -> sim::Task<void> {
      os::Kernel& k = *env.kernel;
      Worker& me = wk[i];
      const uint64_t op = me.next_seq;
      const int32_t h = Spans().Begin(SpanName::kFabricHandler, env, SpanLog::kNone, op);
      const sim::Duration service = sim::Duration::Nanos(2000 + me.rng.NextDouble() * 2000);
      const int rtts = static_cast<int>(me.rng.UniformInt(6, 10));
      int32_t s = Spans().Begin(SpanName::kAppService, env, h, op);
      co_await k.Spend(*env.self, service, os::TimeCat::kUser);
      Spans().End(s, env);
      s = Spans().Begin(SpanName::kOsLock, env, h, op);
      co_await me.lock->Wait(env);
      Spans().End(s, env);
      for (int j = 0; j < rtts; ++j) {
        const uint64_t len = me.rng.UniformInt(kMinDb, kMaxDb);
        const uint64_t seq = me.next_seq++;
        s = Spans().Begin(SpanName::kChanDuplexRtt, env, h, op);
        auto b = co_await me.end->AcquireBuf(env);
        if (!b.ok()) {
          ++bad;
          Spans().End(s, env);
          break;
        }
        Header q{seq, len};
        bool good = k.UserWrite(*env.self, b.value().va, std::as_bytes(std::span(&q, 1))).ok();
        int32_t t = Spans().Begin(SpanName::kHwTouch, env, s, op);
        (void)co_await k.TouchUser(env, b.value().va, len, hw::AccessType::kWrite);
        Spans().End(t, env);
        good = (co_await me.end->Send(env, b.value(), len)).ok() && good;
        auto m = co_await me.end->Recv(env);
        if (!m.ok()) {
          ++bad;
          Spans().End(s, env);
          break;
        }
        Header r{};
        good = k.UserRead(*env.self, m.value().va, std::as_writable_bytes(std::span(&r, 1))).ok() &&
               r.seq == seq + 1 && r.len == len && m.value().len == len && good;
        t = Spans().Begin(SpanName::kHwTouch, env, s, op);
        (void)co_await k.TouchUser(env, m.value().va, m.value().len, hw::AccessType::kRead);
        Spans().End(t, env);
        good = (co_await me.end->Release(env, m.value())).ok() && good;
        Spans().End(s, env);
        bad += good ? 0 : 1;
      }
      co_await me.lock->Post(env);
      Spans().End(h, env);
    });
  }
  for (uint32_t i = 0; i < kWorkers; ++i) {
    for (uint32_t c = 0; c < kTenants; ++c) {
      w.kernel.Spawn(*workers[i], "serve", [fab, c, i, &handlers](os::Env env) -> sim::Task<void> {
        co_await fab->Serve(env, c, i, handlers[i]);
      });
    }
  }

  // Load generator: arrivals are events at their due time (an external
  // source, so they charge no CPU); a tenant's caller threads pick them up.
  std::vector<Tenant> tenants(kTenants);
  std::vector<int64_t> step_done(rates.size(), 0);
  bool finished = false;
  Window win;
  auto credit_stalls = [&] {
    int64_t n = 0;
    for (uint32_t c = 0; c < kTenants; ++c) {
      n += static_cast<int64_t>(fab->request_plane(c)->blocked_on_credit() +
                                fab->response_plane(c)->blocked_on_credit());
    }
    return n;
  };
  int64_t credit0 = 0;
  int64_t retries0 = 0;
  const size_t nominal = 1 + kNominalStep;
  auto start_step = [&](size_t s) {
    if (params.measure && s == nominal) {
      win.Open(w);
      credit0 = credit_stalls();
      retries0 = static_cast<int64_t>(fab->retries());
    }
    sim::Time at = w.kernel.now() + kStepGap;
    for (size_t r = step_first[s]; r < step_first[s + 1]; ++r) {
      at = at + sim::Duration::Picos(static_cast<int64_t>(gaps_ps[s][r - step_first[s]]));
      reqs[r].due = at;
      w.machine.events().ScheduleAt(at, [&, r] {
        Tenant& t = tenants[reqs[r].tenant];
        t.pending.push_back(r);
        os::Thread* caller = t.idle.WakeOneThread();
        reqs[r].queued = caller == nullptr;
        if (caller != nullptr) {
          (void)w.kernel.MakeRunnable(*caller, std::nullopt);
        }
      });
    }
  };
  auto finish_step = [&](size_t s) {
    if (s == 0) {
      setup_s = elapsed();
    }
    if (params.measure && s == nominal) {
      win.Close(w, out);
      out.Int("sim.credit_stalls", credit_stalls() - credit0);
      out.Int("sim.retries", static_cast<int64_t>(fab->retries()) - retries0);
    }
    if (s + 1 < rates.size()) {
      start_step(s + 1);
      return;
    }
    finished = true;
    for (Tenant& t : tenants) {
      while (os::Thread* th = t.idle.WakeOneThread()) {
        (void)w.kernel.MakeRunnable(*th, std::nullopt);
      }
    }
    fab->Close();
    for (Worker& x : wk) {
      x.db->Close();
    }
  };
  for (uint32_t c = 0; c < kTenants; ++c) {
    for (uint32_t j = 0; j < kCallersPerTenant; ++j) {
      w.kernel.Spawn(*clients[c], "caller", [&, c](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        Tenant& t = tenants[c];
        while (true) {
          while (t.pending.empty() && !finished) {
            co_await t.idle.Wait(env);
          }
          if (t.pending.empty()) {
            co_return;
          }
          const size_t r = t.pending.front();
          t.pending.pop_front();
          Request& q = reqs[r];
          q.start = k.now();
          const int32_t root = Spans().Begin(SpanName::kOp, env, SpanLog::kNone, r);
          const int32_t s = Spans().Begin(SpanName::kFabricCall, env, root, r);
          base::Status st = co_await fab->Call(env, c, q.len);
          Spans().End(s, env);
          Spans().End(root, env);
          q.end = k.now();
          q.ok = st.ok();
          const size_t step = static_cast<size_t>(q.step + 1);
          if (++step_done[step] == static_cast<int64_t>(step_first[step + 1] - step_first[step])) {
            finish_step(step);
          }
        }
      });
    }
  }
  start_step(0);
  w.kernel.Run();

  if (!finished) {
    out.Fail("fabric_rpc: the run stopped before every request completed");
    if (win.open() && !win.closed()) {
      win.Close(w, out);
    }
  }
  int64_t failed = 0;
  int64_t attempted = 0;
  for (size_t r = step_first[1]; r < reqs.size(); ++r) {
    ++attempted;
    failed += reqs[r].ok ? 0 : 1;
  }
  if (fab->completions() != fab->calls()) {
    out.Fail("fabric_rpc: completions " + std::to_string(fab->completions()) + " != calls " +
             std::to_string(fab->calls()));
  }
  if (fab->duplicate_completions() != 0) {
    out.Fail("fabric_rpc: duplicate completions");
  }
  for (uint32_t c = 0; c < kTenants; ++c) {
    if (fab->request_plane(c)->LiveGrantCount() != 0 || fab->response_plane(c)->LiveGrantCount() != 0) {
      out.Fail("fabric_rpc: a plane did not drain after Close");
      break;
    }
  }
  for (const Worker& x : wk) {
    if (x.db->forward().LiveGrantCount() != 0 || x.db->reverse().LiveGrantCount() != 0) {
      out.Fail("fabric_rpc: a backend channel did not drain after Close");
      break;
    }
  }
  if (bad > 0) {
    out.Fail("fabric_rpc: " + std::to_string(bad) + " backend round trips failed their checks");
  }
  if (!params.measure) {
    return setup_s;
  }
  failed = std::max(failed, std::min(bad, attempted));
  out.Int("sim.attempted", attempted);
  out.Int("sim.failed", failed);
  out.Int("sim.ops", attempted - failed);
  out.Int("sim.nominal_step", static_cast<int64_t>(kNominalStep));
  out.Int("sim.saturation_step", static_cast<int64_t>(kSaturationStep));
  out.Int("sim.latency_limit_ps", kLatencyLimit.picos());
  std::vector<int64_t> step_rates;
  for (double r : kStepRates) {
    step_rates.push_back(static_cast<int64_t>(r));
  }
  out.IntArray("req.rate_steps", std::move(step_rates));
  std::vector<int64_t> step, due, start, end, ok, queued;
  for (size_t r = step_first[1]; r < reqs.size(); ++r) {
    step.push_back(reqs[r].step);
    due.push_back(reqs[r].due.picos());
    start.push_back(reqs[r].start.picos());
    end.push_back(reqs[r].end.picos());
    ok.push_back(reqs[r].ok ? 1 : 0);
    queued.push_back(reqs[r].queued ? 1 : 0);
  }
  out.IntArray("req.step", std::move(step));
  out.IntArray("req.due_ps", std::move(due));
  out.IntArray("req.start_ps", std::move(start));
  out.IntArray("req.end_ps", std::move(end));
  out.IntArray("req.ok", std::move(ok));
  out.IntArray("req.queued", std::move(queued));
  return setup_s;
}

}  // namespace perfbench
