#include "fabric/fabric.h"

#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "chan/desc.h"
#include "fault/fault.h"

namespace dipc::fabric {

using os::TimeCat;
using sim::Duration;

namespace {

// Hop numbering for one fabric operation, in causal order. The number is
// packed into both the hop-span arg and the descriptor trace word, so the
// assembler can order spans within a request without trusting timestamps.
constexpr uint8_t kHopReqAcquire = 0;
constexpr uint8_t kHopReqSend = 1;
constexpr uint8_t kHopWorkerRecv = 2;
constexpr uint8_t kHopHandler = 3;
constexpr uint8_t kHopRespSend = 4;
constexpr uint8_t kHopCompletion = 5;

// Call()'s wait before a retry: doubles from attempt to attempt, capped.
constexpr Duration kBackoffInitial = Duration::Micros(20);
constexpr Duration kBackoffCap = Duration::Micros(640);

// Hop-span arg layout: (aux << 16) | (hop << 8) | attempt, where aux is the
// hop-specific index (client, shard or worker). The opid rides the event's
// dedicated field; trace_assemble.py decodes this word for the track layout.
uint64_t HopArg(uint32_t aux, uint8_t hop, uint8_t attempt) {
  return (static_cast<uint64_t>(aux) << 16) | (static_cast<uint64_t>(hop) << 8) |
         static_cast<uint64_t>(attempt);
}

}  // namespace

ServiceFabric::ServiceFabric(core::Dipc& dipc, std::span<os::Process* const> clients,
                             std::span<os::Process* const> workers, FabricConfig cfg)
    : dipc_(dipc),
      kernel_(dipc.kernel()),
      client_procs_(clients.begin(), clients.end()),
      worker_procs_(workers.begin(), workers.end()),
      cfg_(cfg) {}

void ServiceFabric::RegisterMetrics() {
  obs_id_ = obs::NewObjectId();
  const std::string p = "fabric/" + std::to_string(obs_id_) + "/";
  m_calls_ = metrics_.GetCounter(p + "calls");
  m_completions_ = metrics_.GetCounter(p + "completions");
  m_retries_ = metrics_.GetCounter(p + "retries");
  m_failures_ = metrics_.GetCounter(p + "failures");
  m_duplicates_ = metrics_.GetCounter(p + "duplicate_completions");
  m_relayed_ = metrics_.GetCounter(p + "relayed_completions");
  m_rebinds_ = metrics_.GetCounter(p + "worker_rebinds");
  m_busy_dispatches_ = metrics_.GetCounter(p + "busy_dispatches");
  m_call_ns_ = metrics_.GetHistogram(p + "call_ns");
}

base::Result<std::shared_ptr<ServiceFabric>> ServiceFabric::Create(
    core::Dipc& dipc, std::span<os::Process* const> clients,
    std::span<os::Process* const> workers, FabricConfig cfg) {
  if (clients.empty() || workers.empty() || cfg.req_bytes < sizeof(uint64_t) ||
      cfg.resp_bytes < sizeof(uint64_t)) {
    return base::ErrorCode::kInvalidArgument;
  }
  auto fab = std::shared_ptr<ServiceFabric>(new ServiceFabric(dipc, clients, workers, cfg));
  fab->RegisterMetrics();
  fab->progress_.assign(workers.size(), 0);
  {
    base::MutexLock lock(&fab->completions_mu_);
    fab->waits_.resize(clients.size());
  }

  // Tag trios: shared across planes by default (identical trust relationship
  // for every tenant), so the per-CPU APL cache sees 6 tags no matter how
  // many clients ride the fabric. Leaving the tags invalid makes each
  // channel allocate its own trio — the cache-thrash design point. Each
  // worker's credit line is its plane's whole pool.
  chan::PlaneConfig req_cfg{.slots = cfg.req_slots, .buf_bytes = cfg.req_bytes};
  chan::PlaneConfig resp_cfg{.slots = cfg.resp_slots, .buf_bytes = cfg.resp_bytes};
  if (cfg.shared_trio) {
    codoms::AplTable& apl = dipc.kernel().codoms().apl_table();
    req_cfg.ctrl_tag = apl.AllocateTag();
    req_cfg.data_tag = apl.AllocateTag();
    req_cfg.rt_tag = apl.AllocateTag();
    resp_cfg.ctrl_tag = apl.AllocateTag();
    resp_cfg.data_tag = apl.AllocateTag();
    resp_cfg.rt_tag = apl.AllocateTag();
  }
  fab->req_.reserve(clients.size());
  fab->resp_.reserve(clients.size());
  for (os::Process* c : clients) {
    auto req = chan::Plane::Create(dipc, *c, workers, req_cfg);
    if (!req.ok()) {
      return req.code();
    }
    auto resp = chan::Plane::Create(dipc, workers, *c, resp_cfg);
    if (!resp.ok()) {
      return resp.code();
    }
    fab->req_.push_back(req.value());
    fab->resp_.push_back(resp.value());
  }
  // The load segment (see the header): fresh memory, so every count starts
  // at zero.
  codoms::AplTable& apl = dipc.kernel().codoms().apl_table();
  const hw::DomainTag load_tag = apl.AllocateTag();
  for (auto side : {clients, workers}) {
    for (os::Process* proc : side) {
      apl.Grant(proc->default_domain(), load_tag, codoms::Perm::kWrite);
    }
  }
  auto load = chan::MapSegment(fab->kernel_, *clients[0], workers.size() * hw::kCacheLineSize,
                               load_tag);
  if (!load.ok()) {
    return load.code();
  }
  fab->load_seg_ = load.value();
  return fab;
}

hw::PhysAddr ServiceFabric::LoadPa(uint32_t w) const {
  auto pa = client_procs_[0]->page_table().Translate(LoadVa(w));
  DIPC_CHECK(pa.has_value());
  return *pa;
}

int64_t ServiceFabric::WorkerLoad(uint32_t w) const {
  int64_t n = 0;
  kernel_.machine().mem().Read(LoadPa(w), std::as_writable_bytes(std::span(&n, 1)));
  return n;
}

sim::Task<ServiceFabric::Pick> ServiceFabric::PickWorker(os::Env env, chan::Plane& req) {
  os::Kernel& k = *env.kernel;
  const uint32_t n = worker_count();
  Pick pick{n, true};
  const uint32_t start = req.NextShard();
  if (start >= n) {
    co_return pick;
  }
  int64_t least = 0;
  sim::Duration cost;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t w = (start + i) % n;
    if (!req.receiver_alive(w)) {
      continue;
    }
    int64_t load = 0;
    auto c = k.UserAccessCost(*env.self, LoadVa(w), sizeof(load), hw::AccessType::kRead,
                              std::as_writable_bytes(std::span(&load, 1)));
    DIPC_CHECK(c.ok());
    cost += c.value();
    if (pick.worker == n || load < least) {
      pick.worker = w;
      least = load;
    }
    if (load <= 0) {
      pick.busy = false;
      break;
    }
  }
  if (pick.worker < n) {
    // The claim, written before the spend as AddLoad's update is: a pick
    // that scans after this one, even at the same instant, reads it.
    const int64_t claimed = least + 1;
    auto c = k.UserAccessCost(*env.self, LoadVa(pick.worker), sizeof(claimed),
                              hw::AccessType::kWrite, std::as_bytes(std::span(&claimed, 1)));
    DIPC_CHECK(c.ok());
    cost += c.value();
  }
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  co_return pick;
}

sim::Task<void> ServiceFabric::AddLoad(os::Env env, uint32_t w, int64_t delta) {
  os::Kernel& k = *env.kernel;
  int64_t load = 0;
  auto rd = k.UserAccessCost(*env.self, LoadVa(w), sizeof(load), hw::AccessType::kRead,
                             std::as_writable_bytes(std::span(&load, 1)));
  DIPC_CHECK(rd.ok());
  load += delta;
  auto wr = k.UserAccessCost(*env.self, LoadVa(w), sizeof(load), hw::AccessType::kWrite,
                             std::as_bytes(std::span(&load, 1)));
  DIPC_CHECK(wr.ok());
  co_await k.Spend(*env.self, rd.value() + wr.value(), TimeCat::kUser);
}

bool ServiceFabric::client_broken(uint32_t c) const {
  return req_[c]->broken() != base::ErrorCode::kOk ||
         resp_[c]->broken() != base::ErrorCode::kOk;
}

bool ServiceFabric::worker_alive(uint32_t w) const {
  for (uint32_t c = 0; c < client_count(); ++c) {
    if (!client_broken(c)) {
      return req_[c]->receiver_alive(w);
    }
  }
  return false;
}

bool ServiceFabric::WorkerOutstanding(uint32_t w) const {
  for (uint32_t c = 0; c < client_count(); ++c) {
    if (!client_broken(c) && req_[c]->credits(w) < req_[c]->credit_line()) {
      return true;
    }
  }
  return false;
}

base::Status ServiceFabric::RebindWorker(uint32_t worker, os::Process& proc) {
  if (worker >= worker_count()) {
    return base::ErrorCode::kInvalidArgument;
  }
  // Dead-client planes are skipped: their channels are broken and the other
  // tenants must not be held hostage by them.
  base::Status st = base::ErrorCode::kBrokenChannel;
  bool any_live = false;
  for (uint32_t c = 0; c < client_count(); ++c) {
    if (client_broken(c)) {
      continue;
    }
    any_live = true;
    base::Status s = req_[c]->RebindReceiver(worker, proc);
    if (!s.ok()) {
      return s;
    }
    s = resp_[c]->RebindProducer(worker, proc);
    if (!s.ok()) {
      return s;
    }
    st = base::Status::Ok();
  }
  if (!any_live) {
    return st;
  }
  // The old incarnation's requests died with it: the new one starts idle.
  kernel_.codoms().apl_table().Grant(proc.default_domain(), load_seg_.tag,
                                     codoms::Perm::kWrite);
  const int64_t zero = 0;
  kernel_.machine().mem().Write(LoadPa(worker), std::as_bytes(std::span(&zero, 1)));
  worker_procs_[worker] = &proc;
  ++rebinds_;
  m_rebinds_->Add();
  return base::Status::Ok();
}

sim::Task<base::Status> ServiceFabric::Call(os::Env env, uint32_t client, uint64_t req_len) {
  os::Kernel& k = *env.kernel;
  if (client >= client_count() || req_len < sizeof(uint64_t) || req_len > cfg_.req_bytes) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  const std::shared_ptr<chan::Plane>& req = req_[client];
  const uint64_t opid = ++next_opid_;
  auto op = std::make_shared<Completion>(client);
  {
    base::MutexLock lock(&completions_mu_);
    completions_[opid] = op;
  }
  ++calls_;
  m_calls_->Add();
  const sim::Time t0 = k.now();
  Duration backoff = kBackoffInitial;
  bool exhausted = false;
  // Every blocking step of an attempt carries the per-attempt deadline; a
  // kTimedOut/kCalleeFailed/kFault attempt is retried under the SAME opid
  // with capped exponential backoff — the single completions-map entry keeps
  // delivery exactly-once no matter how many attempts race.
  for (int attempt = 0; !stopped_; ++attempt) {
    if (attempt > 0) {
      if (attempt > cfg_.max_call_retries) {
        exhausted = true;
        break;
      }
      ++retried_;
      m_retries_->Add();
      co_await k.Sleep(env, backoff);
      backoff = backoff * 2;
      if (backoff > kBackoffCap) {
        backoff = kBackoffCap;
      }
      if (Delivered(*op)) {
        break;  // an earlier attempt's completion landed during the back-off
      }
    }
    {
      fault::Decision d = DIPC_FAULT_POINT(kFabricDispatch, env.self->last_cpu());
      if (d.fail()) {
        continue;  // this attempt is lost before it starts; back off and retry
      }
      if (d.action == fault::Action::kDelay) {
        co_await k.Spend(*env.self, d.delay, TimeCat::kUser);
      }
    }
    const os::Deadline dl = cfg_.call_deadline > Duration::Zero()
                                ? os::Deadline::After(k.now(), cfg_.call_deadline)
                                : os::Deadline::Never();
    const uint8_t att = static_cast<uint8_t>(attempt > 255 ? 255 : attempt);
    const sim::Time t_acq = k.now();
    auto buf = co_await req->AcquireBuf(env, 0, dl);
    if (!buf.ok()) {
      if (req->broken() != base::ErrorCode::kOk ||
          buf.code() == base::ErrorCode::kBrokenChannel) {
        break;  // the plane itself is gone; retrying is hopeless
      }
      continue;  // kTimedOut / kCalleeFailed / kFault: back off
    }
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kReqAcquire, obs_id_,
                        HopArg(client, kHopReqAcquire, att), k.now(), k.now() - t_acq, opid);
    // The spare descriptor header word carries the trace context across the
    // request plane: the worker's recv hop unpacks the same opid from it.
    chan::SendBuf sb = buf.value();
    sb.tctx = chan::internal::PackTraceWord(obs::TraceCtx{opid, kHopWorkerRecv, att});
    const base::Status wrote = co_await k.TouchUser(env, sb.va, req_len, hw::AccessType::kWrite,
                                                    std::as_bytes(std::span(&opid, 1)));
    DIPC_CHECK(wrote.ok());
    // Least-loaded dispatch; a worker that died under the send is replaced
    // by the next pick (the buffer stays owned until a send succeeds). Give
    // the buffer back when no live worker remains or the deadline fired.
    bool sent = false;
    uint32_t shard_used = 0;
    // The serve thread the request would have woken: the completion wait's
    // first park switches this CPU straight to it.
    os::DeferredWake wake;
    const sim::Time t_send = k.now();
    while (req->broken() == base::ErrorCode::kOk) {
      const Pick pick = co_await PickWorker(env, *req);
      if (pick.worker >= worker_count()) {
        break;
      }
      auto s = co_await req->SendTo(env, 0, sb, req_len, pick.worker, dl, &wake);
      if (s.ok()) {
        sent = true;
        shard_used = pick.worker;
        if (pick.busy) {
          ++busy_dispatches_;
          m_busy_dispatches_->Add();
        }
        break;
      }
      if (req->receiver_alive(pick.worker)) {
        co_await AddLoad(env, pick.worker, -1);  // a dead worker's count is reset
      }
      if (s.code() != base::ErrorCode::kCalleeFailed) {
        break;  // timeout, close or a caller bug — resharding won't help
      }
    }
    if (!sent) {
      if (wake) {
        co_await os::FutexWake(env, *wake.Take());
      }
      (void)co_await req->Abandon(env, 0, sb);
      if (req->broken() != base::ErrorCode::kOk) {
        break;
      }
      continue;
    }
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kReqSend, obs_id_,
                        HopArg(shard_used, kHopReqSend, att), k.now(), k.now() - t_send, opid);
    if (co_await WaitForCompletion(env, op, dl, std::move(wake))) {
      break;
    }
    // Timed out: the worker wedged or died mid-request. Back off and resend
    // the same opid — the supervisor restores capacity, and a late duplicate
    // completion is dropped where it is received. Closed: the loop ends on
    // stopped_.
  }
  bool done = false;
  {
    base::MutexLock lock(&completions_mu_);
    done = op->delivered;
    completions_.erase(opid);
  }
  if (!done) {
    if (exhausted) {
      ++failed_;
      m_failures_->Add();
    }
    co_return stopped_ ? base::ErrorCode::kBrokenChannel : base::ErrorCode::kCalleeFailed;
  }
  ++completed_;
  m_completions_->Add();
  const Duration rtt = k.now() - t0;
  m_call_ns_->Record(rtt.nanos());
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFabricDispatch, obs_id_, opid,
                      k.now(), rtt, opid);
  co_return base::Status::Ok();
}

sim::Task<void> ServiceFabric::Serve(os::Env env, uint32_t client, uint32_t worker,
                                     Handler handler) {
  os::Kernel& k = *env.kernel;
  DIPC_CHECK(client < client_count() && worker < worker_count());
  const std::shared_ptr<chan::Plane>& req = req_[client];
  const std::shared_ptr<chan::Plane>& resp = resp_[client];
  // The receiving caller the last response would have woken: the Recv of
  // the next request switches this CPU straight to it.
  os::DeferredWake wake;
  while (!stopped_) {
    const sim::Time t_recv = k.now();
    auto msg = co_await req->Recv(env, worker, {}, std::exchange(wake, {}));
    if (!msg.ok()) {
      co_return;
    }
    // The descriptor trace word joins this hop to the client's opid. The recv
    // span deliberately includes idle time waiting for work (queueing delay).
    const obs::TraceCtx rctx = chan::internal::UnpackTraceWord(msg.value().tctx);
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kWorkerRecv, obs_id_,
                        HopArg(worker, rctx.hop, rctx.attempt), k.now(), k.now() - t_recv,
                        rctx.opid);
    uint64_t opid = 0;
    if (!(co_await k.TouchUser(env, msg.value().va, msg.value().len, hw::AccessType::kRead,
                               std::as_writable_bytes(std::span(&opid, 1))))
             .ok()) {
      // This worker incarnation was killed, or Close() aborted the plane,
      // between Recv handing over the message and the header read: its
      // grants are already swept. After a kill the client times out and
      // retries the opid elsewhere.
      co_return;
    }
    const sim::Time t_handler = k.now();
    co_await handler(env, msg.value());
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kHandler, obs_id_,
                        HopArg(worker, kHopHandler, rctx.attempt), k.now(),
                        k.now() - t_handler, rctx.opid);
    if (env.self->process().alive()) {
      co_await AddLoad(env, worker, -1);  // a dead incarnation's count was reset
    }
    if (!(co_await req->Release(env, worker, msg.value())).ok()) {
      co_return;
    }
    const sim::Time t_resp = k.now();
    auto buf = co_await resp->AcquireBuf(env, worker);
    if (!buf.ok()) {
      co_return;
    }
    chan::SendBuf rb = buf.value();
    rb.tctx = chan::internal::PackTraceWord(
        obs::TraceCtx{rctx.opid, kHopCompletion, rctx.attempt});
    if (!(co_await k.TouchUser(env, rb.va, cfg_.resp_bytes, hw::AccessType::kWrite,
                               std::as_bytes(std::span(&opid, 1))))
             .ok()) {
      co_return;  // killed after the acquire; the write grant is gone
    }
    if (!(co_await resp->Send(env, worker, rb, cfg_.resp_bytes, {}, &wake)).ok()) {
      if (resp->broken() != base::ErrorCode::kOk || !resp->producer_alive(worker)) {
        if (wake) {
          co_await os::FutexWake(env, *wake.Take());
        }
        co_return;  // torn down or excised: the sweep took the buffer with it
      }
      // A send that fails on a healthy plane (an injected fault) leaves the
      // buffer ours, grant and credit live: hand it back, then keep
      // serving — the client retries the opid.
      (void)co_await resp->Abandon(env, worker, rb);
      continue;
    }
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kRespSend, obs_id_,
                        HopArg(worker, kHopRespSend, rctx.attempt), k.now(), k.now() - t_resp,
                        rctx.opid);
    ++progress_[worker];  // the supervisor's liveness signal
  }
  if (wake) {
    co_await os::FutexWake(env, *wake.Take());  // stopped with a wake in hand
  }
}

bool ServiceFabric::Delivered(const Completion& op) {
  base::MutexLock lock(&completions_mu_);
  return op.delivered;
}

std::shared_ptr<ServiceFabric::Completion> ServiceFabric::NextReceiver(ClientWaits& cw) {
  if (cw.receiving || stopped_) {
    return nullptr;
  }
  for (const std::shared_ptr<Completion>& op : cw.waiting) {
    if (!op->delivered && !op->signalled) {
      op->signalled = true;
      return op;
    }
  }
  return nullptr;
}

sim::Task<bool> ServiceFabric::WaitForCompletion(os::Env env, std::shared_ptr<Completion> op,
                                                 os::Deadline dl, os::DeferredWake wake) {
  os::Kernel& k = *env.kernel;
  const uint32_t client = op->client;
  {
    base::MutexLock lock(&completions_mu_);
    waits_[client].waiting.push_back(op);
  }
  // A follower parks on its semaphore until it is delivered or handed the
  // role; a token only wakes it, so each wake re-checks both.
  bool receiver = false;
  while (true) {
    {
      base::MutexLock lock(&completions_mu_);
      if (op->delivered) {
        break;
      }
      receiver = !waits_[client].receiving;
      waits_[client].receiving = true;
    }
    if (receiver) {
      break;
    }
    if (!(co_await op->sem.WaitUntil(env, dl, std::move(wake))).ok()) {
      break;  // timed out, or Close() failed the semaphore
    }
    base::MutexLock lock(&completions_mu_);
    op->signalled = false;
  }
  // The receiver: the serve thread's response send swaps straight back to
  // this park, and each relayed completion's wake rides into the next one.
  while (receiver && !stopped_ && !Delivered(*op)) {
    const sim::Time t_recv = k.now();
    auto msg = co_await resp_[client]->Recv(env, 0, dl, std::exchange(wake, {}));
    if (!msg.ok()) {
      break;  // timed out, closed, or the client's plane broke
    }
    if (!(co_await Deliver(env, client, msg.value(), t_recv, *op, &wake))) {
      break;
    }
  }
  if (wake) {
    co_await os::FutexWake(env, *wake.Take());  // no park took it
  }
  // Leaving: a receiver hands the role on, and so does a follower whose
  // hand-off token came too late for it.
  std::shared_ptr<Completion> next;
  bool delivered = false;
  {
    base::MutexLock lock(&completions_mu_);
    ClientWaits& cw = waits_[client];
    std::erase(cw.waiting, op);
    if (receiver) {
      cw.receiving = false;
    }
    if (receiver || (op->signalled && !op->delivered)) {
      next = NextReceiver(cw);
    }
    delivered = op->delivered;
  }
  if (next != nullptr) {
    co_await next->sem.Post(env);
  }
  co_return delivered;
}

sim::Task<bool> ServiceFabric::Deliver(os::Env env, uint32_t client, const chan::Msg& msg,
                                       sim::Time t_recv, const Completion& self,
                                       os::DeferredWake* wake) {
  os::Kernel& k = *env.kernel;
  const obs::TraceCtx cctx = chan::internal::UnpackTraceWord(msg.tctx);
  uint64_t opid = 0;
  if (!(co_await k.TouchUser(env, msg.va, msg.len, hw::AccessType::kRead,
                             std::as_writable_bytes(std::span(&opid, 1))))
           .ok()) {
    co_return false;  // the client died mid-delivery; teardown swept the grant
  }
  if (!(co_await resp_[client]->Release(env, 0, msg)).ok()) {
    co_return false;
  }
  std::shared_ptr<Completion> op;
  bool post = false;
  {
    base::MutexLock lock(&completions_mu_);
    auto it = completions_.find(opid);
    if (it != completions_.end() && !it->second->delivered) {
      op = it->second;
      op->delivered = true;
      if (op.get() != &self && !op->signalled) {
        op->signalled = true;
        post = true;
      }
    }
  }
  if (op == nullptr) {
    // The client already retried and its retry won the race, or the call
    // ended: this late completion of an earlier attempt is dropped, keeping
    // completion delivery exactly-once per operation.
    ++duplicates_;
    m_duplicates_->Add();
  } else if (op.get() != &self) {
    ++relayed_;
    m_relayed_->Add();
  }
  if (post) {
    co_await op->sem.Post(env, wake);
  }
  // Recorded even for dropped duplicates — the forensic value of a late
  // completion is exactly why it's traced.
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kCompletionDispatch, obs_id_,
                      HopArg(client, cctx.hop, cctx.attempt), k.now(), k.now() - t_recv,
                      cctx.opid);
  co_return true;
}

void ServiceFabric::Close() {
  stopped_ = true;
  // The dead-peer unwind, in this host step: no grant of either plane kind
  // outlives it, and every thread parked in one wakes with kBrokenChannel.
  for (uint32_t c = 0; c < client_count(); ++c) {
    req_[c]->Abort(base::ErrorCode::kBrokenChannel);
    resp_[c]->Abort(base::ErrorCode::kBrokenChannel);
  }
  // A follower parked on its completion would wait for a response that can
  // no longer come.
  base::MutexLock lock(&completions_mu_);
  for (const auto& [opid, op] : completions_) {
    op->sem.Fail(kernel_, base::ErrorCode::kBrokenChannel);
  }
}

}  // namespace dipc::fabric
