#include "bench.h"

#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kOp: return "app.op";
    case SpanName::kHwTouch: return "hw.touch";
    case SpanName::kCodomsCap: return "codoms.cap";
    case SpanName::kDipcCall: return "dipc.call";
    case SpanName::kChanAcquire: return "chan.acquire";
    case SpanName::kChanSend: return "chan.send";
    case SpanName::kChanRecv: return "chan.recv";
    case SpanName::kChanRelease: return "chan.release";
    case SpanName::kChanDuplexRtt: return "chan.duplex_rtt";
    case SpanName::kFabricCall: return "fabric.call";
    case SpanName::kFabricHandler: return "fabric.handler";
    case SpanName::kAppService: return "app.service";
    case SpanName::kOsLock: return "os.lock";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  for (uint16_t i = 0; i < static_cast<uint16_t>(SpanName::kCount); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : " ", SpanNameString(static_cast<SpanName>(i)));
  }
  std::fprintf(f, "\n");
  static_assert(sizeof(Span) == 40);
  bool ok = spans_.empty() || std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f) == spans_.size();
  return std::fclose(f) == 0 && ok;
}

std::string Fields::Json() const {
  std::string s = "{";
  char buf[64];
  auto key = [&](const std::string& k) {
    if (s.size() > 1) {
      s += ", ";
    }
    s += "\"" + k + "\": ";
  };
  for (const auto& [k, v] : nums_) {
    key(k);
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s += buf;
  }
  for (const auto& [k, v] : ints_) {
    key(k);
    s += std::to_string(v);
  }
  for (const auto& [k, v] : arrays_) {
    key(k);
    s += "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) {
        s += ",";
      }
      s += std::to_string(v[i]);
    }
    s += "]";
  }
  for (const auto& [k, v] : raws_) {
    key(k);
    s += v;
  }
  key("check_failures");
  s += "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + failures_[i] + "\"";
  }
  s += "]}";
  return s;
}

namespace {

uint64_t ProxyInvocations(World& w) {
  uint64_t n = 0;
  for (const auto& p : w.dipc.proxies()) {
    n += p->invocations();
  }
  return n;
}

void AplTotals(World& w, uint64_t* hits, uint64_t* misses) {
  *hits = 0;
  *misses = 0;
  for (hw::CpuId c = 0; c < w.machine.num_cpus(); ++c) {
    *hits += w.codoms.apl_cache(c).hits();
    *misses += w.codoms.apl_cache(c).misses();
  }
}

}  // namespace

void Window::Open(World& w) {
  w.kernel.FlushIdleAccounting();
  w.kernel.accounting().Reset();
  w.machine.caches().ResetStats();
  obs::Registry::Default().Reset();
  t0_ = w.kernel.now();
  events0_ = w.machine.events().total_fired();
  ctx0_ = w.kernel.context_switches();
  mints0_ = w.codoms.mint_count();
  AplTotals(w, &apl_hits0_, &apl_misses0_);
  proxy_calls0_ = ProxyInvocations(w);
  host0_ = std::chrono::steady_clock::now();
  open_ = true;
}

void Window::Close(World& w, Fields& out) {
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host0_).count();
  w.kernel.FlushIdleAccounting();
  closed_ = true;
  out.Int("sim.window_start_ps", t0_.picos());
  out.Int("sim.window_ps", (w.kernel.now() - t0_).picos());
  out.Int("sim.cpus", w.machine.num_cpus());
  out.Int("sim.events", static_cast<int64_t>(w.machine.events().total_fired() - events0_));
  out.Int("sim.ctx_switches", static_cast<int64_t>(w.kernel.context_switches() - ctx0_));
  out.Int("sim.mints", static_cast<int64_t>(w.codoms.mint_count() - mints0_));
  uint64_t hits = 0;
  uint64_t misses = 0;
  AplTotals(w, &hits, &misses);
  out.Int("sim.apl_hits", static_cast<int64_t>(hits - apl_hits0_));
  out.Int("sim.apl_misses", static_cast<int64_t>(misses - apl_misses0_));
  out.Int("sim.proxy_invocations", static_cast<int64_t>(ProxyInvocations(w) - proxy_calls0_));
  const hw::CacheStats& cs = w.machine.caches().stats();
  out.Int("sim.cache.l1_hits", static_cast<int64_t>(cs.l1_hits));
  out.Int("sim.cache.l2_hits", static_cast<int64_t>(cs.l2_hits));
  out.Int("sim.cache.l3_hits", static_cast<int64_t>(cs.l3_hits));
  out.Int("sim.cache.mem_accesses", static_cast<int64_t>(cs.mem_accesses));
  out.Int("sim.cache.remote_transfers", static_cast<int64_t>(cs.remote_transfers));
  static constexpr const char* kCat[] = {"user", "syscall", "dispatch", "kernel",
                                         "sched", "ptswitch", "idle", "proxy"};
  static_assert(std::size(kCat) == os::kNumTimeCats);
  const os::TimeBreakdown acct = w.kernel.accounting().Summed();
  for (size_t i = 0; i < os::kNumTimeCats; ++i) {
    out.Int(std::string("sim.time.") + kCat[i] + "_ps", acct.by_cat[i].picos());
  }
  out.Raw("sim.registry", obs::Registry::Default().SnapshotJson());
  out.Num("host.window_s", host_s);
}

}  // namespace perfbench
