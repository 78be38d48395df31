#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "base/thread_annotations.h"
#include "obs/metric_schema.h"

namespace dipc::obs {

#ifndef DIPC_OBS_OFF

double Histogram::Percentile(double p) const {
  uint64_t total = count();
  if (total == 0) {
    return 0.0;
  }
  if (p < 0.0) {
    p = 0.0;
  }
  if (p > 100.0) {
    p = 100.0;
  }
  // Rank of the target sample, 1-based; walk buckets until the cumulative
  // count crosses it, then interpolate across the crossing bucket's range.
  double rank = p / 100.0 * static_cast<double>(total - 1) + 1.0;
  uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t n = bucket(b);
    if (n == 0) {
      continue;
    }
    if (static_cast<double>(cum + n) >= rank) {
      double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
      double hi = b == 0 ? 1.0 : lo * 2.0;
      double frac = (rank - static_cast<double>(cum)) / static_cast<double>(n);
      double v = lo + (hi - lo) * frac;
      // Clamp to the observed range so tiny histograms don't report values
      // outside [min, max].
      v = std::max(v, static_cast<double>(min_ns()));
      v = std::min(v, static_cast<double>(max_ns()));
      return v;
    }
    cum += n;
  }
  return static_cast<double>(max_ns());
}

namespace {

enum class Kind { kCounter, kGauge, kHistogram };

struct Entry {
  explicit Entry(Kind k) : kind(k) {
    switch (kind) {
      case Kind::kCounter:
        counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        histogram = std::make_unique<Histogram>();
        break;
    }
  }

  Kind kind;
  // Registry::Get* and MetricSet holds; 0 marks a retired total.
  uint64_t holds = 0;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

template <typename M>
constexpr Kind kKindOf = std::is_same_v<M, Counter> ? Kind::kCounter
                         : std::is_same_v<M, Gauge> ? Kind::kGauge
                                                    : Kind::kHistogram;

// The retired total a name folds into: each all-digit component (an object
// id) becomes '*', as tools/bench_trend.py normalizes.
std::string NormalizedName(std::string_view name) {
  std::string out;
  size_t start = 0;
  while (true) {
    const size_t slash = name.find('/', start);
    const std::string_view part = name.substr(start, slash - start);
    const bool id = !part.empty() && part.find_first_not_of("0123456789") == std::string_view::npos;
    out += id ? std::string_view("*") : part;
    if (slash == std::string_view::npos) {
      return out;
    }
    out += '/';
    start = slash + 1;
  }
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  std::string s = os.str();
  if (s == "inf" || s == "-inf" || s == "nan") {
    return "0";
  }
  return s;
}

}  // namespace

struct Registry::Impl {
  mutable base::Mutex mu;
  // std::map keeps names sorted so SnapshotJson() is deterministic, and its
  // nodes are stable, so MetricSet can point at the keys; Entry values hold
  // unique_ptrs, so handle pointers survive rehash/rebalance. Held names
  // and retired totals share the map.
  std::map<std::string, Entry, std::less<>> entries DIPC_GUARDED_BY(mu);
  uint64_t kind_collisions DIPC_GUARDED_BY(mu) = 0;
  // First registrations whose name no manifest pattern covers ("<kind>
  // <name>"); drained by Registry::TakeSchemaViolations.
  std::vector<std::string> schema_violations DIPC_GUARDED_BY(mu);
  // Per kind, the normalized names of registrations that passed the schema.
  // Every spelling of a normalized name then passes too, since no pattern
  // has an all-digit component (an ObsSchema test checks it), so a name
  // freed and registered again, or another object's spelling of it, skips
  // the scan. A failing name is scanned and recorded every time.
  std::array<std::unordered_set<std::string>, 3> schema_passed DIPC_GUARDED_BY(mu);

  // Takes one hold on `name` and returns its handle, recording the hold in
  // `held` when one is given.
  template <typename M>
  M* Take(std::string_view name, std::vector<const std::string*>* held) DIPC_EXCLUDES(mu) {
    constexpr Kind kind = kKindOf<M>;
    base::MutexLock lock(&mu);
    auto it = entries.find(name);
    if (it == entries.end()) {
      static constexpr MetricKind kSchemaKind[] = {
          MetricKind::kCounter, MetricKind::kGauge, MetricKind::kHistogram};
      MetricKind schema_kind = kSchemaKind[static_cast<int>(kind)];
      std::unordered_set<std::string>& passed = schema_passed[static_cast<int>(kind)];
      std::string normalized = NormalizedName(name);
      if (!passed.contains(normalized)) {
        if (NameMatchesSchema(name, schema_kind)) {
          passed.insert(std::move(normalized));
        } else {
          schema_violations.push_back(std::string(MetricKindName(schema_kind)) + " " +
                                      std::string(name));
        }
      }
      it = entries.emplace(std::string(name), Entry(kind)).first;
    }
    Entry& e = it->second;
    if (e.kind != kind) {
      // Name already taken by a different kind: hand back a detached dummy
      // (no hold) so the caller still gets a valid handle, and record the
      // misuse.
      ++kind_collisions;
      static M* dummy = new M();
      return dummy;
    }
    ++e.holds;
    if (held != nullptr) {
      held->push_back(&it->first);
    }
    if constexpr (kind == Kind::kCounter) {
      return e.counter.get();
    } else if constexpr (kind == Kind::kGauge) {
      return e.gauge.get();
    } else {
      return e.histogram.get();
    }
  }

  // Drops one hold on `name`. The last one folds the metric into its
  // retired total and frees it; a name with no id is its own total.
  void Release(const std::string& name) DIPC_REQUIRES(mu) {
    auto it = entries.find(name);
    Entry& e = it->second;
    if (--e.holds > 0) {
      return;
    }
    if (e.kind == Kind::kGauge) {
      entries.erase(it);
      return;
    }
    std::string total_name = NormalizedName(name);
    if (total_name == name) {
      return;
    }
    auto total = entries.try_emplace(std::move(total_name), e.kind).first;
    if (total->second.kind != e.kind) {
      ++kind_collisions;
    } else if (e.kind == Kind::kCounter) {
      total->second.counter->Add(e.counter->value());
    } else {
      total->second.histogram->Merge(*e.histogram);
    }
    entries.erase(it);
  }
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Registry& Registry::Default() {
  static Registry* r = new Registry();
  return *r;
}

Counter* Registry::GetCounter(std::string_view name) { return impl().Take<Counter>(name, nullptr); }

Gauge* Registry::GetGauge(std::string_view name) { return impl().Take<Gauge>(name, nullptr); }

Histogram* Registry::GetHistogram(std::string_view name) {
  return impl().Take<Histogram>(name, nullptr);
}

std::string Registry::SnapshotJson() const {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  std::string out = "{";
  auto section = [&](const char* title, Kind kind, auto&& emit) {
    AppendJsonString(out, title);
    out += ": {";
    bool first = true;
    for (const auto& [name, e] : im.entries) {
      if (e.kind != kind) {
        continue;
      }
      if (!first) {
        out += ", ";
      }
      first = false;
      AppendJsonString(out, name);
      out += ": ";
      emit(e);
    }
    out += "}";
  };
  section("counters", Kind::kCounter,
          [&](const Entry& e) { out += std::to_string(e.counter->value()); });
  out += ", ";
  section("gauges", Kind::kGauge,
          [&](const Entry& e) { out += std::to_string(e.gauge->value()); });
  out += ", ";
  section("histograms", Kind::kHistogram, [&](const Entry& e) {
    const Histogram& h = *e.histogram;
    out += "{\"count\": " + std::to_string(h.count());
    out += ", \"sum_ns\": " + std::to_string(h.sum_ns());
    out += ", \"min_ns\": " + std::to_string(h.min_ns());
    out += ", \"max_ns\": " + std::to_string(h.max_ns());
    out += ", \"p50\": " + FormatDouble(h.Percentile(50));
    out += ", \"p95\": " + FormatDouble(h.Percentile(95));
    out += ", \"p99\": " + FormatDouble(h.Percentile(99));
    out += "}";
  });
  if (im.kind_collisions > 0) {
    out += ", \"kind_collisions\": " + std::to_string(im.kind_collisions);
  }
  out += "}";
  return out;
}

void Registry::Reset() {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  for (auto it = im.entries.begin(); it != im.entries.end();) {
    Entry& e = it->second;
    if (e.holds == 0) {
      it = im.entries.erase(it);
      continue;
    }
    switch (e.kind) {
      case Kind::kCounter:
        e.counter->Reset();
        break;
      case Kind::kGauge:
        e.gauge->Reset();
        break;
      case Kind::kHistogram:
        e.histogram->Reset();
        break;
    }
    ++it;
  }
}

size_t Registry::size() const {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  return im.entries.size();
}

std::vector<std::string> Registry::TakeSchemaViolations() {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  std::vector<std::string> out;
  out.swap(im.schema_violations);
  return out;
}

MetricSet::~MetricSet() {
  Registry::Impl& im = Registry::Default().impl();
  base::MutexLock lock(&im.mu);
  for (const std::string* name : held_) {
    im.Release(*name);
  }
}

Counter* MetricSet::GetCounter(std::string_view name) {
  return Registry::Default().impl().Take<Counter>(name, &held_);
}

Gauge* MetricSet::GetGauge(std::string_view name) {
  return Registry::Default().impl().Take<Gauge>(name, &held_);
}

Histogram* MetricSet::GetHistogram(std::string_view name) {
  return Registry::Default().impl().Take<Histogram>(name, &held_);
}

#else  // DIPC_OBS_OFF

Registry& Registry::Default() {
  static Registry* r = new Registry();
  return *r;
}

struct Registry::Impl {};
Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter* Registry::GetCounter(std::string_view) {
  static Counter* dummy = new Counter();
  return dummy;
}

Gauge* Registry::GetGauge(std::string_view) {
  static Gauge* dummy = new Gauge();
  return dummy;
}

Histogram* Registry::GetHistogram(std::string_view) {
  static Histogram* dummy = new Histogram();
  return dummy;
}

std::string Registry::SnapshotJson() const { return "{}"; }
void Registry::Reset() {}
size_t Registry::size() const { return 0; }
std::vector<std::string> Registry::TakeSchemaViolations() { return {}; }

MetricSet::~MetricSet() = default;

Counter* MetricSet::GetCounter(std::string_view name) {
  return Registry::Default().GetCounter(name);
}

Gauge* MetricSet::GetGauge(std::string_view name) { return Registry::Default().GetGauge(name); }

Histogram* MetricSet::GetHistogram(std::string_view name) {
  return Registry::Default().GetHistogram(name);
}

#endif  // DIPC_OBS_OFF

const char* DomainTimeKindName(DomainTimeKind kind) {
  switch (kind) {
    case DomainTimeKind::kUser:
      return "user";
    case DomainTimeKind::kKernel:
      return "kernel";
    case DomainTimeKind::kCopy:
      return "copy";
    case DomainTimeKind::kFutexWait:
      return "futex_wait";
    case DomainTimeKind::kProxy:
      return "proxy";
    case DomainTimeKind::kCount:
      break;
  }
  return "unknown";
}

#ifndef DIPC_OBS_OFF

namespace {

// The sub-ns residues dead tables left, by (tag, kind).
struct Residues {
  base::Mutex mu;
  std::unordered_map<uint64_t, uint64_t> carry_ps DIPC_GUARDED_BY(mu);
};

Residues& LeftResidues() {
  static Residues* residues = new Residues();
  return *residues;
}

uint64_t ResidueKey(size_t tag, size_t kind) { return (uint64_t{tag} << 3) | kind; }

}  // namespace

DomainTime::~DomainTime() {
  Residues& left = LeftResidues();
  base::MutexLock lock(&left.mu);
  for (size_t tag = 0; tag < slots_.size(); ++tag) {
    for (size_t kind = 0; kind < slots_[tag].size(); ++kind) {
      if (slots_[tag][kind].counter != nullptr) {
        left.carry_ps[ResidueKey(tag, kind)] = slots_[tag][kind].carry_ps;
      }
    }
  }
}

void DomainTime::Charge(uint32_t domain_tag, DomainTimeKind kind, int64_t ps) {
  if (ps <= 0 || kind >= DomainTimeKind::kCount) {
    return;
  }
  if (domain_tag >= slots_.size()) {
    slots_.resize(domain_tag + 1);
  }
  Slot& slot = slots_[domain_tag][static_cast<size_t>(kind)];
  if (slot.counter == nullptr) {
    slot.counter = metrics_.GetCounter("domain/" + std::to_string(domain_tag) + "/time_ns/" +
                                       DomainTimeKindName(kind));
    Residues& left = LeftResidues();
    base::MutexLock lock(&left.mu);
    auto it = left.carry_ps.find(ResidueKey(domain_tag, static_cast<size_t>(kind)));
    if (it != left.carry_ps.end()) {
      slot.carry_ps = it->second;
      left.carry_ps.erase(it);
    }
  }
  slot.carry_ps += static_cast<uint64_t>(ps);
  if (slot.carry_ps >= 1000) {
    slot.counter->Add(slot.carry_ps / 1000);
    slot.carry_ps %= 1000;
  }
}

#endif  // DIPC_OBS_OFF

}  // namespace dipc::obs
