// Runtime metrics registry: counters, gauges and log-bucketed latency
// histograms registered under hierarchical slash-separated names
// ("chan/3/sends", "domain/17/caps_minted", "fanout/2/rx/1/credit_stall_ns").
//
// The paper's whole argument rests on *attributed* measurement (Fig. 2's
// per-category cycle breakdowns); this registry extends that attribution to
// the runtime layers above os::Accounting — channels, capability churn,
// credit stalls, futex traffic — so a multi-tenant run can answer "which
// tenant is stalling whom" instead of exposing one-off getters.
//
// Hot-path contract:
//   - Registration (name lookup) takes a mutex and builds strings: do it
//     once at object creation and keep the returned handle pointer.
//   - The handles themselves are single relaxed atomic ops (Counter::Add is
//     one fetch_add), cheap enough to leave on the steady-state send path.
//     A handle pointer is valid while its name is held: an object holds the
//     names it registers through its MetricSet until it dies, and
//     Registry::Get* holds are never released (each metric is its own heap
//     object, which the registry frees once its last hold is gone).
//   - Recording charges no simulated time: a relaxed increment is modeled
//     as disappearing into the superscalar margin. Trace events are the
//     costed observability primitive (see obs/trace.h).
//   - Compiling with -DDIPC_OBS_OFF=1 stubs every handle to a no-op and the
//     registry to a shared dummy, so instrumented call sites compile away.
//
// The simulation itself is single-threaded (coroutines on one event queue),
// but the handles are thread-safe so host-level tooling/tests can hammer
// them from real threads (the TSan gate does).
#ifndef DIPC_OBS_METRICS_H_
#define DIPC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dipc::obs {

#ifndef DIPC_OBS_OFF

// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Point-in-time level (queue depth, credits outstanding).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log2-bucketed latency histogram over nanosecond values: bucket b counts
// samples with bit_width(ns) == b, i.e. [2^(b-1), 2^b). 64 buckets cover
// the whole int64 nanosecond range; percentile queries interpolate inside
// the crossing bucket, which is the usual HdrHistogram-style trade of
// <= ~50% relative error per sample for O(1) lock-free recording.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(double ns) {
    uint64_t v = ns <= 0 ? 0 : static_cast<uint64_t>(ns);
    int b = v == 0 ? 0 : std::bit_width(v);
    if (b >= kBuckets) {
      b = kBuckets - 1;
    }
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(v, std::memory_order_relaxed);
    AtomicMin(min_ns_, v);
    AtomicMax(max_ns_, v);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t min_ns() const {
    uint64_t m = min_ns_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
  }
  uint64_t max_ns() const { return max_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(int b) const { return buckets_[b].load(std::memory_order_relaxed); }

  // Adds every sample of `other`: buckets, count and sum add; min and max
  // widen.
  void Merge(const Histogram& other) {
    for (int b = 0; b < kBuckets; ++b) {
      buckets_[b].fetch_add(other.bucket(b), std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_ns_.fetch_add(other.sum_ns(), std::memory_order_relaxed);
    AtomicMin(min_ns_, other.min_ns_.load(std::memory_order_relaxed));
    AtomicMax(max_ns_, other.max_ns());
  }

  // Approximate p-th percentile (p in [0, 100]) in ns: finds the bucket the
  // rank falls into and interpolates linearly across its value range.
  double Percentile(double p) const;

  void Reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  static void AtomicMin(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> min_ns_{UINT64_MAX};
  std::atomic<uint64_t> max_ns_{0};
};

#else  // DIPC_OBS_OFF: every handle is a stateless no-op.

class Counter {
 public:
  void Add(uint64_t = 1) {}
  uint64_t value() const { return 0; }
  void Reset() {}
};

class Gauge {
 public:
  void Set(int64_t) {}
  void Add(int64_t) {}
  void Sub(int64_t) {}
  int64_t value() const { return 0; }
  void Reset() {}
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;
  void Record(double) {}
  uint64_t count() const { return 0; }
  uint64_t sum_ns() const { return 0; }
  uint64_t min_ns() const { return 0; }
  uint64_t max_ns() const { return 0; }
  uint64_t bucket(int) const { return 0; }
  double Percentile(double) const { return 0; }
  void Reset() {}
};

#endif  // DIPC_OBS_OFF

// Name -> handle registry. Every Get* takes a hold on its name, and the
// same name returns the same handle for as long as any hold lives (a name
// names one metric, whoever asks). Registry::Get* holds are never released,
// which suits process-lifetime users; an object registers through its
// MetricSet, whose holds go with it. When a name's last hold goes, the
// registry folds the metric into a retired total under its normalized name
// (each all-digit component becomes '*': chan/3/sends -> chan/*/sends) and
// frees it: counters add, histograms merge, gauges are dropped. A name must
// stick to one kind — asking for a counter named like an existing histogram
// returns a fresh dummy handle and flags the collision in the snapshot
// rather than aborting the run.
class Registry {
 public:
  // The process-wide default registry every subsystem registers into.
  static Registry& Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // One JSON object over every held name and every retired total:
  //   {"counters": {name: value, ...},
  //    "gauges": {name: value, ...},
  //    "histograms": {name: {"count": c, "sum_ns": s, "min_ns": m,
  //                          "max_ns": M, "p50": .., "p95": .., "p99": ..}}}
  // Names are emitted sorted, so snapshots diff cleanly. A name with no id
  // (os/sched/migrations) is its own retired total, so what its dead and
  // live holders counted prints as one sum; a held chan/3/sends prints
  // next to the total chan/*/sends.
  std::string SnapshotJson() const;

  // Zeroes every held metric without invalidating handles and drops the
  // retired totals (bench measurement windows reset between series).
  void Reset();

  // Held names plus retired totals.
  size_t size() const;

  // Every first registration is validated against the manifest schema
  // (src/obs/metric_schema.def); names no pattern covers accumulate here as
  // "<kind> <name>" strings. Draining returns what accrued since the last
  // drain — tests drain before exercising a subsystem, then assert the
  // second drain is empty (name drift is a test failure, not silent
  // dashboard rot). Always empty under DIPC_OBS_OFF.
  std::vector<std::string> TakeSchemaViolations();

 private:
  friend class MetricSet;
  struct Impl;
  Impl& impl() const;
};

// The names one object registered, held for the object's life: its Get*
// calls return what Registry::Get* returns for the same name, and its
// destructor releases every hold it took, so the metrics of a dead object
// fold into their retired totals (see Registry). An object keeps its
// MetricSet as a member next to the handles it took; they are valid until
// that member is destroyed.
class MetricSet {
 public:
  MetricSet() = default;
  ~MetricSet();
  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

 private:
  // One entry per hold, pointing at the registry's copy of the name.
  std::vector<const std::string*> held_;
};

// Per-domain simulated-time attribution, charged by os::Kernel whenever a
// thread spends modeled time. Kinds mirror the paper's Fig. 2 question —
// where does a cross-domain call's time go — collapsed to what a profiler
// would bill a tenant for: its own user code, kernel work done on its
// behalf, data-plane copies, time parked on futexes, and proxy trampolines.
enum class DomainTimeKind : uint8_t {
  kUser,
  kKernel,
  kCopy,
  kFutexWait,
  kProxy,
  kCount,
};

// Metric-name component for one kind ("user", "kernel", ...).
const char* DomainTimeKindName(DomainTimeKind kind);

// One kernel's per-domain time counters, "domain/<tag>/time_ns/<kind>".
// The table holds them in its MetricSet, so when its kernel dies they fold
// into "domain/*/time_ns/<kind>" and a later world's windows do not list
// them. Counters hold nanoseconds; sub-ns residue carries over per (tag,
// kind) so long runs don't systematically truncate (the acceptance bound
// joins these sums against wall sim-time at 5%). A dying table leaves its
// residues to the next table that charges the same pair, so a sequence of
// worlds rounds as one carry would. Charge is not thread-safe: one kernel's
// simulation runs on one host thread.
#ifndef DIPC_OBS_OFF
class DomainTime {
 public:
  DomainTime() = default;
  ~DomainTime();
  DomainTime(const DomainTime&) = delete;
  DomainTime& operator=(const DomainTime&) = delete;

  // Adds `ps` picoseconds of `kind` time to domain `domain_tag`'s counter.
  void Charge(uint32_t domain_tag, DomainTimeKind kind, int64_t ps);

 private:
  struct Slot {
    Counter* counter = nullptr;
    uint64_t carry_ps = 0;  // residue below the counter's nanosecond
  };
  // Indexed by tag, which AplTable allocates densely from 1.
  std::vector<std::array<Slot, static_cast<size_t>(DomainTimeKind::kCount)>> slots_;
  MetricSet metrics_;
};
#else
class DomainTime {
 public:
  void Charge(uint32_t, DomainTimeKind, int64_t) {}
};
#endif

}  // namespace dipc::obs

#endif  // DIPC_OBS_METRICS_H_
