// Per-CPU time accounting in the categories of the paper's Figure 2.
//
// Every virtual nanosecond a CPU spends is attributed to one category, which
// lets benches print the same breakdowns as Figures 1 and 2:
//   (1) user code, (2) syscall+2*swapgs+sysret, (3) syscall dispatch
//   trampoline, (4) kernel/privileged code, (5) schedule/context switch,
//   (6) page table switch, (7) idle / IO wait — plus a dIPC-proxy category
//   for the trusted thunk code dIPC adds.
#ifndef DIPC_OS_ACCOUNTING_H_
#define DIPC_OS_ACCOUNTING_H_

#include <array>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "hw/types.h"
#include "sim/time.h"

namespace dipc::os {

enum class TimeCat : uint8_t {
  kUser = 0,          // (1)
  kSyscallCrossing,   // (2)
  kSyscallDispatch,   // (3)
  kKernel,            // (4)
  kSchedule,          // (5)
  kPageTableSwitch,   // (6)
  kIdle,              // (7)
  kProxy,             // dIPC trusted proxy thunks
  kCount,
};

inline constexpr size_t kNumTimeCats = static_cast<size_t>(TimeCat::kCount);

// A snapshot of per-category time, either for one CPU or summed.
struct TimeBreakdown {
  std::array<sim::Duration, kNumTimeCats> by_cat{};

  sim::Duration operator[](TimeCat cat) const { return by_cat[static_cast<size_t>(cat)]; }
  sim::Duration& operator[](TimeCat cat) { return by_cat[static_cast<size_t>(cat)]; }

  sim::Duration Total() const {
    sim::Duration t;
    for (const auto& d : by_cat) {
      t += d;
    }
    return t;
  }

  TimeBreakdown operator-(const TimeBreakdown& other) const {
    TimeBreakdown r;
    for (size_t i = 0; i < kNumTimeCats; ++i) {
      r.by_cat[i] = by_cat[i] - other.by_cat[i];
    }
    return r;
  }

  TimeBreakdown& operator+=(const TimeBreakdown& other) {
    for (size_t i = 0; i < kNumTimeCats; ++i) {
      by_cat[i] += other.by_cat[i];
    }
    return *this;
  }
};

class TimeAccounting {
 public:
  explicit TimeAccounting(uint32_t num_cpus) : per_cpu_(num_cpus) {}

  void Charge(hw::CpuId cpu, TimeCat cat, sim::Duration d) {
    DIPC_CHECK(cpu < per_cpu_.size());
    per_cpu_[cpu][cat] += d;
  }

  const TimeBreakdown& cpu(hw::CpuId id) const { return per_cpu_[id]; }

  TimeBreakdown Summed() const {
    TimeBreakdown total;
    for (const auto& b : per_cpu_) {
      total += b;
    }
    return total;
  }

  void Reset() {
    for (auto& b : per_cpu_) {
      b = TimeBreakdown{};
    }
  }

 private:
  std::vector<TimeBreakdown> per_cpu_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_ACCOUNTING_H_
