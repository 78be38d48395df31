// Deterministic pseudo-random generator for workloads (SplitMix64 core).
//
// std::mt19937 would also be deterministic, but its distributions are not
// specified bit-exactly across standard libraries; we implement the few
// distributions we need so results reproduce everywhere.
#ifndef DIPC_SIM_RANDOM_H_
#define DIPC_SIM_RANDOM_H_

#include <cmath>
#include <cstdint>

#include "base/check.h"

namespace dipc::sim {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [lo, hi] inclusive.
  uint64_t UniformInt(uint64_t lo, uint64_t hi) {
    DIPC_CHECK(lo <= hi);
    uint64_t span = hi - lo + 1;
    if (span == 0) {  // full 64-bit range
      return Next();
    }
    return lo + Next() % span;
  }

  // Bernoulli trial with probability p.
  bool Chance(double p) { return NextDouble() < p; }

  // Exponential with the given mean (> 0).
  double Exponential(double mean) {
    DIPC_CHECK(mean > 0);
    double u = NextDouble();
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(1.0 - u);
  }

 private:
  uint64_t state_;
};

}  // namespace dipc::sim

#endif  // DIPC_SIM_RANDOM_H_
