// §5.3.1's co-optimization experiment, run natively on the host: exception
// recovery by saving registers (setjmp) vs a C++ `try` statement around a
// simple call. The paper measured try-based code ~2.5x faster because the
// compiler reconstructs state from constants and stack data on the (cold)
// error path instead of always saving registers.
//
// This is the one bench in the suite measuring *real* host time: each
// variant runs a fixed loop timed with std::chrono::steady_clock, and the
// per-call ns are printed. Pass --json to also write
// BENCH_s531_unwind.json.
#include <chrono>
#include <csetjmp>
#include <cstdio>

#include "micro_harness.h"

namespace {

// Keeps `value` live in a register, so the compiler can neither drop the
// computation that produced it nor fold it across loop iterations.
inline void KeepLive(int& value) { asm volatile("" : "+r"(value) : : "memory"); }

// A small opaque callee, like the paper's "simple function".
__attribute__((noinline)) int SimpleFunction(int x) {
  KeepLive(x);
  return x * 3 + 1;
}

// Host-timed per-call ns over a fixed number of calls.
template <typename Fn>
double TimePerCallNs(Fn&& fn) {
  constexpr int kIters = 2000000;
  auto t0 = std::chrono::steady_clock::now();
  int acc = 0;
  for (int i = 0; i < kIters; ++i) {
    acc = fn(acc);
  }
  KeepLive(acc);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  dipc::bench::JsonEmitter json("s531_unwind", argc, argv);
  std::printf("=== §5.3.1: setjmp vs C++ try recovery around a simple call ===\n");
  std::printf("paper: try-based code ~2.5x faster (compiler co-optimization).\n");
  // Host-timed code emits no simulator counters; the series boundaries keep
  // the --metrics schema uniform with the simulated benches.
  json.BeginSeries("setjmp_guarded_call");
  double setjmp_ns = TimePerCallNs([](int acc) {
    std::jmp_buf env;
    if (setjmp(env) == 0) {  // always saves the register state
      acc += SimpleFunction(acc);
    } else {
      acc = 0;  // recovery path (never taken here)
    }
    return acc;
  });
  json.BeginSeries("try_guarded_call");
  double try_ns = TimePerCallNs([](int acc) {
    try {  // zero-cost until thrown: nothing saved on the hot path
      acc += SimpleFunction(acc);
    } catch (...) {
      acc = 0;
    }
    return acc;
  });
  double ratio = try_ns > 0 ? setjmp_ns / try_ns : 0;
  std::printf("%-22s %10s\n", "variant", "ns/call");
  std::printf("%-22s %10.2f\n", "setjmp-guarded call", setjmp_ns);
  std::printf("%-22s %10.2f\n", "try-guarded call", try_ns);
  std::printf("setjmp / try: %.2fx   (paper: ~2.5x)\n\n", ratio);
  json.Row("setjmp_guarded_call", 0, setjmp_ns);
  json.Row("try_guarded_call", 0, try_ns);
  json.Row("setjmp_over_try_x1000", 0, ratio * 1000.0);
  return 0;
}
