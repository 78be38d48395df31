// dipclint-path: src/apps/fix/bad_trivial_predicate.cc
// A constant-true predicate defeats the wake-precedes-park re-check: a
// wake issued between the caller's own test and the park is lost forever.
#include "os/futex.h"

namespace dipc {

sim::Task<void> ParkForever(os::Env env, os::WaitQueue& q) {
  (void)co_await os::FutexBlockUntil(env, q, os::Deadline(), [] { return true; });
}

sim::Task<void> ParkBounded(os::Env env, os::WaitQueue& q, os::Deadline d) {
  (void)co_await os::FutexBlockUntil(env, q, d, nullptr);
}

}  // namespace dipc
