// dipclint-path: src/apps/fix/bad_missing_predicate.cc
// No predicate at all: the call can never re-check the blocked condition.
#include "os/futex.h"

namespace dipc {

sim::Task<void> Park(os::Env env, os::WaitQueue& q, os::Deadline d) {
  (void)co_await os::FutexBlockUntil(env, q, d);
}

}  // namespace dipc
