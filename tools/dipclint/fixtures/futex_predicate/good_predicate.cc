// dipclint-path: src/apps/fix/good_predicate.cc
// Real still-blocked predicates: a capturing lambda re-checking state, in
// the last argument of either overload.
#include "os/futex.h"

namespace dipc {

sim::Task<bool> ParkUntilFilled(os::Env env, os::WaitQueue& q, const size_t& fill) {
  co_return co_await os::FutexBlockUntil(env, q, os::Deadline(), [&] { return fill == 0; });
}

sim::Task<bool> ParkBounded(os::Env env, os::WaitQueue& q, os::Deadline d, os::DeferredWake wake,
                            const bool& closed, const size_t& fill) {
  co_return co_await os::FutexBlockUntil(env, q, d, std::move(wake),
                                         [&] { return fill == 0 && !closed; });
}

}  // namespace dipc
