// The end state a closed ServiceFabric leaves once its world has run out
// (Close(), then Kernel::Run() returned): no plane of the fabric holds a
// live grant, and no thread is parked in a futex wait.
#ifndef DIPC_TESTS_FABRIC_END_STATE_H_
#define DIPC_TESTS_FABRIC_END_STATE_H_

#include <gtest/gtest.h>

#include <cstdint>

#include "fabric/fabric.h"
#include "os/kernel.h"

namespace dipc::fabric {

inline void ExpectNothingOutlivesClose(const ServiceFabric& fab,
                                       [[maybe_unused]] const os::Kernel& kernel) {
  for (uint32_t c = 0; c < fab.client_count(); ++c) {
    EXPECT_EQ(fab.request_plane(c)->LiveGrantCount(), 0u) << "request plane " << c;
    EXPECT_EQ(fab.response_plane(c)->LiveGrantCount(), 0u) << "response plane " << c;
  }
#ifndef DIPC_OBS_OFF
  // The gauge is process-wide: it also counts what an earlier world of the
  // same test process left parked.
  EXPECT_EQ(kernel.futex_waiters()->value(), 0) << "threads left parked in a futex wait";
#endif
}

}  // namespace dipc::fabric

#endif  // DIPC_TESTS_FABRIC_END_STATE_H_
