// dipclint-path: src/fabric/bad_failed_send_exit.cc
// A send that fails on a healthy plane (an injected fault) leaves the buffer
// the producer's, grant live: bailing out of the loop on any failure leaks
// it, plus one credit of the producer's line.
#include "chan/plane.h"

namespace dipc {

sim::Task<void> ServeReplies(os::Env env, chan::Plane& resp, uint32_t worker) {
  while (true) {
    auto buf = co_await resp.AcquireBuf(env, worker);
    if (!buf.ok()) {
      co_return;
    }
    chan::SendBuf rb = buf.value();
    if (!(co_await resp.Send(env, worker, rb, 64)).ok()) {
      co_return;  // leaks rb unless the plane broke
    }
  }
}

}  // namespace dipc
