// dipclint-path: src/apps/fix/good_failed_send_abandons.cc
// The failed-send shape done right: a broken plane already swept the grant,
// a healthy one still owes the buffer back.
#include "chan/channel.h"

namespace dipc {

sim::Task<base::Status> CallOnce(os::Env env, chan::DuplexEndpoint& ep) {
  auto buf = co_await ep.AcquireBuf(env);
  if (!buf.ok()) {
    co_return buf.code();
  }
  auto sent = co_await ep.Send(env, buf.value(), 64);
  if (!sent.ok()) {
    if (ep.out().broken() == base::ErrorCode::kOk) {
      (void)co_await ep.Abandon(env, buf.value());
    }
    co_return sent;
  }
  co_return base::Status::Ok();
}

}  // namespace dipc
