// dipclint-path: src/apps/fix/good_guarded_consume.cc
// The canonical shape: acquire-failure guard, Abandon on the error path,
// Send on the happy path.
#include "chan/channel.h"

namespace dipc {

sim::Task<base::Status> ProduceOne(os::Env env, chan::Endpoint& ep, os::Kernel& k) {
  auto buf = co_await ep.AcquireBuf(env);
  if (!buf.ok()) {
    co_return buf.code();
  }
  auto produced = co_await k.TouchUser(env, buf.value().va, 64, hw::AccessType::kWrite);
  if (!produced.ok()) {
    co_await ep.Abandon(env, buf.value());
    co_return produced.code();
  }
  co_return co_await ep.Send(env, buf.value(), 64);
}

}  // namespace dipc
