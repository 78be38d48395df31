#include "os/unix_socket.h"

#include <utility>

namespace dipc::os {

std::pair<std::shared_ptr<UnixStreamEnd>, std::shared_ptr<UnixStreamEnd>>
UnixStreamCore::CreatePair(Kernel& kernel) {
  auto core = std::make_shared<UnixStreamCore>(kernel);
  return {std::make_shared<UnixStreamEnd>(core, 0), std::make_shared<UnixStreamEnd>(core, 1)};
}

sim::Task<base::Result<std::shared_ptr<UnixStreamEnd>>> UnixListener::Connect(
    Env env, const std::string& path) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, UnixStreamCore::kKernelPath, TimeCat::kKernel);
  auto obj = k.LookupPath(path);
  auto listener = std::dynamic_pointer_cast<UnixListener>(obj);
  if (listener == nullptr) {
    co_await k.SyscallExit(env);
    co_return base::ErrorCode::kNotFound;
  }
  auto [client, server] = UnixStreamCore::CreatePair(k);
  listener->pending_.push_back(std::move(server));
  if (Thread* a = listener->acceptors_.WakeOneThread(); a != nullptr) {
    sim::Duration ipi = k.MakeRunnable(*a, env.self->last_cpu());
    co_await k.Spend(*env.self, ipi, TimeCat::kKernel);
  }
  co_await k.SyscallExit(env);
  co_return client;
}

sim::Task<base::Result<std::shared_ptr<UnixStreamEnd>>> UnixListener::Accept(Env env) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, UnixStreamCore::kKernelPath, TimeCat::kKernel);
  while (pending_.empty()) {
    co_await acceptors_.Wait(env);
  }
  auto end = std::move(pending_.front());
  pending_.pop_front();
  co_await k.SyscallExit(env);
  co_return end;
}

}  // namespace dipc::os
