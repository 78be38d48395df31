#include "os/unix_socket.h"

#include <algorithm>
#include <utility>

namespace dipc::os {

UnixStreamCore::UnixStreamCore(Kernel& kernel) : kernel_(kernel) {
  dirs_[0].buf_pa = kernel.AllocKernelBuffer(kBufSize);
  dirs_[1].buf_pa = kernel.AllocKernelBuffer(kBufSize);
}

std::pair<std::shared_ptr<UnixStreamEnd>, std::shared_ptr<UnixStreamEnd>>
UnixStreamCore::CreatePair(Kernel& kernel) {
  auto core = std::make_shared<UnixStreamCore>(kernel);
  return {std::make_shared<UnixStreamEnd>(core, 0), std::make_shared<UnixStreamEnd>(core, 1)};
}

sim::Task<base::Result<uint64_t>> UnixStreamEnd::Send(
    Env env, hw::VirtAddr va, uint64_t len, std::vector<std::shared_ptr<KernelObject>> handles) {
  Kernel& k = *env.kernel;
  UnixStreamCore::Direction& d = tx();
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, UnixStreamCore::kKernelPath, TimeCat::kKernel);
  for (auto& h : handles) {
    d.passed_objects.push_back(std::move(h));  // ancillary data rides along
  }
  uint64_t done = 0;
  while (done < len) {
    if (d.closed) {
      co_await k.SyscallExit(env);
      co_return base::ErrorCode::kBrokenChannel;
    }
    while (d.fill == UnixStreamCore::kBufSize) {
      co_await d.writers.Wait(env);
    }
    uint64_t chunk = std::min(len - done, UnixStreamCore::kBufSize - d.fill);
    uint64_t off = d.wpos % UnixStreamCore::kBufSize;
    uint64_t first = std::min(chunk, UnixStreamCore::kBufSize - off);
    auto s = co_await k.CopyFromUser(env, d.buf_pa + off, va + done, first);
    if (s.ok() && first < chunk) {
      s = co_await k.CopyFromUser(env, d.buf_pa, va + done + first, chunk - first);
    }
    if (!s.ok()) {
      co_await k.SyscallExit(env);
      co_return s.code();
    }
    d.wpos += chunk;
    d.fill += chunk;
    done += chunk;
    if (Thread* r = d.readers.WakeOneThread(); r != nullptr) {
      sim::Duration ipi = k.MakeRunnable(*r, env.self->last_cpu());
      co_await k.Spend(*env.self, ipi + k.costs().Cycles(60), TimeCat::kKernel);
    }
  }
  co_await k.SyscallExit(env);
  co_return done;
}

sim::Task<base::Result<uint64_t>> UnixStreamEnd::Recv(
    Env env, hw::VirtAddr va, uint64_t len,
    std::vector<std::shared_ptr<KernelObject>>* handles_out) {
  Kernel& k = *env.kernel;
  UnixStreamCore::Direction& d = rx();
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, UnixStreamCore::kKernelPath, TimeCat::kKernel);
  while (d.fill == 0) {
    if (!d.passed_objects.empty()) {
      break;  // ancillary-only message
    }
    if (d.closed) {
      co_await k.SyscallExit(env);
      co_return uint64_t{0};  // EOF
    }
    co_await d.readers.Wait(env);
  }
  if (handles_out != nullptr) {
    while (!d.passed_objects.empty()) {
      handles_out->push_back(std::move(d.passed_objects.front()));
      d.passed_objects.pop_front();
    }
  }
  uint64_t chunk = std::min(len, d.fill);
  if (chunk > 0) {
    uint64_t off = d.rpos % UnixStreamCore::kBufSize;
    uint64_t first = std::min(chunk, UnixStreamCore::kBufSize - off);
    auto s = co_await k.CopyToUser(env, va, d.buf_pa + off, first);
    if (s.ok() && first < chunk) {
      s = co_await k.CopyToUser(env, va + first, d.buf_pa, chunk - first);
    }
    if (!s.ok()) {
      co_await k.SyscallExit(env);
      co_return s.code();
    }
    d.rpos += chunk;
    d.fill -= chunk;
    if (Thread* w = d.writers.WakeOneThread(); w != nullptr) {
      sim::Duration ipi = k.MakeRunnable(*w, env.self->last_cpu());
      co_await k.Spend(*env.self, ipi + k.costs().Cycles(60), TimeCat::kKernel);
    }
  }
  co_await k.SyscallExit(env);
  co_return chunk;
}

sim::Task<base::Status> UnixStreamEnd::RecvExact(
    Env env, hw::VirtAddr va, uint64_t len,
    std::vector<std::shared_ptr<KernelObject>>* handles_out) {
  uint64_t done = 0;
  while (done < len) {
    auto r = co_await Recv(env, va + done, len - done, handles_out);
    if (!r.ok()) {
      co_return r.status();
    }
    if (r.value() == 0) {
      co_return base::ErrorCode::kBrokenChannel;
    }
    done += r.value();
  }
  co_return base::Status::Ok();
}

void UnixStreamEnd::Close() {
  // Both directions see the hangup.
  for (auto& d : core_->dirs_) {
    d.closed = true;
    d.readers.WakeAll(core_->kernel_);
    d.writers.WakeAll(core_->kernel_);
  }
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
