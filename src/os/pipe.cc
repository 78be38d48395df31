#include "os/pipe.h"

#include <algorithm>

namespace dipc::os {

sim::Task<base::Status> Pipe::RingIn(Env env, hw::VirtAddr va, uint64_t len) {
  uint64_t off = wpos_ % kCapacity;
  uint64_t first = std::min(len, kCapacity - off);
  auto s = co_await env.kernel->CopyFromUser(env, buf_pa_ + off, va, first);
  if (!s.ok()) {
    co_return s;
  }
  if (first < len) {
    s = co_await env.kernel->CopyFromUser(env, buf_pa_, va + first, len - first);
    if (!s.ok()) {
      co_return s;
    }
  }
  wpos_ += len;
  fill_ += len;
  co_return base::Status::Ok();
}

sim::Task<base::Status> Pipe::RingOut(Env env, hw::VirtAddr va, uint64_t len) {
  uint64_t off = rpos_ % kCapacity;
  uint64_t first = std::min(len, kCapacity - off);
  auto s = co_await env.kernel->CopyToUser(env, va, buf_pa_ + off, first);
  if (!s.ok()) {
    co_return s;
  }
  if (first < len) {
    s = co_await env.kernel->CopyToUser(env, va + first, buf_pa_, len - first);
    if (!s.ok()) {
      co_return s;
    }
  }
  rpos_ += len;
  fill_ -= len;
  co_return base::Status::Ok();
}

sim::Task<base::Result<uint64_t>> Pipe::Write(Env env, hw::VirtAddr va, uint64_t len) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kKernelPath, TimeCat::kKernel);
  uint64_t done = 0;
  while (done < len) {
    while (fill_ == kCapacity) {
      co_await writers_.Wait(env);
    }
    uint64_t chunk = std::min(len - done, kCapacity - fill_);
    auto s = co_await RingIn(env, va + done, chunk);
    if (!s.ok()) {
      co_await k.SyscallExit(env);
      co_return s.code();
    }
    done += chunk;
    if (Thread* r = readers_.WakeOneThread(); r != nullptr) {
      sim::Duration ipi = k.MakeRunnable(*r, env.self->last_cpu());
      co_await k.Spend(*env.self, ipi + k.costs().Cycles(60), TimeCat::kKernel);
    }
  }
  co_await k.SyscallExit(env);
  co_return done;
}

sim::Task<base::Result<uint64_t>> Pipe::Read(Env env, hw::VirtAddr va, uint64_t len) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kKernelPath, TimeCat::kKernel);
  while (fill_ == 0) {
    if (write_closed_) {
      co_await k.SyscallExit(env);
      co_return uint64_t{0};  // EOF
    }
    co_await readers_.Wait(env);
  }
  uint64_t chunk = std::min(len, fill_);
  auto s = co_await RingOut(env, va, chunk);
  if (!s.ok()) {
    co_await k.SyscallExit(env);
    co_return s.code();
  }
  if (Thread* w = writers_.WakeOneThread(); w != nullptr) {
    sim::Duration ipi = k.MakeRunnable(*w, env.self->last_cpu());
    co_await k.Spend(*env.self, ipi + k.costs().Cycles(60), TimeCat::kKernel);
  }
  co_await k.SyscallExit(env);
  co_return chunk;
}

void Pipe::CloseWriteEnd() {
  write_closed_ = true;
  // Readers blocked on an empty pipe must see EOF. There is no Env here;
  // treat the close as a kernel-side wake with no waker CPU.
  readers_.WakeAll(kernel_);
}

}  // namespace dipc::os
