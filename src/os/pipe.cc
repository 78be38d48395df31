#include "os/pipe.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace dipc::os {

namespace {

// Makes the first thread parked on `waiters` runnable; the waker pays the
// IPI plus 60 cycles of wake work.
sim::Task<void> WakeOne(Env env, WaitQueue& waiters) {
  if (Thread* t = waiters.WakeOneThread(); t != nullptr) {
    Kernel& k = *env.kernel;
    sim::Duration ipi = k.MakeRunnable(*t, env.self->last_cpu());
    co_await k.Spend(*env.self, ipi + k.costs().Cycles(60), TimeCat::kKernel);
  }
}

}  // namespace

sim::Task<base::Result<uint64_t>> Pipe::Write(Env env, hw::VirtAddr va, uint64_t len,
                                              Handles handles) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kernel_path_, TimeCat::kKernel);
  if (closed_) {
    co_await k.SyscallExit(env);
    co_return base::ErrorCode::kBrokenChannel;
  }
  const bool ancillary_only = len == 0 && !handles.empty();
  std::move(handles.begin(), handles.end(), std::back_inserter(passed_));
  uint64_t done = 0;
  while (done < len) {
    while (fill_ == kCapacity && !closed_) {
      co_await writers_.Wait(env);
    }
    if (closed_) {
      co_await k.SyscallExit(env);
      co_return base::ErrorCode::kBrokenChannel;
    }
    // Copy into the ring, split at the wrap point.
    uint64_t chunk = std::min(len - done, kCapacity - fill_);
    uint64_t off = wpos_ % kCapacity;
    uint64_t first = std::min(chunk, kCapacity - off);
    auto s = co_await k.CopyFromUser(env, buf_pa_ + off, va + done, first);
    if (s.ok() && first < chunk) {
      s = co_await k.CopyFromUser(env, buf_pa_, va + done + first, chunk - first);
    }
    if (!s.ok()) {
      co_await k.SyscallExit(env);
      co_return s.code();
    }
    wpos_ += chunk;
    fill_ += chunk;
    done += chunk;
    co_await WakeOne(env, readers_);
  }
  if (ancillary_only) {
    co_await WakeOne(env, readers_);
  }
  co_await k.SyscallExit(env);
  co_return done;
}

sim::Task<base::Result<uint64_t>> Pipe::Read(Env env, hw::VirtAddr va, uint64_t len,
                                             Handles* handles_out) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, kernel_path_, TimeCat::kKernel);
  while (true) {
    // Handles a read has no room for are discarded (Linux's MSG_CTRUNC) and
    // do not end its wait.
    const bool got_handles = handles_out != nullptr && !passed_.empty();
    if (got_handles) {
      std::move(passed_.begin(), passed_.end(), std::back_inserter(*handles_out));
    }
    passed_.clear();
    if (fill_ > 0 || got_handles) {
      break;
    }
    if (closed_) {
      co_await k.SyscallExit(env);
      co_return uint64_t{0};  // EOF
    }
    co_await readers_.Wait(env);
  }
  uint64_t chunk = std::min(len, fill_);
  if (chunk > 0) {
    // Copy out of the ring, split at the wrap point.
    uint64_t off = rpos_ % kCapacity;
    uint64_t first = std::min(chunk, kCapacity - off);
    auto s = co_await k.CopyToUser(env, va, buf_pa_ + off, first);
    if (s.ok() && first < chunk) {
      s = co_await k.CopyToUser(env, va + first, buf_pa_, chunk - first);
    }
    if (!s.ok()) {
      co_await k.SyscallExit(env);
      co_return s.code();
    }
    rpos_ += chunk;
    fill_ -= chunk;
    co_await WakeOne(env, writers_);
  }
  co_await k.SyscallExit(env);
  co_return chunk;
}

sim::Task<base::Status> Pipe::ReadExact(Env env, hw::VirtAddr va, uint64_t len,
                                        Handles* handles_out) {
  uint64_t done = 0;
  while (done < len) {
    const size_t handles_before = handles_out != nullptr ? handles_out->size() : 0;
    auto r = co_await Read(env, va + done, len - done, handles_out);
    if (!r.ok()) {
      co_return r.status();
    }
    if (r.value() == 0 && (handles_out == nullptr || handles_out->size() == handles_before)) {
      co_return base::ErrorCode::kBrokenChannel;  // EOF, not a handles-only read
    }
    done += r.value();
  }
  co_return base::Status::Ok();
}

void Pipe::Close() {
  closed_ = true;
  // There is no Env here; treat the close as a kernel-side wake with no
  // waker CPU.
  readers_.WakeAll(kernel_);
  writers_.WakeAll(kernel_);
}

}  // namespace dipc::os
