// POSIX pipe: a kernel ring buffer with copy-in/copy-out semantics — the
// "argument immutability by copying" IPC design point of §2.2.
#ifndef DIPC_OS_PIPE_H_
#define DIPC_OS_PIPE_H_

#include <cstdint>

#include "base/result.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class Pipe {
 public:
  static constexpr uint64_t kCapacity = 64 * 1024;
  // Kernel pipe path per op: locking, vfs dispatch, buffer management.
  static constexpr sim::Duration kKernelPath = sim::Duration::Nanos(260.0);

  explicit Pipe(Kernel& kernel) : kernel_(kernel), buf_pa_(kernel.AllocKernelBuffer(kCapacity)) {}

  // Blocking write of the full `len` bytes (POSIX semantics for <= PIPE_BUF
  // generalized: we loop until everything is in the ring).
  sim::Task<base::Result<uint64_t>> Write(Env env, hw::VirtAddr va, uint64_t len);

  // Blocking read of up to `len` bytes; returns 0 at EOF (writer closed).
  sim::Task<base::Result<uint64_t>> Read(Env env, hw::VirtAddr va, uint64_t len);

  void CloseWriteEnd();

  uint64_t fill() const { return fill_; }

 private:
  // Copies between user memory and the ring, splitting at the wrap point.
  sim::Task<base::Status> RingIn(Env env, hw::VirtAddr va, uint64_t len);
  sim::Task<base::Status> RingOut(Env env, hw::VirtAddr va, uint64_t len);

  Kernel& kernel_;
  hw::PhysAddr buf_pa_;
  uint64_t rpos_ = 0;
  uint64_t wpos_ = 0;
  uint64_t fill_ = 0;
  bool write_closed_ = false;
  WaitQueue readers_;
  WaitQueue writers_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_PIPE_H_
