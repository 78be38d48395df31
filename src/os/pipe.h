// The kernel byte ring: copy-in/copy-out IPC, the "argument immutability by
// copying" design point of §2.2. One implementation serves both Linux
// baselines: a POSIX pipe is one ring with the pipe's kernel path, and each
// direction of a UNIX-domain stream socket (os/unix_socket.h) is one ring
// with af_unix's path that also carries SCM_RIGHTS-style handles.
#ifndef DIPC_OS_PIPE_H_
#define DIPC_OS_PIPE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/result.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class Pipe {
 public:
  using Handles = std::vector<std::shared_ptr<KernelObject>>;

  static constexpr uint64_t kCapacity = 64 * 1024;
  // Kernel pipe path per op: locking, vfs dispatch, buffer management.
  static constexpr sim::Duration kKernelPath = sim::Duration::Nanos(260.0);

  // Every Write and Read charges `kernel_path` once on entry.
  explicit Pipe(Kernel& kernel, sim::Duration kernel_path = kKernelPath)
      : kernel_(kernel), kernel_path_(kernel_path), buf_pa_(kernel.AllocKernelBuffer(kCapacity)) {}

  // Blocking write of the full `len` bytes (POSIX semantics for <= PIPE_BUF
  // generalized: we loop until everything is in the ring). `handles`, if
  // any, reach the next Read as ancillary data, also with `len` 0. Fails
  // with kBrokenChannel once the ring is closed, also when parked on a full
  // ring.
  sim::Task<base::Result<uint64_t>> Write(Env env, hw::VirtAddr va, uint64_t len,
                                          Handles handles = {});

  // Blocking read of up to `len` bytes; returns 0 at EOF (closed and
  // drained). With a non-null `handles_out`, pending handles move into it
  // and end the wait too (a 0-byte read that returns handles is no EOF);
  // without one they are discarded, as Linux truncates the ancillary data a
  // read has no room for (MSG_CTRUNC).
  sim::Task<base::Result<uint64_t>> Read(Env env, hw::VirtAddr va, uint64_t len,
                                         Handles* handles_out = nullptr);

  // Reads exactly `len` bytes (loops; kBrokenChannel on premature EOF),
  // collecting handles as Read does.
  sim::Task<base::Status> ReadExact(Env env, hw::VirtAddr va, uint64_t len,
                                    Handles* handles_out = nullptr);

  // Hangs the ring up: parked readers see EOF once it drains, and writers
  // fail.
  void Close();

 private:
  Kernel& kernel_;
  sim::Duration kernel_path_;
  hw::PhysAddr buf_pa_;
  uint64_t rpos_ = 0;
  uint64_t wpos_ = 0;
  uint64_t fill_ = 0;
  bool closed_ = false;
  WaitQueue readers_;
  WaitQueue writers_;
  Handles passed_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_PIPE_H_
