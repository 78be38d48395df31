// UNIX-domain stream sockets, including SCM_RIGHTS-style kernel-object
// passing and a named-socket registry. Each direction of a connection is one
// kernel byte ring (os::Pipe) charging af_unix's kernel path.
//
// This is the substrate under glibc-rpcgen local RPC (§2.2, §7.2), under the
// OLTP baseline's FastCGI/DB connections (§7.4), and under dIPC's default
// entry-point resolution (§6.2.1). dIPC also relies on fd passing to
// delegate domain handles between processes (§5.2.2).
#ifndef DIPC_OS_UNIX_SOCKET_H_
#define DIPC_OS_UNIX_SOCKET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "base/result.h"
#include "os/kernel.h"
#include "os/pipe.h"
#include "sim/task.h"

namespace dipc::os {

class UnixStreamEnd;

// Shared state of a connected socket pair: one ring per direction.
class UnixStreamCore {
 public:
  // af_unix kernel path per op: socket locks, skb management, queue work.
  static constexpr sim::Duration kKernelPath = sim::Duration::Nanos(450.0);

  explicit UnixStreamCore(Kernel& kernel)
      : dirs_{Pipe(kernel, kKernelPath), Pipe(kernel, kKernelPath)} {}

  // Creates the two connected endpoints.
  static std::pair<std::shared_ptr<UnixStreamEnd>, std::shared_ptr<UnixStreamEnd>> CreatePair(
      Kernel& kernel);

 private:
  friend class UnixStreamEnd;

  Pipe dirs_[2];  // dirs_[i]: data flowing *from* endpoint i
};

class UnixStreamEnd : public KernelObject {
 public:
  UnixStreamEnd(std::shared_ptr<UnixStreamCore> core, int side)
      : core_(std::move(core)), side_(side) {}

  std::string_view type_name() const override { return "unix-stream"; }

  // Blocking send of all `len` bytes. `handles`, if any, are delivered to
  // the peer as ancillary data (SCM_RIGHTS). kBrokenChannel once either end
  // has closed.
  sim::Task<base::Result<uint64_t>> Send(Env env, hw::VirtAddr va, uint64_t len,
                                         Pipe::Handles handles = {}) {
    return tx().Write(env, va, len, std::move(handles));
  }

  // Blocking receive of up to `len` bytes; drains any pending ancillary
  // handles into `handles_out`, or discards them when it is null (see
  // Pipe::Read). Returns 0 at EOF.
  sim::Task<base::Result<uint64_t>> Recv(Env env, hw::VirtAddr va, uint64_t len,
                                         Pipe::Handles* handles_out = nullptr) {
    return rx().Read(env, va, len, handles_out);
  }

  // Receives exactly `len` bytes (loops; kBrokenChannel on premature EOF).
  sim::Task<base::Status> RecvExact(Env env, hw::VirtAddr va, uint64_t len,
                                    Pipe::Handles* handles_out = nullptr) {
    return rx().ReadExact(env, va, len, handles_out);
  }

  // Both directions see the hangup.
  void Close() {
    for (Pipe& d : core_->dirs_) {
      d.Close();
    }
  }

 private:
  Pipe& tx() { return core_->dirs_[side_]; }
  Pipe& rx() { return core_->dirs_[1 - side_]; }

  std::shared_ptr<UnixStreamCore> core_;
  int side_;
};

// A named listening socket (bound via Kernel::BindPath).
class UnixListener : public KernelObject {
 public:
  explicit UnixListener(Kernel& kernel) : kernel_(kernel) {}

  std::string_view type_name() const override { return "unix-listener"; }

  // Client side: connect to `path`; returns the client endpoint.
  static sim::Task<base::Result<std::shared_ptr<UnixStreamEnd>>> Connect(Env env,
                                                                         const std::string& path);

  // Server side: blocks until a connection arrives.
  sim::Task<base::Result<std::shared_ptr<UnixStreamEnd>>> Accept(Env env);

 private:
  Kernel& kernel_;
  std::deque<std::shared_ptr<UnixStreamEnd>> pending_;
  WaitQueue acceptors_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_UNIX_SOCKET_H_
