// Kernel object base and per-process descriptor tables.
//
// Anything a file descriptor can refer to (pipe ends, socket ends, dIPC
// domain/entry handles...) derives from KernelObject, so objects can be
// passed between processes through UNIX sockets (SCM_RIGHTS-style) — the
// mechanism dIPC uses to delegate domain handles (§5.2.2).
#ifndef DIPC_OS_OBJECTS_H_
#define DIPC_OS_OBJECTS_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "base/result.h"

namespace dipc::os {

using Fd = int32_t;
inline constexpr Fd kInvalidFd = -1;

class KernelObject {
 public:
  virtual ~KernelObject() = default;
  virtual std::string_view type_name() const = 0;
};

class FdTable {
 public:
  Fd Insert(std::shared_ptr<KernelObject> obj) {
    Fd fd = next_fd_++;
    table_.emplace(fd, std::move(obj));
    return fd;
  }

  std::shared_ptr<KernelObject> Get(Fd fd) const {
    auto it = table_.find(fd);
    return it == table_.end() ? nullptr : it->second;
  }

  template <typename T>
  std::shared_ptr<T> GetAs(Fd fd) const {
    return std::dynamic_pointer_cast<T>(Get(fd));
  }

  base::Status Close(Fd fd) {
    return table_.erase(fd) == 1 ? base::Status::Ok() : base::ErrorCode::kBadHandle;
  }

 private:
  std::unordered_map<Fd, std::shared_ptr<KernelObject>> table_;
  Fd next_fd_ = 3;  // 0..2 notionally reserved for stdio
};

}  // namespace dipc::os

#endif  // DIPC_OS_OBJECTS_H_
