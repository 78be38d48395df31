// A single-spindle disk: FIFO queue, fixed service time. Used by the
// on-disk DVDStore configuration (§7.4); the in-memory (tmpfs) configuration
// bypasses it.
#ifndef DIPC_APPS_OLTP_DISK_H_
#define DIPC_APPS_OLTP_DISK_H_

#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::apps {

class Disk {
 public:
  explicit Disk(os::Kernel& kernel) : kernel_(kernel) {}

  // One random access: queue behind earlier requests, then seek+rotate+read.
  sim::Task<void> Access(os::Env env) {
    while (busy_) {
      waiters_.Enqueue(env.self);
      co_await env.kernel->Block(env);
    }
    busy_ = true;
    co_await kernel_.Sleep(env, kernel_.costs().disk_access);
    busy_ = false;
    if (os::Thread* next = waiters_.WakeOneThread(); next != nullptr) {
      (void)kernel_.MakeRunnable(*next, std::nullopt);
    }
  }

 private:
  os::Kernel& kernel_;
  bool busy_ = false;
  os::WaitQueue waiters_;
};

}  // namespace dipc::apps

#endif  // DIPC_APPS_OLTP_DISK_H_
