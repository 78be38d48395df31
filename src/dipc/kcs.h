// Kernel Control Stack (§5.2.1): per-thread stack tracking the cross-domain
// call chain. Proxies push an entry per call and pop it on return; crash and
// kill handling unwinds it to the oldest living caller (P3).
#ifndef DIPC_DIPC_KCS_H_
#define DIPC_DIPC_KCS_H_

#include <cstdint>
#include <vector>

#include "base/check.h"
#include "os/process.h"

namespace dipc::core {

class Proxy;

struct KcsEntry {
  os::Process* caller_process = nullptr;  // `current` at call time
  const Proxy* proxy = nullptr;           // the proxy that bridged this call
  hw::DomainTag caller_domain = 0;        // effective domain at call time
  uint64_t saved_stack_ptr = 0;           // caller's stack pointer (when switched)
  uint64_t saved_dcs_base = 0;            // caller's DCS base (when adjusted)
  uint64_t return_address = 0;            // caller text; the live RA is replaced
                                          // with proxy_ret (P3)
};

class Kcs {
 public:
  void Push(KcsEntry e) { entries_.push_back(e); }

  KcsEntry Pop() {
    DIPC_CHECK(!entries_.empty());
    KcsEntry e = entries_.back();
    entries_.pop_back();
    return e;
  }

  bool empty() const { return entries_.empty(); }
  size_t depth() const { return entries_.size(); }

  // Unwinds to (and pops) the newest entry whose calling process is still
  // alive; returns it, or nullptr if every caller in the chain is dead.
  // Entries above it are discarded — their domains' state is abandoned, as
  // §2.4 argues is correct when faults are merely forwarded.
  const KcsEntry* UnwindToLiveCaller() {
    while (!entries_.empty()) {
      if (entries_.back().caller_process->alive()) {
        unwound_ = entries_.back();
        entries_.pop_back();
        return &unwound_;
      }
      entries_.pop_back();
    }
    return nullptr;
  }

 private:
  std::vector<KcsEntry> entries_;
  KcsEntry unwound_{};
};

}  // namespace dipc::core

#endif  // DIPC_DIPC_KCS_H_
