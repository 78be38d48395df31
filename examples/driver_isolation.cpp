// Device-driver isolation (§7.3): run a netpipe-style ping-pong over the
// Infiniband-like NIC with the user-level driver isolated six different
// ways, and compare the latency each mechanism costs.
//
// Build & run:  ./build/example_driver_isolation
#include <cstdio>

#include <string>
#include "apps/netpipe/netpipe.h"

using namespace dipc::apps;

int main() {
  constexpr uint64_t kBytes = 64;
  std::printf("netpipe ping-pong, %llu-byte transfers, driver isolation variants:\n\n",
              (unsigned long long)kBytes);
  std::printf("%-24s %14s %12s\n", "isolation", "latency [us]", "overhead");
  double base = 0;
  for (DriverIsolation iso :
       {DriverIsolation::kInline, DriverIsolation::kDipcDomain, DriverIsolation::kDipcProcess,
        DriverIsolation::kKernel, DriverIsolation::kSemaphore, DriverIsolation::kPipe}) {
    NetpipeResult r = RunNetpipe({.isolation = iso, .transfer_bytes = kBytes});
    if (iso == DriverIsolation::kInline) {
      base = r.latency_us;
    }
    std::printf("%-24s %14.3f %11.1f%%\n", std::string(DriverIsolationName(iso)).c_str(),
                r.latency_us, 100.0 * (r.latency_us - base) / base);
  }
  std::printf("\nOnly dIPC sustains the NIC's low latency (paper: ~1%% overhead);\n");
  std::printf("the kernel-driver syscall path costs ~10%%, full IPC >100%%.\n");
  return 0;
}
