// The paper's running example (§2, §7.4): the 3-tier OLTP web stack under
// the three configurations, printing throughput, latency, and time
// breakdowns side by side.
//
// Build & run:  ./build/example_oltp_stack
#include <cstdio>

#include <string>
#include "apps/oltp/oltp.h"

using namespace dipc::apps;

int main() {
  std::printf("3-tier OLTP web stack (Apache-like / PHP-like / MariaDB-like), 4 CPUs,\n");
  std::printf("in-memory DB, 64 threads/component, ~212 cross-domain calls per op.\n\n");
  std::printf("%-16s %12s %12s %7s %8s %7s\n", "config", "ops/min", "latency[ms]", "user%",
              "kernel%", "idle%");
  double linux_opm = 0, dipc_opm = 0, ideal_opm = 0;
  for (OltpMode mode : {OltpMode::kLinuxIpc, OltpMode::kDipc, OltpMode::kIdeal}) {
    OltpConfig c;
    c.mode = mode;
    c.storage = DbStorage::kMemory;
    c.threads = 64;
    OltpResult r = RunOltp(c);
    std::printf("%-16s %12.0f %12.2f %6.0f%% %7.0f%% %6.0f%%\n",
                std::string(OltpModeName(mode)).c_str(), r.ops_per_min, r.avg_latency_ms,
                100 * r.UserFrac(), 100 * r.KernelFrac(), 100 * r.IdleFrac());
    if (mode == OltpMode::kLinuxIpc) {
      linux_opm = r.ops_per_min;
    } else if (mode == OltpMode::kDipc) {
      dipc_opm = r.ops_per_min;
    } else {
      ideal_opm = r.ops_per_min;
    }
  }
  std::printf("\n=> dIPC: %.2fx over Linux, %.0f%% of the Ideal (unsafe) configuration\n",
              dipc_opm / linux_opm, 100.0 * dipc_opm / ideal_opm);
  std::printf("   (paper: up to 5.12x, 2.13x on average, always >94%% of Ideal)\n");
  return 0;
}
