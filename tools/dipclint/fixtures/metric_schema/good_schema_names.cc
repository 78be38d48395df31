// dipclint-path: src/apps/fix/good_schema_names.cc
// Schema-conformant registrations: fixed names, wildcard components built
// from variables, a prefix component, and the '**' fault-point tail.
#include "obs/metrics.h"

namespace dipc {

void Register(const std::string& id, int cpu) {
  obs::Counter* a = obs::Registry::Default().GetCounter("fault/injected");
  obs::Counter* b = obs::Registry::Default().GetCounter("chan/" + id + "/sends");
  obs::Gauge* c = obs::Registry::Default().GetGauge(
      "os/sched/cpu" + std::to_string(cpu) + "/runq_depth");
  obs::Counter* d = obs::Registry::Default().GetCounter("fault/point/" + id);
  obs::Histogram* e = obs::Registry::Default().GetHistogram("mpmc/" + id + "/park_ns");
  (void)a;
  (void)b;
  (void)c;
  (void)d;
  (void)e;
}

}  // namespace dipc
