// Shared pieces of the repo benchmark driver: the simulated world, the
// measurement window, the host-memory span log and the raw report that
// perfbench/run.py turns into metrics.
//
// Everything here observes the simulator from outside: counters are read
// through the layers' public getters and obs::Registry, and spans are kept in
// host memory without charging simulated time, so a traced run and an
// untraced run of one seed produce bit-identical simulated results.
#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "hw/machine.h"
#include "os/kernel.h"

namespace perfbench {

using namespace dipc;  // NOLINT: the driver is a thin client of every layer

// One simulated machine with the dIPC runtime on top.
struct World {
  explicit World(uint32_t cpus) : machine(cpus), codoms(machine), kernel(machine, codoms), dipc(kernel) {}

  hw::Machine machine;
  codoms::Codoms codoms;
  os::Kernel kernel;
  core::Dipc dipc;
};

// Span names: one per public call the driver makes into a layer, plus the
// per-op root span. The layer of a span is the prefix before the dot.
enum class SpanName : uint16_t {
  kOp,             // app: one benchmark operation (root)
  kHwTouch,        // hw: Kernel::TouchUser
  kCodomsCap,      // codoms: Codoms::CapFromApl + its charged cost
  kDipcCall,       // dipc: ProxyRef::Call
  kChanAcquire,    // chan: AcquireBuf / AcquireBufBatch
  kChanSend,       // chan: Send / SendBatch
  kChanRecv,       // chan: Recv / RecvBatch
  kChanRelease,    // chan: Release / ReleaseBatch
  kChanDuplexRtt,  // chan: one request/response over a DuplexChannel
  kFabricCall,     // fabric: ServiceFabric::Call
  kFabricHandler,  // fabric: the worker handler the fabric invokes
  kAppService,     // app: the handler's service time (Kernel::Spend)
  kOsLock,         // os: Semaphore wait guarding a worker's backend channel
  kCount,
};

const char* SpanNameString(SpanName n);

// Spans recorded in host memory only; written out when the driver exits.
// Begin/End never touch the simulator, so recording cannot move sim time.
class SpanLog {
 public:
  static constexpr int32_t kNone = -1;
  static constexpr int64_t kUnknownBusy = -1;

  // `busy_ps` is the CPU time charged to the calling process inside the span
  // (`pid`, low 16 bits): a thread that enters another process through a
  // dIPC proxy bills that process, so the caller's span sees it as waiting.
  // Every span ends in the process it began in. The kernel charges CPU time
  // per process, not per thread, so busy time is only the span's own when
  // its process runs one thread at a time; workloads with busier processes
  // turn it off and record kUnknownBusy.
  struct Span {
    uint16_t name;
    uint16_t pid;
    int32_t parent;
    uint64_t op;
    int64_t start_ps;
    int64_t end_ps;
    int64_t busy_ps;
  };

  void Enable() { enabled_ = true; }
  void set_busy_known(bool known) { busy_known_ = known; }

  int32_t Begin(SpanName name, os::Env env, int32_t parent, uint64_t op) {
    if (!enabled_) {
      return kNone;
    }
    os::Process& proc = env.self->process();
    spans_.push_back(Span{static_cast<uint16_t>(name), static_cast<uint16_t>(proc.pid()), parent, op,
                          env.kernel->now().picos(), 0, proc.cpu_time().picos()});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id, os::Env env) {
    if (id == kNone) {
      return;
    }
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ps = env.kernel->now().picos();
    s.busy_ps = busy_known_ ? env.self->process().cpu_time().picos() - s.busy_ps : kUnknownBusy;
  }

  // Binary dump: a header line of span names, then fixed 40-byte records.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  bool busy_known_ = true;
  std::vector<Span> spans_;
};

SpanLog& Spans();

// Scalars of a run, kept in insertion order and printed as one JSON object.
class Fields {
 public:
  void Num(const std::string& key, double v) { nums_.emplace_back(key, v); }
  void Int(const std::string& key, int64_t v) { ints_.emplace_back(key, v); }
  void IntArray(const std::string& key, std::vector<int64_t> v) {
    arrays_.emplace_back(key, std::move(v));
  }
  void Raw(const std::string& key, std::string json) { raws_.emplace_back(key, std::move(json)); }
  void Fail(std::string what) { failures_.push_back(std::move(what)); }
  bool failed() const { return !failures_.empty(); }
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, double>> nums_;
  std::vector<std::pair<std::string, int64_t>> ints_;
  std::vector<std::pair<std::string, std::vector<int64_t>>> arrays_;
  std::vector<std::pair<std::string, std::string>> raws_;
  std::vector<std::string> failures_;
};

// The measured window: resets the layers' resettable counters when it
// opens and records every counter's delta into `out` ("sim.*" fields) when
// it closes. Host time of the window goes to "host.window_s".
class Window {
 public:
  void Open(World& w);
  void Close(World& w, Fields& out);
  bool open() const { return open_; }
  bool closed() const { return closed_; }

 private:
  bool open_ = false;
  bool closed_ = false;
  sim::Time t0_;
  uint64_t events0_ = 0;
  uint64_t ctx0_ = 0;
  uint64_t mints0_ = 0;
  uint64_t apl_hits0_ = 0;
  uint64_t apl_misses0_ = 0;
  uint64_t proxy_calls0_ = 0;
  std::chrono::steady_clock::time_point host0_;
};

// Workload parameters handed down from the command line.
struct Params {
  uint64_t seed = 1;
  int64_t ops = 0;        // measured operations (per rate step for fabric_rpc)
  bool measure = true;    // false: build and warm up only (a set-up repetition)
};

// Each workload builds its world, warms it, and (when params.measure) runs the
// measured window, filling `out`. Returns the host seconds from entry to the
// end of the simulated warm-up.
double RunSyncCall(const Params& params, Fields& out);
double RunChanStream(const Params& params, Fields& out);
double RunFabricRpc(const Params& params, Fields& out);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
