// Fixed-capacity per-CPU binary trace ring with Chrome trace_event export.
//
// Records typed, timestamped events (batch ops, futex park/wake, credit
// grant/stall, capability mint/rebind/revoke, death-hook sweeps, proxy
// entry/exit) into preallocated per-CPU rings. Timestamps are *simulated*
// time, so an exported trace lines up with the costs the model charged, not
// with host wall-clock jitter.
//
// Observer effect is modeled, not hidden: call sites that sit on costed
// paths charge `event_cost()` simulated time per recorded event (a couple
// of stores plus an index bump on a real machine). When tracing is disabled
// — the default — `event_cost()` is zero and `Record()` is one relaxed-load
// branch, so benches without --trace measure exactly what they did before.
// Under DIPC_OBS_OFF the whole class collapses to no-ops.
//
// Concurrency contract: per simulated CPU there is at most one writer at a
// time (the sim is single-real-threaded; host-side tests that write from
// real threads must use distinct cpu ids). Wraparound overwrites oldest
// events; the export keeps the newest `capacity` per CPU.
#ifndef DIPC_OBS_TRACE_H_
#define DIPC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dipc::obs {

enum class EventType : uint8_t {
  kAcquireBatch,  // arg = slots acquired
  kSendBatch,     // arg = messages sent
  kRecvBatch,     // arg = messages received
  kReleaseBatch,  // arg = slots released
  kFutexPark,     // dur = park time; arg = queue generation/seq
  kFutexWake,     // arg = waiters woken
  kCreditStall,   // dur = stall time; arg = receiver index (== receiver count: group gate)
  kCapMint,       // arg = slot index (cold mint through the APL)
  kCapRebind,     // arg = slot index (warm epoch rebind)
  kCapRevoke,     // arg = caps revoked (teardown sweeps; hot paths count only)
  kDeathSweep,    // arg = death hooks run; obj = pid
  kProxyEnter,     // arg = argument bytes
  kProxyExit,      // dur = full proxy call; arg = argument bytes
  kFaultInjected,  // arg = fault action (fault::Action); obj = point hash
  kTimeout,        // arg = slots still owed when the deadline fired
  kFabricDispatch,  // dur = request round trip; arg = opid; obj = fabric id
  // Request-hop spans: every hop of one fabric Call carries the same opid
  // (TraceEvent::opid), so the assembler can stitch a per-request flame.
  // arg packs (aux << 16) | (hop << 8) | attempt; see chan/desc.h.
  kReqAcquire,          // dur = client request-slot acquire
  kReqSend,             // dur = request-plane send (client -> worker shard)
  kWorkerRecv,          // dur = worker recv incl. idle wait for the request
  kHandler,             // dur = handler body on the worker
  kRespSend,            // dur = response-plane send (worker -> client)
  kCompletionDispatch,  // dur = completion recv+delivery by the receiving caller
  // Scheduler observability: why a wedged worker stalled.
  kSchedMigrate,  // instant; obj = tid, arg = (from_cpu << 32) | to_cpu
  kRunqDepth,     // instant; arg = run-queue depth after the change
  kFutexQDepth,   // instant; obj = wait-queue obs id, arg = queue length
};

constexpr int kEventTypeCount = static_cast<int>(EventType::kFutexQDepth) + 1;

// Human-readable name for Chrome trace export and debugging.
const char* EventTypeName(EventType t);

struct TraceEvent {
  int64_t ts_ps = 0;   // sim time at event start
  int64_t dur_ps = 0;  // >0 for span ("X") events, 0 for instants
  uint64_t arg = 0;    // type-specific payload (batch size, waiters, ...)
  uint64_t opid = 0;   // request correlation id, 0 = not request-scoped
  uint32_t obj = 0;    // object id (channel/fanout/queue/...), 0 = none
  uint32_t cpu = 0;    // simulated CPU the event happened on
  EventType type = EventType::kAcquireBatch;
};

// Request-scoped trace context threaded through fabric Call/Serve and the
// channel descriptor side-band (chan/desc.h packs it into one header word).
// `hop` increments at every traced hop; `attempt` distinguishes fabric
// retries of the same opid so the assembler can lay them out as sibling
// tracks.
struct TraceCtx {
  uint64_t opid = 0;   // 48 usable bits on the wire
  uint8_t hop = 0;
  uint8_t attempt = 0;
};

class TraceRing {
 public:
  static constexpr uint32_t kMaxCpus = 64;
  static constexpr uint32_t kDefaultCapacityPerCpu = 1u << 14;

  // Simulated cost charged per recorded event on costed paths: a handful of
  // stores into a resident ring line. Zero while disabled.
  static constexpr sim::Duration kEventCost = sim::Duration::Nanos(2.0);

  // The process-wide ring all instrumentation records into.
  static TraceRing& Global();

  // (Re)allocates per-CPU rings and starts recording. Re-enabling with the
  // same capacity keeps existing buffers but clears them.
  void Enable(uint32_t capacity_per_cpu = kDefaultCapacityPerCpu);
  void Disable();
  bool enabled() const {
    // relaxed: hot-path on/off poll; a stale read at the toggle edge only
    // gains or loses one event, it publishes no data.
    return enabled_.load(std::memory_order_relaxed);
  }

  sim::Duration event_cost() const {
    return enabled() ? kEventCost : sim::Duration::Zero();
  }

  void Record(uint32_t cpu, EventType type, uint32_t obj, uint64_t arg, sim::Time ts,
              sim::Duration dur = sim::Duration::Zero(), uint64_t opid = 0) {
#ifndef DIPC_OBS_OFF
    if (!enabled()) {
      return;
    }
    RecordSlow(cpu, type, obj, arg, ts, dur, opid);
#else
    (void)cpu;
    (void)type;
    (void)obj;
    (void)arg;
    (void)ts;
    (void)dur;
    (void)opid;
#endif
  }

  // Drops all recorded events but keeps recording state.
  void Clear();

  // Events recorded (before wraparound loss) / currently held, per CPU.
  uint64_t recorded(uint32_t cpu) const;
  uint64_t held(uint32_t cpu) const;

  // Events lost to wraparound (recorded - capacity when positive), per CPU
  // and summed. Nonzero drops mean the export is missing the oldest events —
  // size the ring up (Enable(capacity)) or trace a shorter window.
  uint64_t dropped(uint32_t cpu) const;
  uint64_t total_dropped() const;

  // All held events across CPUs, sorted by timestamp. Caller must ensure no
  // concurrent writers (quiesce the sim first).
  std::vector<TraceEvent> Snapshot() const;

  // Chrome trace_event JSON ({"traceEvents": [...]}): span events map to
  // ph:"X" with dur, instants to ph:"i"; tid = simulated cpu. Loadable in
  // chrome://tracing or https://ui.perfetto.dev.
  std::string ChromeTraceJson() const;

  // Writes ChromeTraceJson() to `path`; returns false on I/O failure.
  bool ExportChromeTrace(const std::string& path) const;

 private:
  struct CpuRing {
    std::vector<TraceEvent> slots;
    std::atomic<uint64_t> next{0};
  };

  void RecordSlow(uint32_t cpu, EventType type, uint32_t obj, uint64_t arg, sim::Time ts,
                  sim::Duration dur, uint64_t opid);

  std::atomic<bool> enabled_{false};
  uint32_t capacity_ = 0;
  CpuRing rings_[kMaxCpus];
};

// Shorthand for the global ring.
inline TraceRing& Trace() { return TraceRing::Global(); }

// Process-unique id for a traced/metered object (channel, fan-out group,
// queue, proxy). The same id is embedded in the object's metric names
// ("chan/<id>/..."), so metrics and trace events cross-reference.
uint32_t NewObjectId();

}  // namespace dipc::obs

#endif  // DIPC_OBS_TRACE_H_
