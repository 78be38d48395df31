#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace dipc::obs {

const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kAcquireBatch:
      return "acquire_batch";
    case EventType::kSendBatch:
      return "send_batch";
    case EventType::kRecvBatch:
      return "recv_batch";
    case EventType::kReleaseBatch:
      return "release_batch";
    case EventType::kFutexPark:
      return "futex_park";
    case EventType::kFutexWake:
      return "futex_wake";
    case EventType::kCreditStall:
      return "credit_stall";
    case EventType::kCapMint:
      return "cap_mint";
    case EventType::kCapRebind:
      return "cap_rebind";
    case EventType::kCapRevoke:
      return "cap_revoke";
    case EventType::kDeathSweep:
      return "death_sweep";
    case EventType::kProxyEnter:
      return "proxy_enter";
    case EventType::kProxyExit:
      return "proxy_exit";
    case EventType::kFaultInjected:
      return "fault_injected";
    case EventType::kTimeout:
      return "timeout";
    case EventType::kFabricDispatch:
      return "fabric_dispatch";
    case EventType::kReqAcquire:
      return "req_acquire";
    case EventType::kReqSend:
      return "req_send";
    case EventType::kWorkerRecv:
      return "worker_recv";
    case EventType::kHandler:
      return "handler";
    case EventType::kRespSend:
      return "resp_send";
    case EventType::kCompletionDispatch:
      return "completion_dispatch";
    case EventType::kSchedMigrate:
      return "sched_migrate";
    case EventType::kRunqDepth:
      return "runq_depth";
    case EventType::kFutexQDepth:
      return "futexq_depth";
  }
  return "unknown";
}

TraceRing& TraceRing::Global() {
  static TraceRing* ring = new TraceRing();
  return *ring;
}

uint32_t NewObjectId() {
  static std::atomic<uint32_t> next{1};
  // relaxed: unique-id allocation needs atomicity only; ids carry no
  // happens-before obligation to any other memory.
  return next.fetch_add(1, std::memory_order_relaxed);
}

#ifndef DIPC_OBS_OFF

void TraceRing::Enable(uint32_t capacity_per_cpu) {
  if (capacity_per_cpu == 0) {
    capacity_per_cpu = 1;
  }
  if (capacity_per_cpu != capacity_) {
    capacity_ = capacity_per_cpu;
    for (auto& r : rings_) {
      r.slots.assign(capacity_, TraceEvent{});
      // relaxed: setup-time reset; no recorder runs concurrently with
      // Enable (callers toggle tracing between, not during, workloads).
      r.next.store(0, std::memory_order_relaxed);
    }
  } else {
    Clear();
  }
  // relaxed: recorders poll this flag; a stale read costs or saves one
  // event at the toggle edge, it cannot tear or reorder recorded data.
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRing::Disable() {
  // relaxed: same flag-poll contract as Enable.
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRing::RecordSlow(uint32_t cpu, EventType type, uint32_t obj, uint64_t arg,
                           sim::Time ts, sim::Duration dur, uint64_t opid) {
  CpuRing& r = rings_[cpu % kMaxCpus];
  // relaxed: per-CPU slot claim; the ring is single-writer per CPU in the
  // simulation and readers (Snapshot) tolerate torn-in-flight tail slots.
  uint64_t i = r.next.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& e = r.slots[i % capacity_];
  e.ts_ps = ts.picos();
  e.dur_ps = dur.picos();
  e.arg = arg;
  e.opid = opid;
  e.obj = obj;
  e.cpu = cpu;
  e.type = type;
}

void TraceRing::Clear() {
  for (auto& r : rings_) {
    // relaxed: reset between measurement windows, not during recording.
    r.next.store(0, std::memory_order_relaxed);
  }
}

uint64_t TraceRing::recorded(uint32_t cpu) const {
  // relaxed: statistics read; a count one event stale is still a valid
  // answer and no payload is read through it.
  return rings_[cpu % kMaxCpus].next.load(std::memory_order_relaxed);
}

uint64_t TraceRing::held(uint32_t cpu) const {
  return std::min<uint64_t>(recorded(cpu), capacity_);
}

uint64_t TraceRing::dropped(uint32_t cpu) const {
  uint64_t n = recorded(cpu);
  return n > capacity_ ? n - capacity_ : 0;
}

uint64_t TraceRing::total_dropped() const {
  uint64_t total = 0;
  for (uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) {
    total += dropped(cpu);
  }
  return total;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::vector<TraceEvent> out;
  if (capacity_ == 0) {
    return out;
  }
  for (const auto& r : rings_) {
    // relaxed: snapshots run quiesced (after Disable or between windows);
    // during recording the tail slot may be mid-write either way.
    uint64_t n = r.next.load(std::memory_order_relaxed);
    uint64_t held = std::min<uint64_t>(n, capacity_);
    // Oldest surviving event sits at index n - held in the logical stream.
    for (uint64_t k = n - held; k < n; ++k) {
      out.push_back(r.slots[k % capacity_]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ps < b.ts_ps; });
  return out;
}

#else  // DIPC_OBS_OFF

void TraceRing::Enable(uint32_t) {}
void TraceRing::Disable() {}
void TraceRing::RecordSlow(uint32_t, EventType, uint32_t, uint64_t, sim::Time, sim::Duration,
                           uint64_t) {}
void TraceRing::Clear() {}
uint64_t TraceRing::recorded(uint32_t) const { return 0; }
uint64_t TraceRing::held(uint32_t) const { return 0; }
uint64_t TraceRing::dropped(uint32_t) const { return 0; }
uint64_t TraceRing::total_dropped() const { return 0; }
std::vector<TraceEvent> TraceRing::Snapshot() const { return {}; }

#endif  // DIPC_OBS_OFF

std::string TraceRing::ChromeTraceJson() const {
  // ts/dur are microseconds in the trace_event format; emit picosecond
  // precision as fractional microseconds. pid 0 is the whole simulation,
  // tid = simulated cpu.
  std::string out = "{\"traceEvents\": [\n";
  out +=
      "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"dipc-sim\"}}";
  std::vector<TraceEvent> events = Snapshot();
  char buf[320];
  for (const TraceEvent& e : events) {
    double ts_us = static_cast<double>(e.ts_ps) / 1e6;
    if (e.dur_ps > 0) {
      double dur_us = static_cast<double>(e.dur_ps) / 1e6;
      // Span events render with their *start* time in chrome://tracing;
      // events are recorded at completion, so shift back by dur.
      snprintf(buf, sizeof(buf),
               ",\n{\"ph\": \"X\", \"pid\": 0, \"tid\": %u, \"name\": \"%s\", "
               "\"ts\": %.6f, \"dur\": %.6f, "
               "\"args\": {\"obj\": %u, \"arg\": %llu, \"opid\": %llu}}",
               e.cpu, EventTypeName(e.type), ts_us - dur_us, dur_us, e.obj,
               static_cast<unsigned long long>(e.arg),
               static_cast<unsigned long long>(e.opid));
    } else {
      snprintf(buf, sizeof(buf),
               ",\n{\"ph\": \"i\", \"pid\": 0, \"tid\": %u, \"name\": \"%s\", "
               "\"ts\": %.6f, \"s\": \"t\", "
               "\"args\": {\"obj\": %u, \"arg\": %llu, \"opid\": %llu}}",
               e.cpu, EventTypeName(e.type), ts_us, e.obj,
               static_cast<unsigned long long>(e.arg),
               static_cast<unsigned long long>(e.opid));
    }
    out += buf;
  }
  char tail[96];
  snprintf(tail, sizeof(tail), "\n], \"displayTimeUnit\": \"ns\", \"droppedEvents\": %llu}\n",
           static_cast<unsigned long long>(total_dropped()));
  out += tail;
  return out;
}

bool TraceRing::ExportChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << ChromeTraceJson();
  return static_cast<bool>(f);
}

}  // namespace dipc::obs
