// Capability-granted zero-copy message planes on the dIPC global VAS.
//
// A Plane moves bulk payloads from P producer endpoints to R receiver
// endpoints without copying and without per-message kernel crossings, by
// transferring *ownership* of fixed message buffers instead of bytes (the
// paper's immutability-by-ownership design, §3/§5, applied to streaming
// IPC):
//
//   - Message buffers live in one *data domain* that no endpoint's APL can
//     reach. Payload access happens exclusively through CODOMs asynchronous
//     capabilities (§4.2) held in capability registers.
//   - Capabilities are minted by a trusted *runtime* domain (the only domain
//     with an APL grant over the data domain) — the same trusted-
//     intermediary pattern as dIPC's proxies, entered by a plain cross-domain
//     call at function-call cost.
//   - Send revokes the producer's write capability (one revocation-counter
//     bump: immediate, unprivileged) and publishes a *read-only* capability
//     per receiver through a capability-storage descriptor slot. The payload
//     never moves; cost is O(1) in message size.
//   - Control flow is one free-buffer MpmcQueue plus one descriptor FIFO per
//     receiver, in a control segment every endpoint domain can access;
//     blocking uses the futex path, so an idle endpoint costs nothing.
//
// Epoch-cached grants: every (endpoint, buffer) capability is minted through
// the runtime's APL exactly once and then cached as a template. Ownership
// rotates by revocation-counter arithmetic alone: Send/Release bump the
// loser's counter (revoke) and the runtime re-snapshots the template when
// the buffer changes hands again (Codoms::CapRebind). Template counters are
// tagged with the endpoint's RevocationTable owner key, so one endpoint's
// grants are revocable — and auditable — as a set.
//
// Batching: the *Batch calls move N messages per call, paying one control-
// queue operation per queue touched, one cost-accounting charge, one runtime
// entry and at most one futex wake per batch.
//
// Free-slot caches (every shape). The free pool's line is written by
// whoever gave a slot back, and a reused buffer's lines sit in the caches of
// the CPU that last wrote it. So past the pool's ring its page holds one
// cache of free slots per CPU and one shared cache, each a count word and a
// stack of slot indices on lines of their own. A slot released or abandoned
// on the CPU that acquired it goes back to that CPU's cache, where its
// buffer's lines already are; any other slot goes to the pool. The
// acquiring CPU is kept with the slot's owner (on hardware it rides in
// spare bits of the descriptor's length field), so this check costs no
// access. An acquire on CPU c takes from c's cache first, then from the
// shared cache. Only when both are empty does it pop the pool, taking every
// free slot there in one pop and keeping the extras in the shared cache, so
// a lockstep round trip reads the pool's line once per pool-full of
// acquires. With the pool empty too, it takes from other CPUs' caches (a
// cross-CPU take, reading each one's count word on the way), and it parks
// on the pool only when every cache is empty, so AcquireBufBatch still
// returns every free slot up to `max_n` and blocks only when none is free.
// The extras go to the shared cache, not c's: they came back on other CPUs
// anyway, and a producer thread that moved on would strand them in c's
// cache, because a duplex round trip's peer frees a slot every trip and the
// pool never runs dry (perfbench fabric_rpc's backend rings popped the pool
// on 73% of acquires that way, against 25%). Every take and deposit is a
// timed user access (the indices and the count word) charged with the
// call's runtime entry, so a cross-CPU take pays the line transfers of the
// cache it reads. Deposit rule: while a producer thread is inside the pool
// pop, every slot goes to the pool, which wakes that thread. So no acquirer
// parks on the empty pool while a cache holds a slot (each deposit checks
// it). The caches change no semantics: Close leaves cached slots acquirable
// as it leaves the pool's (and a release after Close retires its slot, as
// the closed pool does), and Abort, a kill and Rebind* leave them where
// they leave the pool's. A fabric call's serve thread runs on its caller's
// CPU (the FUTEX_SWAP), so request and response slots return to the CPU
// whose L1 and L2 hold them. A stream that acquires on one CPU and releases
// on another refills from the pool through the shared cache.
//
// Shapes and policies. Each side is given either as one process or as a
// group of processes, and that alone sets its policy (at most one side is a
// group):
//
//   - A single side has no credit line; the free pool is its only flow
//     control. Its death breaks the plane: every in-flight grant is revoked
//     and every blocked call wakes with kCalleeFailed (KCS-style unwinding
//     surfaced as an error code, §5.2.1). Abort runs the same unwind on
//     demand with its own code, so one teardown serves a dead peer and a
//     shutdown (ServiceFabric::Close aborts with kBrokenChannel). Channel
//     (channel.h) is the 1x1 plane.
//   - A group side gets one credit line per endpoint, as deep as the pool
//     (`slots`). A receiver's line is consumed at delivery and gates both
//     acquire and send, which wait for the slowest live receiver; a
//     producer's line is reserved at acquire. A group endpoint's death
//     excises it alone — a dead receiver's deliveries are dropped and its
//     FIFO failed, a dead producer's unsent slots recycled while its
//     published messages stay deliverable — and Rebind{Receiver,Producer}
//     splices a fresh process into the slot.
//
// Every slot is in the pool, held by a producer, or on its way to and back
// from its receivers, so the pool and every FIFO have room for every slot
// and no push onto them waits (MpmcQueue aborts on one that would).
//
// Sends route to one receiver (SendTo: sharding) or to every live receiver
// (Send: broadcast; a slot returns to the pool when its last holder
// releases it). Ownership contract on failure, for every send: while
// broken() == kOk the producer still owns every buffer of a failed send and
// may retry it or hand it back with Abandon. Once broken() != kOk teardown
// has swept the grants and the buffers are gone with the plane.
//
// Wake-and-park: a send given a `defer` slot hands back the one parked
// receiver it would have woken (os::DeferredWake) instead of waking it, and
// a Recv given that wake switches its CPU straight to the receiver when it
// parks (MpmcQueue's FUTEX_SWAP); the caller consumes it in any case, e.g.
// by passing it to its next park (Recv, os::Semaphore::WaitUntil) or
// issuing it (os::FutexWake).
#ifndef DIPC_CHAN_PLANE_H_
#define DIPC_CHAN_PLANE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/result.h"
#include "chan/mpmc_queue.h"
#include "chan/segment.h"
#include "codoms/capability.h"
#include "dipc/dipc.h"
#include "obs/metrics.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::chan {

struct PlaneConfig {
  uint32_t slots = 8;            // in-flight message buffers (shared pool)
  uint64_t buf_bytes = 1 << 16;  // payload capacity per buffer
  // Optional pre-allocated domain-tag trio, shared between planes that
  // express the same trust relationship (e.g. many per-tenant planes between
  // the same two tiers). Sharing keeps the per-CPU APL cache (32 entries,
  // §4.3) from thrashing when a workload opens hundreds of planes.
  // kInvalidDomainTag (the default) allocates a fresh trio.
  hw::DomainTag ctrl_tag = hw::kInvalidDomainTag;
  hw::DomainTag data_tag = hw::kInvalidDomainTag;
  hw::DomainTag rt_tag = hw::kInvalidDomainTag;
};

// A buffer the producer owns (write capability in register kSenderCapReg).
// `tctx` is the packed request trace context (chan/desc.h PackTraceWord):
// nonzero values ride the descriptor's side-band word to the receiver,
// correlating the hop with the originating fabric call. 0 = untraced.
struct SendBuf {
  hw::VirtAddr va = 0;
  uint64_t capacity = 0;
  uint32_t index = 0;
  uint64_t tctx = 0;
};

// A buffer plus its payload length, for SendBatch.
struct SendItem {
  SendBuf buf;
  uint64_t len = 0;
};

// A received message (read capability in register kReceiverCapReg). `tctx`
// carries the sender's packed trace context, 0 when untraced.
struct Msg {
  hw::VirtAddr va = 0;
  uint64_t len = 0;
  uint32_t index = 0;
  uint64_t tctx = 0;
};

class Plane : public std::enable_shared_from_this<Plane> {
 public:
  // Capability-register convention for ownership caps.
  static constexpr uint32_t kSenderCapReg = 6;
  static constexpr uint32_t kReceiverCapReg = 7;

  // One producer feeding a group of receivers (fan-out).
  static base::Result<std::shared_ptr<Plane>> Create(core::Dipc& dipc, os::Process& producer,
                                                     std::span<os::Process* const> receivers,
                                                     PlaneConfig cfg = {});
  // A group of producers feeding one receiver (fan-in).
  static base::Result<std::shared_ptr<Plane>> Create(core::Dipc& dipc,
                                                     std::span<os::Process* const> producers,
                                                     os::Process& receiver, PlaneConfig cfg = {});

  // ---- Producer side (every call names the producer endpoint) ----

  // Blocks until admitted (group receivers: one credit of every live
  // receiver's line; group producers: one credit of p's line), then takes
  // up to `max_n` free buffers (the caller's CPU cache first, see above),
  // blocking only while none is free, and grants p's write capabilities
  // (epoch rebind on the warm path). The write capability of the *last*
  // buffer is loaded into kSenderCapReg; BindSendCap switches between the
  // batch's buffers. A finite `deadline` bounds every wait with kTimedOut
  // (no grants held).
  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, uint32_t p, os::Deadline deadline = {});
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t p,
                                                                uint32_t max_n,
                                                                os::Deadline deadline = {});

  // Broadcast publish to every live receiver: grants each its own read-only
  // view, ends p's write ownership of every buffer, then pushes the
  // descriptors (one queue op and at most one futex wake per receiver).
  // Fails with kCalleeFailed when no live receiver remains.
  sim::Task<base::Status> Send(os::Env env, uint32_t p, const SendBuf& buf, uint64_t len,
                               os::Deadline deadline = {}, os::DeferredWake* defer = nullptr);
  sim::Task<base::Status> SendBatch(os::Env env, uint32_t p, std::span<const SendItem> items,
                                    os::Deadline deadline = {},
                                    os::DeferredWake* defer = nullptr);

  // Sharded publish to receiver `r` alone (waits for r's credit; fails with
  // kCalleeFailed if r died — reshard via NextShard()).
  sim::Task<base::Status> SendTo(os::Env env, uint32_t p, const SendBuf& buf, uint64_t len,
                                 uint32_t r, os::Deadline deadline = {},
                                 os::DeferredWake* defer = nullptr);
  sim::Task<base::Status> SendToBatch(os::Env env, uint32_t p, std::span<const SendItem> items,
                                      uint32_t r, os::Deadline deadline = {},
                                      os::DeferredWake* defer = nullptr);

  // Gives up acquired-but-unsent buffers: revokes the write grants, returns
  // the slots to the caller's CPU cache or the pool (see above) and a group
  // producer's credits to its line. Dropping a SendBuf on the floor instead
  // leaks its slot and a live write capability.
  sim::Task<base::Status> Abandon(os::Env env, uint32_t p, const SendBuf& buf);
  sim::Task<base::Status> AbandonBatch(os::Env env, uint32_t p, std::span<const SendBuf> bufs);

  // Round-robin over live receivers (sharding helper): each call returns the
  // next live receiver after the previous pick. ServiceFabric starts its
  // least-loaded scan there, so it gives the scan order, and the pick
  // itself when every worker is idle. Returns receiver_count() if none is
  // alive.
  uint32_t NextShard();

  // Re-loads `buf`'s write capability into kSenderCapReg (a register move —
  // no cost, no blocking).
  void BindSendCap(os::Thread& t, const SendBuf& buf) const;

  // Orderly shutdown: receivers drain in-flight messages, then fail with
  // kBrokenChannel.
  void Close();

  // Shutdown by the dead-peer unwind: revokes every in-flight grant (queued,
  // received and not yet released, acquired and not yet sent) and every
  // endpoint's owner key, and fails every queue, so each parked call and
  // each later one returns `code`. A plane already broken keeps its code,
  // so a dead peer's kCalleeFailed stays.
  void Abort(base::ErrorCode code);

  // ---- Receiver side (every call names the receiver endpoint) ----

  // Blocks for the first message, then drains up to `max_n` without blocking
  // again. The *first* message's capability lands in kReceiverCapReg;
  // BindRecvCap walks the batch. Fails with kBrokenChannel after Close()
  // drains, with broken() once the plane broke (a dead peer's
  // kCalleeFailed, or Abort's code), or kCalleeFailed once `r` was excised.
  sim::Task<base::Result<Msg>> Recv(os::Env env, uint32_t r, os::Deadline deadline = {},
                                    os::DeferredWake wake = {});
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t r, uint32_t max_n,
                                                      os::Deadline deadline = {},
                                                      os::DeferredWake wake = {});

  // Revokes r's read grants and returns r's credits (or the sending
  // producer's) and, once the last holder released them, the slots.
  sim::Task<base::Status> Release(os::Env env, uint32_t r, const Msg& msg);
  sim::Task<base::Status> ReleaseBatch(os::Env env, uint32_t r, std::span<const Msg> msgs);

  void BindRecvCap(os::Thread& t, uint32_t r, const Msg& msg) const;

  // ---- Group sides ----

  // Splices `proc` into an excised endpoint of a group side (the
  // supervisor's respawn path): a fresh owner key, cleared templates, a full
  // credit line, APL grants and, for a receiver, a fresh descriptor FIFO.
  // Late releases of the dead incarnation's messages refund nobody. Parked
  // producers re-check their gates.
  base::Status RebindReceiver(uint32_t r, os::Process& proc);
  base::Status RebindProducer(uint32_t p, os::Process& proc);

  // ---- Introspection ----

  uint32_t producer_count() const { return static_cast<uint32_t>(tx_.size()); }
  uint32_t receiver_count() const { return static_cast<uint32_t>(rx_.size()); }
  uint32_t live_receiver_count() const;
  bool producer_alive(uint32_t p) const { return p < tx_.size() && tx_[p].alive; }
  bool receiver_alive(uint32_t r) const { return r < rx_.size() && rx_[r].alive; }
  // The group side's credit line (0 on a plane without a group side) and
  // endpoint i's balance on it.
  uint32_t credit_line() const { return credit_line_; }
  uint64_t credits(uint32_t i) const { return (tx_group_ ? tx_ : rx_)[i].credits; }
  // RevocationTable owner keys of an endpoint's grants (test support).
  uint64_t producer_owner(uint32_t p) const { return tx_[p].owner; }
  uint64_t receiver_owner(uint32_t r) const { return rx_[r].owner; }
  const PlaneConfig& config() const { return cfg_; }
  base::ErrorCode broken() const { return broken_; }
  uint64_t sends() const { return sends_; }            // messages published
  uint64_t deliveries() const { return deliveries_; }  // per-receiver deliveries
  uint64_t recvs() const { return recvs_; }
  // Where the free slots are (test support): the pool's, every cache's (the
  // shared one included), CPU `cpu`'s cache's, and the acquires parked on
  // the empty pool.
  uint64_t pool_free() const { return free_->size(); }
  uint32_t cached() const { return cached_; }
  uint32_t cached(hw::CpuId cpu) const { return cache_n_[CpuCache(cpu)]; }
  uint64_t pool_parked() const { return free_->parked_pops(); }
  // Descriptors published to receiver r and not yet received.
  uint64_t queued(uint32_t r) const { return rx_[r].desc->size(); }
  // Full capability mints (one per endpoint and slot once warm).
  uint64_t cold_mints() const { return cold_mints_; }
  uint64_t blocked_on_credit() const { return blocked_on_credit_; }
  // Credit waits that spun: ended by a credit return, or fell through to a
  // park (os/futex.h's rule).
  uint64_t credit_spin_hits() const { return credit_spins_.hits; }
  uint64_t credit_spin_misses() const { return credit_spins_.misses; }
  // In-flight grants whose epoch is still live — 0 after teardown means the
  // crash unwound every grant (test support).
  uint64_t LiveGrantCount() const;
  hw::VirtAddr buf_va(uint32_t index) const { return data_seg_.base + index * buf_stride_; }
  // Id under which this plane's metrics ("chan/<id>/..." for 1x1,
  // "fanout/<id>/..." with group receivers, "fanin/<id>/..." with group
  // producers) and trace events are attributed.
  uint32_t obs_id() const { return obs_id_; }

 protected:
  Plane(core::Dipc& dipc, PlaneConfig cfg) : kernel_(dipc.kernel()), cfg_(cfg) {}

  // The factories' shared body: validates the shape, grants the APLs, maps
  // the segments and queues, registers metrics and dead-peer teardown.
  base::Status Init(core::Dipc& dipc, std::span<os::Process* const> producers, bool tx_group,
                    std::span<os::Process* const> receivers, bool rx_group);

 private:
  struct Endpoint {
    os::Process* proc = nullptr;
    bool alive = true;
    uint64_t owner = 0;    // RevocationTable owner key of this incarnation
    uint32_t line = 0;     // credit line; 0 on a single side
    uint64_t credits = 0;  // balance on `line`
    // Per-slot capability templates (write for producers, read for
    // receivers), minted once and re-snapshotted on every rotation.
    std::vector<std::optional<codoms::Capability>> tmpl;
    // Receivers: in-flight read grants per slot, and the descriptor FIFO.
    std::vector<std::optional<codoms::Capability>> held;
    std::unique_ptr<MpmcQueue> desc;
    // Exported only on a group side (see RegisterMetrics).
    obs::Counter* m_msgs = nullptr;  // receivers: deliveries, producers: sends
    obs::Gauge* m_credits = nullptr;
    obs::Histogram* m_stall_ns = nullptr;
  };

  // A credit gate: producer `idx`'s own line (tx), receiver `idx`'s line, or
  // — idx == receiver_count() — every live receiver's line. `gen` pins a
  // producer gate to the caller's incarnation.
  struct Gate {
    bool tx = false;
    uint32_t idx = 0;
    uint64_t need = 0;
    uint64_t gen = 0;
  };

  void RegisterMetrics();
  std::unique_ptr<MpmcQueue> NewDescQueue(uint32_t r);
  // Applies `f` to every control queue in creation order, which is also the
  // order Close and teardown wake their waiters in.
  template <typename F>
  void ForEachQueue(F f);

  bool GateFailed(const Gate& g) const;
  bool GateClosed(const Gate& g) const;
  bool Waiting(const Gate& g) const;
  // Waits (futex path) until the gate opens, the plane closes or breaks, or
  // the gate can never open (its endpoint was excised, or no receiver is
  // left). Returns the error to surface, or kOk once admitted; kTimedOut
  // when a finite deadline expires with the gate still closed.
  sim::Task<base::ErrorCode> AwaitCredit(os::Env env, Gate g, os::Deadline deadline);
  // Moves `delta` credits on `e`'s line and mirrors the gauge; a no-op for
  // an endpoint without a line.
  void AddCredits(Endpoint& e, int64_t delta);

  // Grants endpoint `e` ownership of slot `index` with `rights`, inside the
  // runtime domain: a full CapFromApl mint on first use, an epoch rebind of
  // the cached template afterwards. Accumulates the capability cost only —
  // callers charge the runtime entry once per batch.
  base::Result<codoms::Capability> GrantCap(os::Env env, Endpoint& e, uint32_t index,
                                            codoms::Perm rights, sim::Duration* cost);
  // Fills `out` with free slots: the caller's CPU cache first, then the
  // shared cache, then every free slot of the pool (keeping the extras in
  // the shared cache), then other CPUs' caches; parks on the pool only when
  // every cache is empty (see the header). Adds the caches' accesses to
  // `*cost`.
  sim::Task<base::Result<uint64_t>> TakeFree(os::Env env, std::span<uint64_t> out,
                                             os::Deadline deadline, sim::Duration* cost);
  // Takes slots for `out` from other CPUs' caches, in CPU order from the
  // caller's, probing each count word on the way (timed, added to `*cost`).
  // Returns how many.
  base::Result<uint64_t> TakeCrossCpu(os::Env env, std::span<uint64_t> out, sim::Duration* cost);
  // Moves all of `slots` onto cache `cache`'s stack (deposit), or as many as
  // it holds, up to `slots.size()`, off it (take), with the count word, as
  // timed user accesses added to `*cost`. Returns how many moved.
  // Synchronous: the count changes before any suspension.
  base::Result<uint64_t> MoveCached(os::Env env, uint32_t cache, std::span<uint64_t> slots,
                                    bool deposit, sim::Duration* cost);
  // Deposits the slots of `freed` that the caller's CPU acquired into its
  // cache, unless the deposit rule sends them to the pool, and moves them to
  // the front of `freed`. Returns how many; the rest are for the pool.
  uint64_t KeepOnCpu(os::Env env, std::span<uint64_t> freed, sim::Duration* cost);
  // Shared body of every send; `target` == receiver_count() broadcasts.
  sim::Task<base::Status> SendCommon(os::Env env, uint32_t p, std::span<const SendItem> items,
                                     uint32_t target, os::Deadline deadline,
                                     os::DeferredWake* defer);
  // Revokes r's grant over `index` and, when r was its last holder and no
  // producer still holds it, recycles the slot (into `freed`) and refunds
  // the sending producer's credit — unless that incarnation is gone.
  void DropDelivery(uint32_t r, uint32_t index, std::vector<uint64_t>* freed);
  bool Deliverable(uint32_t index) const;

  // Dead-peer teardown (fired via the core::Dipc death hook). Break is the
  // unwind that a single side's death and Abort share.
  void OnProcessDeath(os::Process& proc);
  void Break(base::ErrorCode code);
  void Excise(bool tx, uint32_t idx);
  base::Status Rebind(bool tx, uint32_t idx, os::Process& proc);

  hw::VirtAddr CapSlotVa(uint32_t r, uint32_t index) const {
    return cap_seg_.base + (uint64_t{r} * cfg_.slots + index) * codoms::kCapMemBytes;
  }

  os::Kernel& kernel_;
  PlaneConfig cfg_;
  bool tx_group_ = false;
  bool rx_group_ = false;
  os::Process* home_ = nullptr;  // maps the segments and queues
  uint64_t buf_stride_ = 0;      // page-rounded buf_bytes
  uint32_t credit_line_ = 0;
  hw::DomainTag ctrl_tag_ = hw::kInvalidDomainTag;
  hw::DomainTag data_tag_ = hw::kInvalidDomainTag;
  hw::DomainTag rt_tag_ = hw::kInvalidDomainTag;
  Segment data_seg_;
  Segment cap_seg_;  // receivers x slots capability-storage slots
  std::unique_ptr<MpmcQueue> free_;
  // The caches past the pool's ring, one every cache_stride_ bytes from
  // cache_va_: the shared cache, then CPU c's at CpuCache(c). Each is a count
  // word then a stack of slot indices, cache_n_[cache] of them live; cached_
  // over every cache.
  static constexpr uint32_t kSharedCache = 0;
  static uint32_t CpuCache(hw::CpuId cpu) { return cpu + 1; }
  hw::VirtAddr cache_va_ = 0;
  uint64_t cache_stride_ = 0;
  std::vector<uint32_t> cache_n_;
  uint32_t cached_ = 0;
  uint32_t pool_poppers_ = 0;  // producer threads inside a pool pop
  // Failed FIFOs parked by RebindReceiver: threads blocked in a retired
  // queue may resume after the swap, so the queue must outlive the rebind.
  std::vector<std::unique_ptr<MpmcQueue>> retired_desc_;
  std::vector<Endpoint> tx_;
  std::vector<Endpoint> rx_;
  // Per slot: the producer's in-flight write grant, which producer holds or
  // sent it and under which incarnation (guards credit refunds across
  // rebinds), the CPU that acquired it, how many receivers still have to
  // release it, and the trace side-band word (stamped at publish, read at
  // receive; ownership moves with the descriptor, so one writer per slot at
  // any instant).
  std::vector<std::optional<codoms::Capability>> wcaps_;
  std::vector<uint32_t> slot_owner_;
  std::vector<uint64_t> slot_gen_;
  std::vector<hw::CpuId> slot_cpu_;
  std::vector<uint32_t> pending_;
  std::vector<uint64_t> tctx_;
  os::WaitQueue credit_waiters_;
  os::SpinCounts credit_spins_;
  bool closed_ = false;
  base::ErrorCode broken_ = base::ErrorCode::kOk;
  uint32_t rr_next_ = 0;
  uint64_t sends_ = 0;
  uint64_t deliveries_ = 0;
  uint64_t recvs_ = 0;
  uint64_t cold_mints_ = 0;
  uint64_t blocked_on_credit_ = 0;
  // Registry handles, registered once in Init; the getters above stay the
  // source of truth for tests. Each shape exports its own set; the handles
  // of metrics a shape does not export record into an unregistered sink.
  std::string prefix_;
  uint32_t obs_id_ = 0;
  obs::MetricSet metrics_;
  obs::Counter* m_sends_ = nullptr;
  obs::Counter* m_recvs_ = nullptr;
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_acquires_ = nullptr;
  obs::Counter* m_pool_pops_ = nullptr;
  obs::Counter* m_cross_cpu_takes_ = nullptr;
  obs::Counter* m_releases_ = nullptr;
  obs::Counter* m_cold_mints_ = nullptr;
  obs::Counter* m_rebinds_ = nullptr;
  obs::Counter* m_revokes_ = nullptr;
  obs::Counter* m_blocked_on_credit_ = nullptr;
  obs::Histogram* m_send_batch_ = nullptr;
  obs::Histogram* m_recv_batch_ = nullptr;
  obs::Histogram* m_group_stall_ns_ = nullptr;  // broadcast-gate stalls
};

}  // namespace dipc::chan

#endif  // DIPC_CHAN_PLANE_H_
