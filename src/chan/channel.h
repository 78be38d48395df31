// Point-to-point channels: the 1x1 plane (chan/plane.h) between two
// dIPC-enabled processes, plus the fd-table endpoints and the duplex pair
// built from it.
//
// A Channel is a Plane with one producer and one receiver, both given as a
// single process: no credit lines (the free pool is the only flow control),
// and either endpoint's death breaks it, revoking every in-flight grant.
// Its calls are the plane's for endpoint 0, without the index.
#ifndef DIPC_CHAN_CHANNEL_H_
#define DIPC_CHAN_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "base/result.h"
#include "chan/plane.h"
#include "dipc/dipc.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::chan {

class Channel : public Plane {
 public:
  // Creates a unidirectional sender->receiver channel in `dipc`'s global
  // VAS and registers dead-peer teardown with the runtime.
  static base::Result<std::shared_ptr<Channel>> Create(core::Dipc& dipc, os::Process& sender,
                                                       os::Process& receiver,
                                                       PlaneConfig cfg = {});

  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, os::Deadline dl = {}) {
    return Plane::AcquireBuf(env, 0, dl);
  }
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t max_n,
                                                                os::Deadline dl = {}) {
    return Plane::AcquireBufBatch(env, 0, max_n, dl);
  }
  sim::Task<base::Status> Send(os::Env env, const SendBuf& buf, uint64_t len,
                               os::Deadline dl = {}) {
    return Plane::Send(env, 0, buf, len, dl);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items,
                                    os::Deadline dl = {}) {
    return Plane::SendBatch(env, 0, items, dl);
  }
  sim::Task<base::Status> Abandon(os::Env env, const SendBuf& buf) {
    return Plane::Abandon(env, 0, buf);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) {
    return Plane::AbandonBatch(env, 0, bufs);
  }
  sim::Task<base::Result<Msg>> Recv(os::Env env, os::Deadline dl = {}) {
    return Plane::Recv(env, 0, dl);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t max_n,
                                                      os::Deadline dl = {}) {
    return Plane::RecvBatch(env, 0, max_n, dl);
  }
  sim::Task<base::Status> Release(os::Env env, const Msg& msg) {
    return Plane::Release(env, 0, msg);
  }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) {
    return Plane::ReleaseBatch(env, 0, msgs);
  }
  void BindRecvCap(os::Thread& t, const Msg& msg) const { Plane::BindRecvCap(t, 0, msg); }

 private:
  using Plane::Plane;
};

// fd-table endpoints, so channel ends can be delegated between processes
// (SCM_RIGHTS-style or returned from a dIPC entry call; §5.2.2).
class SenderEndpoint : public os::KernelObject {
 public:
  explicit SenderEndpoint(std::shared_ptr<Channel> ch) : ch_(std::move(ch)) {}
  std::string_view type_name() const override { return "chan[send]"; }
  Channel& channel() { return *ch_; }
  std::shared_ptr<Channel> shared() { return ch_; }

  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, os::Deadline dl = {}) {
    return ch_->AcquireBuf(env, dl);
  }
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t max_n,
                                                                os::Deadline dl = {}) {
    return ch_->AcquireBufBatch(env, max_n, dl);
  }
  sim::Task<base::Status> Send(os::Env env, const SendBuf& buf, uint64_t len,
                               os::Deadline dl = {}) {
    return ch_->Send(env, buf, len, dl);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items,
                                    os::Deadline dl = {}) {
    return ch_->SendBatch(env, items, dl);
  }
  sim::Task<base::Status> Abandon(os::Env env, const SendBuf& buf) {
    return ch_->Abandon(env, buf);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) {
    return ch_->AbandonBatch(env, bufs);
  }
  void BindSendCap(os::Thread& t, const SendBuf& buf) const { ch_->BindSendCap(t, buf); }
  void Close() { ch_->Close(); }

 private:
  std::shared_ptr<Channel> ch_;
};

class ReceiverEndpoint : public os::KernelObject {
 public:
  explicit ReceiverEndpoint(std::shared_ptr<Channel> ch) : ch_(std::move(ch)) {}
  std::string_view type_name() const override { return "chan[recv]"; }
  Channel& channel() { return *ch_; }
  std::shared_ptr<Channel> shared() { return ch_; }

  sim::Task<base::Result<Msg>> Recv(os::Env env, os::Deadline dl = {}) {
    return ch_->Recv(env, dl);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t max_n,
                                                      os::Deadline dl = {}) {
    return ch_->RecvBatch(env, max_n, dl);
  }
  sim::Task<base::Status> Release(os::Env env, const Msg& msg) { return ch_->Release(env, msg); }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) {
    return ch_->ReleaseBatch(env, msgs);
  }
  void BindRecvCap(os::Thread& t, const Msg& msg) const { ch_->BindRecvCap(t, msg); }

 private:
  std::shared_ptr<Channel> ch_;
};

// ---- Duplex channels ----
//
// A DuplexChannel pairs a forward ring (a -> b, requests) with a reverse
// ring (b -> a, completions) sharing one domain-tag trio, giving
// request/response traffic a single object with two directional endpoints.
// Each side *sends* on its outbound ring and *receives* on its inbound one;
// the rings keep their independent slot pools, so a burst of requests can
// be in flight while completions stream back (the driver "doorbell +
// completion queue" shape of §7.3). Either peer's death breaks both rings
// through their own Dipc death hooks.
class DuplexEndpoint;

class DuplexChannel {
 public:
  // Creates the paired rings between `a` (the initiator/client side) and
  // `b` (the responder/server side). `fwd` configures a->b, `rev` b->a; by
  // default the reverse ring mirrors the forward one. The two rings share
  // one freshly allocated domain-tag trio unless `fwd` pins one.
  static base::Result<std::shared_ptr<DuplexChannel>> Create(core::Dipc& dipc, os::Process& a,
                                                             os::Process& b, PlaneConfig fwd = {},
                                                             std::optional<PlaneConfig> rev =
                                                                 std::nullopt);

  Channel& forward() { return *fwd_; }
  Channel& reverse() { return *rev_; }

  // Endpoint views: the a-side sends requests and receives completions; the
  // b-side is the mirror image.
  std::shared_ptr<DuplexEndpoint> a_end();
  std::shared_ptr<DuplexEndpoint> b_end();

  // Orderly shutdown of both directions.
  void Close() {
    fwd_->Close();
    rev_->Close();
  }

  base::ErrorCode broken() const {
    return fwd_->broken() != base::ErrorCode::kOk ? fwd_->broken() : rev_->broken();
  }

 private:
  DuplexChannel(std::shared_ptr<Channel> fwd, std::shared_ptr<Channel> rev)
      : fwd_(std::move(fwd)), rev_(std::move(rev)) {}

  std::shared_ptr<Channel> fwd_;
  std::shared_ptr<Channel> rev_;
};

// One side of a duplex channel: batched send ops go out on `out`, batched
// receive ops drain `in`. An fd-table object, so duplex ends delegate
// between processes exactly like the unidirectional endpoints (§5.2.2).
class DuplexEndpoint : public os::KernelObject {
 public:
  DuplexEndpoint(std::shared_ptr<Channel> out, std::shared_ptr<Channel> in)
      : out_(std::move(out)), in_(std::move(in)) {}
  std::string_view type_name() const override { return "chan[duplex]"; }
  Channel& out() { return *out_; }
  Channel& in() { return *in_; }

  // Outbound (this side's requests or completions).
  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, os::Deadline dl = {}) {
    return out_->AcquireBuf(env, dl);
  }
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t max_n,
                                                                os::Deadline dl = {}) {
    return out_->AcquireBufBatch(env, max_n, dl);
  }
  sim::Task<base::Status> Send(os::Env env, const SendBuf& buf, uint64_t len,
                               os::Deadline dl = {}) {
    return out_->Send(env, buf, len, dl);
  }
  sim::Task<base::Status> Abandon(os::Env env, const SendBuf& buf) {
    return out_->Abandon(env, buf);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) {
    return out_->AbandonBatch(env, bufs);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items,
                                    os::Deadline dl = {}) {
    return out_->SendBatch(env, items, dl);
  }
  void BindSendCap(os::Thread& t, const SendBuf& buf) const { out_->BindSendCap(t, buf); }

  // Inbound (the peer's traffic).
  sim::Task<base::Result<Msg>> Recv(os::Env env, os::Deadline dl = {}) {
    return in_->Recv(env, dl);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t max_n,
                                                      os::Deadline dl = {}) {
    return in_->RecvBatch(env, max_n, dl);
  }
  sim::Task<base::Status> Release(os::Env env, const Msg& msg) { return in_->Release(env, msg); }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) {
    return in_->ReleaseBatch(env, msgs);
  }
  void BindRecvCap(os::Thread& t, const Msg& msg) const { in_->BindRecvCap(t, msg); }

  void Close() { out_->Close(); }

 private:
  std::shared_ptr<Channel> out_;
  std::shared_ptr<Channel> in_;
};

inline std::shared_ptr<DuplexEndpoint> DuplexChannel::a_end() {
  return std::make_shared<DuplexEndpoint>(fwd_, rev_);
}
inline std::shared_ptr<DuplexEndpoint> DuplexChannel::b_end() {
  return std::make_shared<DuplexEndpoint>(rev_, fwd_);
}

}  // namespace dipc::chan

#endif  // DIPC_CHAN_CHANNEL_H_
