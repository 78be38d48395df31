#include "chan/channel.h"

namespace dipc::chan {

base::Result<std::shared_ptr<Channel>> Channel::Create(core::Dipc& dipc, os::Process& sender,
                                                       os::Process& receiver, PlaneConfig cfg) {
  auto ch = std::shared_ptr<Channel>(new Channel(dipc, cfg));
  os::Process* const producers[] = {&sender};
  os::Process* const receivers[] = {&receiver};
  base::Status st = ch->Init(dipc, producers, false, receivers, false);
  if (!st.ok()) {
    return st.code();
  }
  return ch;
}

base::Result<std::shared_ptr<DuplexChannel>> DuplexChannel::Create(
    core::Dipc& dipc, os::Process& a, os::Process& b, PlaneConfig fwd,
    std::optional<PlaneConfig> rev) {
  // Both directions express the same trust relationship, so they share one
  // domain-tag trio (keeps the per-CPU APL cache warm; see PlaneConfig).
  // The trio is atomic: either the caller pins all three tags or none — a
  // partial trio would silently give the two rings different data/rt tags
  // and defeat the sharing the API promises.
  const int pinned = (fwd.ctrl_tag != hw::kInvalidDomainTag ? 1 : 0) +
                     (fwd.data_tag != hw::kInvalidDomainTag ? 1 : 0) +
                     (fwd.rt_tag != hw::kInvalidDomainTag ? 1 : 0);
  if (pinned != 0 && pinned != 3) {
    return base::ErrorCode::kInvalidArgument;
  }
  if (pinned == 0) {
    codoms::AplTable& apl = dipc.kernel().codoms().apl_table();
    fwd.ctrl_tag = apl.AllocateTag();
    fwd.data_tag = apl.AllocateTag();
    fwd.rt_tag = apl.AllocateTag();
  }
  PlaneConfig rcfg = rev.value_or(fwd);
  rcfg.ctrl_tag = fwd.ctrl_tag;
  rcfg.data_tag = fwd.data_tag;
  rcfg.rt_tag = fwd.rt_tag;
  auto f = Channel::Create(dipc, a, b, fwd);
  if (!f.ok()) {
    return f.code();
  }
  auto r = Channel::Create(dipc, b, a, rcfg);
  if (!r.ok()) {
    return r.code();
  }
  return std::shared_ptr<DuplexChannel>(new DuplexChannel(f.value(), r.value()));
}

}  // namespace dipc::chan
