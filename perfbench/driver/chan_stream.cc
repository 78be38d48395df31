// chan_stream: closed loop limited by backpressure. One producer and one
// consumer on different simulated CPUs stream over one Channel. Each publish
// takes a seeded batch size from {1, 2, 4, 8, 16, 32} (batch 1 uses the
// single-message calls); payloads are 64-256 B; the consumer drains with
// RecvBatch of up to 32. An op is one message, timed from the return of the
// acquire that produced its buffer to the return of the receive that
// delivered it.
#include <array>
#include <cstring>

#include "bench.h"
#include "chan/channel.h"
#include "sim/random.h"

namespace perfbench {
namespace {

constexpr uint32_t kSlots = 64;
constexpr uint64_t kMinPayload = 64;
constexpr uint64_t kMaxPayload = 256;
constexpr uint32_t kMaxRecv = 32;
constexpr std::array<uint32_t, 6> kBatches = {1, 2, 4, 8, 16, 32};
// Sixty-four slot rotations: every slot template is minted and the payload
// lines and the producer/consumer rhythm are in steady state before the
// window opens.
constexpr int64_t kWarmMsgs = 64 * kSlots;

// Header the producer writes into every payload and the consumer checks.
struct Header {
  uint64_t seq;
  uint64_t len;
};

std::span<const std::byte> Bytes(const Header& h) { return std::as_bytes(std::span(&h, 1)); }

}  // namespace

double RunChanStream(const Params& params, Fields& out) {
  const auto host_start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
  };
  double setup_s = 0;
  const int64_t total = kWarmMsgs + (params.measure ? params.ops : 0);
  sim::Rng rng(params.seed);
  std::vector<uint64_t> sizes(static_cast<size_t>(total));
  for (uint64_t& s : sizes) {
    s = rng.UniformInt(kMinPayload, kMaxPayload);
  }
  std::vector<uint32_t> batches(static_cast<size_t>(total));
  for (uint32_t& b : batches) {
    b = kBatches[rng.UniformInt(0, kBatches.size() - 1)];
  }

  World w(2);
  os::Process& prod = w.dipc.CreateDipcProcess("producer");
  os::Process& cons = w.dipc.CreateDipcProcess("consumer");
  auto created = chan::Channel::Create(w.dipc, prod, cons, {.slots = kSlots, .buf_bytes = kMaxPayload});
  DIPC_CHECK(created.ok());
  std::shared_ptr<chan::Channel> ch = created.value();

  std::vector<int64_t> acquired_ps(static_cast<size_t>(total), 0);
  std::vector<int64_t> lat;
  int64_t delivered = 0;
  int64_t measured_from = -1;
  int64_t bad = 0;
  Window win;

  w.kernel.Spawn(
      prod, "producer",
      [&](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        int64_t seq = 0;
        for (size_t pub = 0; seq < total; ++pub) {
          const uint64_t op = static_cast<uint64_t>(seq);
          const uint32_t want =
              static_cast<uint32_t>(std::min<int64_t>(batches[pub], total - seq));
          std::vector<chan::SendItem> items;
          int32_t s = Spans().Begin(SpanName::kChanAcquire, env, SpanLog::kNone, op);
          if (want == 1) {
            auto buf = co_await ch->AcquireBuf(env);
            Spans().End(s, env);
            if (!buf.ok()) {
              break;
            }
            items.push_back({buf.value(), sizes[static_cast<size_t>(seq)]});
          } else {
            auto bufs = co_await ch->AcquireBufBatch(env, want);
            Spans().End(s, env);
            if (!bufs.ok()) {
              break;
            }
            for (const chan::SendBuf& b : bufs.value()) {
              items.push_back({b, sizes[static_cast<size_t>(seq) + items.size()]});
            }
          }
          for (size_t j = 0; j < items.size(); ++j) {
            const int64_t m = seq + static_cast<int64_t>(j);
            acquired_ps[static_cast<size_t>(m)] = k.now().picos();
            ch->BindSendCap(*env.self, items[j].buf);
            Header h{static_cast<uint64_t>(m), items[j].len};
            if (!k.UserWrite(*env.self, items[j].buf.va, Bytes(h)).ok()) {
              ++bad;
            }
            s = Spans().Begin(SpanName::kHwTouch, env, SpanLog::kNone, static_cast<uint64_t>(m));
            (void)co_await k.TouchUser(env, items[j].buf.va, items[j].len, hw::AccessType::kWrite);
            Spans().End(s, env);
          }
          s = Spans().Begin(SpanName::kChanSend, env, SpanLog::kNone, op);
          base::Status sent = base::ErrorCode::kFault;
          if (want == 1) {
            sent = co_await ch->Send(env, items[0].buf, items[0].len);
          } else {
            sent = co_await ch->SendBatch(env, items);
          }
          Spans().End(s, env);
          if (!sent.ok()) {
            break;
          }
          seq += static_cast<int64_t>(items.size());
        }
        ch->Close();
      },
      /*pin_cpu=*/0);

  w.kernel.Spawn(
      cons, "consumer",
      [&](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        while (true) {
          if (params.measure && !win.open() && delivered >= kWarmMsgs) {
            setup_s = elapsed();
            measured_from = delivered;
            win.Open(w);
          }
          const uint64_t op = static_cast<uint64_t>(delivered);
          int32_t s = Spans().Begin(SpanName::kChanRecv, env, SpanLog::kNone, op);
          auto msgs = co_await ch->RecvBatch(env, kMaxRecv);
          Spans().End(s, env);
          if (!msgs.ok()) {
            if (msgs.code() != base::ErrorCode::kBrokenChannel) {
              ++bad;
            }
            break;
          }
          const int64_t now_ps = k.now().picos();
          for (const chan::Msg& m : msgs.value()) {
            ch->BindRecvCap(*env.self, m);
            Header h{};
            const bool read = k.UserRead(*env.self, m.va, std::as_writable_bytes(std::span(&h, 1))).ok();
            const bool in_range = delivered < total;
            const uint64_t want_len = in_range ? sizes[static_cast<size_t>(delivered)] : 0;
            if (!read || !in_range || h.seq != static_cast<uint64_t>(delivered) ||
                h.len != want_len || m.len != want_len) {
              ++bad;
            }
            s = Spans().Begin(SpanName::kHwTouch, env, SpanLog::kNone, static_cast<uint64_t>(delivered));
            (void)co_await k.TouchUser(env, m.va, m.len, hw::AccessType::kRead);
            Spans().End(s, env);
            if (win.open() && in_range) {
              lat.push_back(now_ps - acquired_ps[static_cast<size_t>(delivered)]);
            }
            ++delivered;
          }
          s = Spans().Begin(SpanName::kChanRelease, env, SpanLog::kNone, op);
          if (!(co_await ch->ReleaseBatch(env, msgs.value())).ok()) {
            ++bad;
          }
          Spans().End(s, env);
          if (win.open() && !win.closed() && delivered >= total) {
            win.Close(w, out);
          }
        }
      },
      /*pin_cpu=*/1);

  w.kernel.Run();
  if (!params.measure) {
    setup_s = elapsed();
  } else if (win.open() && !win.closed()) {
    win.Close(w, out);  // the stream broke off early; the checks below say why
  }
  if (delivered != total) {
    out.Fail("chan_stream: delivered " + std::to_string(delivered) + " of " + std::to_string(total) +
             " messages");
  }
  if (bad > 0) {
    out.Fail("chan_stream: " + std::to_string(bad) +
             " messages out of order, with a wrong length, or a failed channel call");
  }
  if (ch->LiveGrantCount() != 0) {
    out.Fail("chan_stream: grants still live after close");
  }
  if (!params.measure) {
    return setup_s;
  }
  const int64_t attempted = total - measured_from;
  const int64_t failed = std::min(bad, attempted);
  out.Int("sim.attempted", attempted);
  out.Int("sim.failed", failed);
  out.Int("sim.ops", attempted - failed);
  out.IntArray("sim.lat_ps", std::move(lat));
  return setup_s;
}

}  // namespace perfbench
