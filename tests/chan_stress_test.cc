// Concurrency stress / property harness for the channel subsystem.
//
// Randomized multi-producer/multi-consumer runs over MpmcQueue::PushN/PopN
// and the Channel/Plane batch ops, with mixed batch sizes and
// mid-run KillProcess at a random (sub-operation-granularity) time. The sim
// is deterministic per seed, so every failure reproduces from the seed in
// the test trace.
//
// Invariants, whatever the interleaving:
//   - no value/message is lost or duplicated (orderly runs deliver exactly
//     the multiset pushed; killed runs deliver a duplicate-free subset);
//   - a closed ServiceFabric leaves no live grant and no parked thread,
//     whatever its retries left queued or in flight;
//   - no slot leaks (after an orderly drain the producer can re-acquire the
//     whole pool in one batch);
//   - no capability outlives teardown: RevocationTable::live_count() == 0
//     (the live-grant refinement of "size() revoked ids only" — every
//     counter epoch moved past every snapshot ever handed out) and every
//     allocated counter was revoked at least once.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chan/channel.h"
#include "chan/mpmc_queue.h"
#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fabric/fabric.h"
#include "fabric_end_state.h"
#include "hw/machine.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/random.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;
using sim::Rng;

// Records the whole run of one seed into the global trace ring; when the
// seed's assertions failed, dumps the ring as Chrome trace JSON so the
// interleaving that broke the invariant is inspectable in chrome://tracing
// (the sim is deterministic per seed, so the trace IS the failing run).
class SeedTraceGuard {
 public:
  SeedTraceGuard(const char* test, uint64_t seed) : test_(test), seed_(seed) {
    obs::Trace().Enable();  // same capacity: re-enabling clears the prior seed
  }
  ~SeedTraceGuard() { obs::Trace().Disable(); }

  // Call at the end of the seed iteration; returns true when the seed failed
  // (stop iterating: HasFailure() is sticky, and later seeds would overwrite
  // the ring before anyone reads the dump).
  bool DumpIfFailed() {
    if (!::testing::Test::HasFailure()) {
      return false;
    }
    const std::string path =
        "chan_stress_" + std::string(test_) + "_seed" + std::to_string(seed_) + ".trace.json";
    if (obs::Trace().ExportChromeTrace(path)) {
      ADD_FAILURE() << "seed " << seed_ << " failed; trace ring dumped to " << path;
    } else {
      ADD_FAILURE() << "seed " << seed_ << " failed; trace ring dump to " << path
                    << " ALSO failed";
    }
    return true;
  }

 private:
  const char* test_;
  uint64_t seed_;
};

// --- MpmcQueue: randomized MPMC batch traffic, no loss, no duplication ---

TEST(ChanStress, MpmcQueueRandomBatchTrafficLosesAndDuplicatesNothing) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("mpmc", seed);
    Rng rng(seed);
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& proc = dipc.CreateDipcProcess("p");
    const uint32_t capacity = static_cast<uint32_t>(rng.UniformInt(1, 8));
    const int n_prod = static_cast<int>(rng.UniformInt(1, 3));
    const int n_cons = static_cast<int>(rng.UniformInt(1, 3));
    const int per_producer = 40 + static_cast<int>(rng.UniformInt(0, 40));
    MpmcQueue free(kernel, proc, capacity, proc.default_domain());
    MpmcQueue q(kernel, proc, capacity, proc.default_domain());
    for (uint32_t i = 0; i < capacity; ++i) {
      free.Prime(i);
    }
    std::vector<uint64_t> pushed;
    std::vector<uint64_t> popped;
    int producers_done = 0;
    // Producers push tagged values in randomly sized batches, each once its
    // room was popped from the free queue (as a plane's producers acquire
    // buffers); consumers hand the room back after every pop.
    for (int p = 0; p < n_prod; ++p) {
      uint64_t batch_seed = rng.Next();
      kernel.Spawn(
          proc, "producer",
          [&, p, batch_seed](os::Env env) -> sim::Task<void> {
            Rng prng(batch_seed);
            int sent = 0;
            while (sent < per_producer) {
              std::vector<uint64_t> room(
                  prng.UniformInt(1, std::min<uint64_t>(per_producer - sent, 6)));
              auto got = co_await free.PopN(env, std::span(room));
              DIPC_CHECK(got.ok());  // the free queue never closes
              const int n = static_cast<int>(got.value());
              std::vector<uint64_t> vals;
              for (int i = 0; i < n; ++i) {
                vals.push_back((static_cast<uint64_t>(p) << 32) |
                               static_cast<uint64_t>(sent + i));
              }
              EXPECT_TRUE((co_await q.PushN(env, vals)).ok());
              pushed.insert(pushed.end(), vals.begin(), vals.end());
              sent += n;
              if (prng.Chance(0.3)) {
                co_await env.kernel->Sleep(env, Duration::Nanos(prng.UniformInt(10, 400)));
              }
            }
            if (++producers_done == n_prod) {
              q.Close();  // consumers drain, then see the close
            }
          },
          /*pin_cpu=*/static_cast<int>(p % 2));
    }
    for (int c = 0; c < n_cons; ++c) {
      uint64_t batch_seed = rng.Next();
      kernel.Spawn(
          proc, "consumer",
          [&, batch_seed](os::Env env) -> sim::Task<void> {
            Rng crng(batch_seed);
            while (true) {
              std::vector<uint64_t> out(crng.UniformInt(1, 6));
              auto n = co_await q.PopN(env, std::span(out));
              if (!n.ok()) {
                EXPECT_EQ(n.code(), ErrorCode::kBrokenChannel);
                co_return;
              }
              popped.insert(popped.end(), out.begin(), out.begin() + n.value());
              EXPECT_TRUE((co_await free.PushN(env, std::span(out.data(), n.value()))).ok());
              if (crng.Chance(0.3)) {
                co_await env.kernel->Sleep(env, Duration::Nanos(crng.UniformInt(10, 400)));
              }
            }
          },
          /*pin_cpu=*/static_cast<int>(2 + c % 2));
    }
    kernel.Run();
    // Exactly the pushed multiset came out: nothing lost, nothing doubled.
    ASSERT_EQ(popped.size(), pushed.size());
    std::vector<uint64_t> a = pushed, b = popped;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    std::set<uint64_t> uniq(b.begin(), b.end());
    EXPECT_EQ(uniq.size(), b.size()) << "duplicated value";
    EXPECT_EQ(q.size(), 0u);
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
}

// --- Channel batch ops: orderly randomized runs deliver exactly-once and
// --- leak no slot ---

TEST(ChanStress, ChannelRandomBatchStreamDeliversExactlyOnceAndRecyclesPool) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("chan_stream", seed);
    Rng rng(seed);
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("consumer");
    const uint32_t slots = static_cast<uint32_t>(rng.UniformInt(2, 6));
    const int total = 60 + static_cast<int>(rng.UniformInt(0, 60));
    auto ch = Channel::Create(dipc, prod, cons, {.slots = slots, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    std::shared_ptr<Channel> chan = ch.value();
    std::vector<uint64_t> received;
    bool pool_intact_after_drain = false;
    uint64_t prod_seed = rng.Next(), cons_seed = rng.Next();
    kernel.Spawn(
        prod, "producer",
        [&, chan, prod_seed](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          Rng prng(prod_seed);
          int sent = 0;
          while (sent < total) {
            uint32_t want = static_cast<uint32_t>(
                prng.UniformInt(1, std::min<uint64_t>(slots, total - sent)));
            auto bufs = co_await chan->AcquireBufBatch(env, want);
            DIPC_CHECK(bufs.ok());
            std::vector<SendItem> items;
            for (const SendBuf& b : bufs.value()) {
              chan->BindSendCap(*env.self, b);
              uint64_t msg_seq = static_cast<uint64_t>(sent + items.size());
              DIPC_CHECK(
                  k.UserWrite(*env.self, b.va, std::as_bytes(std::span(&msg_seq, 1))).ok());
              items.push_back(SendItem{b, 64});
            }
            DIPC_CHECK((co_await chan->SendBatch(env, items)).ok());
            sent += static_cast<int>(items.size());
            if (prng.Chance(0.25)) {
              co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 800)));
            }
          }
          // No slot leak: once the consumer drained and released everything,
          // the whole pool must be re-acquirable in one batch.
          while (static_cast<int>(received.size()) < total) {
            co_await k.Sleep(env, Duration::Micros(5));
          }
          auto all = co_await chan->AcquireBufBatch(env, slots);
          DIPC_CHECK(all.ok());
          pool_intact_after_drain = all.value().size() == slots;
          // Hand the pool back so teardown accounting stays clean.
          std::vector<SendItem> items;
          for (const SendBuf& b : all.value()) {
            chan->BindSendCap(*env.self, b);
            uint64_t z = 0;
            DIPC_CHECK(k.UserWrite(*env.self, b.va, std::as_bytes(std::span(&z, 1))).ok());
            items.push_back(SendItem{b, 8});
          }
          DIPC_CHECK((co_await chan->SendBatch(env, items)).ok());
          chan->Close();
        },
        /*pin_cpu=*/0);
    kernel.Spawn(
        cons, "consumer",
        [&, chan, cons_seed](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          Rng crng(cons_seed);
          while (true) {
            auto msgs =
                co_await chan->RecvBatch(env, static_cast<uint32_t>(crng.UniformInt(1, slots)));
            if (!msgs.ok()) {
              EXPECT_EQ(msgs.code(), ErrorCode::kBrokenChannel);
              co_return;
            }
            for (const Msg& m : msgs.value()) {
              chan->BindRecvCap(*env.self, m);
              uint64_t msg_seq = 0;
              DIPC_CHECK(
                  k.UserRead(*env.self, m.va, std::as_writable_bytes(std::span(&msg_seq, 1)))
                      .ok());
              if (m.len == 64) {  // the epilogue pool-check messages are len 8
                received.push_back(msg_seq);
              }
            }
            DIPC_CHECK((co_await chan->ReleaseBatch(env, msgs.value())).ok());
            if (crng.Chance(0.25)) {
              co_await k.Sleep(env, Duration::Nanos(crng.UniformInt(20, 800)));
            }
          }
        },
        /*pin_cpu=*/1);
    kernel.Run();
    // Exactly-once delivery in order (single producer thread, FIFO queue).
    ASSERT_EQ(received.size(), static_cast<size_t>(total));
    for (int i = 0; i < total; ++i) {
      EXPECT_EQ(received[i], static_cast<uint64_t>(i)) << "at " << i;
    }
    EXPECT_TRUE(pool_intact_after_drain) << "slot leaked: full pool not re-acquirable";
    // No capability survived the orderly teardown.
    EXPECT_EQ(chan->LiveGrantCount(), 0u);
    EXPECT_EQ(codoms.revocations().live_count(), 0u);
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
}

// --- Channel slot census: every slot is in the pool, a cache, the
// --- descriptor FIFO, a receiver's hands or a producer's, through Close,
// --- Abandon and a consumer kill ---

TEST(ChanStress, ChannelRandomRunsCountEverySlotThroughCloseAbandonAndKill) {
  enum class End { kClose, kAbandon, kKill };
  int ends_with_cache[3] = {0, 0, 0};
  int abandons_with_cache = 0;
  int total_checks = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("chan_census", seed);
    Rng rng(seed);
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("consumer");
    os::Process& director = dipc.CreateDipcProcess("director");
    const uint32_t slots = static_cast<uint32_t>(rng.UniformInt(2, 6));
    const int n_prod = static_cast<int>(rng.UniformInt(1, 3));
    const int per_producer = 20 + static_cast<int>(rng.UniformInt(0, 20));
    const End end = static_cast<End>(seed % 3);
    auto ch = Channel::Create(dipc, prod, cons, {.slots = slots, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    std::shared_ptr<Channel> chan = ch.value();
    // What the threads hold between plane calls; `retired` counts slots
    // released or abandoned after Close (the closed pool takes no push).
    // Close and the kill happen only while no thread is inside a call, and
    // the threads call only when the call will not wait, so nearly every
    // return leaves the plane with no slot in transit.
    uint64_t acquired = 0, held = 0, retired = 0;
    int in_call = 0, producers_done = 0, checks = 0;
    bool closed = false, killed = false;
    auto check = [&] {
      if (in_call != 0) {
        return;
      }
      ++checks;
      EXPECT_EQ(chan->pool_free() + chan->cached() + chan->queued(0) + held + acquired + retired,
                slots)
          << "pool " << chan->pool_free() << " cached " << chan->cached() << " fifo "
          << chan->queued(0) << " held " << held << " acquired " << acquired << " retired "
          << retired;
    };
    for (int p = 0; p < n_prod; ++p) {
      kernel.Spawn(
          prod, "producer",
          [&, chan, prod_seed = rng.Next()](os::Env env) -> sim::Task<void> {
            os::Kernel& k = *env.kernel;
            Rng prng(prod_seed);
            int done = 0;
            while (done < per_producer && !killed) {
              if (chan->pool_free() + chan->cached() == 0) {
                if (closed) {
                  break;
                }
                co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 200)));
                continue;
              }
              ++in_call;
              auto bufs = co_await chan->AcquireBufBatch(
                  env, static_cast<uint32_t>(prng.UniformInt(1, slots)));
              --in_call;
              if (!bufs.ok()) {
                EXPECT_TRUE(killed || closed) << static_cast<int>(bufs.code());
                break;
              }
              std::vector<SendBuf> got = bufs.value();
              acquired += got.size();
              check();
              const size_t n_abandon =
                  end == End::kAbandon || closed ? prng.UniformInt(0, got.size()) : 0;
              for (auto [first, n] : {std::pair{size_t{0}, n_abandon},
                                      std::pair{n_abandon, got.size() - n_abandon}}) {
                if (n == 0 || killed) {
                  continue;
                }
                std::span<const SendBuf> part(got.data() + first, n);
                std::vector<SendItem> items;
                for (const SendBuf& b : part) {
                  items.push_back(SendItem{b, 64});
                }
                const bool abandon = first == 0 && n_abandon > 0;
                abandons_with_cache += abandon && chan->cached() > 0 ? 1 : 0;
                const bool was_closed = closed;
                ++in_call;
                base::Status st = abandon ? co_await chan->AbandonBatch(env, part)
                                          : co_await chan->SendBatch(env, items);
                if (!st.ok() && !killed) {
                  // A send after Close fails with the buffers still ours.
                  EXPECT_EQ(st.code(), ErrorCode::kBrokenChannel);
                  EXPECT_TRUE(closed && !abandon);
                  st = co_await chan->AbandonBatch(env, part);
                  EXPECT_TRUE(st.ok());
                  retired += n;
                } else if (st.ok() && abandon && was_closed) {
                  retired += n;
                }
                --in_call;
                if (!st.ok()) {
                  EXPECT_TRUE(killed);
                  break;
                }
                acquired -= n;
                done += abandon ? 0 : static_cast<int>(n);
                check();
              }
              if (prng.Chance(0.3)) {
                co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 800)));
              }
            }
            ++producers_done;
          },
          /*pin_cpu=*/p % 2);
    }
    kernel.Spawn(
        cons, "consumer",
        [&, chan, cons_seed = rng.Next()](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          Rng crng(cons_seed);
          while (!killed) {
            if (chan->queued(0) == 0) {
              if (closed) {
                break;
              }
              co_await k.Sleep(env, Duration::Nanos(crng.UniformInt(20, 200)));
              continue;
            }
            ++in_call;
            auto msgs =
                co_await chan->RecvBatch(env, static_cast<uint32_t>(crng.UniformInt(1, slots)));
            --in_call;
            if (!msgs.ok()) {
              EXPECT_TRUE(killed) << static_cast<int>(msgs.code());
              co_return;
            }
            held += msgs.value().size();
            check();
            if (crng.Chance(0.4)) {
              co_await k.Sleep(env, Duration::Nanos(crng.UniformInt(50, 1500)));
            }
            const bool was_closed = closed;
            ++in_call;
            auto rel = co_await chan->ReleaseBatch(env, msgs.value());
            --in_call;
            if (!rel.ok()) {
              // The kill caught this thread between its recv and release.
              EXPECT_TRUE(killed) << static_cast<int>(rel.code());
              co_return;
            }
            held -= msgs.value().size();
            retired += was_closed ? msgs.value().size() : 0;
            check();
          }
        },
        /*pin_cpu=*/2);
    kernel.Spawn(
        director, "director",
        [&, chan, wait_ns = rng.UniformInt(500, 20000)](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          co_await k.Sleep(env, Duration::Nanos(static_cast<double>(wait_ns)));
          // Close or kill once no thread is inside a call and a cache holds
          // a slot (or, if the producers finished first, once the plane is
          // quiet); an abandon run closes after the drain.
          while (in_call != 0 ||
                 (end == End::kAbandon ? producers_done < n_prod || held + acquired > 0 ||
                                             chan->queued(0) > 0
                                       : chan->cached() == 0 && producers_done < n_prod)) {
            co_await k.Sleep(env, Duration::Nanos(30));
          }
          check();
          ends_with_cache[static_cast<int>(end)] += chan->cached() > 0 ? 1 : 0;
          if (end == End::kKill) {
            killed = true;
            dipc.KillProcess(cons);
          } else {
            closed = true;
            chan->Close();
          }
          check();
        },
        /*pin_cpu=*/3);
    kernel.Run();
    check();
    total_checks += checks;
    EXPECT_EQ(chan->LiveGrantCount(), end == End::kKill ? 0u : acquired);
    if (end != End::kKill) {
      EXPECT_EQ(held + acquired, 0u);
    }
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
  EXPECT_GT(ends_with_cache[static_cast<int>(End::kClose)], 0);
  EXPECT_GT(ends_with_cache[static_cast<int>(End::kKill)], 0);
  EXPECT_GT(abandons_with_cache, 0);
  EXPECT_GT(total_checks, 24 * 20);
}

// --- Group-plane slot census: on fan-out and fan-in planes whose threads
// --- span three CPUs, every slot is in the pool, a cache, a live
// --- receiver's FIFO, a receiver's hands or a producer's, through Close,
// --- Abandon, a group member's kill and its Rebind ---

TEST(ChanStress, GroupPlaneRandomRunsCountEverySlotInPoolCachesAndHands) {
  enum class End { kClose, kKill, kKillAndRebind };
  int ends[3] = {0, 0, 0};
  int checks_with_cpu_cache = 0;
  int total_checks = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("group_census", seed);
    Rng rng(seed);
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    const bool fan_out = seed % 2 == 0;
    const End end = static_cast<End>((seed / 2) % 3);
    const uint32_t slots = static_cast<uint32_t>(rng.UniformInt(2, 6));
    const int per_thread = 15 + static_cast<int>(rng.UniformInt(0, 15));
    os::Process& single = dipc.CreateDipcProcess("single");
    os::Process& director = dipc.CreateDipcProcess("director");
    std::vector<os::Process*> group = {&dipc.CreateDipcProcess("member"),
                                       &dipc.CreateDipcProcess("member")};
    const PlaneConfig cfg{.slots = slots, .buf_bytes = 4096};
    auto made = fan_out ? Plane::Create(dipc, single, group, cfg)
                        : Plane::Create(dipc, group, single, cfg);
    ASSERT_TRUE(made.ok());
    std::shared_ptr<Plane> plane = made.value();
    // Group member 1 is the one killed (and maybe rebound). `gen` counts
    // each member's incarnations; a thread of a dead one stops calling.
    // The threads call only between each other's calls and only when the
    // call will not wait, so a check between calls sees no slot in transit;
    // Close and the kill happen only then too.
    std::vector<int> gen = {0, 0};
    std::vector<uint64_t> acquired_by = {0, 0}, held_by = {0, 0};
    uint64_t acquired = 0, held = 0, retired = 0;
    int in_call = 0, producers = 0, producers_done = 0, checks = 0;
    bool closed = false;
    auto check = [&] {
      if (in_call != 0) {
        return;
      }
      ++checks;
      uint64_t queued = 0;
      for (uint32_t r = 0; r < plane->receiver_count(); ++r) {
        queued += plane->receiver_alive(r) ? plane->queued(r) : 0;
      }
      uint64_t on_cpus = 0;
      for (hw::CpuId cpu = 0; cpu < machine.num_cpus(); ++cpu) {
        on_cpus += plane->cached(cpu);
      }
      EXPECT_LE(on_cpus, plane->cached());
      checks_with_cpu_cache += on_cpus > 0 ? 1 : 0;
      EXPECT_EQ(plane->pool_free() + plane->cached() + queued + held + acquired + retired, slots)
          << "pool " << plane->pool_free() << " cached " << plane->cached() << " (on CPUs "
          << on_cpus << ") queued " << queued << " held " << held << " acquired " << acquired
          << " retired " << retired;
    };
    // A group member's own count moves with the totals (a kill recycles it).
    auto count = [&](uint64_t& total, std::vector<uint64_t>& by, int member, int64_t n) {
      total += static_cast<uint64_t>(n);
      if (member >= 0) {
        by[member] += static_cast<uint64_t>(n);
      }
    };
    auto spawn_producer = [&](os::Process& proc, uint32_t p, int cpu) {
      ++producers;
      const int member = fan_out ? -1 : static_cast<int>(p);
      kernel.Spawn(
          proc, "producer",
          [&, p, member, my_gen = member < 0 ? 0 : gen[member],
           thread_seed = rng.Next()](os::Env env) -> sim::Task<void> {
            os::Kernel& k = *env.kernel;
            Rng prng(thread_seed);
            auto mine = [&] { return member < 0 || gen[member] == my_gen; };
            // A fan-out acquire waits for every live receiver's credit, a
            // fan-in one for its producer's.
            auto admitted = [&] {
              if (!fan_out) {
                return plane->credits(p) > 0;
              }
              for (uint32_t r = 0; r < plane->receiver_count(); ++r) {
                if (plane->receiver_alive(r) && plane->credits(r) == 0) {
                  return false;
                }
              }
              return true;
            };
            int done = 0;
            while (done < per_thread && !closed && mine()) {
              if (!admitted() || plane->pool_free() + plane->cached() == 0) {
                co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 200)));
                continue;
              }
              ++in_call;
              auto bufs = co_await plane->AcquireBufBatch(
                  env, p, static_cast<uint32_t>(prng.UniformInt(1, slots)));
              --in_call;
              if (!bufs.ok()) {
                EXPECT_TRUE(closed) << static_cast<int>(bufs.code());
                break;
              }
              std::vector<SendBuf> got = bufs.value();
              count(acquired, acquired_by, member, static_cast<int64_t>(got.size()));
              check();
              // Give back a random part; send the rest, in one batch.
              auto n_abandon = static_cast<size_t>(prng.UniformInt(0, got.size()));
              while (n_abandon > 0 || !got.empty()) {
                if (!mine()) {
                  break;  // killed: the excision recycled what it held
                }
                const bool abandon = n_abandon > 0 || closed;
                const size_t n = abandon ? std::max<size_t>(n_abandon, closed ? got.size() : 0)
                                         : got.size();
                std::span<const SendBuf> part(got.data(), n);
                uint32_t target = 0;
                if (!abandon && fan_out) {
                  // A live receiver with the credit for the whole batch.
                  target = plane->receiver_count();
                  for (uint32_t r = 0; r < plane->receiver_count(); ++r) {
                    if (plane->receiver_alive(r) && plane->credits(r) >= n) {
                      target = r;
                      break;
                    }
                  }
                  if (target == plane->receiver_count()) {
                    co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 200)));
                    continue;
                  }
                }
                std::vector<SendItem> items;
                for (const SendBuf& b : part) {
                  items.push_back(SendItem{b, 64});
                }
                const bool was_closed = closed;
                ++in_call;
                base::Status st;
                if (abandon) {
                  st = co_await plane->AbandonBatch(env, p, part);
                } else if (fan_out) {
                  st = co_await plane->SendToBatch(env, p, items, target);
                } else {
                  st = co_await plane->SendBatch(env, p, items);
                }
                --in_call;
                EXPECT_TRUE(st.ok()) << (abandon ? "abandon " : "send ")
                                     << static_cast<int>(st.code());
                retired += abandon && was_closed ? n : 0;
                done += abandon ? 0 : static_cast<int>(n);
                count(acquired, acquired_by, member, -static_cast<int64_t>(n));
                got.erase(got.begin(), got.begin() + static_cast<std::ptrdiff_t>(n));
                n_abandon = 0;
                check();
              }
              if (prng.Chance(0.3)) {
                co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 800)));
              }
            }
            ++producers_done;
          },
          cpu);
    };
    auto spawn_receiver = [&](os::Process& proc, uint32_t r, int cpu) {
      const int member = fan_out ? static_cast<int>(r) : -1;
      kernel.Spawn(
          proc, "receiver",
          [&, r, member, my_gen = member < 0 ? 0 : gen[member],
           thread_seed = rng.Next()](os::Env env) -> sim::Task<void> {
            os::Kernel& k = *env.kernel;
            Rng crng(thread_seed);
            auto mine = [&] { return member < 0 || gen[member] == my_gen; };
            while (mine()) {
              if (plane->queued(r) == 0) {
                if (closed) {
                  break;
                }
                co_await k.Sleep(env, Duration::Nanos(crng.UniformInt(20, 200)));
                continue;
              }
              ++in_call;
              auto msgs = co_await plane->RecvBatch(
                  env, r, static_cast<uint32_t>(crng.UniformInt(1, slots)));
              --in_call;
              if (!msgs.ok()) {
                ADD_FAILURE() << "recv " << static_cast<int>(msgs.code());
                break;
              }
              const auto n = static_cast<int64_t>(msgs.value().size());
              count(held, held_by, member, n);
              check();
              if (crng.Chance(0.4)) {
                co_await k.Sleep(env, Duration::Nanos(crng.UniformInt(50, 1500)));
              }
              if (!mine()) {
                break;  // killed: the excision recycled what it held
              }
              const bool was_closed = closed;
              ++in_call;
              base::Status st = co_await plane->ReleaseBatch(env, r, msgs.value());
              --in_call;
              EXPECT_TRUE(st.ok()) << static_cast<int>(st.code());
              count(held, held_by, member, -n);
              retired += was_closed ? static_cast<uint64_t>(n) : 0;
              check();
            }
          },
          cpu);
    };
    // Three CPUs, with one producer thread sharing its CPU with a receiver
    // (whose releases of its slots go to that CPU's cache).
    if (fan_out) {
      spawn_producer(single, 0, 0);
      spawn_producer(single, 0, 1);
      spawn_receiver(*group[0], 0, 1);
      spawn_receiver(*group[1], 1, 2);
    } else {
      spawn_producer(*group[0], 0, 0);
      spawn_producer(*group[0], 0, 1);
      spawn_producer(*group[1], 1, 2);
      spawn_receiver(single, 0, 1);
    }
    kernel.Spawn(
        director, "director",
        [&, wait_ns = rng.UniformInt(500, 20000)](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          auto quiet = [&]() -> sim::Task<void> {
            while (in_call != 0) {
              co_await k.Sleep(env, Duration::Nanos(30));
            }
          };
          co_await k.Sleep(env, Duration::Nanos(static_cast<double>(wait_ns)));
          if (end != End::kClose) {
            co_await quiet();
            check();
            // The kill recycles member 1's unsent slots (fan-in) or its
            // deliveries (fan-out).
            ++gen[1];
            acquired -= acquired_by[1];
            held -= held_by[1];
            acquired_by[1] = held_by[1] = 0;
            dipc.KillProcess(*group[1]);
            check();
            if (end == End::kKillAndRebind) {
              co_await k.Sleep(env, Duration::Nanos(200));
              co_await quiet();
              os::Process& fresh = dipc.CreateDipcProcess("member");
              EXPECT_TRUE((fan_out ? plane->RebindReceiver(1, fresh)
                                   : plane->RebindProducer(1, fresh))
                              .ok());
              if (fan_out) {
                spawn_receiver(fresh, 1, 2);
              } else {
                spawn_producer(fresh, 1, 2);
              }
              check();
            }
            co_await k.Sleep(env, Duration::Nanos(static_cast<double>(wait_ns)));
          }
          co_await quiet();
          check();
          ++ends[static_cast<int>(end)];
          closed = true;
          plane->Close();
          check();
        },
        /*pin_cpu=*/3);
    kernel.Run();
    check();
    total_checks += checks;
    EXPECT_EQ(producers_done, producers);
    EXPECT_EQ(held + acquired, 0u);
    EXPECT_EQ(plane->LiveGrantCount(), 0u);
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
  for (int e : ends) {
    EXPECT_EQ(e, 8);
  }
  EXPECT_GT(checks_with_cpu_cache, 0) << "no CPU cache ever held a slot";
  EXPECT_GT(total_checks, 24 * 20);
}

// --- Channel batch ops under mid-run KillProcess: duplicate-free subset
// --- delivery and total grant revocation ---

TEST(ChanStress, ChannelRandomKillMidRunLeaksNoGrantAndNeverDuplicates) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("chan_kill", seed);
    Rng rng(seed);
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    os::Process& cons = dipc.CreateDipcProcess("consumer");
    const uint32_t slots = static_cast<uint32_t>(rng.UniformInt(2, 5));
    auto ch = Channel::Create(dipc, prod, cons, {.slots = slots, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    std::shared_ptr<Channel> chan = ch.value();
    std::vector<uint64_t> received;
    uint64_t prod_seed = rng.Next(), cons_seed = rng.Next();
    const bool kill_producer = rng.Chance(0.5);
    const double kill_ns = static_cast<double>(rng.UniformInt(200, 30000));
    kernel.Spawn(
        prod, "producer",
        [&, chan, prod_seed](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          Rng prng(prod_seed);
          uint64_t msg_seq = 0;
          while (true) {
            uint32_t want = static_cast<uint32_t>(prng.UniformInt(1, slots));
            auto bufs = co_await chan->AcquireBufBatch(env, want);
            if (!bufs.ok()) {
              EXPECT_EQ(bufs.code(), ErrorCode::kCalleeFailed);
              co_return;
            }
            std::vector<SendItem> items;
            for (const SendBuf& b : bufs.value()) {
              chan->BindSendCap(*env.self, b);
              uint64_t v = msg_seq + items.size();
              if (!k.UserWrite(*env.self, b.va, std::as_bytes(std::span(&v, 1))).ok()) {
                co_return;  // killed between acquire and fill
              }
              items.push_back(SendItem{b, 64});
            }
            auto sent = co_await chan->SendBatch(env, items);
            if (!sent.ok()) {
              EXPECT_EQ(sent.code(), ErrorCode::kCalleeFailed);
              co_return;
            }
            msg_seq += items.size();
          }
        },
        /*pin_cpu=*/0);
    kernel.Spawn(
        cons, "consumer",
        [&, chan, cons_seed](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          Rng crng(cons_seed);
          while (true) {
            auto msgs =
                co_await chan->RecvBatch(env, static_cast<uint32_t>(crng.UniformInt(1, slots)));
            if (!msgs.ok()) {
              EXPECT_EQ(msgs.code(), ErrorCode::kCalleeFailed);
              co_return;
            }
            for (const Msg& m : msgs.value()) {
              chan->BindRecvCap(*env.self, m);
              uint64_t msg_seq = 0;
              // The read fails if the kill revoked the grant mid-batch; the
              // message then counts as undelivered (not a duplicate risk).
              if (k.UserRead(*env.self, m.va, std::as_writable_bytes(std::span(&msg_seq, 1)))
                      .ok()) {
                received.push_back(msg_seq);
              }
            }
            auto rel = co_await chan->ReleaseBatch(env, msgs.value());
            if (!rel.ok()) {
              EXPECT_EQ(rel.code(), ErrorCode::kCalleeFailed);
              co_return;
            }
          }
        },
        /*pin_cpu=*/1);
    os::Process& killer = dipc.CreateDipcProcess("killer");
    kernel.Spawn(
        killer, "killer",
        [&](os::Env env) -> sim::Task<void> {
          co_await env.kernel->Sleep(env, Duration::Nanos(kill_ns));
          dipc.KillProcess(kill_producer ? prod : cons);
        },
        /*pin_cpu=*/2);
    kernel.Run();
    // Delivered messages form a duplicate-free prefix-subset of the stream.
    std::set<uint64_t> uniq(received.begin(), received.end());
    EXPECT_EQ(uniq.size(), received.size()) << "duplicated message";
    // Teardown revoked every grant: nothing live, and every counter ever
    // allocated was revoked at least once (an epoch still at 0 is a leak).
    EXPECT_EQ(chan->LiveGrantCount(), 0u);
    EXPECT_EQ(codoms.revocations().live_count(), 0u);
    const codoms::RevocationTable& rt = codoms.revocations();
    for (uint64_t id = 0; id < rt.size(); ++id) {
      EXPECT_GE(rt.Epoch(id), 1u) << "unrevoked counter " << id;
    }
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
}

// --- Fan-out under randomized receiver/producer kills: per-receiver
// --- teardown, group survival, no grant leaks ---

TEST(ChanStress, FanOutRandomKillsRevokePerReceiverAndLeakNothing) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("fanout_kill", seed);
    Rng rng(seed);
    hw::Machine machine(6);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    os::Process& prod = dipc.CreateDipcProcess("producer");
    const uint32_t n_recv = static_cast<uint32_t>(rng.UniformInt(2, 4));
    std::vector<os::Process*> receivers;
    for (uint32_t r = 0; r < n_recv; ++r) {
      receivers.push_back(&dipc.CreateDipcProcess("worker"));
    }
    const uint32_t slots = static_cast<uint32_t>(rng.UniformInt(2, 6));
    auto ch = Plane::Create(dipc, prod, receivers, {.slots = slots, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    std::shared_ptr<Plane> fan = ch.value();
    std::vector<std::vector<uint64_t>> got(n_recv);
    for (uint32_t r = 0; r < n_recv; ++r) {
      uint64_t rseed = rng.Next();
      kernel.Spawn(
          *receivers[r], "worker",
          [&, fan, r, rseed](os::Env env) -> sim::Task<void> {
            os::Kernel& k = *env.kernel;
            Rng crng(rseed);
            while (true) {
              auto msgs = co_await fan->RecvBatch(
                  env, r, static_cast<uint32_t>(crng.UniformInt(1, slots)));
              if (!msgs.ok()) {
                co_return;
              }
              for (const Msg& m : msgs.value()) {
                fan->BindRecvCap(*env.self, r, m);
                uint64_t msg_seq = 0;
                if (k.UserRead(*env.self, m.va,
                               std::as_writable_bytes(std::span(&msg_seq, 1)))
                        .ok()) {
                  got[r].push_back(msg_seq);
                }
              }
              if (!(co_await fan->ReleaseBatch(env, r, msgs.value())).ok()) {
                co_return;
              }
              if (crng.Chance(0.3)) {
                co_await k.Sleep(env, Duration::Nanos(crng.UniformInt(20, 900)));
              }
            }
          },
          /*pin_cpu=*/static_cast<int>(1 + r));
    }
    uint64_t pseed = rng.Next();
    const bool shard_mode = rng.Chance(0.4);
    kernel.Spawn(
        prod, "producer",
        [&, fan, pseed, shard_mode](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          Rng prng(pseed);
          uint64_t msg_seq = 0;
          for (int round = 0; round < 120; ++round) {
            auto buf = co_await fan->AcquireBuf(env, 0);
            if (!buf.ok()) {
              co_return;
            }
            if (!k.UserWrite(*env.self, buf.value().va,
                             std::as_bytes(std::span(&msg_seq, 1)))
                     .ok()) {
              co_return;
            }
            // On a dead-shard failure the buffer stays owned (broken() ==
            // kOk contract): retry it on the next live shard; give it back
            // with Abandon when nobody is left — dropping it on the
            // floor would leak the slot and a live write grant, which the
            // end-of-run assertions below would catch.
            bool sent = false;
            while (fan->broken() == ErrorCode::kOk) {
              base::Status s = ErrorCode::kCalleeFailed;
              if (shard_mode) {
                uint32_t shard = fan->NextShard();
                if (shard >= fan->receiver_count()) {
                  break;
                }
                s = co_await fan->SendTo(env, 0, buf.value(), 64, shard);
              } else {
                s = co_await fan->Send(env, 0, buf.value(), 64);
              }
              if (s.ok()) {
                sent = true;
                break;
              }
              if (s.code() != ErrorCode::kCalleeFailed ||
                  fan->live_receiver_count() == 0) {
                break;
              }
            }
            if (!sent) {
              if (fan->broken() == ErrorCode::kOk) {
                (void)co_await fan->Abandon(env, 0, buf.value());
              }
              co_return;
            }
            ++msg_seq;
            if (prng.Chance(0.2)) {
              co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 600)));
            }
          }
          fan->Close();
        },
        /*pin_cpu=*/0);
    // Killer: one or two random victims (possibly the producer) at random
    // times.
    os::Process& killer = dipc.CreateDipcProcess("killer");
    const int kills = 1 + (rng.Chance(0.4) ? 1 : 0);
    std::vector<std::pair<double, int>> plan;  // (ns, victim: -1 producer)
    for (int i = 0; i < kills; ++i) {
      int victim = rng.Chance(0.25) ? -1 : static_cast<int>(rng.UniformInt(0, n_recv - 1));
      plan.emplace_back(static_cast<double>(rng.UniformInt(300, 40000)), victim);
    }
    std::sort(plan.begin(), plan.end());
    kernel.Spawn(
        killer, "killer",
        [&, plan](os::Env env) -> sim::Task<void> {
          double elapsed = 0;
          for (const auto& [at_ns, victim] : plan) {
            if (at_ns > elapsed) {
              co_await env.kernel->Sleep(env, Duration::Nanos(at_ns - elapsed));
              elapsed = at_ns;
            }
            os::Process* target = victim < 0 ? &prod : receivers[victim];
            dipc.KillProcess(*target);
            if (victim >= 0) {
              // Per-receiver revocation is immediate and complete.
              EXPECT_EQ(codoms.revocations().LiveCountForOwner(
                            fan->receiver_owner(static_cast<uint32_t>(victim))),
                        0u);
            }
          }
        },
        /*pin_cpu=*/5);
    kernel.Run();
    // Per receiver: duplicate-free, and (FIFO per receiver) strictly
    // increasing sequence numbers.
    for (uint32_t r = 0; r < n_recv; ++r) {
      for (size_t i = 1; i < got[r].size(); ++i) {
        EXPECT_LT(got[r][i - 1], got[r][i]) << "receiver " << r << " order/duplicate";
      }
    }
    // Nothing survives: every grant of every (dead or live) receiver and
    // the producer was revoked by release or teardown.
    EXPECT_EQ(fan->LiveGrantCount(), 0u);
    EXPECT_EQ(codoms.revocations().live_count(), 0u);
    const codoms::RevocationTable& rt = codoms.revocations();
    for (uint64_t id = 0; id < rt.size(); ++id) {
      EXPECT_GE(rt.Epoch(id), 1u) << "unrevoked counter " << id;
    }
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
}

// --- Plane with a producer group: randomized M->1 traffic with mid-run kills ---

TEST(ChanStress, FanInRandomKillsExciseProducersAndLeakNothing) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("fanin_kill", seed);
    Rng rng(seed);
    hw::Machine machine(6);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    const uint32_t n_prod = static_cast<uint32_t>(rng.UniformInt(2, 4));
    std::vector<os::Process*> producers;
    for (uint32_t p = 0; p < n_prod; ++p) {
      producers.push_back(&dipc.CreateDipcProcess("client"));
    }
    os::Process& cons = dipc.CreateDipcProcess("server");
    const uint32_t slots = static_cast<uint32_t>(rng.UniformInt(2, 6));
    auto ch = Plane::Create(dipc, producers, cons, {.slots = slots, .buf_bytes = 4096});
    ASSERT_TRUE(ch.ok());
    std::shared_ptr<Plane> fan = ch.value();
    std::vector<std::vector<uint64_t>> got(n_prod);
    uint64_t cseed = rng.Next();
    kernel.Spawn(
        cons, "server",
        [&, fan, cseed](os::Env env) -> sim::Task<void> {
          os::Kernel& k = *env.kernel;
          Rng crng(cseed);
          // Bound the whole drain: once the traffic (and the kills) are
          // over, the timeout closes the group so the run always ends.
          const os::Deadline dl = os::Deadline::After(k.now(), Duration::Micros(150));
          while (true) {
            auto msgs = co_await fan->RecvBatch(
                env, 0, static_cast<uint32_t>(crng.UniformInt(1, slots)), dl);
            if (!msgs.ok()) {
              if (msgs.code() == ErrorCode::kTimedOut) {
                fan->Close();
              }
              co_return;
            }
            for (const Msg& m : msgs.value()) {
              fan->BindRecvCap(*env.self, 0, m);
              uint64_t tagged[2] = {0, 0};  // {producer, seq}
              if (k.UserRead(*env.self, m.va, std::as_writable_bytes(std::span(tagged))).ok() &&
                  tagged[0] < n_prod) {
                got[tagged[0]].push_back(tagged[1]);
              }
            }
            if (!(co_await fan->ReleaseBatch(env, 0, msgs.value())).ok()) {
              co_return;
            }
            if (crng.Chance(0.3)) {
              co_await k.Sleep(env, Duration::Nanos(crng.UniformInt(20, 900)));
            }
          }
        },
        /*pin_cpu=*/0);
    for (uint32_t p = 0; p < n_prod; ++p) {
      uint64_t pseed = rng.Next();
      kernel.Spawn(
          *producers[p], "client",
          [&, fan, p, pseed](os::Env env) -> sim::Task<void> {
            os::Kernel& k = *env.kernel;
            Rng prng(pseed);
            uint64_t seq = 0;
            for (int round = 0; round < 60; ++round) {
              auto buf = co_await fan->AcquireBuf(env, p);
              if (!buf.ok()) {
                co_return;  // excised, broken or closed
              }
              uint64_t tagged[2] = {p, seq};
              if (!k.UserWrite(*env.self, buf.value().va, std::as_bytes(std::span(tagged)))
                       .ok()) {
                co_return;
              }
              if (!(co_await fan->Send(env, p, buf.value(), 64)).ok()) {
                // While the group is healthy the buffer stays ours on a
                // failed publish: hand it back instead of leaking the slot.
                if (fan->broken() == ErrorCode::kOk) {
                  (void)co_await fan->Abandon(env, p, buf.value());
                }
                co_return;
              }
              ++seq;
              if (prng.Chance(0.2)) {
                co_await k.Sleep(env, Duration::Nanos(prng.UniformInt(20, 600)));
              }
            }
          },
          /*pin_cpu=*/static_cast<int>(1 + p % 4));
    }
    // Killer: one or two victims — usually producers (individual excision),
    // sometimes the consumer (whole-group breakage).
    os::Process& killer = dipc.CreateDipcProcess("killer");
    const int kills = 1 + (rng.Chance(0.4) ? 1 : 0);
    std::vector<std::pair<double, int>> plan;  // (ns, victim: -1 consumer)
    for (int i = 0; i < kills; ++i) {
      int victim = rng.Chance(0.2) ? -1 : static_cast<int>(rng.UniformInt(0, n_prod - 1));
      plan.emplace_back(static_cast<double>(rng.UniformInt(300, 40000)), victim);
    }
    std::sort(plan.begin(), plan.end());
    kernel.Spawn(
        killer, "killer",
        [&, plan](os::Env env) -> sim::Task<void> {
          double elapsed = 0;
          for (const auto& [at_ns, victim] : plan) {
            if (at_ns > elapsed) {
              co_await env.kernel->Sleep(env, Duration::Nanos(at_ns - elapsed));
              elapsed = at_ns;
            }
            os::Process* target = victim < 0 ? &cons : producers[victim];
            dipc.KillProcess(*target);
            // Excision (or breakage) drains the victim's owner key
            // immediately and completely.
            const uint64_t owner = victim < 0
                                       ? fan->receiver_owner(0)
                                       : fan->producer_owner(static_cast<uint32_t>(victim));
            EXPECT_EQ(codoms.revocations().LiveCountForOwner(owner), 0u);
          }
        },
        /*pin_cpu=*/5);
    kernel.Run();
    // Per producer: a duplicate-free, strictly increasing (FIFO) subset of
    // what that producer published.
    for (uint32_t p = 0; p < n_prod; ++p) {
      for (size_t i = 1; i < got[p].size(); ++i) {
        EXPECT_LT(got[p][i - 1], got[p][i]) << "producer " << p << " order/duplicate";
      }
    }
    EXPECT_EQ(fan->LiveGrantCount(), 0u);
    EXPECT_EQ(codoms.revocations().live_count(), 0u);
    const codoms::RevocationTable& rt = codoms.revocations();
    for (uint64_t id = 0; id < rt.size(); ++id) {
      EXPECT_GE(rt.Epoch(id), 1u) << "unrevoked counter " << id;
    }
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
}

// --- ServiceFabric: randomized N x M calls with mid-run worker kills ---

TEST(ChanStress, FabricRandomWorkerKillsKeepCompletionsExactlyOnce) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("fabric_kill", seed);
    Rng rng(seed);
    hw::Machine machine(6);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    const uint32_t n_cli = static_cast<uint32_t>(rng.UniformInt(2, 3));
    const uint32_t n_wrk = static_cast<uint32_t>(rng.UniformInt(2, 3));
    std::vector<os::Process*> clients;
    std::vector<os::Process*> workers;
    for (uint32_t c = 0; c < n_cli; ++c) {
      clients.push_back(&dipc.CreateDipcProcess("tenant"));
    }
    for (uint32_t w = 0; w < n_wrk; ++w) {
      workers.push_back(&dipc.CreateDipcProcess("worker"));
    }
    auto f = fabric::ServiceFabric::Create(
        dipc, clients, workers,
        {.req_slots = 4, .req_bytes = 64, .resp_slots = 4, .resp_bytes = 64,
         .call_deadline = Duration::Micros(200), .max_call_retries = 10});
    ASSERT_TRUE(f.ok());
    std::shared_ptr<fabric::ServiceFabric> fab = f.value();
    fabric::ServiceFabric::Handler echo = [](os::Env, const chan::Msg&) -> sim::Task<void> {
      co_return;
    };
    for (uint32_t w = 0; w < n_wrk; ++w) {
      for (uint32_t c = 0; c < n_cli; ++c) {
        kernel.Spawn(*workers[w], "serve", [fab, c, w, echo](os::Env env) -> sim::Task<void> {
          co_await fab->Serve(env, c, w, echo);
        });
      }
    }
    // Kill plan first, so the expectations below know which clients stay
    // healthy. Never kill every worker: the survivors must absorb the load.
    const int kills = 1 + (rng.Chance(0.4) ? 1 : 0);
    std::vector<std::pair<double, int>> plan;  // (ns, victim: -1 a client)
    int killed_client = -1;
    for (int i = 0; i < kills && i < static_cast<int>(n_wrk) - 1 + 1; ++i) {
      if (rng.Chance(0.25) && killed_client < 0) {
        killed_client = static_cast<int>(rng.UniformInt(0, n_cli - 1));
        plan.emplace_back(static_cast<double>(rng.UniformInt(300, 50000)), -1);
      } else if (static_cast<int>(rng.UniformInt(0, n_wrk - 1)) == 0 || kills == 1) {
        plan.emplace_back(static_cast<double>(rng.UniformInt(300, 50000)), 0);
      } else {
        plan.emplace_back(static_cast<double>(rng.UniformInt(300, 50000)), 1);
      }
    }
    std::sort(plan.begin(), plan.end());
    uint64_t ok_calls = 0;
    int remaining = static_cast<int>(n_cli);
    for (uint32_t c = 0; c < n_cli; ++c) {
      uint64_t cseed = rng.Next();
      const bool healthy = killed_client < 0 || static_cast<uint32_t>(killed_client) != c;
      kernel.Spawn(*clients[c], "web", [&, fab, c, cseed, healthy](os::Env env) -> sim::Task<void> {
        Rng crng(cseed);
        for (int i = 0; i < 12; ++i) {
          auto s = co_await fab->Call(env, c, 16);
          if (s.ok()) {
            ++ok_calls;
          } else if (healthy) {
            // With at least one worker alive at all times, a healthy
            // client's calls must keep completing through the reshards.
            ADD_FAILURE() << "tenant " << c << " call " << i << " failed: "
                          << static_cast<int>(s.code());
          }
          if (crng.Chance(0.3)) {
            co_await env.kernel->Sleep(env, Duration::Nanos(crng.UniformInt(50, 800)));
          }
        }
        if (--remaining == 0) {
          fab->Close();
        }
      });
    }
    os::Process& killer = dipc.CreateDipcProcess("killer");
    kernel.Spawn(killer, "killer", [&, plan](os::Env env) -> sim::Task<void> {
      double elapsed = 0;
      for (const auto& [at_ns, victim] : plan) {
        if (at_ns > elapsed) {
          co_await env.kernel->Sleep(env, Duration::Nanos(at_ns - elapsed));
          elapsed = at_ns;
        }
        dipc.KillProcess(victim < 0 ? *clients[killed_client] : *workers[victim]);
      }
    });
    kernel.Run();
    // Exactly-once: completions() counts exactly the Calls that returned
    // kOk; late completions of superseded attempts were dropped where a
    // caller received them (counted as duplicates, never delivered twice).
    EXPECT_EQ(fab->completions(), ok_calls);
    EXPECT_EQ(fab->calls(), static_cast<uint64_t>(n_cli) * 12);
    if (killed_client < 0) {
      // No client died: every Call either completed or was counted failed.
      EXPECT_EQ(fab->completions() + fab->failures(), fab->calls());
    }
    fabric::ExpectNothingOutlivesClose(*fab, kernel);
    EXPECT_EQ(codoms.revocations().live_count(), 0u);
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
}

// --- ServiceFabric: randomized retries, then Close() ---
//
// Short per-attempt deadlines against handlers that sleep up to 40 us make
// calls time out and retry, so when the last caller closes the fabric,
// retried requests may still be queued at workers or in their handlers and
// late responses queued for nobody. Close() must retire all of them: no
// live grant and no parked thread after Run(), and every call completed or
// counted failed.
TEST(ChanStress, FabricRandomRetriesLeaveNothingAfterClose) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedTraceGuard trace_guard("fabric_close", seed);
    Rng rng(seed);
    hw::Machine machine(6);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    core::Dipc dipc(kernel);
    const auto n_cli = static_cast<uint32_t>(rng.UniformInt(1, 3));
    const auto n_wrk = static_cast<uint32_t>(rng.UniformInt(1, 3));
    std::vector<os::Process*> clients;
    std::vector<os::Process*> workers;
    for (uint32_t c = 0; c < n_cli; ++c) {
      clients.push_back(&dipc.CreateDipcProcess("tenant"));
    }
    for (uint32_t w = 0; w < n_wrk; ++w) {
      workers.push_back(&dipc.CreateDipcProcess("worker"));
    }
    auto f = fabric::ServiceFabric::Create(
        dipc, clients, workers,
        {.req_slots = 4, .req_bytes = 64, .resp_slots = 4, .resp_bytes = 64,
         .call_deadline = Duration::Micros(static_cast<double>(rng.UniformInt(3, 30))),
         .max_call_retries = 6});
    ASSERT_TRUE(f.ok());
    std::shared_ptr<fabric::ServiceFabric> fab = f.value();
    for (uint32_t w = 0; w < n_wrk; ++w) {
      auto wrng = std::make_shared<Rng>(rng.Next());
      fabric::ServiceFabric::Handler sleepy = [wrng](os::Env env,
                                                     const chan::Msg&) -> sim::Task<void> {
        const auto us = static_cast<double>(wrng->UniformInt(0, 40));
        co_await env.kernel->Sleep(env, Duration::Micros(us));
      };
      for (uint32_t c = 0; c < n_cli; ++c) {
        kernel.Spawn(*workers[w], "serve", [fab, c, w, sleepy](os::Env env) -> sim::Task<void> {
          co_await fab->Serve(env, c, w, sleepy);
        });
      }
    }
    constexpr int kCallsPerCaller = 4;
    int callers = 0;
    int running = 0;
    for (uint32_t c = 0; c < n_cli; ++c) {
      const auto n = static_cast<int>(rng.UniformInt(1, 6));
      callers += n;
      running += n;
      for (int i = 0; i < n; ++i) {
        kernel.Spawn(*clients[c], "web", [&running, fab, c](os::Env env) -> sim::Task<void> {
          for (int j = 0; j < kCallsPerCaller; ++j) {
            (void)co_await fab->Call(env, c, 16);
          }
          if (--running == 0) {
            fab->Close();
          }
        });
      }
    }
    kernel.Run();
    EXPECT_EQ(running, 0);
    EXPECT_EQ(fab->calls(), static_cast<uint64_t>(callers) * kCallsPerCaller);
    EXPECT_EQ(fab->calls(), fab->completions() + fab->failures());
    fabric::ExpectNothingOutlivesClose(*fab, kernel);
    EXPECT_EQ(codoms.revocations().live_count(), 0u);
    if (trace_guard.DumpIfFailed()) {
      break;
    }
  }
}

}  // namespace
}  // namespace dipc::chan
