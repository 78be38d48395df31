// The simulated OS kernel: scheduling, syscall costs, user-memory access
// (through the CODOMs checks), and process/thread lifecycle.
//
// Models a Linux-3.9-era kernel at the fidelity the paper's evaluation
// needs: per-CPU run queues, context/page-table switch costs, IPIs and the
// idle loop, the syscall entry/dispatch path, and per-category time
// accounting (Figs. 1 and 2). Threads are coroutines; every blocking
// operation is a co_await.
#ifndef DIPC_OS_KERNEL_H_
#define DIPC_OS_KERNEL_H_

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/result.h"
#include "codoms/codoms.h"
#include "hw/machine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/accounting.h"
#include "os/process.h"
#include "os/thread.h"
#include "sim/task.h"

namespace dipc::os {

class WaitQueue;

// Which per-domain time bucket a TimeCat charge bills to (obs domain-time
// attribution). User code is the domain's own work; every kernel-side
// category — crossings, dispatch, kernel work, scheduling, page-table
// switches — is kernel work done on the domain's behalf; proxies bill
// separately (they are the cost dIPC removes). Idle is nobody's time.
constexpr obs::DomainTimeKind DomainKindFor(TimeCat cat) {
  switch (cat) {
    case TimeCat::kUser:
      return obs::DomainTimeKind::kUser;
    case TimeCat::kProxy:
      return obs::DomainTimeKind::kProxy;
    case TimeCat::kIdle:
      return obs::DomainTimeKind::kCount;  // unattributed
    default:
      return obs::DomainTimeKind::kKernel;
  }
}

class Kernel {
 public:
  Kernel(hw::Machine& machine, codoms::Codoms& codoms);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  hw::Machine& machine() { return machine_; }
  codoms::Codoms& codoms() { return codoms_; }
  TimeAccounting& accounting() { return accounting_; }
  const hw::CostModel& costs() const { return machine_.costs(); }
  sim::Time now() const { return machine_.events().now(); }

  // ---- Processes and threads ----

  // Creates a process with a private page table and a fresh default domain.
  Process& CreateProcess(std::string name);
  // Creates a process inside an existing (shared) page table; dIPC uses this
  // for global-VAS processes (§6.1.3).
  Process& CreateProcessIn(std::string name, hw::PageTable& pt, hw::DomainTag default_domain);

  // Spawns a thread; it becomes runnable immediately. `pin_cpu` >= 0 pins it.
  Thread& Spawn(Process& proc, std::string name, ThreadBody body, int pin_cpu = -1);

  // Waits until `target` exits.
  sim::Task<void> Join(Env env, Thread& target);

  // Kills a blocked/runnable thread (it never runs again). Running threads
  // can only kill themselves by returning from their body.
  void KillThread(Thread& t);

  Thread* running_on(hw::CpuId cpu) const { return cpus_[cpu].running; }
  uint64_t context_switches() const { return context_switches_; }
  // Direct switches (HandoffTo), ever; mirrored in "os/sched/handoffs".
  uint64_t handoffs() const { return handoffs_; }
  // "os/sched/futex_waiters": threads parked in any futex wait, across the
  // channel and semaphore paths (registered once, shared by every park).
  obs::Gauge* futex_waiters() const { return m_futex_waiters_; }

  // ---- Time ----

  // Charges `d` to `cat` (and to the thread's current process) and advances
  // virtual time by suspending until now+d. Zero durations don't suspend.
  struct SpendAwaiter {
    Kernel* kernel;
    Thread* thread;
    sim::Duration d;
    bool await_ready() const { return d <= sim::Duration::Zero(); }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  SpendAwaiter Spend(Thread& t, sim::Duration d, TimeCat cat) {
    ChargeOnly(t, d, cat);
    return SpendAwaiter{this, &t, d};
  }
  // As Spend, but bills the domain-time attribution to an explicit bucket
  // instead of DomainKindFor(cat) — copy_{from,to}_user charges kKernel
  // accounting time but attributes it as data-plane copy work.
  SpendAwaiter Spend(Thread& t, sim::Duration d, TimeCat cat, obs::DomainTimeKind kind) {
    ChargeOnly(t, d, cat, kind);
    return SpendAwaiter{this, &t, d};
  }
  // Accounting without time advancement; use only when combining several
  // categories into one SpendAwaiter (see SpendTagged).
  void ChargeOnly(Thread& t, sim::Duration d, TimeCat cat) {
    ChargeOnly(t, d, cat, DomainKindFor(cat));
  }
  void ChargeOnly(Thread& t, sim::Duration d, TimeCat cat, obs::DomainTimeKind kind) {
    accounting_.Charge(t.last_cpu(), cat, d);
    t.process().ChargeCpu(d);
    if (kind != obs::DomainTimeKind::kCount) {
      obs::ChargeDomainTime(static_cast<uint32_t>(t.cap_ctx().current_domain), kind, d.picos());
    }
  }
  // Charges each (cat, d) pair, suspending once for the summed duration.
  // Variadic rather than initializer_list: init-list temporaries in co_await
  // expressions trip a GCC 12 coroutine bug ("array used as initializer").
  struct CatCost {
    TimeCat cat;
    sim::Duration d;
  };
  template <typename... Cs>
  SpendAwaiter SpendMany(Thread& t, Cs... items) {
    sim::Duration total;
    (
        [&] {
          ChargeOnly(t, items.d, items.cat);
          total += items.d;
        }(),
        ...);
    return SpendAwaiter{this, &t, total};
  }

  // Syscall entry: trap into the kernel + dispatch trampoline (Fig. 2
  // blocks 2-3). Exit: swapgs+sysret (block 2).
  SpendAwaiter SyscallEnter(Env env) {
    return SpendMany(*env.self,
                     CatCost{TimeCat::kSyscallCrossing, costs().syscall_trap},
                     CatCost{TimeCat::kSyscallDispatch, costs().syscall_dispatch});
  }
  SpendAwaiter SyscallExit(Env env) {
    return Spend(*env.self, costs().sysret, TimeCat::kSyscallCrossing);
  }

  // Blocks the calling thread for `d` of virtual time (releases its CPU).
  struct SleepAwaiter {
    Kernel* kernel;
    Thread* thread;
    sim::Duration d;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  SleepAwaiter Sleep(Env env, sim::Duration d) { return SleepAwaiter{this, env.self, d}; }

  // ---- Scheduling ----

  // Parks the calling thread. The caller must already have registered the
  // thread with whatever will wake it (wait queue, timer...).
  struct BlockAwaiter {
    Kernel* kernel;
    Thread* thread;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  BlockAwaiter Block(Env env) { return BlockAwaiter{this, env.self}; }

  // Makes `t` runnable. `waker_cpu` is where the waking code runs (for IPI
  // accounting); `extra_delay` postpones dispatch (device latency etc.).
  // Returns the cost the *waker* must still spend (e.g. sending the IPI).
  [[nodiscard]] sim::Duration MakeRunnable(Thread& t, std::optional<hw::CpuId> waker_cpu,
                                           sim::Duration extra_delay = sim::Duration::Zero());

  // Scheduler-realism knob: extra wakeup-to-dispatch latency for unpinned
  // threads (runqueue delay + wake_affine imperfection a loaded Linux shows,
  // §7.4's "the scheduler temporarily imbalances the CPUs, at which point
  // synchronous IPC must wait"). Zero by default so microbenchmarks see the
  // bare-metal path; the OLTP macro model sets ~1 us for the Linux-IPC
  // configuration.
  void set_wake_latency(sim::Duration d) { wake_latency_ = d; }
  sim::Duration wake_latency() const { return wake_latency_; }

  // L4-style direct handoff: the caller blocks (it must already be parked on
  // a wait structure) and `target` is dispatched immediately on this CPU,
  // charging only `switch_cost` (plus a page-table switch if the processes
  // differ) instead of the full scheduler path. `kernel_work` is kernel time
  // the caller still spends on its way out, billed to it as kKernel, before
  // the switch (FUTEX_SWAP's wake half). Counted in "os/sched/handoffs".
  struct HandoffAwaiter {
    Kernel* kernel;
    Thread* from;
    Thread* target;
    sim::Duration switch_cost;
    sim::Duration kernel_work;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  HandoffAwaiter HandoffTo(Env env, Thread& target, sim::Duration switch_cost,
                           sim::Duration kernel_work = sim::Duration::Zero()) {
    return HandoffAwaiter{this, env.self, &target, switch_cost, kernel_work};
  }

  // Busy-wait: the caller keeps its CPU (no syscall, no park) until
  // EndSpin(), need_resched (MakeRunnable queues another thread on this
  // CPU), `until` (no timer when it is Time::Max()), or, for a spin `on` a
  // wait queue, that queue's publisher leaving its CPU (it blocks, swaps,
  // sleeps, exits or spins itself) — whichever comes first. The spun time
  // is billed as kUser to the CPU and process when the spin ends. A spin
  // costs at most two events: its timer, or the resume an early end
  // schedules.
  struct SpinAwaiter {
    Kernel* kernel;
    Thread* thread;
    sim::Time until;
    const WaitQueue* on = nullptr;
    bool await_ready() const { return until <= kernel->now(); }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  SpinAwaiter SpinUntil(Env env, sim::Time until) { return SpinAwaiter{this, env.self, until}; }
  // Ends `t`'s spin: it resumes `delay` from now (the cache-line transfer
  // that shows it the change it watches). A no-op when `t` is not spinning
  // or its timer fires first.
  void EndSpin(Thread& t, sim::Duration delay);
  // Cumulative busy-wait time over every spin that has ended; mirrored in
  // "os/sched/spun_ns".
  sim::Duration spun() const { return spun_; }

  // ---- User memory (checked by CODOMs, charged through TLB + caches) ----

  // Pure protection+translation+cache cost of an access, or kFault.
  base::Result<sim::Duration> UserAccessCost(Thread& t, hw::VirtAddr va, uint64_t len,
                                             hw::AccessType type);

  // Charges the cost of touching user memory (no data movement); used by
  // workload models. Faults become the returned status.
  sim::Task<base::Status> TouchUser(Env env, hw::VirtAddr va, uint64_t len, hw::AccessType type,
                                    TimeCat cat = TimeCat::kUser);

  // Kernel copy_{from,to}_user: moves real bytes between user VA and a
  // kernel physical buffer, charging both sides' cache costs to kKernel.
  sim::Task<base::Status> CopyFromUser(Env env, hw::PhysAddr kernel_pa, hw::VirtAddr user_va,
                                       uint64_t len);
  sim::Task<base::Status> CopyToUser(Env env, hw::VirtAddr user_va, hw::PhysAddr kernel_pa,
                                     uint64_t len);

  // Untimed data access (tests, loaders). Protection-checked.
  base::Status UserWrite(Thread& t, hw::VirtAddr va, std::span<const std::byte> data);
  base::Status UserRead(Thread& t, hw::VirtAddr va, std::span<std::byte> out);

  // ---- Virtual memory ----

  // Maps `len` bytes of fresh anonymous memory into the process, tagged with
  // `tag` (or the process default). Returns the base VA.
  base::Result<hw::VirtAddr> MapAnonymous(Process& proc, uint64_t len, hw::PageFlags flags,
                                          hw::DomainTag tag = hw::kInvalidDomainTag,
                                          std::optional<hw::VirtAddr> fixed_va = std::nullopt);

  // Contiguous physical buffer for kernel-internal use (pipe/socket rings).
  hw::PhysAddr AllocKernelBuffer(uint64_t len);

  // ---- Name registry (UNIX named sockets; used by RPC and dIPC entry
  // resolution, §6.2.1) ----
  base::Status BindPath(const std::string& path, std::shared_ptr<KernelObject> obj);
  std::shared_ptr<KernelObject> LookupPath(const std::string& path) const;
  void UnbindPath(const std::string& path);

  // ---- Simulation driving ----
  void Run() { machine_.events().RunUntilIdle(); }
  void RunFor(sim::Duration d) { machine_.events().RunUntil(now() + d); }

  // Closes all open idle intervals so accounting snapshots are exact
  // (normally idle is charged when the next dispatch ends the interval).
  // Call before Reset()/reading the accounting around measurement windows.
  void FlushIdleAccounting() {
    for (hw::CpuId c = 0; c < cpus_.size(); ++c) {
      CpuState& cs = cpus_[c];
      if (cs.idle) {
        accounting_.Charge(c, TimeCat::kIdle, now() - cs.idle_since);
        cs.idle_since = now();
      }
    }
  }

 private:
  friend class WaitQueue;
  friend class DeferredWake;

  struct CpuState {
    Thread* running = nullptr;
    std::deque<Thread*> runq;
    bool dispatch_pending = false;
    bool idle = true;
    sim::Time idle_since;
    Process* last_process = nullptr;  // for page-table/current switch costs
    // The running thread's busy-wait, if it is spinning (SpinUntil), and
    // the wait queue whose publisher it watches.
    Thread* spinner = nullptr;
    const WaitQueue* spin_on = nullptr;
    sim::Time spin_start;
    sim::Time spin_until;
    sim::EventId spin_timer = sim::kInvalidEventId;
    std::coroutine_handle<> spin_resume;
  };

  hw::CpuId PickCpu(const Thread& t) const;
  // Publishes `cpu`'s run-queue depth (gauge + trace instant) after a
  // queue change — the chaos-forensics signal for "where work piled up".
  void NoteRunqDepth(hw::CpuId cpu);
  // Called when the running thread on `cpu` stops running (block/exit).
  void CpuReleased(hw::CpuId cpu);
  // Dispatches `t` on `cpu` after `extra` cost; standard_path charges the
  // full scheduler cost, otherwise only `extra` (direct handoff). `lead` is
  // time the CPU is still busy first, already billed by the caller.
  void Dispatch(hw::CpuId cpu, Thread& t, sim::Duration extra, bool standard_path,
                sim::Duration lead = sim::Duration::Zero());
  void ResumeThread(Thread& t);
  void OnThreadExit(Thread& t);
  // Ends `cs`'s spin at `end`, billing it; returns the spinner's resume point.
  std::coroutine_handle<> FinishSpin(CpuState& cs, sim::Time end);
  // `t` is leaving its CPU: ends every spin on a queue `t` publishes.
  void EndSpinsOn(const Thread* t);

  hw::Machine& machine_;
  codoms::Codoms& codoms_;
  TimeAccounting accounting_;
  // Set by the destructor, before threads_ (declared below) destroys the
  // thread frames: a frame suspended between a publish and its park then
  // drops its DeferredWake with the simulation, which is no lost wake.
  bool tearing_down_ = false;
  std::vector<CpuState> cpus_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::unordered_map<std::string, std::shared_ptr<KernelObject>> name_registry_;
  Pid next_pid_ = 1;
  Tid next_tid_ = 1;
  uint64_t context_switches_ = 0;
  uint64_t handoffs_ = 0;
  sim::Duration spun_;
  sim::Duration wake_latency_;
  // Scheduler observability handles (registered in the ctor): cross-CPU
  // dispatches of already-running threads, direct switches, spun time, and
  // per-CPU run-queue depth.
  obs::Counter* m_migrations_ = nullptr;
  obs::Counter* m_handoffs_ = nullptr;
  obs::Counter* m_spun_ns_ = nullptr;
  obs::Gauge* m_futex_waiters_ = nullptr;
  std::vector<obs::Gauge*> m_runq_depth_;
};

// A wake its publisher took instead of issuing: the FUTEX_SWAP-style
// wake-and-park. A publish that would wake a parked thread hands that thread
// back (WaitQueue::TakeForSwap), and the publisher's next park switches its
// CPU straight to it in the same syscall (WaitQueue::Wait with the wake,
// through Kernel::HandoffTo): no IPI, no idle exit, no scheduler pick. A
// path that does not park issues it as an ordinary FUTEX_WAKE instead
// (os/futex.h's FutexWake(env, *wake.Take())). Move-only and never dropped:
// destroying a live one would lose the wake, so the destructor checks —
// except during kernel teardown, which destroys frames suspended between
// publish and park.
class DeferredWake {
 public:
  DeferredWake() = default;
  DeferredWake(DeferredWake&& o) noexcept
      : kernel_(o.kernel_), waiter_(std::exchange(o.waiter_, nullptr)) {}
  DeferredWake& operator=(DeferredWake&& o) noexcept {
    DIPC_CHECK(waiter_ == nullptr);
    kernel_ = o.kernel_;
    waiter_ = std::exchange(o.waiter_, nullptr);
    return *this;
  }
  ~DeferredWake() { DIPC_CHECK(waiter_ == nullptr || kernel_->tearing_down_); }

  explicit operator bool() const { return waiter_ != nullptr; }
  // False once the waiter was killed: a swap needs a parked thread.
  bool swappable() const { return waiter_->state() == ThreadState::kBlocked; }
  // Consumes the wake; the caller now owns waking the thread.
  Thread* Take() { return std::exchange(waiter_, nullptr); }

 private:
  friend class WaitQueue;
  DeferredWake(Kernel* kernel, Thread* waiter) : kernel_(kernel), waiter_(waiter) {}

  Kernel* kernel_ = nullptr;
  Thread* waiter_ = nullptr;
};

// A FIFO wait queue of threads; the building block of every blocking
// primitive. Waking returns the thread so the caller can MakeRunnable it
// (and account wake costs at the call site).
class WaitQueue {
 public:
  // co_await wq.Wait(env): parks the calling thread on this queue — and,
  // given a DeferredWake, hands its CPU to `handoff` in the same step.
  struct WaitAwaiter {
    WaitQueue* queue;
    Kernel* kernel;
    Thread* thread;
    Thread* handoff = nullptr;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  WaitAwaiter Wait(Env env) { return WaitAwaiter{this, env.kernel, env.self}; }
  // FUTEX_SWAP's park: parks like Wait(env), then does the wake's kernel
  // work and switches this CPU straight to `wake`'s waiter (Kernel::HandoffTo:
  // a register save/restore, plus a page-table switch across page tables).
  // Consumes `wake`; an empty one parks plainly, and a waiter killed since
  // the publish needs no wake.
  WaitAwaiter Wait(Env env, DeferredWake& wake) {
    Thread* to = wake ? wake.Take() : nullptr;
    if (to != nullptr && to->state() != ThreadState::kBlocked) {
      to = nullptr;
    }
    return WaitAwaiter{this, env.kernel, env.self, to};
  }

  // FUTEX_SWAP's publish half: takes the thread WakeOneThread would wake
  // off the queue without waking it, for `waker`'s next park. Empty when
  // nobody is parked, or when that thread is pinned to another CPU (a swap
  // runs it on the waker's CPU): wake those the ordinary way.
  DeferredWake TakeForSwap(Env waker) {
    while (!waiters_.empty() && waiters_.front()->state() == ThreadState::kDead) {
      waiters_.pop_front();
    }
    if (waiters_.empty()) {
      return {};
    }
    Thread* t = waiters_.front();
    if (t->pin_cpu() >= 0 && static_cast<hw::CpuId>(t->pin_cpu()) != waker.self->last_cpu()) {
      return {};
    }
    waiters_.pop_front();
    return DeferredWake(waker.kernel, t);
  }

  // Raw enqueue without parking; pair with Kernel::Block or HandoffTo when
  // the caller must do something between queueing and suspending (e.g. L4's
  // reply-and-wait donates its time slice to the caller *after* queueing).
  void Enqueue(Thread* t) { waiters_.push_back(t); }

  Thread* WakeOneThread() {
    while (!waiters_.empty()) {
      Thread* t = waiters_.front();
      waiters_.pop_front();
      if (t->state() != ThreadState::kDead) {
        return t;
      }
    }
    return nullptr;
  }

  // Wakes every parked thread at no cost to the waker: the close, failure
  // and teardown flavor, which mostly runs without a thread Env. A known
  // `waker_cpu` is passed on to MakeRunnable. Spinners see it one cache-line
  // transfer later; they stay listed, as it is no publish.
  void WakeAll(Kernel& kernel, std::optional<hw::CpuId> waker_cpu = std::nullopt) {
    for (Thread* t : spinners_) {
      kernel.EndSpin(*t, kernel.costs().remote_transfer);
    }
    while (Thread* t = WakeOneThread()) {
      (void)kernel.MakeRunnable(*t, waker_cpu);
    }
  }

  // ---- The spin rule (os/futex.h) ----

  // The thread whose next publish would end a wait on this queue: its last
  // publisher. Null until someone publishes.
  Thread* publisher() const { return publisher_; }
  // The rule's start condition: the publisher runs its own code on a CPU
  // (or is being dispatched to one), so it is not busy-waiting, queued,
  // blocked or dead, and no other thread waits for `env.self`'s CPU.
  bool SpinPays(Env env) const {
    const Thread* p = publisher_;
    const std::vector<Kernel::CpuState>& cpus = env.kernel->cpus_;
    return p != nullptr && p != env.self && !p->queued() && cpus[p->last_cpu()].spinner != p &&
           (p->state() == ThreadState::kRunning || p->state() == ThreadState::kRunnable) &&
           cpus[env.self->last_cpu()].runq.empty();
  }
  // A publish of `n` items by `env.self`, which becomes the queue's
  // publisher: up to `n` spinning waiters see it one cache-line transfer
  // later, with no FUTEX_WAKE. True when parked waiters still need a wake
  // for the rest.
  bool Publish(Env env, uint64_t n = UINT64_MAX) {
    publisher_ = env.self;
    return EndSpins(*env.kernel, n) < n && waiting_ > 0;
  }
  // Ends up to `n` spins in FIFO order without naming a publisher (wake
  // chaining, stores from teardown hooks) and unlists them.
  uint64_t EndSpins(Kernel& kernel, uint64_t n) {
    uint64_t ended = 0;
    for (; ended < n && ended < spinners_.size(); ++ended) {
      kernel.EndSpin(*spinners_[ended], kernel.costs().remote_transfer);
    }
    spinners_.erase(spinners_.begin(), spinners_.begin() + static_cast<std::ptrdiff_t>(ended));
    return ended;
  }
  // The user-level waiter count: threads between the start of a park and
  // its return. A publisher that reads zero skips the FUTEX_WAKE syscall.
  uint64_t waiting() const { return waiting_; }
  // Bookkeeping of os::FutexBlockUntil, its only caller: the spinner list
  // (UnlistSpinner is false when a publish ended the spin and unlisted it)
  // and the waiter count.
  void ListSpinner(Thread* t) { spinners_.push_back(t); }
  bool UnlistSpinner(Thread* t) { return std::erase(spinners_, t) > 0; }
  void CountWaiter(bool in) { in ? ++waiting_ : --waiting_; }

  bool Remove(Thread* t) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == t) {
        waiters_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }

 private:
  std::deque<Thread*> waiters_;
  Thread* publisher_ = nullptr;
  // Busy-waiting for a publish, FIFO. A vector, not a deque: a wait queue
  // exists per semaphore, and most never see a spinner.
  std::vector<Thread*> spinners_;
  uint64_t waiting_ = 0;
};

}  // namespace dipc::os

#endif  // DIPC_OS_KERNEL_H_
