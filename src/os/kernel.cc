#include "os/kernel.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "os/futex.h"

namespace dipc::os {

Kernel::Kernel(hw::Machine& machine, codoms::Codoms& codoms)
    : machine_(machine), codoms_(codoms), accounting_(machine.num_cpus()) {
  cpus_.resize(machine.num_cpus());
  for (auto& cs : cpus_) {
    cs.idle_since = now();
  }
  // Scheduler observability. Names are machine-scoped (not per Kernel
  // instance), so sequential sims in one binary share handles — the
  // registry resets between bench series anyway.
  obs::Registry& reg = obs::Registry::Default();
  m_migrations_ = reg.GetCounter("os/sched/migrations");
  m_handoffs_ = reg.GetCounter("os/sched/handoffs");
  m_spun_ns_ = reg.GetCounter("os/sched/spun_ns");
  m_futex_waiters_ = reg.GetGauge("os/sched/futex_waiters");
  m_runq_depth_.resize(cpus_.size());
  for (hw::CpuId c = 0; c < cpus_.size(); ++c) {
    m_runq_depth_[c] = reg.GetGauge("os/sched/cpu" + std::to_string(c) + "/runq_depth");
  }
}

Kernel::~Kernel() { tearing_down_ = true; }

// ---- Processes and threads ----

Process& Kernel::CreateProcess(std::string name) {
  hw::PageTable& pt = machine_.CreatePageTable();
  hw::DomainTag tag = codoms_.apl_table().AllocateTag();
  auto proc = std::make_unique<Process>(next_pid_++, std::move(name), pt, tag);
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  return ref;
}

Process& Kernel::CreateProcessIn(std::string name, hw::PageTable& pt, hw::DomainTag default_domain) {
  auto proc = std::make_unique<Process>(next_pid_++, std::move(name), pt, default_domain);
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  return ref;
}

Thread& Kernel::Spawn(Process& proc, std::string name, ThreadBody body, int pin_cpu) {
  auto thread = std::make_unique<Thread>(next_tid_++, std::move(name), proc, std::move(body),
                                         pin_cpu);
  Thread& t = *thread;
  threads_.push_back(std::move(thread));
  t.cap_ctx().current_domain = proc.default_domain();
  if (pin_cpu >= 0) {
    t.set_last_cpu(static_cast<hw::CpuId>(pin_cpu));
  }
  Env env{this, &t};
  t.set_task(t.body_fn()(env));
  (void)MakeRunnable(t, std::nullopt);
  return t;
}

sim::Task<void> Kernel::Join(Env env, Thread& target) {
  if (target.state() == ThreadState::kDead) {
    co_return;
  }
  target.joiners().push_back(env.self);
  co_await Block(env);
}

void Kernel::KillThread(Thread& t) {
  if (t.state() == ThreadState::kDead) {
    return;
  }
  DIPC_CHECK(t.state() != ThreadState::kRunning);  // running threads exit by returning
  EndSpinsOn(&t);  // it may have been on its way onto a CPU
  t.set_state(ThreadState::kDead);
  for (Thread* j : t.joiners()) {
    (void)MakeRunnable(*j, std::nullopt);
  }
  t.joiners().clear();
}

// ---- Awaitables ----

void Kernel::SpendAwaiter::await_suspend(std::coroutine_handle<> h) {
  // The CPU stays assigned to the thread; we just advance virtual time.
  kernel->machine_.events().ScheduleAfter(d, [h] { h.resume(); });
}

void Kernel::BlockAwaiter::await_suspend(std::coroutine_handle<> h) {
  thread->set_resume_point(h);
  thread->set_state(ThreadState::kBlocked);
  kernel->CpuReleased(thread->last_cpu());
}

void Kernel::SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  Thread* t = thread;
  Kernel* k = kernel;
  t->set_resume_point(h);
  t->set_state(ThreadState::kBlocked);
  k->machine_.events().ScheduleAfter(d, [k, t] { (void)k->MakeRunnable(*t, std::nullopt); });
  k->CpuReleased(t->last_cpu());
}

void Kernel::HandoffAwaiter::await_suspend(std::coroutine_handle<> h) {
  from->set_resume_point(h);
  from->set_state(ThreadState::kBlocked);
  hw::CpuId cpu = from->last_cpu();
  Kernel::CpuState& cs = kernel->cpus_[cpu];
  DIPC_CHECK(cs.running == from);
  kernel->EndSpinsOn(from);
  cs.running = nullptr;
  DIPC_CHECK(target->state() == ThreadState::kBlocked);
  target->set_state(ThreadState::kRunnable);
  ++kernel->handoffs_;
  kernel->m_handoffs_->Add();
  if (kernel_work > sim::Duration::Zero()) {
    kernel->ChargeOnly(*from, kernel_work, TimeCat::kKernel);
  }
  kernel->Dispatch(cpu, *target, switch_cost, /*standard_path=*/false, kernel_work);
}

void Kernel::SpinAwaiter::await_suspend(std::coroutine_handle<> h) {
  const hw::CpuId cpu = thread->last_cpu();
  Kernel::CpuState& cs = kernel->cpus_[cpu];
  DIPC_CHECK(cs.running == thread && cs.spinner == nullptr);
  kernel->EndSpinsOn(thread);  // a spinning publisher publishes nothing
  cs.spinner = thread;
  cs.spin_on = on;
  cs.spin_start = kernel->now();
  cs.spin_until = until;
  cs.spin_resume = h;
  Kernel* k = kernel;
  if (until != sim::Time::Max()) {  // else a stale id: Cancel finds nothing
    cs.spin_timer = k->machine_.events().ScheduleAt(
        until, [k, cpu] { k->FinishSpin(k->cpus_[cpu], k->now()).resume(); });
  }
}

void Kernel::EndSpin(Thread& t, sim::Duration delay) {
  CpuState& cs = cpus_[t.last_cpu()];
  const sim::Time end = now() + delay;
  if (cs.spinner != &t || end >= cs.spin_until) {
    return;  // not spinning, or the budget timer ends the spin first
  }
  (void)machine_.events().Cancel(cs.spin_timer);
  std::coroutine_handle<> h = FinishSpin(cs, end);
  machine_.events().ScheduleAt(end, [h] { h.resume(); });
}

std::coroutine_handle<> Kernel::FinishSpin(CpuState& cs, sim::Time end) {
  Thread& t = *cs.spinner;
  cs.spinner = nullptr;
  const sim::Duration spun = end - cs.spin_start;
  ChargeOnly(t, spun, TimeCat::kUser);
  spun_ += spun;
  m_spun_ns_->Add(static_cast<uint64_t>(spun.picos() / 1000));
  return std::exchange(cs.spin_resume, nullptr);
}

void Kernel::EndSpinsOn(const Thread* t) {
  // The spinner polls its publisher's on-CPU state: one line transfer.
  for (CpuState& cs : cpus_) {
    if (cs.spinner != nullptr && cs.spin_on != nullptr && cs.spin_on->publisher() == t) {
      EndSpin(*cs.spinner, costs().remote_transfer);
    }
  }
}

void WaitQueue::WaitAwaiter::await_suspend(std::coroutine_handle<> h) {
  queue->waiters_.push_back(thread);
  if (handoff != nullptr) {
    const hw::CostModel& cm = kernel->costs();
    kernel
        ->HandoffTo(Env{kernel, thread}, *handoff, cm.register_save + cm.register_restore,
                    kFutexWakeKernel)
        .await_suspend(h);
    return;
  }
  thread->set_resume_point(h);
  thread->set_state(ThreadState::kBlocked);
  kernel->CpuReleased(thread->last_cpu());
}

// ---- Scheduling ----

hw::CpuId Kernel::PickCpu(const Thread& t) const {
  if (t.pin_cpu() >= 0) {
    return static_cast<hw::CpuId>(t.pin_cpu());
  }
  hw::CpuId last = t.last_cpu();
  const CpuState& last_cs = cpus_[last];
  if (last_cs.running == nullptr && !last_cs.dispatch_pending) {
    return last;  // cache-warm home CPU is free
  }
  // Wake balancing: prefer an idle CPU over queueing.
  for (hw::CpuId c = 0; c < cpus_.size(); ++c) {
    const CpuState& cs = cpus_[c];
    if (cs.running == nullptr && !cs.dispatch_pending && cs.runq.empty()) {
      return c;
    }
  }
  return last;
}

sim::Duration Kernel::MakeRunnable(Thread& t, std::optional<hw::CpuId> waker_cpu,
                                   sim::Duration extra_delay) {
  if (t.state() == ThreadState::kDead) {
    return sim::Duration::Zero();
  }
  DIPC_CHECK(t.state() == ThreadState::kBlocked || t.state() == ThreadState::kCreated);
  t.set_state(ThreadState::kRunnable);
  hw::CpuId target = PickCpu(t);
  CpuState& cs = cpus_[target];
  sim::Duration waker_cost;
  if (cs.running == nullptr && !cs.dispatch_pending) {
    sim::Duration lat = extra_delay;
    if (t.pin_cpu() < 0) {
      lat += wake_latency_;
    }
    if (waker_cpu.has_value() && *waker_cpu != target) {
      // Cross-CPU wakeup: the waker sends an IPI; delivery + C-state exit
      // delay the dispatch (§2.2's "going across CPUs is even more
      // expensive"). The target's time in between stays accounted as idle.
      waker_cost += costs().ipi_send;
      lat += costs().ipi_deliver + costs().idle_exit;
    }
    cs.dispatch_pending = true;
    Thread* tp = &t;
    machine_.events().ScheduleAfter(lat, [this, target, tp] {
      cpus_[target].dispatch_pending = false;
      Dispatch(target, *tp, sim::Duration::Zero(), /*standard_path=*/true);
    });
  } else {
    t.set_queued(true);
    cs.runq.push_back(&t);
    NoteRunqDepth(target);
    if (cs.spinner != nullptr) {
      EndSpin(*cs.spinner, sim::Duration::Zero());  // need_resched
    }
  }
  return waker_cost;
}

void Kernel::NoteRunqDepth(hw::CpuId cpu) {
  const auto depth = static_cast<uint64_t>(cpus_[cpu].runq.size());
  m_runq_depth_[cpu]->Set(static_cast<int64_t>(depth));
  obs::Trace().Record(cpu, obs::EventType::kRunqDepth, /*obj=*/0, depth, now());
}

void Kernel::CpuReleased(hw::CpuId cpu) {
  CpuState& cs = cpus_[cpu];
  EndSpinsOn(cs.running);
  cs.running = nullptr;
  Thread* next = nullptr;
  const size_t depth_before = cs.runq.size();
  while (!cs.runq.empty()) {
    Thread* cand = cs.runq.front();
    cs.runq.pop_front();
    cand->set_queued(false);
    if (cand->state() != ThreadState::kDead) {
      next = cand;
      break;
    }
  }
  if (depth_before != cs.runq.size()) {
    NoteRunqDepth(cpu);
  }
  if (next == nullptr) {
    // Idle balancing: steal a queued, unpinned thread from the busiest CPU.
    CpuState* victim = nullptr;
    for (auto& other : cpus_) {
      if (&other == &cs || other.runq.empty()) {
        continue;
      }
      if (victim == nullptr || other.runq.size() > victim->runq.size()) {
        victim = &other;
      }
    }
    if (victim != nullptr) {
      for (auto it = victim->runq.begin(); it != victim->runq.end(); ++it) {
        if ((*it)->pin_cpu() < 0 && (*it)->state() != ThreadState::kDead) {
          next = *it;
          next->set_queued(false);
          victim->runq.erase(it);
          NoteRunqDepth(static_cast<hw::CpuId>(victim - cpus_.data()));
          break;
        }
      }
    }
  }
  if (next != nullptr) {
    cs.dispatch_pending = true;
    Thread* tp = next;
    // Unpinned threads pay the configured wakeup/runqueue latency here too:
    // on a loaded Linux the next task is not on the CPU the same nanosecond.
    // Deep run queues amortize it (the next task is already waiting), which
    // is how oversubscription "fills the system" in §7.4.
    sim::Duration lat = next->pin_cpu() < 0 ? wake_latency_ : sim::Duration::Zero();
    lat = sim::Duration::Picos(lat.picos() / (1 + 2 * static_cast<int64_t>(cs.runq.size())));
    if (lat > sim::Duration::Zero()) {
      cs.idle = true;  // the gap is architecturally idle time
      cs.idle_since = now();
    }
    machine_.events().ScheduleAfter(lat, [this, cpu, tp] {
      cpus_[cpu].dispatch_pending = false;
      Dispatch(cpu, *tp, sim::Duration::Zero(), /*standard_path=*/true);
    });
  } else {
    cs.idle = true;
    cs.idle_since = now();
  }
}

void Kernel::Dispatch(hw::CpuId cpu, Thread& t, sim::Duration extra, bool standard_path,
                      sim::Duration lead) {
  CpuState& cs = cpus_[cpu];
  if (t.state() == ThreadState::kDead) {
    CpuReleased(cpu);
    return;
  }
  DIPC_CHECK(cs.running == nullptr);
  DIPC_CHECK(t.state() == ThreadState::kRunnable);
  if (cs.idle) {
    accounting_.Charge(cpu, TimeCat::kIdle, now() - cs.idle_since);
    cs.idle = false;
  }
  cs.running = &t;
  t.set_state(ThreadState::kRunning);
  const hw::CpuId prev_cpu = t.last_cpu();
  // A thread with a resume point has run before, so landing on a different
  // CPU is a migration (cold caches, §2.2). First dispatches don't count.
  if (t.has_resume_point() && prev_cpu != cpu) {
    m_migrations_->Add();
    obs::Trace().Record(cpu, obs::EventType::kSchedMigrate, static_cast<uint32_t>(t.tid()),
                        (static_cast<uint64_t>(prev_cpu) << 32) | cpu, now());
  }
  t.set_last_cpu(cpu);
  // Scheduler charges bill to the incoming thread's domain as kernel work
  // (after set_last_cpu so the attribution lands on this CPU's breakdown).
  const uint32_t dom = static_cast<uint32_t>(t.cap_ctx().current_domain);
  const hw::CostModel& cm = costs();
  sim::Duration cost = extra;
  if (standard_path) {
    sim::Duration sched = cm.schedule_pick + cm.register_save + cm.register_restore;
    accounting_.Charge(cpu, TimeCat::kSchedule, sched);
    obs::ChargeDomainTime(dom, obs::DomainTimeKind::kKernel, sched.picos());
    cost += sched;
  } else if (extra > sim::Duration::Zero()) {
    accounting_.Charge(cpu, TimeCat::kSchedule, extra);
    obs::ChargeDomainTime(dom, obs::DomainTimeKind::kKernel, extra.picos());
  }
  if (cs.last_process != &t.process()) {
    if (standard_path) {
      accounting_.Charge(cpu, TimeCat::kSchedule, cm.current_switch);
      obs::ChargeDomainTime(dom, obs::DomainTimeKind::kKernel, cm.current_switch.picos());
      cost += cm.current_switch;
    }
    if (cs.last_process != nullptr &&
        cs.last_process->page_table().id() != t.process().page_table().id()) {
      // CR3 write. dIPC-enabled processes share a page table and skip this.
      accounting_.Charge(cpu, TimeCat::kPageTableSwitch, cm.page_table_switch);
      obs::ChargeDomainTime(dom, obs::DomainTimeKind::kKernel, cm.page_table_switch.picos());
      cost += cm.page_table_switch;
    }
    machine_.cpu(cpu).set_active_page_table(t.process().page_table().id());
  }
  cs.last_process = &t.process();
  ++context_switches_;
  Thread* tp = &t;
  machine_.events().ScheduleAfter(lead + cost, [this, tp] { ResumeThread(*tp); });
}

void Kernel::ResumeThread(Thread& t) {
  if (t.state() == ThreadState::kDead) {
    CpuReleased(t.last_cpu());
    return;
  }
  DIPC_CHECK(t.state() == ThreadState::kRunning);
  if (t.has_resume_point()) {
    t.take_resume_point().resume();
    return;
  }
  // First dispatch: start the body coroutine.
  Thread* tp = &t;
  t.task().Start([this, tp] { OnThreadExit(*tp); });
}

void Kernel::OnThreadExit(Thread& t) {
  t.set_state(ThreadState::kDead);
  hw::CpuId cpu = t.last_cpu();
  for (Thread* j : t.joiners()) {
    (void)MakeRunnable(*j, cpu);
  }
  t.joiners().clear();
  CpuReleased(cpu);
}

// ---- User memory ----

base::Result<sim::Duration> Kernel::UserAccessCost(Thread& t, hw::VirtAddr va, uint64_t len,
                                                   hw::AccessType type) {
  if (len == 0) {
    return sim::Duration::Zero();
  }
  hw::PageTable& pt = t.process().page_table();
  hw::CpuId cpu = t.last_cpu();
  auto check = codoms_.CheckDataAccess(cpu, pt, t.cap_ctx(), va, len, type);
  if (!check.ok()) {
    return check.code();
  }
  sim::Duration d = check.value();
  bool is_write = type == hw::AccessType::kWrite;
  hw::VirtAddr end = va + len;
  hw::VirtAddr pos = va;
  while (pos < end) {
    uint64_t chunk = std::min<uint64_t>(end - pos, hw::kPageSize - hw::PageOffset(pos));
    d += machine_.cpu(cpu).tlb().Translate(pos, pt.id());
    auto pa = pt.Translate(pos);
    DIPC_CHECK(pa.has_value());  // CheckDataAccess verified presence
    d += machine_.caches().Access(cpu, *pa, chunk, is_write);
    if (is_write) {
      codoms_.NotifyPlainWrite(*pa, chunk);
    }
    pos += chunk;
  }
  return d;
}

sim::Task<base::Status> Kernel::TouchUser(Env env, hw::VirtAddr va, uint64_t len,
                                          hw::AccessType type, TimeCat cat) {
  auto cost = UserAccessCost(*env.self, va, len, type);
  if (!cost.ok()) {
    co_return cost.status();
  }
  co_await Spend(*env.self, cost.value(), cat);
  co_return base::Status::Ok();
}

sim::Task<base::Status> Kernel::CopyFromUser(Env env, hw::PhysAddr kernel_pa,
                                             hw::VirtAddr user_va, uint64_t len) {
  Thread& t = *env.self;
  auto user_cost = UserAccessCost(t, user_va, len, hw::AccessType::kRead);
  if (!user_cost.ok()) {
    co_return user_cost.status();
  }
  sim::Duration d = user_cost.value();
  d += machine_.caches().Access(t.last_cpu(), kernel_pa, len, /*is_write=*/true);
  // Move the actual bytes.
  std::vector<std::byte> buf(len);
  base::Status rs = UserRead(t, user_va, buf);
  DIPC_CHECK(rs.ok());
  machine_.mem().Write(kernel_pa, buf);
  // Accounting category stays kKernel (the paper's Fig. 2 buckets), but the
  // per-domain attribution calls it what it is: data-plane copy time.
  co_await Spend(t, d, TimeCat::kKernel, obs::DomainTimeKind::kCopy);
  co_return base::Status::Ok();
}

sim::Task<base::Status> Kernel::CopyToUser(Env env, hw::VirtAddr user_va, hw::PhysAddr kernel_pa,
                                           uint64_t len) {
  Thread& t = *env.self;
  auto user_cost = UserAccessCost(t, user_va, len, hw::AccessType::kWrite);
  if (!user_cost.ok()) {
    co_return user_cost.status();
  }
  sim::Duration d = user_cost.value();
  d += machine_.caches().Access(t.last_cpu(), kernel_pa, len, /*is_write=*/false);
  std::vector<std::byte> buf(len);
  machine_.mem().Read(kernel_pa, buf);
  base::Status ws = UserWrite(t, user_va, buf);
  DIPC_CHECK(ws.ok());
  co_await Spend(t, d, TimeCat::kKernel, obs::DomainTimeKind::kCopy);
  co_return base::Status::Ok();
}

base::Status Kernel::UserWrite(Thread& t, hw::VirtAddr va, std::span<const std::byte> data) {
  hw::PageTable& pt = t.process().page_table();
  auto check =
      codoms_.CheckDataAccess(t.last_cpu(), pt, t.cap_ctx(), va, data.size(), hw::AccessType::kWrite);
  if (!check.ok()) {
    return check.status();
  }
  uint64_t done = 0;
  while (done < data.size()) {
    uint64_t chunk = std::min<uint64_t>(data.size() - done, hw::kPageSize - hw::PageOffset(va + done));
    auto pa = pt.Translate(va + done);
    DIPC_CHECK(pa.has_value());
    machine_.mem().Write(*pa, data.subspan(done, chunk));
    codoms_.NotifyPlainWrite(*pa, chunk);
    done += chunk;
  }
  return base::Status::Ok();
}

base::Status Kernel::UserRead(Thread& t, hw::VirtAddr va, std::span<std::byte> out) {
  hw::PageTable& pt = t.process().page_table();
  auto check =
      codoms_.CheckDataAccess(t.last_cpu(), pt, t.cap_ctx(), va, out.size(), hw::AccessType::kRead);
  if (!check.ok()) {
    return check.status();
  }
  uint64_t done = 0;
  while (done < out.size()) {
    uint64_t chunk = std::min<uint64_t>(out.size() - done, hw::kPageSize - hw::PageOffset(va + done));
    auto pa = pt.Translate(va + done);
    DIPC_CHECK(pa.has_value());
    machine_.mem().Read(*pa, out.subspan(done, chunk));
    done += chunk;
  }
  return base::Status::Ok();
}

// ---- Virtual memory ----

base::Result<hw::VirtAddr> Kernel::MapAnonymous(Process& proc, uint64_t len, hw::PageFlags flags,
                                                hw::DomainTag tag,
                                                std::optional<hw::VirtAddr> fixed_va) {
  if (len == 0) {
    return base::ErrorCode::kInvalidArgument;
  }
  if (tag == hw::kInvalidDomainTag) {
    tag = proc.default_domain();
  }
  uint64_t pages = hw::PageRoundUp(len) / hw::kPageSize;
  hw::VirtAddr base = fixed_va.value_or(proc.AllocVa(pages * hw::kPageSize));
  DIPC_CHECK(hw::PageOffset(base) == 0);
  hw::PageTable& pt = proc.page_table();
  for (uint64_t i = 0; i < pages; ++i) {
    uint64_t frame = machine_.mem().AllocFrame();
    base::Status s = pt.MapPage(base + i * hw::kPageSize, frame, flags, tag);
    if (!s.ok()) {
      return s.code();
    }
  }
  return base;
}

hw::PhysAddr Kernel::AllocKernelBuffer(uint64_t len) {
  uint64_t pages = hw::PageRoundUp(len) / hw::kPageSize;
  DIPC_CHECK(pages > 0);
  uint64_t first = machine_.mem().AllocFrame();
  for (uint64_t i = 1; i < pages; ++i) {
    uint64_t next = machine_.mem().AllocFrame();
    DIPC_CHECK(next == first + i);  // bump allocator keeps them contiguous
  }
  return first << hw::kPageShift;
}

// ---- Name registry ----

base::Status Kernel::BindPath(const std::string& path, std::shared_ptr<KernelObject> obj) {
  auto [it, inserted] = name_registry_.emplace(path, std::move(obj));
  (void)it;
  return inserted ? base::Status::Ok() : base::ErrorCode::kAlreadyExists;
}

std::shared_ptr<KernelObject> Kernel::LookupPath(const std::string& path) const {
  auto it = name_registry_.find(path);
  return it == name_registry_.end() ? nullptr : it->second;
}

void Kernel::UnbindPath(const std::string& path) { name_registry_.erase(path); }

}  // namespace dipc::os
