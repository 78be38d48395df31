#include "dipc/dipc.h"

#include <exception>
#include <utility>

#include "fault/fault.h"
#include "obs/trace.h"

namespace dipc::core {

Dipc::Dipc(os::Kernel& kernel) : kernel_(kernel), vas_(kernel.machine()) {
  m_kill_sweeps_ = metrics_.GetCounter("dipc/kill_sweeps");
  m_death_hook_runs_ = metrics_.GetCounter("dipc/death_hook_runs");
}

Dipc::~Dipc() = default;

void Dipc::KillProcess(os::Process& proc) {
  // Hooks may reentrantly kill further processes; defer nested kills to the
  // outermost call so each one is swept with the complete hook list (a hook
  // skipped mid-cascade would never learn its watched process died).
  pending_kills_.push_back(&proc);
  if (in_kill_sweep_) {
    return;
  }
  in_kill_sweep_ = true;
  // Hooks are arbitrary std::functions: one that throws must not skip the
  // remaining hooks, drop queued nested kills, or leave the sweep flag
  // wedged. So nothing unwinds mid-sweep — the first exception is captured,
  // every queued death is still swept through every hook, and the exception
  // resurfaces only once the machinery is back at rest (later throws are
  // subsumed by the first).
  std::exception_ptr first_error;
  for (size_t next_kill = 0; next_kill < pending_kills_.size(); ++next_kill) {
    os::Process* dead = pending_kills_[next_kill];
    if (!dead->alive()) {
      continue;
    }
    dead->MarkDead();
    // Hooks may also reentrantly register hooks; run the sweep on a
    // swapped-out list (AddDeathHook appends to the fresh one) and merge
    // the survivors back before the next queued kill drains.
    std::vector<ProcessDeathHook> hooks;
    hooks.swap(death_hooks_);
    const uint64_t hooks_run = hooks.size();
    m_kill_sweeps_->Add();
    m_death_hook_runs_->Add(hooks_run);
    obs::Trace().Record(0, obs::EventType::kDeathSweep, static_cast<uint32_t>(dead->pid()),
                        hooks_run, kernel_.now());
    // A kill rule here scripts cascading failures ("when anything dies,
    // kill Y too") — the nested kill lands on pending_kills_ and is swept
    // by this same outermost call. Other actions only mark the log.
    (void)DIPC_FAULT_POINT(kDeathSweep);
    size_t kept = 0;
    for (size_t i = 0; i < hooks.size(); ++i) {
      bool keep = true;
      try {
        keep = hooks[i](*dead);
      } catch (...) {
        if (first_error == nullptr) {
          first_error = std::current_exception();
        }
        // A throwing hook stays registered.
      }
      if (keep) {
        if (kept != i) {
          hooks[kept] = std::move(hooks[i]);
        }
        ++kept;
      }
    }
    hooks.resize(kept);
    for (ProcessDeathHook& added : death_hooks_) {  // registered mid-sweep
      hooks.push_back(std::move(added));
    }
    death_hooks_ = std::move(hooks);
  }
  pending_kills_.clear();
  in_kill_sweep_ = false;
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

// ---- Processes ----

os::Process& Dipc::CreateDipcProcess(const std::string& name) {
  hw::DomainTag tag = kernel_.codoms().apl_table().AllocateTag();
  os::Process& proc = kernel_.CreateProcessIn(name, vas_.page_table(), tag);
  proc.set_dipc_enabled(true);
  ProcessInfo& pi = process_info_[proc.pid()];
  pi.block_base = vas_.AllocBlock();
  proc.SetVaBase(pi.block_base);
  // The process's "program text": PIC code loaded at a unique address; used
  // as the return-address target for cross-domain calls out of this process.
  auto code = AllocCodeRegion(proc, tag, /*slots=*/64, /*privileged=*/false);
  DIPC_CHECK(code.ok());
  pi.code_va = code.value();
  return proc;
}

os::Process& Dipc::Fork(os::Process& parent) {
  // COW fork: the child gets a private page table holding copies of the
  // parent's mappings (frames shared; our model does not need the write
  // fault). dIPC is temporarily disabled in the child (§6.1.3).
  os::Process& child = kernel_.CreateProcess(parent.name() + "-child");
  child.set_dipc_enabled(false);
  if (parent.dipc_enabled()) {
    const ProcessInfo& pi = process_info_.at(parent.pid());
    hw::VirtAddr lo = pi.block_base;
    hw::VirtAddr hi = pi.block_base + GlobalVas::kBlockSize;
    for (const auto& [page_no, pte] : parent.page_table()) {
      hw::VirtAddr va = page_no << hw::kPageShift;
      if (va >= lo && va < hi) {
        DIPC_CHECK(child.page_table().MapPage(va, pte.frame, pte.flags, pte.tag).ok());
      }
    }
    child.SetVaBase(parent.va_cursor());
  } else {
    for (const auto& [page_no, pte] : parent.page_table()) {
      DIPC_CHECK(child.page_table().MapPage(page_no << hw::kPageShift, pte.frame, pte.flags,
                                            pte.tag)
                     .ok());
    }
  }
  return child;
}

void Dipc::Exec(os::Process& proc, const std::string& new_name) {
  (void)new_name;  // the name is cosmetic; Process names are immutable here
  // PIC executable: re-enable dIPC, load at a unique virtual address in the
  // global VAS with a fresh default domain (§6.1.3).
  hw::DomainTag tag = kernel_.codoms().apl_table().AllocateTag();
  proc.set_page_table(vas_.page_table());
  proc.set_default_domain(tag);
  proc.set_dipc_enabled(true);
  ProcessInfo& pi = process_info_[proc.pid()];
  pi.block_base = vas_.AllocBlock();
  proc.SetVaBase(pi.block_base);
  auto code = AllocCodeRegion(proc, tag, 64, false);
  DIPC_CHECK(code.ok());
  pi.code_va = code.value();
}

// ---- Table 2 ----

std::shared_ptr<DomainHandle> Dipc::DomDefault(os::Process& proc) {
  return std::make_shared<DomainHandle>(proc.default_domain(), DomPerm::kOwner);
}

base::Result<std::shared_ptr<DomainHandle>> Dipc::DomCreate(os::Process& proc) {
  if (!proc.dipc_enabled()) {
    return base::ErrorCode::kNotSupported;
  }
  hw::DomainTag tag = kernel_.codoms().apl_table().AllocateTag();
  return std::make_shared<DomainHandle>(tag, DomPerm::kOwner);
}

base::Result<std::shared_ptr<DomainHandle>> Dipc::DomCopy(const DomainHandle& src, DomPerm perm) {
  // dom_copy: only downgrades (perm <= src.perm).
  if (!DomPermAtLeast(src.perm(), perm)) {
    return base::ErrorCode::kPermissionDenied;
  }
  return std::make_shared<DomainHandle>(src.tag(), perm);
}

base::Result<hw::VirtAddr> Dipc::DomMmap(os::Process& proc, const DomainHandle& dom, uint64_t len,
                                         hw::PageFlags flags) {
  if (dom.perm() != DomPerm::kOwner) {
    return base::ErrorCode::kPermissionDenied;
  }
  return kernel_.MapAnonymous(proc, len, flags, dom.tag());
}

base::Status Dipc::DomRemap(os::Process& proc, const DomainHandle& dst, const DomainHandle& src,
                            hw::VirtAddr addr, uint64_t size) {
  if (dst.perm() != DomPerm::kOwner || src.perm() != DomPerm::kOwner) {
    return base::ErrorCode::kPermissionDenied;
  }
  if (size == 0 || hw::PageOffset(addr) != 0) {
    return base::ErrorCode::kInvalidArgument;
  }
  hw::PageTable& pt = proc.page_table();
  // All pages must currently belong to src.
  for (hw::VirtAddr va = addr; va < addr + size; va += hw::kPageSize) {
    const hw::Pte* pte = pt.Lookup(va);
    if (pte == nullptr || pte->tag != src.tag()) {
      return base::ErrorCode::kInvalidArgument;
    }
  }
  for (hw::VirtAddr va = addr; va < addr + size; va += hw::kPageSize) {
    DIPC_CHECK(pt.SetTag(va, dst.tag()).ok());
  }
  return base::Status::Ok();
}

base::Result<std::shared_ptr<GrantHandle>> Dipc::GrantCreate(const DomainHandle& src,
                                                             const DomainHandle& dst) {
  // grant_create: requires the *owner* permission on src (§5.2.2); grants
  // dst.perm (owner translates to write in CODOMs terms).
  if (src.perm() != DomPerm::kOwner) {
    return base::ErrorCode::kPermissionDenied;
  }
  if (dst.perm() == DomPerm::kNil) {
    return base::ErrorCode::kInvalidArgument;
  }
  codoms::Perm perm = ToCodomsPerm(dst.perm());
  kernel_.codoms().apl_table().Grant(src.tag(), dst.tag(), perm);
  return std::make_shared<GrantHandle>(src.tag(), dst.tag(), perm);
}

base::Status Dipc::GrantRevoke(GrantHandle& grant) {
  if (grant.revoked()) {
    return base::ErrorCode::kInvalidArgument;
  }
  kernel_.codoms().apl_table().Revoke(grant.src(), grant.dst());
  grant.MarkRevoked();
  return base::Status::Ok();
}

base::Result<std::shared_ptr<EntryHandle>> Dipc::EntryRegister(os::Process& proc,
                                                               const DomainHandle& dom,
                                                               std::vector<EntryDesc> entries) {
  if (dom.perm() != DomPerm::kOwner) {
    return base::ErrorCode::kPermissionDenied;
  }
  if (entries.empty()) {
    return base::ErrorCode::kInvalidArgument;
  }
  for (const EntryDesc& e : entries) {
    if (!e.fn) {
      return base::ErrorCode::kInvalidArgument;
    }
  }
  // Entry points are aligned addresses inside the domain's code (§4.1).
  auto region = AllocCodeRegion(proc, dom.tag(), entries.size(), /*privileged=*/false);
  if (!region.ok()) {
    return region.status();
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = region.value() + i * codoms::kEntryAlign;
  }
  return std::make_shared<EntryHandle>(dom.tag(), &proc, std::move(entries));
}

base::Result<RequestedEntries> Dipc::EntryRequest(os::Process& requester,
                                                  const EntryHandle& handle,
                                                  const std::vector<EntryExpectation>& expected) {
  // P4: caller and callee must agree on every signature.
  if (expected.size() != handle.count()) {
    return base::ErrorCode::kSignatureMismatch;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!(expected[i].signature == handle.entry(i).signature)) {
      return base::ErrorCode::kSignatureMismatch;
    }
  }
  bool cross_process = handle.owner() != &requester;
  // The proxy domain: privileged code pages holding one generated proxy per
  // entry (64 B-aligned slots so Call-permission transfers hit P2).
  codoms::AplTable& apl = kernel_.codoms().apl_table();
  hw::DomainTag proxy_tag = apl.AllocateTag();
  uint64_t bytes = handle.count() * ProxyTemplateLibrary::kSlotBytes;
  uint64_t pages = hw::PageRoundUp(bytes) / hw::kPageSize;
  if (proxy_region_next_ + bytes > proxy_region_end_ || proxy_region_next_ == 0) {
    proxy_region_next_ = vas_.AllocBlock();
    proxy_region_end_ = proxy_region_next_ + GlobalVas::kBlockSize;
  }
  hw::VirtAddr region = proxy_region_next_;
  proxy_region_next_ += pages * hw::kPageSize;
  hw::PageTable& pt = vas_.page_table();
  for (uint64_t i = 0; i < pages; ++i) {
    uint64_t frame = kernel_.machine().mem().AllocFrame();
    DIPC_CHECK(pt.MapPage(region + i * hw::kPageSize, frame,
                          hw::PageFlags{.writable = false,
                                        .executable = true,
                                        .user = true,
                                        .priv_cap = true},
                          proxy_tag)
                   .ok());
  }
  // The proxy can touch both sides; the callers/callee cannot touch each
  // other directly (§3.1).
  apl.Grant(proxy_tag, handle.dom(), codoms::Perm::kWrite);
  apl.Grant(proxy_tag, requester.default_domain(), codoms::Perm::kWrite);
  RequestedEntries out;
  out.proxy_domain = std::make_shared<DomainHandle>(proxy_tag, DomPerm::kCall);
  out.proxies.reserve(handle.count());
  for (size_t i = 0; i < handle.count(); ++i) {
    const EntryDesc& desc = handle.entry(i);
    // Per-entry policy: the union of both sides' requests (Table 2).
    IsolationPolicy effective = desc.policy.Union(expected[i].policy);
    ProxyTemplate tmpl = ProxyTemplateLibrary::Select(desc.signature, effective, cross_process);
    auto proxy = std::make_unique<Proxy>(
        *this, region + i * ProxyTemplateLibrary::kSlotBytes, proxy_tag, desc, handle.dom(),
        handle.owner(), &requester, effective, tmpl);
    out.proxies.emplace_back(proxy.get(), expected[i].policy, desc.signature);
    proxies_.push_back(std::move(proxy));
  }
  return out;
}

// ---- Faults ----

void Dipc::Crash(base::ErrorCode code) { throw CalleeCrash{code}; }

// ---- Internal state ----

ThreadDipcState& Dipc::thread_state(os::Thread& t) {
  auto& slot = thread_state_[t.tid()];
  if (slot == nullptr) {
    slot = std::make_unique<ThreadDipcState>();
  }
  return *slot;
}

hw::VirtAddr Dipc::domain_code_va(hw::DomainTag tag) const {
  auto it = domain_code_.find(tag);
  return it == domain_code_.end() ? 0 : it->second;
}

uint64_t Dipc::TidInProcess(os::Thread& t, os::Process& proc) {
  ProcessInfo& pi = info(proc);
  auto [it, inserted] = pi.tids.emplace(t.tid(), pi.next_tid);
  if (inserted) {
    ++pi.next_tid;
  }
  return it->second;
}

Dipc::ProcessInfo& Dipc::info(os::Process& proc) { return process_info_[proc.pid()]; }

base::Result<hw::VirtAddr> Dipc::AllocCodeRegion(os::Process& proc, hw::DomainTag tag,
                                                 uint64_t slots, bool privileged) {
  uint64_t len = slots * codoms::kEntryAlign;
  auto va = kernel_.MapAnonymous(proc, len,
                                 hw::PageFlags{.writable = false,
                                               .executable = true,
                                               .user = true,
                                               .priv_cap = privileged},
                                 tag);
  if (va.ok()) {
    domain_code_.emplace(tag, va.value());  // first region becomes the text VA
  }
  return va;
}

}  // namespace dipc::core
