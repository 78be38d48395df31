// Annotation-driven application loader and runtime (§5.3, §6.2).
//
// Stands in for the CLang source-to-source pass + program loader: a
// ModuleSpec carries what the paper's annotations express — domains
// (dipc_dom), entry points with signatures and policies (dipc_entry,
// dipc_iso_*), and intra-process grants (dipc_perm). Loading a spec
// configures the process's domains/entries through the Table 2 primitives
// and publishes exported entries; ImportEntries resolves a remote handle
// (named-socket exchange, §6.2.1) and requests proxies for it.
#ifndef DIPC_DIPC_LOADER_H_
#define DIPC_DIPC_LOADER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dipc/dipc.h"
#include "dipc/resolution.h"

namespace dipc::core {

// dipc_dom("name"): a domain of the module.
struct DomSpec {
  std::string name;
};

// dipc_entry(...) + iso_callee(...): an exported entry point.
struct EntrySpec {
  std::string domain;  // which DomSpec it belongs to ("" = default domain)
  std::string name;
  EntrySignature signature;
  IsolationPolicy callee_policy;
  EntryFn fn;
};

// dipc_perm(src, dst, perm): a static intra-process grant.
struct PermSpec {
  std::string src_domain;  // "" = default domain
  std::string dst_domain;
  DomPerm perm;
};

struct ModuleSpec {
  std::string name;
  std::vector<DomSpec> domains;
  std::vector<EntrySpec> entries;
  std::vector<PermSpec> perms;
  // Where to publish the exported entry handle ("" = don't publish).
  std::string publish_path;
};

// The result of loading a ModuleSpec into a process.
class LoadedModule {
 public:
  std::shared_ptr<DomainHandle> domain(const std::string& name) const {
    auto it = domains_.find(name);
    return it == domains_.end() ? nullptr : it->second;
  }

 private:
  friend class Loader;
  std::map<std::string, std::shared_ptr<DomainHandle>> domains_;
  std::shared_ptr<EntryHandle> entries_;
};

// An imported remote function, bound to a generated proxy: calling it is the
// auto-generated caller stub (§5.3.1).
struct ImportedEntries {
  RequestedEntries requested;
  // Convenience: proxies by entry name.
  std::map<std::string, ProxyRef> by_name;
};

class Loader {
 public:
  explicit Loader(Dipc& dipc) : dipc_(dipc) {}

  // Configures `proc` from the spec: creates domains, registers entries,
  // applies intra-process grants, optionally publishes the entry handle.
  // Must run on a thread of `proc` (it spawns the publisher service there).
  base::Result<LoadedModule> Load(os::Env env, ModuleSpec spec);

  // Resolves `path`, checks signatures (P4), requests proxies with the
  // caller-side policies, and grants this process's default domain call
  // permission on the proxy domain.
  sim::Task<base::Result<ImportedEntries>> ImportEntries(
      os::Env env, const std::string& path, std::vector<EntryExpectation> expected,
      std::vector<std::string> names);

 private:
  Dipc& dipc_;
};

}  // namespace dipc::core

#endif  // DIPC_DIPC_LOADER_H_
