// ultra-lint rule registry. Each rule encodes one of the repo's determinism
// or parallel-safety invariants (DESIGN.md §10):
//
//   ultra-nondet            banned nondeterminism sources in src/
//   ultra-unordered-iter    iteration over unordered containers
//   ultra-unordered-member  unannotated unordered members in src/
//   ultra-check             raw assert()/throw instead of ULTRA_CHECK*
//   ultra-parallel-mut      non-lane-local Protocol state mutation
//   ultra-hot-alloc         heap allocation on the barrier/activation hot
//                           path without a cold-path(<why>) annotation
//   ultra-suppress          malformed ultra-lint suppressions/annotations
//
// The message contract is checked at run time instead: the sanitizer builds
// bound every payload index and poison each retired payload arena
// (DESIGN.md §8, "Runtime enforcement").
#pragma once

#include <set>
#include <string>
#include <vector>

#include "model.h"

namespace ultra::lint {

struct Finding {
  std::string rule;
  std::string file;  // repo-relative path
  int line = 0;
  std::string message;
  bool suppressed = false;         // a justified NOLINT covers it
  std::string suppress_reason{};   // reason string of that NOLINT
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

// The registry, in severity order; `known_rule_id` accepts these plus the
// `ultra-*` wildcard used in suppressions.
[[nodiscard]] const std::vector<RuleInfo>& rule_registry();
[[nodiscard]] bool known_rule_id(const std::string& id);

// Cross-file knowledge shared by every rule invocation.
struct GlobalIndex {
  // Methods (by bare name, any class) whose declared return type mentions an
  // unordered container: `x.name()` / `x.name()[i]` range expressions resolve
  // through this.
  std::set<std::string> unordered_returning_methods;
};

[[nodiscard]] GlobalIndex build_global_index(
    const std::vector<FileModel>& files);

// Runs every rule over one unit, appending findings (unsuppressed at this
// stage; the driver applies NOLINT filtering afterwards).
void run_rules(const Unit& unit, const GlobalIndex& index,
               std::vector<Finding>& findings);

}  // namespace ultra::lint
