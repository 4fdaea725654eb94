// ultra-lint rule registry. Each rule encodes one of the repo's determinism
// invariants (DESIGN.md §10):
//
//   ultra-nondet    banned nondeterminism sources in src/
//   ultra-check     raw assert()/throw instead of ULTRA_CHECK*
//   ultra-suppress  malformed ultra-lint suppressions
//
// The repo's other invariants are checked exactly instead (DESIGN.md §10,
// "Runtime guards"): the sanitizer builds bound every payload index and
// poison each retired payload arena, alloc_budget_test counts the heap
// allocations of each window of the round loop, ThreadSanitizer race-checks
// every protocol's on_round under the parallel executor, and
// UltraLintTree.SrcHasNoHashContainers fails on any hash container in src/,
// so no output can follow hash order.
#pragma once

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

// Runs every rule over one file, appending findings (unsuppressed at this
// stage; the driver applies NOLINT filtering afterwards).
void run_rules(const FileModel& file, std::vector<Finding>& findings);

}  // namespace ultra::lint
