// ultra-lint driver: walks the requested subtrees, pairs headers with their
// same-stem sources into units, runs the rule registry, and applies NOLINT
// suppression filtering. `run_lint` is the embeddable API the fixture tests
// call; main.cpp wraps it in a CLI.
#pragma once

#include <string>
#include <vector>

#include "rules.h"

namespace ultra::lint {

struct LintOptions {
  std::string root;                 // absolute repo root
  std::vector<std::string> paths;   // repo-relative subtrees, e.g. "src"
};

struct LintResult {
  std::vector<Finding> active;      // findings that fail the run
  std::vector<Finding> suppressed;  // justified NOLINTs, kept for audit
  std::vector<std::string> scanned;  // repo-relative files, sorted
};

[[nodiscard]] LintResult run_lint(const LintOptions& options);

// Human-readable report ("file:line: [rule] message"); includes the audit
// section listing every suppression and its reason when `audit` is set.
[[nodiscard]] std::string format_text(const LintResult& result, bool audit);

// Machine-readable report: {"findings":[...],"suppressed":[...]}.
[[nodiscard]] std::string format_json(const LintResult& result);

// SARIF 2.1.0 report for code-scanning upload: active findings are errors,
// NOLINT-suppressed findings carry in-source suppression records.
[[nodiscard]] std::string format_sarif(const LintResult& result);

}  // namespace ultra::lint
