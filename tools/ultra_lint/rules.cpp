#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

namespace ultra::lint {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// `x.name` / `x->name`: the token at i is a member access.
bool is_member_call(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_src(const FileModel& f) { return starts_with(f.rel_path, "src/"); }

// ---- rule: ultra-nondet ----------------------------------------------------
//
// Banned wall-clock / ambient-randomness / environment reads. The simulator's
// whole contract is that a run is a pure function of (graph, protocol, seed);
// these calls smuggle in outside state. Bench and tool code lives outside
// src/ and is not scanned. Files under the allowlist below may use them
// (none today; extend deliberately, with a comment).
constexpr const char* kNondetAllowlist[] = {
    // (empty — src/ has no sanctioned nondeterminism boundary today)
};

constexpr const char* kBannedCalls[] = {
    "rand",   "srand",     "rand_r",        "drand48",
    "random", "time",      "clock",         "clock_gettime",
    "gettimeofday",        "getenv",        "secure_getenv",
};

constexpr const char* kBannedClocks[] = {
    "steady_clock", "system_clock", "high_resolution_clock",
};

void rule_nondet(const FileModel& file, std::vector<Finding>& findings) {
  if (!in_src(file)) return;
  for (const char* allowed : kNondetAllowlist) {
    if (starts_with(file.rel_path, allowed)) return;
  }
  // Functions that merely share a banned name (`long time() const`) are
  // not calls; the model already parsed them.
  std::set<std::pair<std::string, int>> declared;
  for (const FunctionDecl& f : file.functions) declared.emplace(f.name, f.line);
  const auto& toks = file.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    if (declared.contains({name, toks[i].line})) continue;
    if (name == "random_device") {
      findings.push_back({"ultra-nondet", file.rel_path, toks[i].line,
                          "std::random_device is nondeterministic; seed a "
                          "util::Rng explicitly instead"});
      continue;
    }
    if (is_punct(toks[i + 1], "(")) {
      // Member calls `x.time(...)` are not the libc function.
      if (is_member_call(toks, i)) continue;
      for (const char* banned : kBannedCalls) {
        if (name == banned) {
          findings.push_back(
              {"ultra-nondet", file.rel_path, toks[i].line,
               "call to '" + name +
                   "' injects ambient state; all randomness/time must come "
                   "from explicit seeds (util::Rng) or round counters"});
          break;
        }
      }
    }
    for (const char* clk : kBannedClocks) {
      if (name == clk && is_punct(toks[i + 1], "::") && i + 2 < toks.size() &&
          toks[i + 2].text == "now") {
        findings.push_back({"ultra-nondet", file.rel_path, toks[i].line,
                            "wall-clock read '" + name +
                                "::now' in src/; clocks belong in bench/"});
      }
    }
  }
}

// ---- rule: ultra-check -----------------------------------------------------
//
// All invariant enforcement goes through ULTRA_CHECK* (src/check/check.h):
// the macros classify the failure kind, stream context, and honor the abort
// knob. Raw assert() vanishes under NDEBUG; naked throw sites scatter the
// failure taxonomy. check.h itself implements the machinery and is exempt.
void rule_check(const FileModel& file, std::vector<Finding>& findings) {
  if (!in_src(file) || file.rel_path == "src/check/check.h") return;
  const auto& toks = file.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text == "assert" && is_punct(toks[i + 1], "(")) {
      findings.push_back({"ultra-check", file.rel_path, toks[i].line,
                          "raw assert() vanishes under NDEBUG; use "
                          "ULTRA_CHECK / ULTRA_DCHECK"});
    } else if (toks[i].text == "throw" && !is_punct(toks[i + 1], ";")) {
      findings.push_back({"ultra-check", file.rel_path, toks[i].line,
                          "naked throw in src/; raise through ULTRA_CHECK* "
                          "so failures carry kind + streamed context"});
    }
  }
}

// ---- rule: ultra-suppress --------------------------------------------------
//
// Suppressions of ultra-lint rules must carry a reason and name a real rule:
// `// NOLINT(ultra-check): MessageTooLong is a documented API exception`.
// An unreadable suppression is worse than a finding — it hides one.
void rule_suppress(const FileModel& file, std::vector<Finding>& findings) {
  for (const Comment& c : file.lexed.comments) {
    for (const char* marker : {"NOLINTNEXTLINE(", "NOLINT("}) {
      const std::size_t at = c.text.find(marker);
      if (at == std::string::npos) continue;
      const std::size_t open = c.text.find('(', at);
      const std::size_t close = c.text.find(')', open);
      if (close == std::string::npos) {
        findings.push_back({"ultra-suppress", file.rel_path, c.line,
                            "malformed NOLINT: missing ')'"});
        break;
      }
      const std::string list = c.text.substr(open + 1, close - open - 1);
      bool mentions_ultra = false;
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        std::string id = list.substr(pos, comma - pos);
        id.erase(0, id.find_first_not_of(' '));
        id.erase(id.find_last_not_of(' ') + 1);
        if (starts_with(id, "ultra-")) {
          mentions_ultra = true;
          if (!known_rule_id(id)) {
            findings.push_back({"ultra-suppress", file.rel_path, c.line,
                                "unknown ultra-lint rule id '" + id +
                                    "' in NOLINT"});
          }
        }
        pos = comma + 1;
      }
      if (mentions_ultra) {
        // Reason: non-empty text after "): ".
        std::string reason = c.text.substr(close + 1);
        if (!reason.empty() && reason[0] == ':') reason.erase(0, 1);
        reason.erase(0, reason.find_first_not_of(' '));
        if (reason.empty()) {
          findings.push_back(
              {"ultra-suppress", file.rel_path, c.line,
               "ultra-lint suppression without a reason; write "
               "`// NOLINT(ultra-<rule>): <why this is safe>`"});
        }
      }
      break;  // NOLINTNEXTLINE( contains NOLINT( — handle once
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"ultra-nondet",
       "banned nondeterminism sources (rand/clock/getenv) in src/"},
      {"ultra-check", "raw assert()/throw instead of ULTRA_CHECK*"},
      {"ultra-suppress", "malformed or reasonless ultra-lint suppression"},
  };
  return kRules;
}

bool known_rule_id(const std::string& id) {
  if (id == "ultra-*") return true;
  return std::any_of(rule_registry().begin(), rule_registry().end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

void run_rules(const FileModel& file, std::vector<Finding>& findings) {
  rule_nondet(file, findings);
  rule_check(file, findings);
  rule_suppress(file, findings);
}

}  // namespace ultra::lint
