#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace ultra::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

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
  // Method declarations that merely share a banned name (`long time() const`)
  // are not calls; the model already parsed them.
  std::set<std::pair<std::string, int>> declared;
  for (const MethodDef& def : file.methods) {
    declared.emplace(def.name, def.line);
  }
  for (const ClassDecl& cls : file.classes) {
    for (const MethodDecl& decl : cls.method_decls) {
      declared.emplace(decl.name, decl.line);
    }
  }
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

// ---- rule: ultra-unordered-iter / ultra-unordered-member -------------------
//
// Hash-order iteration is the classic latent-nondeterminism bug: the order is
// stable for one libstdc++ build and silently different for another, so any
// iteration that feeds message emission, spanner-edge insertion or any other
// observable sequence is a reproducibility hazard. Members must declare
// intent via `// ultra-lint: lookup-only(...)`; loops must go through a
// deterministically ordered copy (sort the keys) or an ordered container.

struct Resolver {
  const FileModel& file;
  const std::map<std::string, ClassView>& views;
  const GlobalIndex& index;

  // Declared shape of identifier `name` as seen from method `def`.
  [[nodiscard]] TypeShape shape_of(const MethodDef* def,
                                   const std::string& name) const {
    for (const LocalDecl& local : file.unordered_locals) {
      if (def != nullptr && local.token_index >= def->body_begin &&
          local.token_index < def->body_end && local.name == name) {
        return TypeShape::kUnordered;
      }
    }
    if (def != nullptr && !def->class_name.empty()) {
      const auto vit = views.find(def->class_name);
      if (vit != views.end()) {
        const auto mit = vit->second.members.find(name);
        if (mit != vit->second.members.end()) return mit->second->type.shape;
      }
    }
    return TypeShape::kOther;
  }
};

// True if the range expression tokens [begin, end) resolve to an unordered
// container: `x`, `x[...]`, `obj.method()` or `obj.method()[...]` where the
// method's return type mentions an unordered container.
bool range_expr_is_unordered(const std::vector<Token>& toks, std::size_t begin,
                             std::size_t end, const Resolver& resolver,
                             const MethodDef* def, std::string* what) {
  if (begin >= end) return false;
  // Trailing subscript: strip one `[...]` group.
  std::size_t last = end - 1;
  bool subscripted = false;
  if (is_punct(toks[last], "]")) {
    int depth = 0;
    std::size_t k = last;
    for (;; --k) {
      if (is_punct(toks[k], "]")) ++depth;
      else if (is_punct(toks[k], "[") && --depth == 0) break;
      if (k == begin) return false;
    }
    subscripted = true;
    if (k == begin) return false;
    last = k - 1;
  }
  if (toks[last].kind == TokKind::kIdent && last == begin) {
    const TypeShape shape = resolver.shape_of(def, toks[last].text);
    if (shape == TypeShape::kUnordered && !subscripted) {
      *what = toks[last].text;
      return true;
    }
    if (shape == TypeShape::kSequenceOfUnordered && subscripted) {
      *what = toks[last].text + "[...]";
      return true;
    }
    return false;
  }
  // `....method()` tail.
  if (is_punct(toks[last], ")") && last >= 2 && is_punct(toks[last - 1], "(") &&
      toks[last - 2].kind == TokKind::kIdent) {
    const std::string& callee = toks[last - 2].text;
    if (resolver.index.unordered_returning_methods.contains(callee)) {
      *what = callee + "()";
      return true;
    }
  }
  return false;
}

void rule_unordered(const Unit& unit, const GlobalIndex& index,
                    std::vector<Finding>& findings) {
  const auto views = class_views(unit);
  // Member names found iterated anywhere in the unit (for the lookup-only
  // cross-check).
  std::set<std::string> iterated;

  for (const FileModel* file : unit.files()) {
    if (!in_src(*file)) continue;
    const Resolver resolver{*file, views, index};
    const auto& toks = file->lexed.tokens;
    for (const MethodDef& def : file->methods) {
      for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
        if (toks[i].kind != TokKind::kIdent || toks[i].text != "for" ||
            !is_punct(toks[i + 1], "(")) {
          continue;
        }
        // Find the range-for ':' at paren depth 1, bracket depth 0.
        int paren = 0;
        int bracket = 0;
        std::size_t colon = kNpos;
        std::size_t close = kNpos;
        for (std::size_t k = i + 1; k < def.body_end; ++k) {
          if (is_punct(toks[k], "(")) ++paren;
          else if (is_punct(toks[k], ")")) {
            if (--paren == 0) {
              close = k;
              break;
            }
          } else if (is_punct(toks[k], "[")) ++bracket;
          else if (is_punct(toks[k], "]")) --bracket;
          else if (is_punct(toks[k], ":") && paren == 1 && bracket == 0 &&
                   colon == kNpos) {
            colon = k;
          } else if (is_punct(toks[k], ";") && paren == 1 && colon == kNpos) {
            // Classic for loop: hazard is an `x.begin()` in the init clause.
            colon = kNpos;
            break;
          }
        }
        if (colon != kNpos && close != kNpos) {
          std::string what;
          if (range_expr_is_unordered(toks, colon + 1, close, resolver, &def,
                                      &what)) {
            iterated.insert(what);
            findings.push_back(
                {"ultra-unordered-iter", file->rel_path, toks[i].line,
                 "range-for over unordered container '" + what +
                     "': hash order is not a deterministic order — iterate "
                     "sorted keys or use an ordered container"});
          }
        }
      }
      // Iterator-style loops and explicit begin() walks.
      for (std::size_t i = def.body_begin; i + 3 < def.body_end; ++i) {
        if (toks[i].kind != TokKind::kIdent || !is_punct(toks[i + 1], ".")) {
          continue;
        }
        const std::string& m = toks[i + 2].text;
        if ((m == "begin" || m == "cbegin") && is_punct(toks[i + 3], "(") &&
            resolver.shape_of(&def, toks[i].text) == TypeShape::kUnordered) {
          // Sorted-collect (`vec(s.begin(), s.end())`) is the blessed fix;
          // only flag iterator materialization inside a for-init.
          bool in_for = false;
          for (std::size_t k = i; k > def.body_begin && k > i - 8; --k) {
            if (toks[k].kind == TokKind::kIdent && toks[k].text == "for") {
              in_for = true;
              break;
            }
            if (is_punct(toks[k], ";") || is_punct(toks[k], "{")) break;
          }
          if (in_for) {
            iterated.insert(toks[i].text);
            findings.push_back(
                {"ultra-unordered-iter", file->rel_path, toks[i].line,
                 "iterator loop over unordered container '" + toks[i].text +
                     "': hash order is not a deterministic order"});
          }
        }
      }
    }

    // Member declarations: every unordered member in src/ must state intent.
    for (const ClassDecl& cls : file->classes) {
      for (const MemberDecl& member : cls.members) {
        if (!member.type.mentions_unordered) continue;
        if (member.lookup_only) {
          if (iterated.contains(member.name)) {
            findings.push_back(
                {"ultra-unordered-member", file->rel_path, member.line,
                 "member '" + member.name +
                     "' is annotated lookup-only but is iterated in this "
                     "unit"});
          }
          continue;
        }
        findings.push_back(
            {"ultra-unordered-member", file->rel_path, member.line,
             "unordered container member '" + member.name +
                 "' needs `// ultra-lint: lookup-only(<why>)` (never "
                 "iterated) or a justified NOLINT — hash order must not "
                 "reach messages, spanner edges, or any observable "
                 "sequence"});
      }
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
      {"ultra-unordered-iter",
       "iteration over std::unordered_{map,set} (hash order leak)"},
      {"ultra-unordered-member",
       "unordered container member without lookup-only annotation"},
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

GlobalIndex build_global_index(const std::vector<FileModel>& files) {
  GlobalIndex index;
  for (const FileModel& file : files) {
    for (const ClassDecl& cls : file.classes) {
      for (const MethodDecl& decl : cls.method_decls) {
        if (decl.return_type.mentions_unordered) {
          index.unordered_returning_methods.insert(decl.name);
        }
      }
    }
  }
  return index;
}

void run_rules(const Unit& unit, const GlobalIndex& index,
               std::vector<Finding>& findings) {
  for (const FileModel* file : unit.files()) {
    rule_nondet(*file, findings);
    rule_check(*file, findings);
    rule_suppress(*file, findings);
  }
  rule_unordered(unit, index, findings);
}

}  // namespace ultra::lint
