#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <utility>

namespace ultra::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_src(const FileModel& f) { return starts_with(f.rel_path, "src/"); }

// Index of the punct matching `open` (an `o` at toks[open]) within
// [open, end), or kNpos.
std::size_t matching_close(const std::vector<Token>& toks, std::size_t open,
                           std::size_t end, const char* o, const char* c) {
  int depth = 0;
  for (std::size_t k = open; k < end; ++k) {
    if (is_punct(toks[k], o)) ++depth;
    else if (is_punct(toks[k], c) && --depth == 0) return k;
  }
  return kNpos;
}

// Skips a balanced template-argument list starting at toks[i] == "<";
// returns one past the matching ">" (">>" closes two), or i when the
// construct does not look like template arguments.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i,
                        std::size_t end) {
  if (!is_punct(toks[i], "<")) return i;
  int depth = 0;
  for (std::size_t j = i; j < end && j < i + 256; ++j) {
    const std::string& t = toks[j].text;
    if (toks[j].kind == TokKind::kPunct) {
      if (t == "<") ++depth;
      else if (t == ">") --depth;
      else if (t == ">>") depth -= 2;
      else if (t == ";" || t == "{") return i;
    }
    if (depth <= 0) return j + 1;
  }
  return i;
}

// A method definition paired with the file it lives in.
struct DefRef {
  const FileModel* file;
  const MethodDef* def;
};

std::vector<DefRef> class_defs(const Unit& unit, const std::string& cls_name) {
  std::vector<DefRef> defs;
  for (const FileModel* f : unit.files()) {
    for (const MethodDef& d : f->methods) {
      if (d.class_name == cls_name) defs.push_back({f, &d});
    }
  }
  return defs;
}

// Method names of `view` reachable from `frontier` through plain same-class
// calls (`helper(...)`, not `x.helper(...)`) in the unit's bodies.
std::set<std::string> collect_reachable(const std::vector<DefRef>& defs,
                                        const ClassView& view,
                                        std::vector<std::string> frontier) {
  std::set<std::string> reachable;
  while (!frontier.empty()) {
    const std::string cur = frontier.back();
    frontier.pop_back();
    if (!reachable.insert(cur).second) continue;
    for (const DefRef& ref : defs) {
      if (ref.def->name != cur) continue;
      const auto& toks = ref.file->lexed.tokens;
      for (std::size_t i = ref.def->body_begin; i + 1 < ref.def->body_end;
           ++i) {
        if (toks[i].kind == TokKind::kIdent && is_punct(toks[i + 1], "(") &&
            view.method_names.contains(toks[i].text) &&
            (i == ref.def->body_begin ||
             (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->")))) {
          if (!reachable.contains(toks[i].text)) {
            frontier.push_back(toks[i].text);
          }
        }
      }
    }
  }
  return reachable;
}

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
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        continue;
      }
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
        if (member.ann.lookup_only) {
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

// ---- rule: ultra-parallel-mut ----------------------------------------------
//
// Under ExecutionMode::kParallel, Protocol::on_round runs concurrently for
// distinct nodes. Any member mutation reachable from on_round must be
// lane-local (indexed into a per-node slot: `member_[v] = ...`), an atomic,
// or covered by a declaration-site `// ultra-lint: guarded-by(mu)` whose
// mutex is actually locked in the mutating function.

constexpr const char* kMutatorCalls[] = {
    "push_back", "pop_back", "emplace_back", "emplace", "insert", "erase",
    "clear",     "assign",   "resize",       "reserve", "push",   "pop",
    "add_edge",  "add_path", "add_all_incident",        "merge",
};

bool is_mutator_call(const std::string& name) {
  return std::any_of(std::begin(kMutatorCalls), std::end(kMutatorCalls),
                     [&](const char* m) { return name == m; });
}

constexpr const char* kCompoundAssign[] = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
};

bool is_assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  return std::any_of(std::begin(kCompoundAssign), std::end(kCompoundAssign),
                     [&](const char* op) { return t.text == op; });
}

// Walks the lvalue chain ending at `p` backwards; returns the root identifier
// index or kNpos when the expression is not a simple member chain.
std::size_t lvalue_root(const std::vector<Token>& toks, std::size_t p,
                        std::size_t lo) {
  while (p > lo && p != kNpos) {
    if (is_punct(toks[p], "]")) {
      int depth = 0;
      while (p > lo) {
        if (is_punct(toks[p], "]")) ++depth;
        else if (is_punct(toks[p], "[") && --depth == 0) break;
        --p;
      }
      if (p == lo) return kNpos;
      --p;
      continue;
    }
    if (toks[p].kind == TokKind::kIdent) {
      if (p > lo && (is_punct(toks[p - 1], ".") || is_punct(toks[p - 1], "->"))) {
        p -= 2;
        continue;
      }
      if (p > lo && is_punct(toks[p - 1], "::")) return kNpos;
      return p;
    }
    return kNpos;
  }
  return kNpos;
}

bool body_locks_mutex(const std::vector<Token>& toks, const MethodDef& def,
                      const std::string& mutex_name) {
  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t != "lock_guard" && t != "scoped_lock" && t != "unique_lock" &&
        t != "lock") {
      continue;
    }
    for (std::size_t k = i + 1; k < def.body_end && k < i + 12; ++k) {
      if (toks[k].kind == TokKind::kIdent && toks[k].text == mutex_name) {
        return true;
      }
    }
  }
  return false;
}

void rule_parallel(const Unit& unit, std::vector<Finding>& findings) {
  const auto views = class_views(unit);
  for (const auto& [cls_name, view] : views) {
    if (!view.bases.contains("Protocol")) continue;

    // Validate guarded-by annotations against declared mutexes up front.
    const FileModel* decl_file = nullptr;
    for (const FileModel* f : unit.files()) {
      for (const ClassDecl& c : f->classes) {
        if (c.name == cls_name) decl_file = f;
      }
    }
    for (const auto& [mname, member] : view.members) {
      if (!member->ann.guarded_by.has_value()) continue;
      const std::string& mu = *member->ann.guarded_by;
      const auto mit = view.members.find(mu);
      if (mu.empty() || mit == view.members.end() ||
          mit->second->type.shape != TypeShape::kMutex) {
        findings.push_back(
            {"ultra-parallel-mut",
             decl_file != nullptr ? decl_file->rel_path : "<unknown>",
             member->line,
             "guarded-by(" + mu + ") on '" + mname +
                 "' does not name a declared std::mutex member of " +
                 cls_name});
      }
    }

    // Collect this class's method definitions across the unit, then the set
    // reachable from the node-context entry points.
    const std::vector<DefRef> defs = class_defs(unit, cls_name);
    const std::set<std::string> reachable =
        collect_reachable(defs, view, {"on_round", "on_message"});

    for (const DefRef& ref : defs) {
      if (!reachable.contains(ref.def->name)) continue;
      const auto& toks = ref.file->lexed.tokens;
      const MethodDef& def = *ref.def;
      auto flag_mutation = [&](std::size_t root, std::size_t at) {
        const std::string& name = toks[root].text;
        const auto mit = view.members.find(name);
        if (mit == view.members.end()) return;
        if (is_punct(toks[root + 1], "[")) return;  // lane-local by index
        const MemberDecl& member = *mit->second;
        if (member.type.shape == TypeShape::kAtomic) return;
        if (member.ann.guarded_by.has_value()) {
          if (!body_locks_mutex(toks, def, *member.ann.guarded_by)) {
            findings.push_back(
                {"ultra-parallel-mut", ref.file->rel_path, toks[at].line,
                 cls_name + "::" + def.name + " mutates '" + name +
                     "' declared guarded-by(" + *member.ann.guarded_by +
                     ") without locking it"});
          }
          return;
        }
        findings.push_back(
            {"ultra-parallel-mut", ref.file->rel_path, toks[at].line,
             cls_name + "::" + def.name + " (reachable from on_round) "
             "mutates shared member '" + name +
                 "' — must be lane-local (indexed per node), std::atomic, "
                 "or `// ultra-lint: guarded-by(<mutex>)` + locked"});
      };

      for (std::size_t i = def.body_begin + 1; i < def.body_end; ++i) {
        const Token& t = toks[i];
        if (is_assign_op(t)) {
          const std::size_t root = lvalue_root(toks, i - 1, def.body_begin);
          if (root != kNpos) flag_mutation(root, i);
        } else if (is_punct(t, "++") || is_punct(t, "--")) {
          if (toks[i - 1].kind == TokKind::kIdent || is_punct(toks[i - 1], "]")) {
            const std::size_t root = lvalue_root(toks, i - 1, def.body_begin);
            if (root != kNpos) flag_mutation(root, i);
          } else if (toks[i + 1].kind == TokKind::kIdent) {
            // Prefix: walk the chain forward to find the root.
            const std::size_t root = i + 1;
            flag_mutation(root, i);
          }
        } else if (is_punct(t, "(") && toks[i - 1].kind == TokKind::kIdent &&
                   is_mutator_call(toks[i - 1].text) && i >= 2 &&
                   (is_punct(toks[i - 2], ".") || is_punct(toks[i - 2], "->"))) {
          const std::size_t root = lvalue_root(toks, i - 3, def.body_begin);
          if (root != kNpos) flag_mutation(root, i);
        }
      }
    }
  }
}

// ---- shared machinery: message-view variables ------------------------------
//
// The message rules key on "view variables": locals bound to arena-backed
// MessageView spans — the range-for variable of a loop over `mb.inbox(...)`,
// or an explicit `MessageView m` / `const Message& m` local.

std::set<std::string> message_view_vars(const std::vector<Token>& toks,
                                        const MethodDef& def) {
  std::set<std::string> vars;
  for (std::size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    // Explicit local: `MessageView m` / `const Message& m = ...`.
    if (toks[i].text == "MessageView" || toks[i].text == "Message") {
      std::size_t j = i + 1;
      while (j < def.body_end && toks[j].kind == TokKind::kPunct &&
             (toks[j].text == "&" || toks[j].text == "*")) {
        ++j;
      }
      if (j < def.body_end && toks[j].kind == TokKind::kIdent &&
          (i == def.body_begin || !is_punct(toks[i - 1], "<"))) {
        vars.insert(toks[j].text);
      }
      continue;
    }
    // Range-for over an inbox: `for (const auto& m : mb.inbox(v))`.
    if (toks[i].text != "for" || !is_punct(toks[i + 1], "(")) continue;
    int paren = 0;
    std::size_t colon = kNpos;
    std::size_t close = kNpos;
    for (std::size_t k = i + 1; k < def.body_end; ++k) {
      if (is_punct(toks[k], "(")) ++paren;
      else if (is_punct(toks[k], ")")) {
        if (--paren == 0) {
          close = k;
          break;
        }
      } else if (is_punct(toks[k], ":") && paren == 1 && colon == kNpos &&
                 !is_punct(toks[k - 1], ":") &&
                 (k + 1 >= def.body_end || !is_punct(toks[k + 1], ":"))) {
        colon = k;
      } else if (is_punct(toks[k], ";") && paren == 1) {
        break;  // classic for loop
      }
    }
    if (colon == kNpos || close == kNpos) continue;
    bool over_inbox = false;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (toks[k].kind == TokKind::kIdent && toks[k].text == "inbox") {
        over_inbox = true;
        break;
      }
    }
    if (!over_inbox) continue;
    for (std::size_t k = colon; k > i + 1;) {
      --k;
      if (toks[k].kind == TokKind::kIdent) {
        vars.insert(toks[k].text);
        break;
      }
    }
  }
  return vars;
}

// ---- rule: ultra-msg-contract ----------------------------------------------
//
// Wire-format discipline. Producer side: every `mb.send(to, {kTag, ...})` /
// `mb.send_all({kTag, ...})` braced payload defines that tag's word arity
// for the class. Consumer side: indexing a view variable's payload must be
// dominated (earlier in the method, in token order) by a size guard — an
// ULTRA_CHECK* on payload.size(), an explicit size()/empty() comparison —
// and a literal index under a `case kTag:` / `payload[0] == kTag` context
// must stay below the largest arity any send produces for that tag.
// Payloads are bump-arena spans: an unguarded read past the end is UB the
// fault-free tests may never reach.

struct WireModel {
  std::map<std::string, long> tag_arity;  // tag ("" = untagged) -> max arity
  bool has_opaque_send = false;  // a send whose payload is not a braced list
};

bool is_member_call(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
}

WireModel wire_model_for_class(const std::vector<DefRef>& defs) {
  WireModel model;
  for (const DefRef& ref : defs) {
    const auto& toks = ref.file->lexed.tokens;
    for (std::size_t i = ref.def->body_begin; i + 1 < ref.def->body_end; ++i) {
      if (toks[i].kind != TokKind::kIdent || !is_punct(toks[i + 1], "(") ||
          !is_member_call(toks, i)) {
        continue;
      }
      const bool is_send = toks[i].text == "send";
      const bool is_send_all = toks[i].text == "send_all";
      if (!is_send && !is_send_all) continue;
      // Walk the argument list; the payload is arg 1 for send, arg 0 for
      // send_all.
      const std::size_t want_arg = is_send ? 1 : 0;
      std::size_t arg = 0;
      int paren = 0;
      int brace = 0;
      int bracket = 0;
      std::size_t payload_begin = kNpos;
      for (std::size_t k = i + 1; k < ref.def->body_end; ++k) {
        const Token& t = toks[k];
        if (is_punct(t, "(")) ++paren;
        else if (is_punct(t, ")")) {
          if (--paren == 0) break;
        } else if (is_punct(t, "{")) ++brace;
        else if (is_punct(t, "}")) --brace;
        else if (is_punct(t, "[")) ++bracket;
        else if (is_punct(t, "]")) --bracket;
        else if (is_punct(t, ",") && paren == 1 && brace == 0 &&
                 bracket == 0) {
          ++arg;
          if (arg == want_arg) payload_begin = k + 1;
          continue;
        }
        if (k == i + 2 && want_arg == 0) payload_begin = k;
      }
      if (payload_begin == kNpos) {
        model.has_opaque_send = true;
        continue;
      }
      if (!is_punct(toks[payload_begin], "{")) {
        // A span/vector/single-word argument: arity unknowable here.
        model.has_opaque_send = true;
        continue;
      }
      // Tag = first braced element when it is a kTag* constant; arity =
      // top-level commas + 1 (0 for `{}`).
      const std::string tag =
          (toks[payload_begin + 1].kind == TokKind::kIdent &&
           starts_with(toks[payload_begin + 1].text, "kTag"))
              ? toks[payload_begin + 1].text
              : "";
      long arity = 0;
      int depth = 0;
      for (std::size_t k = payload_begin; k < ref.def->body_end; ++k) {
        const Token& t = toks[k];
        if (is_punct(t, "{") || is_punct(t, "(") || is_punct(t, "[")) {
          ++depth;
        } else if (is_punct(t, "}") || is_punct(t, ")") || is_punct(t, "]")) {
          if (--depth == 0) break;
        } else if (is_punct(t, ",") && depth == 1) {
          ++arity;
        }
      }
      if (!is_punct(toks[payload_begin + 1], "}")) ++arity;
      long& slot = model.tag_arity[tag];
      slot = std::max(slot, arity);
    }
  }
  return model;
}

constexpr const char* kSizeCmp[] = {">=", ">", "==", "<=", "<", "!="};

bool is_size_cmp(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  return std::any_of(std::begin(kSizeCmp), std::end(kSizeCmp),
                     [&](const char* op) { return t.text == op; });
}

long parse_index_literal(const Token& t) {
  if (t.kind != TokKind::kNumber) return -1;
  char* end = nullptr;
  const long v = std::strtol(t.text.c_str(), &end, 0);
  return end != t.text.c_str() ? v : -1;
}

void scan_parse_sites(const FileModel& file, const MethodDef& def,
                      const std::map<std::string, WireModel>& wire,
                      std::vector<Finding>& findings) {
  const auto& toks = file.lexed.tokens;
  const std::set<std::string> views = message_view_vars(toks, def);
  if (views.empty()) return;

  const WireModel* producer = nullptr;
  if (const auto it = wire.find(def.class_name); it != wire.end()) {
    producer = &it->second;
  }

  std::map<std::string, long> bound;  // var -> guaranteed payload size
  std::set<std::string> size_seen;    // vars whose payload.size() was read
  std::map<std::string, long> switch_snapshot;
  std::string current_tag;

  // The ULTRA_CHECK_XX(a, b) macros compare their two arguments; remember
  // which macro's parens we are inside so `payload.size() , N` resolves.
  std::string check_macro;
  std::size_t check_end = 0;

  auto is_view_at = [&](std::size_t k) {
    return toks[k].kind == TokKind::kIdent && views.contains(toks[k].text) &&
           !is_member_call(toks, k);
  };
  // Matches `V . payload` starting at k; returns index past `payload`.
  auto match_payload = [&](std::size_t k) -> std::size_t {
    if (!is_view_at(k)) return kNpos;
    if (k + 2 >= def.body_end || !is_punct(toks[k + 1], ".") ||
        toks[k + 2].kind != TokKind::kIdent || toks[k + 2].text != "payload") {
      return kNpos;
    }
    return k + 3;
  };
  auto apply_bound = [&](const std::string& var, long guaranteed) {
    long& b = bound[var];
    b = std::max(b, guaranteed);
  };

  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;

    if (starts_with(t.text, "ULTRA_CHECK") && i + 1 < def.body_end &&
        is_punct(toks[i + 1], "(")) {
      check_macro = t.text;
      int depth = 0;
      std::size_t k = i + 1;
      for (; k < def.body_end; ++k) {
        if (is_punct(toks[k], "(")) ++depth;
        else if (is_punct(toks[k], ")") && --depth == 0) break;
      }
      check_end = k;
      continue;
    }

    if (t.text == "switch") {
      switch_snapshot = bound;
      continue;
    }
    if (t.text == "case" || t.text == "default") {
      // Each case arm must bring its own guard: restore the pre-switch
      // bounds so a check inside one arm cannot bless its siblings.
      bound = switch_snapshot;
      current_tag.clear();
      if (t.text == "case" && i + 1 < def.body_end &&
          toks[i + 1].kind == TokKind::kIdent &&
          starts_with(toks[i + 1].text, "kTag")) {
        current_tag = toks[i + 1].text;
      }
      continue;
    }

    const std::size_t after_payload = match_payload(i);
    if (after_payload == kNpos) continue;

    // `V.payload.size()` / `V.payload.empty()`.
    if (after_payload + 1 < def.body_end &&
        is_punct(toks[after_payload], ".") &&
        toks[after_payload + 1].kind == TokKind::kIdent) {
      const std::string& call = toks[after_payload + 1].text;
      const std::size_t after_call = after_payload + 4;  // past `( )`
      if (call == "empty") {
        apply_bound(toks[i].text, 1);
        size_seen.insert(toks[i].text);
        continue;
      }
      if (call == "size") {
        size_seen.insert(toks[i].text);
        if (after_call < def.body_end) {
          // `size() >= N` / `size() == N` / `size() > N`.
          if (is_size_cmp(toks[after_call]) &&
              after_call + 1 < def.body_end) {
            const long n = parse_index_literal(toks[after_call + 1]);
            if (n >= 0) {
              const std::string& op = toks[after_call].text;
              if (op == ">=" || op == "==") apply_bound(toks[i].text, n);
              else if (op == ">") apply_bound(toks[i].text, n + 1);
            }
          } else if (is_punct(toks[after_call], ",") && i < check_end) {
            // Inside ULTRA_CHECK_XX(V.payload.size(), N).
            const long n = parse_index_literal(toks[after_call + 1]);
            if (n >= 0) {
              if (check_macro == "ULTRA_CHECK_EQ" ||
                  check_macro == "ULTRA_CHECK_GE") {
                apply_bound(toks[i].text, n);
              } else if (check_macro == "ULTRA_CHECK_GT") {
                apply_bound(toks[i].text, n + 1);
              }
            }
          }
          // `N <= V.payload.size()` — only when the literal opens its
          // operand, so `i + 2 < payload.size()` registers no literal bound.
          if (i >= def.body_begin + 2 && is_size_cmp(toks[i - 1])) {
            const long n = parse_index_literal(toks[i - 2]);
            const Token& before = toks[i - 3];
            const bool operand_start =
                i < def.body_begin + 3 || before.kind == TokKind::kIdent ||
                (before.kind == TokKind::kPunct &&
                 (before.text == "(" || before.text == "&&" ||
                  before.text == "||" || before.text == ";" ||
                  before.text == "," || before.text == "{"));
            if (n >= 0 && operand_start) {
              const std::string& op = toks[i - 1].text;
              if (op == "<=" || op == "==") apply_bound(toks[i].text, n);
              else if (op == "<") apply_bound(toks[i].text, n + 1);
            }
          }
        }
        continue;
      }
    }

    // `V.payload[...]`: the parse sites proper.
    if (after_payload >= def.body_end || !is_punct(toks[after_payload], "[")) {
      continue;
    }
    int depth = 0;
    std::size_t close = after_payload;
    for (; close < def.body_end; ++close) {
      if (is_punct(toks[close], "[")) ++depth;
      else if (is_punct(toks[close], "]") && --depth == 0) break;
    }
    const std::string& var = toks[i].text;
    const bool literal_index = close == after_payload + 2;
    const long idx =
        literal_index ? parse_index_literal(toks[after_payload + 1]) : -1;
    if (idx >= 0) {
      if (idx >= bound[var] && i >= check_end) {
        findings.push_back(
            {"ultra-msg-contract", file.rel_path, t.line,
             def.class_name + "::" + def.name + " reads '" + var +
                 ".payload[" + std::to_string(idx) +
                 "]' without a dominating size guard — ULTRA_CHECK the "
                 "payload size before indexing an arena span"});
      } else if (producer != nullptr && !producer->has_opaque_send &&
                 !current_tag.empty()) {
        const auto ta = producer->tag_arity.find(current_tag);
        if (ta != producer->tag_arity.end() && idx >= ta->second) {
          findings.push_back(
              {"ultra-msg-contract", file.rel_path, t.line,
               def.class_name + "::" + def.name + " reads '" + var +
                   ".payload[" + std::to_string(idx) + "]' under " +
                   current_tag + ", but no send site produces more than " +
                   std::to_string(ta->second) + " word(s) for that tag"});
        }
      }
      // `payload[0] == kTagX` establishes the tag context, and so does the
      // `payload[0] != kTagX) continue;` dispatch idiom — either way the
      // code that follows the comparison handles kTagX, and a fresh
      // comparison supersedes a stale context from an earlier loop.
      if (idx == 0 && close + 2 < def.body_end &&
          (is_punct(toks[close + 1], "==") ||
           is_punct(toks[close + 1], "!=")) &&
          toks[close + 2].kind == TokKind::kIdent &&
          starts_with(toks[close + 2].text, "kTag")) {
        current_tag = toks[close + 2].text;
      }
    } else if (!size_seen.contains(var)) {
      findings.push_back(
          {"ultra-msg-contract", file.rel_path, t.line,
           def.class_name + "::" + def.name + " indexes '" + var +
               ".payload' with a computed index but never reads "
               "payload.size() — bound the index before dereferencing"});
    }
    i = close;
  }
}

void rule_msg_contract(const Unit& unit, std::vector<Finding>& findings) {
  const auto views = class_views(unit);
  std::map<std::string, WireModel> wire;
  for (const auto& [cls_name, view] : views) {
    wire[cls_name] = wire_model_for_class(class_defs(unit, cls_name));
  }
  for (const FileModel* file : unit.files()) {
    if (!in_src(*file)) continue;
    for (const MethodDef& def : file->methods) {
      scan_parse_sites(*file, def, wire, findings);
    }
  }
}

// ---- rule: ultra-span-escape -----------------------------------------------
//
// MessageView payloads point into the delivery arena and die at the next
// round barrier. Storing a view (or its span) anywhere that outlives the
// activation — a member, a member container, a by-reference lambda capture —
// is the delayed-copy bug class PR 4 hit dynamically: the span silently
// dangles one round later. Escapes must copy the words
// (`std::vector<Word>(m.payload.begin(), m.payload.end())`).

bool spelling_has_word(const std::string& spelling, const char* word) {
  std::size_t pos = 0;
  const std::size_t len = std::char_traits<char>::length(word);
  while ((pos = spelling.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || spelling[pos - 1] == ' ';
    const std::size_t end = pos + len;
    const bool right_ok = end == spelling.size() || spelling[end] == ' ';
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Type spellings are built by joining tokens with spaces; tighten the
// punctuation back up ("std :: vector < T >" -> "std::vector<T>") so
// findings (and baseline `message_contains` entries) read naturally.
std::string compact_spelling(const std::string& spelling) {
  std::string out;
  for (std::size_t i = 0; i < spelling.size(); ++i) {
    const char c = spelling[i];
    if (c == ' ') {
      const char next = i + 1 < spelling.size() ? spelling[i + 1] : '\0';
      const char prev = out.empty() ? '\0' : out.back();
      const auto is_punct = [](char p) {
        return p == ':' || p == '<' || p == '>' || p == ',' || p == '*' ||
               p == '&';
      };
      if (is_punct(prev) || is_punct(next)) continue;
    }
    out.push_back(c);
  }
  return out;
}

bool type_is_view(const std::string& spelling) {
  if (spelling_has_word(spelling, "MessageView")) return true;
  if (spelling_has_word(spelling, "Message")) return true;
  return spelling_has_word(spelling, "span") &&
         spelling_has_word(spelling, "Word");
}

void rule_span_escape(const Unit& unit, std::vector<Finding>& findings) {
  const auto views = class_views(unit);
  for (const FileModel* file : unit.files()) {
    if (!in_src(*file)) continue;

    // (a) view-typed members: the declaration itself is the escape.
    for (const ClassDecl& cls : file->classes) {
      if (cls.name == "MessageView") continue;  // the view type itself
      for (const MemberDecl& m : cls.members) {
        if (!type_is_view(m.type.spelling)) continue;
        findings.push_back(
            {"ultra-span-escape", file->rel_path, m.line,
             "member '" + m.name + "' stores arena-backed message views (" +
                 compact_spelling(m.type.spelling) +
                 "); views die at the round barrier — "
                 "store owned std::vector<Word> copies instead"});
      }
    }

    // (b) stores and captures inside bodies.
    for (const MethodDef& def : file->methods) {
      const auto& toks = file->lexed.tokens;
      const std::set<std::string> vv = message_view_vars(toks, def);
      if (vv.empty()) continue;
      const ClassView* cv = nullptr;
      if (const auto it = views.find(def.class_name); it != views.end()) {
        cv = &it->second;
      }
      auto is_member_root = [&](std::size_t root) {
        const std::string& name = toks[root].text;
        if (cv != nullptr && cv->members.contains(name)) return true;
        return name.size() > 1 && name.back() == '_';
      };
      // Is [begin, end) exactly a view var or `V.payload`?
      auto arg_is_view = [&](std::size_t begin, std::size_t end,
                             std::string* var) -> bool {
        if (end - begin == 1 && toks[begin].kind == TokKind::kIdent &&
            vv.contains(toks[begin].text)) {
          *var = toks[begin].text;
          return true;
        }
        if (end - begin == 3 && vv.contains(toks[begin].text) &&
            is_punct(toks[begin + 1], ".") &&
            toks[begin + 2].text == "payload") {
          *var = toks[begin].text;
          return true;
        }
        return false;
      };

      for (std::size_t i = def.body_begin + 1; i < def.body_end; ++i) {
        const Token& t = toks[i];
        // Container store: `member_.push_back(m)` / `.emplace_back(m)` /
        // `.push(m)`, argument a view var or its payload.
        if (t.kind == TokKind::kIdent && is_punct(toks[i + 1], "(") &&
            (t.text == "push_back" || t.text == "emplace_back" ||
             t.text == "push" || t.text == "insert" ||
             t.text == "emplace") &&
            is_member_call(toks, i)) {
          const std::size_t open = i + 1;
          const std::size_t close =
              matching_close(toks, open, def.body_end, "(", ")");
          std::string var;
          if (close != kNpos && arg_is_view(open + 1, close, &var)) {
            const std::size_t root = lvalue_root(toks, i - 2, def.body_begin);
            if (root != kNpos && is_member_root(root)) {
              findings.push_back(
                  {"ultra-span-escape", file->rel_path, t.line,
                   def.class_name + "::" + def.name + " stores view '" + var +
                       "' into member container '" + toks[root].text +
                       "' — the span dangles after the round barrier; copy "
                       "the payload words instead"});
            }
          }
          continue;
        }
        // Assignment: `member_ = m;` / `member_ = m.payload;`.
        if (is_punct(t, "=")) {
          std::size_t expr_end = i + 1;
          while (expr_end < def.body_end && !is_punct(toks[expr_end], ";")) {
            ++expr_end;
          }
          std::string var;
          if (arg_is_view(i + 1, expr_end, &var)) {
            const std::size_t root = lvalue_root(toks, i - 1, def.body_begin);
            if (root != kNpos && is_member_root(root)) {
              findings.push_back(
                  {"ultra-span-escape", file->rel_path, t.line,
                   def.class_name + "::" + def.name + " assigns view '" +
                       var + "' to member '" + toks[root].text +
                       "' — the span dangles after the round barrier; copy "
                       "the payload words instead"});
            }
          }
          continue;
        }
        // By-reference lambda capture of a view: `[&m]` / `[x, &m]`. The
        // lambda may be queued past the barrier; capture by value (the view
        // is two words) or copy the payload.
        if (is_punct(t, "[") &&
            ((toks[i - 1].kind == TokKind::kPunct &&
              (toks[i - 1].text == "=" || toks[i - 1].text == "(" ||
               toks[i - 1].text == "," || toks[i - 1].text == "{" ||
               toks[i - 1].text == ";")) ||
             (toks[i - 1].kind == TokKind::kIdent &&
              toks[i - 1].text == "return"))) {
          int depth = 0;
          for (std::size_t k = i; k < def.body_end; ++k) {
            if (is_punct(toks[k], "[")) ++depth;
            else if (is_punct(toks[k], "]") && --depth == 0) break;
            if (is_punct(toks[k], "&") && k + 1 < def.body_end &&
                toks[k + 1].kind == TokKind::kIdent &&
                vv.contains(toks[k + 1].text)) {
              findings.push_back(
                  {"ultra-span-escape", file->rel_path, toks[k].line,
                   def.class_name + "::" + def.name +
                       " captures view '" + toks[k + 1].text +
                       "' by reference in a lambda — if the lambda outlives "
                       "the round barrier the span dangles; capture by "
                       "value or copy the payload"});
            }
          }
        }
      }
    }
  }
}

// ---- rule: ultra-hot-alloc -------------------------------------------------
//
// The round barrier and per-node activations are the simulator's hot path;
// PR 2/PR 6 bought their rounds/s by keeping it allocation-free (bump arena,
// amortized member vectors). This rule walks the call graph rooted at the
// barrier and activation entry points and flags anything that heap-allocates
// per call: `new`, make_unique/make_shared, std::to_string, local container
// declarations and temporaries, and push_back on a member container the
// unit never reserve()s/resize()s/clear()s (a cleared member retains its
// capacity, so its steady-state push_backs are allocation-free).
// `// ultra-lint: cold-path(<why>)` on the line (or the line above) states
// that the code is off the steady-state path; the reason is required.

constexpr const char* kHotRoots[] = {
    "deliver_outboxes", "rebuild_worklist", "on_message", "on_round",
    "on_round_begin",
};

constexpr const char* kAllocTypes[] = {
    "vector",        "string",        "basic_string",  "deque",
    "list",          "map",           "set",           "multimap",
    "multiset",      "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",             "ostringstream", "stringstream",
};

bool is_alloc_type(const std::string& s) {
  return std::any_of(std::begin(kAllocTypes), std::end(kAllocTypes),
                     [&](const char* t) { return s == t; });
}

// Statement/block extents of every loop in the body, for the
// push_back-in-loop check.
std::vector<std::pair<std::size_t, std::size_t>> loop_regions(
    const std::vector<Token>& toks, const MethodDef& def) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "for" && toks[i].text != "while" &&
         toks[i].text != "do")) {
      continue;
    }
    std::size_t j = i + 1;
    if (toks[i].text != "do" && j < def.body_end && is_punct(toks[j], "(")) {
      int depth = 0;
      for (; j < def.body_end; ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        else if (is_punct(toks[j], ")") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    std::size_t end = j;
    if (j < def.body_end && is_punct(toks[j], "{")) {
      int depth = 0;
      for (end = j; end < def.body_end; ++end) {
        if (is_punct(toks[end], "{")) ++depth;
        else if (is_punct(toks[end], "}") && --depth == 0) break;
      }
    } else {
      while (end < def.body_end && !is_punct(toks[end], ";")) ++end;
    }
    regions.emplace_back(j, end);
  }
  return regions;
}

bool cold_path_at(const FileModel& file, int line) {
  const Annotations ann = file.annotation_at(line);
  return ann.cold_path && !ann.cold_path_reason.empty();
}

void rule_hot_alloc(const Unit& unit, std::vector<Finding>& findings) {
  const auto views = class_views(unit);

  // Members with capacity management anywhere in the unit: reserve/resize/
  // assign pre-size, clear retains capacity across rounds.
  std::set<std::string> managed;
  for (const FileModel* file : unit.files()) {
    const auto& toks = file->lexed.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].kind == TokKind::kIdent && is_punct(toks[i + 1], ".") &&
          toks[i + 2].kind == TokKind::kIdent &&
          (toks[i + 2].text == "reserve" || toks[i + 2].text == "resize" ||
           toks[i + 2].text == "assign" || toks[i + 2].text == "clear") &&
          is_punct(toks[i + 3], "(")) {
        managed.insert(toks[i].text);
      }
    }
  }

  for (const auto& [cls_name, view] : views) {
    std::vector<std::string> roots;
    for (const char* r : kHotRoots) {
      if (view.method_names.contains(r)) roots.push_back(r);
    }
    if (roots.empty()) continue;
    const std::vector<DefRef> defs = class_defs(unit, cls_name);
    const std::set<std::string> reachable =
        collect_reachable(defs, view, roots);

    for (const DefRef& ref : defs) {
      if (!reachable.contains(ref.def->name)) continue;
      if (!in_src(*ref.file)) continue;
      const auto& toks = ref.file->lexed.tokens;
      const MethodDef& def = *ref.def;
      const auto loops = loop_regions(toks, def);
      auto in_loop = [&](std::size_t i) {
        return std::any_of(loops.begin(), loops.end(), [&](const auto& r) {
          return i >= r.first && i < r.second;
        });
      };
      std::set<int> flagged_lines;  // one finding per line
      auto flag = [&](int line, const std::string& message) {
        if (cold_path_at(*ref.file, line)) return;
        if (!flagged_lines.insert(line).second) return;
        findings.push_back({"ultra-hot-alloc", ref.file->rel_path, line,
                            cls_name + "::" + def.name +
                                " is reachable from the round/delivery hot "
                                "path: " + message});
      };

      for (std::size_t i = def.body_begin + 1; i < def.body_end; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        if (is_member_call(toks, i)) {
          // Un-managed member push_back inside a loop.
          if ((t.text == "push_back" || t.text == "emplace_back") &&
              i + 1 < def.body_end && is_punct(toks[i + 1], "(") &&
              in_loop(i)) {
            const std::size_t root = lvalue_root(toks, i - 2, def.body_begin);
            if (root != kNpos && toks[root].text.size() > 1 &&
                toks[root].text.back() == '_' &&
                !managed.contains(toks[root].text)) {
              flag(t.line,
                   "push_back on member '" + toks[root].text +
                       "' in a loop with no reserve/resize/assign/clear in "
                       "this unit — grows unboundedly or reallocates per "
                       "round; pre-size it or annotate cold-path");
            }
          }
          continue;
        }
        if (t.text == "new") {
          flag(t.line,
               "operator new on the hot path; use the arena or a pre-sized "
               "member, or annotate `// ultra-lint: cold-path(<why>)`");
          continue;
        }
        if (t.text == "make_unique" || t.text == "make_shared") {
          flag(t.line, "heap allocation via " + t.text + " on the hot path");
          continue;
        }
        if (t.text == "to_string" && i + 1 < def.body_end &&
            is_punct(toks[i + 1], "(")) {
          flag(t.line,
               "std::to_string allocates on the hot path; stream in the "
               "cold/error branch or annotate cold-path");
          continue;
        }
        if (is_alloc_type(t.text)) {
          std::size_t j = i + 1;
          if (j < def.body_end && is_punct(toks[j], "<")) {
            const std::size_t after = skip_angles(toks, j, def.body_end);
            if (after == j) continue;
            j = after;
          }
          if (j >= def.body_end) continue;
          const Token& nx = toks[j];
          if (nx.kind == TokKind::kIdent) {
            flag(t.line,
                 "local '" + t.text + "' '" + nx.text +
                     "' allocates per activation on the hot path; hoist to a "
                     "pre-sized member or annotate cold-path");
          } else if (is_punct(nx, "(") || is_punct(nx, "{")) {
            flag(t.line, "std::" + t.text +
                             " temporary allocates on the hot path");
          }
        }
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
  // cold-path annotations are suppressions too: without a reason they are
  // ignored by ultra-hot-alloc, so flag them rather than silently no-op.
  for (const auto& [line, ann] : file.annotations_by_line) {
    if (ann.cold_path && ann.cold_path_reason.empty()) {
      findings.push_back(
          {"ultra-suppress", file.rel_path, line,
           "cold-path annotation without a reason; write "
           "`// ultra-lint: cold-path(<why this is off the hot path>)`"});
    }
  }
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
      {"ultra-parallel-mut",
       "non-lane-local Protocol member mutation reachable from on_round"},
      {"ultra-msg-contract",
       "payload indexing without a size guard, or past every send arity"},
      {"ultra-span-escape",
       "MessageView/span stored past the round barrier (member/container/"
       "by-ref capture)"},
      {"ultra-hot-alloc",
       "heap allocation reachable from the round/delivery hot path"},
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
  rule_parallel(unit, findings);
  rule_msg_contract(unit, findings);
  rule_span_escape(unit, findings);
  rule_hot_alloc(unit, findings);
}

}  // namespace ultra::lint
