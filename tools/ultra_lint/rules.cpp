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
            (i == ref.def->body_begin || !is_member_call(toks, i))) {
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
  rule_hot_alloc(unit, findings);
}

}  // namespace ultra::lint
