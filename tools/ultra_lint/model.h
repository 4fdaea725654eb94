// Lightweight declaration / scope model built on the token stream. This is
// deliberately not a C++ parser: it recovers exactly the shapes the rules
// need — class definitions with their base classes and data members, method
// definitions with body token ranges, unordered-container declarations, and
// the ultra-lint declaration-site annotations — and ignores everything else.
//
// Known limits (documented in DESIGN.md §10): types are matched by spelling,
// `auto` locals are not resolved, and cross-file resolution is limited to a
// unit's own header plus a global index of method return types.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace ultra::lint {

// Top-level container category of a declared type, by spelling.
enum class TypeShape : unsigned char {
  kOther,
  kUnordered,          // std::unordered_map / std::unordered_set
  kSequenceOfUnordered,  // vector/array/deque with an unordered element
  kAtomic,             // std::atomic<...>
  kMutex,              // std::mutex / shared_mutex / recursive_mutex
};

struct TypeInfo {
  TypeShape shape = TypeShape::kOther;
  bool mentions_unordered = false;
};

// Declaration-site annotations: `// ultra-lint: guarded-by(name)`,
// `// ultra-lint: lookup-only(reason)` (reason optional), and the
// statement-site `// ultra-lint: cold-path(reason)` (reason required —
// ultra-hot-alloc ignores a reasonless cold-path).
struct Annotations {
  std::optional<std::string> guarded_by;
  bool lookup_only = false;
  std::string lookup_only_reason;
  bool cold_path = false;
  std::string cold_path_reason;
  int line = 0;
};

struct MemberDecl {
  std::string name;
  TypeInfo type;
  int line = 0;
  Annotations ann;
};

struct MethodDef {
  std::string name;
  std::string class_name;  // "" for free functions
  std::size_t body_begin = 0;  // token index of '{'
  std::size_t body_end = 0;    // token index one past matching '}'
  int line = 0;
};

// Method *declaration* (no body): only the return type is interesting.
struct MethodDecl {
  std::string name;
  TypeInfo return_type;
  int line = 0;
};

struct ClassDecl {
  std::string name;
  std::vector<std::string> bases;  // unqualified base names
  std::vector<MemberDecl> members;
  std::vector<MethodDecl> method_decls;
  int line = 0;
};

// An unordered-container *local* declaration inside a function body.
struct LocalDecl {
  std::string name;
  TypeInfo type;
  int line = 0;
  std::size_t token_index = 0;
};

struct FileModel {
  std::string rel_path;  // repo-relative, '/' separators
  LexedFile lexed;
  std::vector<ClassDecl> classes;
  std::vector<MethodDef> methods;
  std::vector<LocalDecl> unordered_locals;
  // Every parsed `// ultra-lint: ...` comment, by starting line, plus the
  // subset standing on their own line (those may bind to the next line).
  // Rules consult this for statement-site annotations (cold-path).
  std::map<int, Annotations> annotations_by_line;
  std::set<int> own_line_annotations;

  // The annotation binding to `line`: a trailing comment on the line itself,
  // or an own-line comment on the line above.
  [[nodiscard]] Annotations annotation_at(int line) const;
};

// A unit pairs a header with its same-stem source so rules can see a class's
// members (declared in the .h) while scanning its method bodies (.cpp).
struct Unit {
  const FileModel* header = nullptr;  // may be null
  const FileModel* source = nullptr;  // may be null

  [[nodiscard]] std::vector<const FileModel*> files() const {
    std::vector<const FileModel*> out;
    if (header != nullptr) out.push_back(header);
    if (source != nullptr) out.push_back(source);
    return out;
  }
};

// Classifies a type from its tokens.
[[nodiscard]] TypeInfo classify_type(const std::vector<std::string>& tokens);

// Builds the model for one lexed file.
[[nodiscard]] FileModel build_model(std::string rel_path, LexedFile lexed);

// Merged view of a class across a unit's files (members and bases from every
// definition of the class name found in the unit).
struct ClassView {
  std::string name;
  std::set<std::string> bases;
  std::map<std::string, const MemberDecl*> members;
  std::set<std::string> method_names;
};

[[nodiscard]] std::map<std::string, ClassView> class_views(const Unit& unit);

}  // namespace ultra::lint
