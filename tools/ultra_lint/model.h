// Lightweight declaration model built on the token stream. This is
// deliberately not a C++ parser: it recovers exactly the shapes its readers
// need — class definitions with their base classes, and the names and lines
// of function declarations and definitions — and ignores everything else.
//
// Readers: ultra-nondet skips a banned name where a function of that name
// is declared (`long time() const` is not a call), and
// UltraLintTree.EveryProtocolIsNamedByTheRuntimeGuards finds the Protocol
// subclasses in src/.
#pragma once

#include <string>
#include <vector>

#include "lexer.h"

namespace ultra::lint {

// A function's name and line, where it is defined (any scope) or declared
// without a body inside a class.
struct FunctionDecl {
  std::string name;
  int line = 0;
};

struct ClassDecl {
  std::string name;
  std::vector<std::string> bases;  // unqualified base names
};

struct FileModel {
  std::string rel_path;  // repo-relative, '/' separators
  LexedFile lexed;
  std::vector<ClassDecl> classes;
  std::vector<FunctionDecl> functions;
};

// Builds the model for one lexed file.
[[nodiscard]] FileModel build_model(std::string rel_path, LexedFile lexed);

}  // namespace ultra::lint
