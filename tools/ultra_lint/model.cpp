#include "model.h"

#include <algorithm>
#include <set>

namespace ultra::lint {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_decl_keyword(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "static" || s == "mutable" ||
         s == "inline" || s == "virtual" || s == "explicit" || s == "typename" ||
         s == "volatile" || s == "extern" || s == "noexcept" || s == "override" ||
         s == "final" || s == "nodiscard" || s == "maybe_unused";
}

// Skips a balanced template-argument list starting at tokens[i] == "<".
// Returns the index one past the matching ">", or i if the construct does not
// look like template arguments (comparison operators, imbalance).
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  if (!is_punct(toks[i], "<")) return i;
  int depth = 0;
  std::size_t j = i;
  for (std::size_t steps = 0; toks[j].kind != TokKind::kEnd && steps < 4096;
       ++j, ++steps) {
    const std::string& t = toks[j].text;
    if (toks[j].kind == TokKind::kPunct) {
      if (t == "<") ++depth;
      else if (t == ">") --depth;
      else if (t == ">>") depth -= 2;
      else if (t == ";" || t == "{") return i;  // not template args
    }
    if (depth <= 0) return j + 1;
  }
  return i;
}

// Skips from tokens[i] == open to one past its matching closer.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  std::size_t j = i;
  for (; toks[j].kind != TokKind::kEnd; ++j) {
    if (is_punct(toks[j], open)) ++depth;
    else if (is_punct(toks[j], close) && --depth == 0) return j + 1;
  }
  return j;
}

// Lines holding a `// ultra-lint: lookup-only(...)` comment, and the subset
// where the comment stands on its own line (no code before it): only those
// may bind to the declaration on the following line — a trailing comment
// binds solely to its own declaration.
struct AnnotationIndex {
  std::set<int> lines;
  std::set<int> own_line;

  [[nodiscard]] bool binds(int line) const {
    return lines.contains(line) || own_line.contains(line - 1);
  }
};

AnnotationIndex index_annotations(const LexedFile& lexed) {
  AnnotationIndex idx;
  for (const Comment& c : lexed.comments) {
    const std::size_t at = c.text.find("ultra-lint:");
    if (at == std::string::npos ||
        c.text.find("lookup-only", at) == std::string::npos) {
      continue;
    }
    idx.lines.insert(c.line);
    if (c.own_line) idx.own_line.insert(c.line);
  }
  return idx;
}

struct Parser {
  const std::vector<Token>& toks;
  FileModel& out;
  AnnotationIndex ann;

  // Parses the region [i, end) as namespace/class scope contents.
  // `current_class` is the index into out.classes, or npos at namespace scope.
  void parse_scope(std::size_t i, std::size_t end, std::size_t current_class) {
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    while (i < end && toks[i].kind != TokKind::kEnd) {
      const Token& t = toks[i];
      if (is_punct(t, ";") || is_punct(t, "}")) {
        ++i;
        continue;
      }
      if (is_ident(t, "template")) {
        ++i;
        if (i < end && is_punct(toks[i], "<")) i = skip_angles(toks, i);
        continue;  // the following declaration parses normally
      }
      if (is_ident(t, "namespace")) {
        std::size_t j = i + 1;
        while (j < end && !is_punct(toks[j], "{") && !is_punct(toks[j], ";")) {
          ++j;
        }
        if (j < end && is_punct(toks[j], "{")) {
          const std::size_t close = skip_balanced(toks, j, "{", "}");
          parse_scope(j + 1, close - 1, npos);
          i = close;
        } else {
          i = j + 1;
        }
        continue;
      }
      if (is_ident(t, "using") || is_ident(t, "typedef") ||
          is_ident(t, "friend")) {
        while (i < end && !is_punct(toks[i], ";")) ++i;
        continue;
      }
      if (is_ident(t, "enum")) {
        while (i < end && !is_punct(toks[i], "{") && !is_punct(toks[i], ";")) {
          ++i;
        }
        if (i < end && is_punct(toks[i], "{")) {
          i = skip_balanced(toks, i, "{", "}");
        }
        continue;
      }
      if (is_ident(t, "public") || is_ident(t, "private") ||
          is_ident(t, "protected")) {
        i += 2;  // access specifier + ':'
        continue;
      }
      if (is_ident(t, "class") || is_ident(t, "struct") ||
          is_ident(t, "union")) {
        i = parse_class(i, end);
        continue;
      }
      i = parse_declaration(i, end, current_class);
    }
  }

  // Parses a class/struct head + body; returns index past the closing '}'.
  std::size_t parse_class(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    std::string name;
    std::vector<std::string> bases;
    int line = toks[i].line;
    // Head runs to '{' (definition) or ';' (forward declaration).
    std::size_t colon = 0;
    while (j < end && !is_punct(toks[j], "{") && !is_punct(toks[j], ";")) {
      if (is_punct(toks[j], ":") && colon == 0) colon = j;
      if (colon == 0 && toks[j].kind == TokKind::kIdent &&
          !is_decl_keyword(toks[j].text)) {
        name = toks[j].text;
        line = toks[j].line;
      }
      ++j;
    }
    if (j >= end || is_punct(toks[j], ";")) return j + 1;
    if (colon != 0) {
      // Base list: last identifier of each comma-separated qualified name.
      std::string last_ident;
      for (std::size_t k = colon + 1; k < j; ++k) {
        if (toks[k].kind == TokKind::kIdent && !is_decl_keyword(toks[k].text) &&
            toks[k].text != "public" && toks[k].text != "private" &&
            toks[k].text != "protected" && toks[k].text != "virtual") {
          last_ident = toks[k].text;
        } else if (is_punct(toks[k], ",")) {
          if (!last_ident.empty()) bases.push_back(last_ident);
          last_ident.clear();
        } else if (is_punct(toks[k], "<")) {
          k = skip_angles(toks, k) - 1;
        }
      }
      if (!last_ident.empty()) bases.push_back(last_ident);
    }
    const std::size_t close = skip_balanced(toks, j, "{", "}");
    out.classes.push_back({name, std::move(bases), {}, {}, line});
    parse_scope(j + 1, close - 1, out.classes.size() - 1);
    return close;
  }

  // Parses one member/method/function declaration starting at i. Returns the
  // index one past the declaration.
  std::size_t parse_declaration(std::size_t i, std::size_t end,
                                std::size_t current_class) {
    // Walk the declaration head: find the first depth-0 '(' preceded by an
    // identifier (function name) or the terminating ';' / initializer.
    std::size_t j = i;
    std::size_t name_tok = static_cast<std::size_t>(-1);
    std::size_t paren = static_cast<std::size_t>(-1);
    while (j < end) {
      const Token& t = toks[j];
      if (is_punct(t, "<")) {
        const std::size_t after = skip_angles(toks, j);
        if (after != j) {
          j = after;
          continue;
        }
      }
      if (is_punct(t, ";")) break;
      if (is_punct(t, "=")) break;  // data member with initializer
      if (is_punct(t, "{")) break;  // brace init or body (disambiguated below)
      if (is_punct(t, "(")) {
        if (j > i && toks[j - 1].kind == TokKind::kIdent &&
            !is_decl_keyword(toks[j - 1].text) &&
            toks[j - 1].text != "decltype") {
          name_tok = j - 1;
          paren = j;
        }
        break;
      }
      ++j;
    }

    if (paren == static_cast<std::size_t>(-1)) {
      return parse_data_member(i, end, j, current_class);
    }
    return parse_function(i, end, name_tok, paren, current_class);
  }

  std::size_t parse_data_member(std::size_t i, std::size_t end,
                                std::size_t stop, std::size_t current_class) {
    // `stop` points at ';', '=', '{' (brace init) or end-of-head.
    std::size_t name_tok = static_cast<std::size_t>(-1);
    for (std::size_t k = stop; k > i;) {
      --k;
      if (toks[k].kind == TokKind::kIdent && !is_decl_keyword(toks[k].text)) {
        name_tok = k;
        break;
      }
      if (is_punct(toks[k], ">")) break;  // e.g. `std::vector<int>;` — odd
    }
    // Skip to the terminating ';'.
    std::size_t j = stop;
    while (j < end && !is_punct(toks[j], ";")) {
      if (is_punct(toks[j], "{")) {
        j = skip_balanced(toks, j, "{", "}");
        continue;
      }
      if (is_punct(toks[j], "(")) {
        j = skip_balanced(toks, j, "(", ")");
        continue;
      }
      ++j;
    }
    if (name_tok == static_cast<std::size_t>(-1) ||
        current_class == static_cast<std::size_t>(-1)) {
      return j + 1;
    }
    std::vector<std::string> type_tokens;
    for (std::size_t k = i; k < name_tok; ++k) type_tokens.push_back(toks[k].text);
    MemberDecl m;
    m.name = toks[name_tok].text;
    m.type = classify_type(type_tokens);
    m.line = toks[name_tok].line;
    // Wrapped declarations: the annotation may sit above the first line of
    // the declaration, which need not be the line naming the member.
    m.lookup_only = ann.binds(m.line) || ann.binds(toks[i].line);
    out.classes[current_class].members.push_back(std::move(m));
    return j + 1;
  }

  std::size_t parse_function(std::size_t i, std::size_t end,
                             std::size_t name_tok, std::size_t paren,
                             std::size_t current_class) {
    std::size_t j = skip_balanced(toks, paren, "(", ")");
    // Trailers: const/noexcept(…)/override/final/-> …; detect '=' (deleted,
    // defaulted, pure virtual), ';' (declaration) or '{' (definition),
    // skipping constructor member-initializer lists.
    bool in_init_list = false;
    while (j < end) {
      const Token& t = toks[j];
      if (is_punct(t, ";") || is_punct(t, "=")) {
        // Declaration only: record the return type for the global method
        // return index.
        if (current_class != static_cast<std::size_t>(-1)) {
          std::vector<std::string> type_tokens;
          for (std::size_t k = i; k < name_tok; ++k) {
            type_tokens.push_back(toks[k].text);
          }
          out.classes[current_class].method_decls.push_back(
              {toks[name_tok].text, classify_type(type_tokens),
               toks[name_tok].line});
        }
        while (j < end && !is_punct(toks[j], ";")) ++j;
        return j + 1;
      }
      if (is_punct(t, ":")) {
        in_init_list = true;
        ++j;
        continue;
      }
      if (is_punct(t, "(")) {  // noexcept(...) or an initializer's parens
        j = skip_balanced(toks, j, "(", ")");
        continue;
      }
      if (is_punct(t, "{")) {
        if (in_init_list && toks[j - 1].kind == TokKind::kIdent) {
          j = skip_balanced(toks, j, "{", "}");  // brace member initializer
          continue;
        }
        break;  // function body
      }
      ++j;
    }
    if (j >= end) return j;
    const std::size_t close = skip_balanced(toks, j, "{", "}");
    MethodDef def;
    def.name = toks[name_tok].text;
    def.line = toks[name_tok].line;
    def.body_begin = j;
    def.body_end = close;
    if (current_class != static_cast<std::size_t>(-1)) {
      def.class_name = out.classes[current_class].name;
      // Inline definitions also carry a return type worth indexing.
      std::vector<std::string> type_tokens;
      for (std::size_t k = i; k < name_tok; ++k) {
        type_tokens.push_back(toks[k].text);
      }
      out.classes[current_class].method_decls.push_back(
          {def.name, classify_type(type_tokens), def.line});
    } else if (name_tok >= 2 && is_punct(toks[name_tok - 1], "::") &&
               toks[name_tok - 2].kind == TokKind::kIdent) {
      def.class_name = toks[name_tok - 2].text;
    }
    out.methods.push_back(def);
    return close;
  }
};

}  // namespace

TypeInfo classify_type(const std::vector<std::string>& tokens) {
  TypeInfo info;
  std::string outer;
  for (const std::string& t : tokens) {
    if (t == "unordered_map" || t == "unordered_set" ||
        t == "unordered_multimap" || t == "unordered_multiset") {
      info.mentions_unordered = true;
      if (outer.empty()) outer = "unordered";
    } else if (t == "vector" || t == "array" || t == "deque") {
      if (outer.empty()) outer = "sequence";
    } else if (t == "map" || t == "set" || t == "multimap" || t == "multiset" ||
               t == "string" || t == "span" || t == "optional" ||
               t == "pair" || t == "tuple" || t == "function" ||
               t == "unique_ptr" || t == "shared_ptr") {
      if (outer.empty()) outer = "other-container";
    }
  }
  if (outer == "unordered") {
    info.shape = TypeShape::kUnordered;
  } else if (outer == "sequence" && info.mentions_unordered) {
    info.shape = TypeShape::kSequenceOfUnordered;
  }
  return info;
}

FileModel build_model(std::string rel_path, LexedFile lexed) {
  FileModel model;
  model.rel_path = std::move(rel_path);
  model.lexed = std::move(lexed);
  Parser parser{model.lexed.tokens, model, index_annotations(model.lexed)};
  parser.parse_scope(0, model.lexed.tokens.size(), static_cast<std::size_t>(-1));

  // Unordered locals: scan method bodies for unordered declarations.
  const auto& toks = model.lexed.tokens;
  for (const MethodDef& def : model.methods) {
    for (std::size_t k = def.body_begin; k < def.body_end; ++k) {
      const Token& t = toks[k];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text != "unordered_map" && t.text != "unordered_set" &&
          t.text != "unordered_multimap" && t.text != "unordered_multiset") {
        continue;
      }
      std::size_t j = k + 1;
      if (j < def.body_end && is_punct(toks[j], "<")) {
        const std::size_t after = skip_angles(toks, j);
        if (after == j) continue;
        j = after;
      }
      if (j >= def.body_end || toks[j].kind != TokKind::kIdent) continue;
      // `::iterator` etc. disqualify; the next token must end a declarator.
      if (j + 1 < def.body_end &&
          (is_punct(toks[j + 1], ";") || is_punct(toks[j + 1], "=") ||
           is_punct(toks[j + 1], "{") || is_punct(toks[j + 1], "("))) {
        LocalDecl local;
        local.name = toks[j].text;
        local.type = classify_type({t.text});
        local.type.shape = TypeShape::kUnordered;
        local.type.mentions_unordered = true;
        local.line = toks[j].line;
        local.token_index = j;
        model.unordered_locals.push_back(std::move(local));
      }
    }
  }
  return model;
}

std::map<std::string, ClassView> class_views(const Unit& unit) {
  std::map<std::string, ClassView> views;
  for (const FileModel* file : unit.files()) {
    for (const ClassDecl& cls : file->classes) {
      if (cls.name.empty()) continue;
      for (const MemberDecl& m : cls.members) {
        views[cls.name].members[m.name] = &m;
      }
    }
  }
  return views;
}

}  // namespace ultra::lint
