#include "model.h"

#include <utility>

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

struct Parser {
  const std::vector<Token>& toks;
  FileModel& out;

  // Parses the region [i, end) as namespace or class scope contents.
  void parse_scope(std::size_t i, std::size_t end, bool in_class) {
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
          parse_scope(j + 1, close - 1, false);
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
      i = parse_declaration(i, end, in_class);
    }
  }

  // Parses a class/struct head + body; returns index past the closing '}'.
  std::size_t parse_class(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    std::string name;
    std::vector<std::string> bases;
    // Head runs to '{' (definition) or ';' (forward declaration).
    std::size_t colon = 0;
    while (j < end && !is_punct(toks[j], "{") && !is_punct(toks[j], ";")) {
      if (is_punct(toks[j], ":") && colon == 0) colon = j;
      if (colon == 0 && toks[j].kind == TokKind::kIdent &&
          !is_decl_keyword(toks[j].text)) {
        name = toks[j].text;
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
    out.classes.push_back({name, std::move(bases)});
    parse_scope(j + 1, close - 1, true);
    return close;
  }

  // Parses one member/method/function declaration starting at i. Returns the
  // index one past the declaration.
  std::size_t parse_declaration(std::size_t i, std::size_t end,
                                bool in_class) {
    // Walk the declaration head: find the first depth-0 '(' preceded by an
    // identifier (function name) or the terminating ';' / initializer.
    std::size_t j = i;
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
          return parse_function(end, j - 1, in_class);
        }
        break;
      }
      ++j;
    }
    // A data declaration: skip from `j` (';', '=', '{' or end of head) to
    // one past its terminating ';'.
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
    return j + 1;
  }

  std::size_t parse_function(std::size_t end, std::size_t name_tok,
                             bool in_class) {
    const FunctionDecl decl{toks[name_tok].text, toks[name_tok].line};
    std::size_t j = skip_balanced(toks, name_tok + 1, "(", ")");
    // Trailers: const/noexcept(…)/override/final/-> …; detect '=' (deleted,
    // defaulted, pure virtual), ';' (declaration) or '{' (definition),
    // skipping constructor member-initializer lists.
    bool in_init_list = false;
    while (j < end) {
      const Token& t = toks[j];
      if (is_punct(t, ";") || is_punct(t, "=")) {
        if (in_class) out.functions.push_back(decl);
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
    out.functions.push_back(decl);
    return skip_balanced(toks, j, "{", "}");
  }
};

}  // namespace

FileModel build_model(std::string rel_path, LexedFile lexed) {
  FileModel model;
  model.rel_path = std::move(rel_path);
  model.lexed = std::move(lexed);
  Parser{model.lexed.tokens, model}.parse_scope(0, model.lexed.tokens.size(),
                                                false);
  return model;
}

}  // namespace ultra::lint
