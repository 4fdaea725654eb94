// Tokenizer for ultra-lint (tools/ultra_lint). Not a C++ front end: it
// produces the identifier/punctuation stream the rule heuristics need, with
// comments captured separately (NOLINT suppressions live in comments) and
// string/char literals collapsed to opaque tokens so banned identifiers
// inside test strings never fire a rule.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ultra::lint {

enum class TokKind : unsigned char {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals (pp-numbers, good enough)
  kPunct,   // operators / punctuation; multi-char ops are one token
  kString,  // string literal (text is "", contents dropped)
  kChar,    // character literal
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  int line = 0;
};

struct Comment {
  int line = 0;        // line the comment starts on
  std::string text;    // without the // or /* */ markers, trimmed
};

struct LexedFile {
  std::vector<Token> tokens;      // kEnd-terminated
  std::vector<Comment> comments;  // in order of appearance
};

// Tokenizes `source`. Preprocessor directives are dropped from the token
// stream. Raw strings (with encoding prefixes and custom delimiters),
// escapes, digraphs (normalized to their primary spelling) and line
// continuations (LF or CRLF, including inside directives) are handled;
// anything unrecognized becomes a single-character punct token so the lexer
// never stalls.
[[nodiscard]] LexedFile lex(const std::string& source);

}  // namespace ultra::lint
