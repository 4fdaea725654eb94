#include "lexer.h"

#include <cctype>

namespace ultra::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators emitted as single tokens, longest first, so
// `::` never splits (rule code walks qualified names) and `==`/`+=` are
// distinguishable from `=`.
constexpr const char* kPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "==", "!=", "<=",
    ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>",
};

// Raw-string encoding prefixes. The identifier branch would otherwise eat
// `LR` / `u8R` and leave the plain-string scanner to trip over the raw
// string's unescaped quotes and backslashes.
constexpr const char* kRawPrefixes[] = {"R", "LR", "uR", "UR", "u8R"};

bool is_raw_prefix(const std::string& s) {
  for (const char* p : kRawPrefixes) {
    if (s == p) return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

LexedFile lex(const std::string& source) {
  LexedFile out;
  const std::size_t n = source.size();
  std::size_t i = 0;
  int line = 1;
  bool line_has_token = false;  // any non-comment content on current line

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (source[i] == '\n') {
        ++line;
        line_has_token = false;
      }
    }
  };

  // Length of a line continuation at position `at` (backslash + optional
  // '\r' + '\n'), or 0. CRLF sources are lexed the same as LF sources.
  auto continuation_len = [&](std::size_t at) -> std::size_t {
    if (at >= n || source[at] != '\\') return 0;
    if (at + 1 < n && source[at + 1] == '\n') return 2;
    if (at + 2 < n && source[at + 1] == '\r' && source[at + 2] == '\n') {
      return 3;
    }
    return 0;
  };

  while (i < n) {
    const char c = source[i];

    if (const std::size_t cl = continuation_len(i); cl != 0) {
      advance(cl);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }

    // Comments.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j < n && source[j] != '\n') ++j;
      out.comments.push_back(
          {start_line, trim(source.substr(i + 2, j - i - 2))});
      advance(j - i);
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(source[j] == '*' && source[j + 1] == '/')) ++j;
      const std::size_t end = (j + 1 < n) ? j + 2 : n;
      out.comments.push_back(
          {start_line, trim(source.substr(i + 2, j - i - 2))});
      advance(end - i);
      continue;
    }

    // Preprocessor directive: dropped. `%:` is the digraph spelling of '#'.
    // Line continuations (LF or CRLF) extend the directive; without this,
    // the tail of a wrapped #define would be tokenized as code and skew
    // every scope after it.
    if ((c == '#' || (c == '%' && i + 1 < n && source[i + 1] == ':')) &&
        !line_has_token) {
      std::size_t j = i;
      while (j < n && source[j] != '\n') {
        const std::size_t cl = continuation_len(j);
        j += cl != 0 ? cl : 1;
      }
      advance(j - i);
      continue;
    }

    // Raw string literal body: `quote` indexes the opening '"' of
    // R"delim( ... )delim" (any encoding prefix already consumed). Custom
    // delimiters are honored verbatim — the contents, including quotes,
    // backslashes and `//`, are opaque.
    auto lex_raw_string = [&](std::size_t quote) {
      std::size_t j = quote + 1;
      std::string delim;
      while (j < n && source[j] != '(' && source[j] != '\n' &&
             delim.size() <= 16) {
        delim.push_back(source[j++]);
      }
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = source.find(closer, j);
      const std::size_t stop =
          end == std::string::npos ? n : end + closer.size();
      out.tokens.push_back({TokKind::kString, "", line});
      line_has_token = true;
      advance(stop - i);
    };

    // String / char literals (contents dropped).
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && source[j] != quote) {
        if (source[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      out.tokens.push_back(
          {quote == '"' ? TokKind::kString : TokKind::kChar, "", line});
      line_has_token = true;
      advance(j < n ? j - i + 1 : n - i);
      continue;
    }

    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(source[j])) ++j;
      std::string text = source.substr(i, j - i);
      // Raw strings, with or without an encoding prefix (R"", LR"", u8R""…):
      // the prefix lexes as an identifier, so divert here before the plain
      // string scanner can mis-read the raw contents.
      if (j < n && source[j] == '"' && is_raw_prefix(text)) {
        lex_raw_string(j);
        continue;
      }
      out.tokens.push_back({TokKind::kIdent, std::move(text), line});
      line_has_token = true;
      advance(j - i);
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (ident_char(source[j]) || source[j] == '.' ||
                       ((source[j] == '+' || source[j] == '-') && j > i &&
                        (source[j - 1] == 'e' || source[j - 1] == 'E' ||
                         source[j - 1] == 'p' || source[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back({TokKind::kNumber, source.substr(i, j - i), line});
      line_has_token = true;
      advance(j - i);
      continue;
    }

    // Digraphs, normalized to their primary spelling so brace/bracket
    // balancing in the model never miscounts. `<:` honors the standard's
    // carve-out: in `<::x` the `<` stands alone (it is `<` followed by
    // `::`), unless the sequence is `<::>` or `<:::`.
    if (c == '<' && i + 1 < n && source[i + 1] == '%') {
      out.tokens.push_back({TokKind::kPunct, "{", line});
      line_has_token = true;
      advance(2);
      continue;
    }
    if (c == '%' && i + 1 < n && source[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, "}", line});
      line_has_token = true;
      advance(2);
      continue;
    }
    if (c == '<' && i + 1 < n && source[i + 1] == ':' &&
        !(i + 2 < n && source[i + 2] == ':' &&
          !(i + 3 < n && (source[i + 3] == ':' || source[i + 3] == '>')))) {
      out.tokens.push_back({TokKind::kPunct, "[", line});
      line_has_token = true;
      advance(2);
      continue;
    }
    if (c == ':' && i + 1 < n && source[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, "]", line});
      line_has_token = true;
      advance(2);
      continue;
    }

    // Punctuation, longest match first.
    std::size_t matched = 1;
    std::string text(1, c);
    for (const char* p : kPuncts) {
      const std::size_t len = std::char_traits<char>::length(p);
      if (i + len <= n && source.compare(i, len, p) == 0) {
        matched = len;
        text.assign(p);
        break;
      }
    }
    out.tokens.push_back({TokKind::kPunct, text, line});
    line_has_token = true;
    advance(matched);
  }

  out.tokens.push_back({TokKind::kEnd, "", line});
  return out;
}

}  // namespace ultra::lint
