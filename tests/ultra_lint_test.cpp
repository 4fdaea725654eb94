// Whole-tree checks on the token stream of tools/ultra_lint's lexer. A run
// is a pure function of (graph, protocol, seed) and every failure goes
// through ULTRA_CHECK*, so src/ reads no clock, entropy or environment,
// holds no hash container and raises no assert or throw outside an explicit
// allowlist; no comment in src/ or tests/ still suppresses an ultra-lint
// rule; and every Protocol subclass in src/ is named by the round model's
// runtime guards. Each rule is a function over lexed text, pinned on inline
// cases before it scans the tree, so a rule that stops firing fails here
// instead of passing the tree vacuously. Comments and string contents are
// not tokens. src_symbol_test backs the clock, entropy, environment, assert
// and hash-container rules up exactly on the libraries' symbol tables, which
// see through macros and aliases.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "lexer.h"

namespace {

namespace fs = std::filesystem;
namespace lint = ultra::lint;
using lint::TokKind;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct SourceFile {
  std::string name;  // relative to the repo root, e.g. src/sim/network.cpp
  lint::LexedFile lexed;
};

// Every .h and .cpp file under the repo's `dir`, lexed, in path order.
std::vector<SourceFile> lex_tree(const char* dir) {
  const fs::path root = ULTRA_LINT_REPO_ROOT;
  std::vector<fs::path> paths;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root / dir)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".h" || ext == ".cpp")) {
      paths.push_back(entry.path());
    }
  }
  std::ranges::sort(paths);
  std::vector<SourceFile> files;
  for (const fs::path& path : paths) {
    files.push_back({path.lexically_relative(root).generic_string(),
                     lint::lex(read_file(path))});
  }
  return files;
}

const std::vector<SourceFile>& src_tree() {
  static const std::vector<SourceFile> files = lex_tree("src");
  return files;
}

bool is_punct(const lint::Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

template <std::size_t N>
bool one_of(const std::string& s, const std::string_view (&names)[N]) {
  return std::ranges::find(names, s) != std::end(names);
}

constexpr std::string_view kBannedCalls[] = {
    // entropy
    "rand", "srand", "rand_r", "drand48", "random",
    // clocks
    "time", "clock", "clock_gettime", "gettimeofday",
    // environment
    "getenv", "secure_getenv",
};

constexpr std::string_view kBannedClocks[] = {
    "steady_clock", "system_clock", "high_resolution_clock",
};

// Lines of the clock, entropy and environment reads in `file`: a banned
// libc name followed by `(` unless it is a member access, any
// random_device, and a *_clock::now. A function declared with a banned name
// is banned too.
std::vector<int> nondet_lines(const lint::LexedFile& file) {
  const std::vector<lint::Token>& t = file.tokens;
  std::vector<int> lines;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const bool member =
        i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
    const bool call =
        is_punct(t[i + 1], "(") && !member && one_of(t[i].text, kBannedCalls);
    // A `::` is not the end token, so t[i + 2] exists after one.
    const bool now = is_punct(t[i + 1], "::") && t[i + 2].text == "now";
    const bool clock_read = now && one_of(t[i].text, kBannedClocks);
    if (call || clock_read || t[i].text == "random_device") {
      lines.push_back(t[i].line);
    }
  }
  return lines;
}

struct Raises {
  std::vector<int> asserts;  // lines of raw assert(
  std::vector<int> throws;   // lines of throw, bare rethrows excepted
};

// Every raw assert( and every throw but a bare `throw;` in `file`.
Raises raises(const lint::LexedFile& file) {
  const std::vector<lint::Token>& t = file.tokens;
  Raises out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text == "assert" && is_punct(t[i + 1], "(")) {
      out.asserts.push_back(t[i].line);
    } else if (t[i].text == "throw" && !is_punct(t[i + 1], ";")) {
      out.throws.push_back(t[i].line);
    }
  }
  return out;
}

// Lines of the comments in `file` that name an ultra- rule in a NOLINT or
// NOLINTNEXTLINE. No tool reads them: a reason goes in a plain comment.
std::vector<int> suppression_lines(const lint::LexedFile& file) {
  std::vector<int> lines;
  for (const lint::Comment& c : file.comments) {
    if (c.text.find("NOLINT(ultra-") != std::string::npos ||
        c.text.find("NOLINTNEXTLINE(ultra-") != std::string::npos) {
      lines.push_back(c.line);
    }
  }
  return lines;
}

// Names of the classes and structs that `file` defines with Protocol (or
// sim::Protocol) among their bases: `class X ... : ... Protocol {`.
std::vector<std::string> protocol_subclasses(const lint::LexedFile& file) {
  const std::vector<lint::Token>& t = file.tokens;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "class" && t[i].text != "struct")) {
      continue;
    }
    std::string name;
    bool in_bases = false;
    bool derives = false;
    std::size_t j = i + 1;
    while (t[j].kind != TokKind::kEnd && !is_punct(t[j], "{") &&
           !is_punct(t[j], ";")) {
      if (is_punct(t[j], ":")) {
        in_bases = true;
      } else if (!in_bases && t[j].kind == TokKind::kIdent &&
                 t[j].text != "final") {
        name = t[j].text;
      } else if (in_bases && t[j].text == "Protocol" &&
                 (is_punct(t[j + 1], "{") || is_punct(t[j + 1], ","))) {
        derives = true;
      }
      ++j;
    }
    if (derives && is_punct(t[j], "{")) names.push_back(name);
  }
  return names;
}

// --- The rules on inline cases -------------------------------------------

TEST(UltraLintRules, NondetFiresOnEachBannedSourceButNotOnMembers) {
  const lint::LexedFile f = lint::lex(R"(#include <random>
int bad_entropy() {
  std::random_device rd;
  return static_cast<int>(rd());
}
int bad_rand() { return rand(); }
long bad_clock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
const char* bad_env() { return getenv("ULTRA_SEED"); }
long good(const Timer& t, Rng* rng) { return t.time() + rng->rand(); }
)");
  EXPECT_EQ(nondet_lines(f), (std::vector<int>{3, 6, 8, 10}));
}

TEST(UltraLintRules, RaiseFiresOnAssertAndNakedThrowButNotOnRethrow) {
  const lint::LexedFile f = lint::lex(R"(
int checked_div(int a, int b) {
  assert(b != 0);
  if (b == 1) throw std::invalid_argument("degenerate divisor");
  static_assert(sizeof(int) >= 4);
  try {
    return a / b;
  } catch (...) {
    throw;
  }
}
)");
  const Raises r = raises(f);
  EXPECT_EQ(r.asserts, std::vector<int>{3});
  EXPECT_EQ(r.throws, std::vector<int>{4});
}

TEST(UltraLintRules, SuppressionFiresOnlyInComments) {
  const lint::LexedFile f = lint::lex(R"x(
int a = 0;  // NOLINT(ultra-check): a reason no tool reads
/* NOLINTNEXTLINE(ultra-nondet): neither does this one */
int b = 0;  // NOLINT(bugprone-narrowing): clang-tidy's own
const char* c = "NOLINT(ultra-check)";
)x");
  EXPECT_EQ(suppression_lines(f), (std::vector<int>{2, 3}));
}

TEST(UltraLintRules, ProtocolSubclassesFromClassHeads) {
  const lint::LexedFile f = lint::lex(R"(
class Flood : public Protocol {};
class Mis final : public sim::Protocol {};
struct Both : Base, public Protocol {};
struct Later : public Protocol, private Base {};
class Declared;
enum class Phase : std::uint8_t { kA, kB };
class NotOne : public ProtocolStats {};
template <class P> void run(P& p) { (void)p; }
)");
  EXPECT_EQ(protocol_subclasses(f),
            (std::vector<std::string>{"Flood", "Mis", "Both", "Later"}));
}

// --- The lexer's hardening fixtures --------------------------------------

// Every name the nondet check bans, whatever follows it.
bool banned_name(const std::string& s) {
  return one_of(s, kBannedCalls) || one_of(s, kBannedClocks) ||
         s == "random_device";
}

lint::LexedFile lex_fixture(const char* name) {
  return lint::lex(read_file(fs::path(ULTRA_LINT_FIXTURES) / name));
}

// Raw strings (every encoding prefix, custom delimiters), digraphs and a
// continued #define full of decoy identifiers: none of them is a token.
TEST(UltraLintFixtures, LexerHardeningNegative) {
  const lint::LexedFile f = lex_fixture("lexer_neg.cpp");
  ASSERT_GT(f.tokens.size(), 20u) << "fixture missing?";
  for (const lint::Token& t : f.tokens) {
    EXPECT_FALSE(t.kind == TokKind::kIdent && banned_name(t.text))
        << "line " << t.line << ": " << t.text;
  }
  EXPECT_TRUE(nondet_lines(f).empty());
}

// The real rand() after the decoys is the only rand token, at its own line:
// the lexer resynchronized through the raw string and the digraph braces.
TEST(UltraLintFixtures, LexerHardeningPositive) {
  const lint::LexedFile f = lex_fixture("lexer_pos.cpp");
  std::vector<int> rand_lines;
  for (const lint::Token& t : f.tokens) {
    if (t.kind == TokKind::kIdent && t.text == "rand") {
      rand_lines.push_back(t.line);
    }
  }
  EXPECT_EQ(rand_lines, std::vector<int>{9});
  EXPECT_EQ(nondet_lines(f), std::vector<int>{9});
}

// --- The tree ------------------------------------------------------------

// Clocks and environment belong in bench/ and tools/; randomness comes from
// an explicitly seeded util::Rng.
TEST(UltraLintTree, SrcIsClockAndEntropyFree) {
  const std::vector<SourceFile>& src = src_tree();
  ASSERT_GT(src.size(), 50u) << "found too few src/ files — wrong root?";
  for (const SourceFile& file : src) {
    for (const int line : nondet_lines(file.lexed)) {
      ADD_FAILURE() << file.name << ":" << line
                    << ": clock, entropy or environment read in src/";
    }
  }
}

// The throws in src/ that stay outside ULTRA_CHECK*, each file's exact
// count with its reason. src/check/check.h implements the macros and is
// exempt.
struct AllowedThrows {
  std::string_view file;
  std::size_t count;
  std::string_view reason;
};
constexpr AllowedThrows kAllowedThrows[] = {
    {"src/sim/network.cpp", 1,
     "MessageTooLong is documented API surface, raised by one helper"},
    {"src/sim/supervisor.cpp", 1,
     "the terminal raise of the check taxonomy's own type, CheckError"},
};

// Raw assert() vanishes under NDEBUG, and a naked throw scatters the
// failure taxonomy: failures go through ULTRA_CHECK*, which classify the
// kind and stream the context.
TEST(UltraLintTree, SrcRaisesOnlyThroughUltraCheck) {
  const std::vector<SourceFile>& src = src_tree();
  ASSERT_GT(src.size(), 50u) << "found too few src/ files — wrong root?";
  std::size_t listed_files = 0;
  for (const SourceFile& file : src) {
    if (file.name == "src/check/check.h") continue;
    const Raises r = raises(file.lexed);
    for (const int line : r.asserts) {
      ADD_FAILURE() << file.name << ":" << line
                    << ": raw assert(); use ULTRA_CHECK or ULTRA_DCHECK";
    }
    const auto allowed =
        std::ranges::find(kAllowedThrows, file.name, &AllowedThrows::file);
    const bool listed = allowed != std::end(kAllowedThrows);
    if (listed) ++listed_files;
    EXPECT_EQ(r.throws.size(), listed ? allowed->count : 0)
        << file.name << ": throws outside ULTRA_CHECK* at lines "
        << testing::PrintToString(r.throws);
  }
  EXPECT_EQ(listed_files, std::size(kAllowedThrows))
      << "kAllowedThrows names a file that is not in src/";
}

TEST(UltraLintTree, NoUltraSuppressionsRemain) {
  const std::vector<SourceFile> tests = lex_tree("tests");
  EXPECT_GT(tests.size(), 20u) << "found too few tests/ files — wrong root?";
  for (const std::vector<SourceFile>* tree : {&src_tree(), &tests}) {
    for (const SourceFile& file : *tree) {
      for (const int line : suppression_lines(file.lexed)) {
        ADD_FAILURE() << file.name << ":" << line
                      << ": ultra-lint suppression; no tool reads it";
      }
    }
  }
}

// A run must be a pure function of (graph, protocol, seed), and hash order
// is stable per libstdc++ build, not per spec. With no hash container in
// src/, no output can follow it. A ban on <unordered_*> includes would not
// be exact, since on GCC 12 <functional> alone makes std::unordered_map
// usable.
TEST(UltraLintTree, SrcHasNoHashContainers) {
  const std::vector<SourceFile>& src = src_tree();
  ASSERT_GT(src.size(), 50u) << "found too few src/ files — wrong root?";
  for (const SourceFile& file : src) {
    for (const lint::Token& t : file.lexed.tokens) {
      if (t.kind == TokKind::kIdent && t.text.starts_with("unordered_")) {
        ADD_FAILURE() << file.name << ":" << t.line << ": " << t.text
                      << " is a hash container";
      }
    }
  }
}

// The round model's two node-local invariants are checked at run time, not
// here: alloc_budget_test counts each protocol's allocations per window of
// the round loop, and parallel_equivalence_test runs each protocol under
// kParallel, which CI's tsan-checked job race-checks under TSan. Those
// guards cover only the protocols they name, so every class in src/ that
// derives from Protocol must appear in both files' code (comments do not
// count).
TEST(UltraLintTree, EveryProtocolIsNamedByTheRuntimeGuards) {
  std::set<std::string> protocols;
  for (const SourceFile& file : src_tree()) {
    for (std::string& name : protocol_subclasses(file.lexed)) {
      protocols.insert(std::move(name));
    }
  }
  EXPECT_GE(protocols.size(), 5u) << "found too few Protocol subclasses — "
                                     "wrong root?";
  for (const char* guard :
       {"tests/alloc_budget_test.cpp", "tests/parallel_equivalence_test.cpp"}) {
    std::set<std::string> named;
    const fs::path path = fs::path(ULTRA_LINT_REPO_ROOT) / guard;
    for (const lint::Token& t : lint::lex(read_file(path)).tokens) {
      if (t.kind == TokKind::kIdent) named.insert(t.text);
    }
    for (const std::string& protocol : protocols) {
      EXPECT_TRUE(named.contains(protocol))
          << protocol << " derives from Protocol but " << guard
          << " never names it";
    }
  }
}

}  // namespace
