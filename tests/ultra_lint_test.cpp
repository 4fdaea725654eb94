// Drives the ultra-lint fixture corpus (one positive + one negative file per
// rule under tools/ultra_lint/fixtures/) and then the whole-tree checks:
// src/ and tests/ must be clean modulo justified suppressions, src/ must
// hold no hash container, and every Protocol subclass in src/ must be
// covered by the round model's runtime guards. The fixture assertions pin
// each rule's behavior — a rule that stops firing on its positive fixture,
// or starts firing on its negative one, fails here before it silently rots
// in CI.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver.h"
#include "gtest/gtest.h"
#include "lexer.h"
#include "model.h"

namespace {

using ultra::lint::Finding;
using ultra::lint::LintOptions;
using ultra::lint::LintResult;
using ultra::lint::run_lint;

LintResult lint_fixtures() {
  static const LintResult result = [] {
    LintOptions options;
    options.root = ULTRA_LINT_FIXTURES;
    options.paths = {"src"};
    return run_lint(options);
  }();
  return result;
}

// Active findings for `rule` in fixture file `file` (basename under src/).
std::vector<int> lines_for(const LintResult& result, const std::string& rule,
                           const std::string& file) {
  std::vector<int> lines;
  for (const Finding& f : result.active) {
    if (f.rule == rule && f.file == "src/" + file) lines.push_back(f.line);
  }
  return lines;
}

int count_for_file(const LintResult& result, const std::string& file) {
  return static_cast<int>(
      std::count_if(result.active.begin(), result.active.end(),
                    [&](const Finding& f) { return f.file == "src/" + file; }));
}

TEST(UltraLintFixtures, NondetPositive) {
  const LintResult r = lint_fixtures();
  // random_device, rand(), steady_clock::now, getenv — one finding each.
  EXPECT_EQ(lines_for(r, "ultra-nondet", "nondet_pos.cpp").size(), 4u);
}

TEST(UltraLintFixtures, NondetNegative) {
  EXPECT_EQ(count_for_file(lint_fixtures(), "nondet_neg.cpp"), 0);
}

TEST(UltraLintFixtures, CheckPositive) {
  const LintResult r = lint_fixtures();
  EXPECT_EQ(lines_for(r, "ultra-check", "check_pos.cpp").size(), 2u);
}

TEST(UltraLintFixtures, CheckNegative) {
  EXPECT_EQ(count_for_file(lint_fixtures(), "check_neg.cpp"), 0);
}

TEST(UltraLintFixtures, SuppressPositive) {
  const LintResult r = lint_fixtures();
  const std::vector<int> lines =
      lines_for(r, "ultra-suppress", "suppress_pos.cpp");
  // Reasonless NOLINT, unknown rule id, and a NOLINT naming a retired rule.
  EXPECT_EQ(lines.size(), 3u);
  // The reasonless NOLINT must NOT hide the assert finding it points at.
  EXPECT_EQ(lines_for(r, "ultra-check", "suppress_pos.cpp").size(), 1u);
}

TEST(UltraLintFixtures, SuppressNegative) {
  const LintResult r = lint_fixtures();
  EXPECT_EQ(count_for_file(r, "suppress_neg.cpp"), 0);
  const auto suppressed = std::count_if(
      r.suppressed.begin(), r.suppressed.end(), [](const Finding& f) {
        return f.file == "src/suppress_neg.cpp" && f.rule == "ultra-check";
      });
  EXPECT_EQ(suppressed, 1);
}

TEST(UltraLintFixtures, LexerHardeningNegative) {
  // Raw strings (all encoding prefixes, custom delimiters), digraphs and a
  // continued #define full of decoy identifiers: nothing may fire.
  EXPECT_EQ(count_for_file(lint_fixtures(), "lexer_neg.cpp"), 0);
}

TEST(UltraLintFixtures, LexerHardeningPositive) {
  const LintResult r = lint_fixtures();
  // The real rand() after the decoys fires at exactly its own line — the
  // lexer resynchronized through the raw string and digraph braces.
  const std::vector<int> lines = lines_for(r, "ultra-nondet", "lexer_pos.cpp");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 9);
  EXPECT_EQ(count_for_file(r, "lexer_pos.cpp"), 1);
}

TEST(UltraLintSarif, ReportShape) {
  const std::string sarif = ultra::lint::format_sarif(lint_fixtures());
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("ultra-lint"), std::string::npos);
  // Every rule id appears in the driver's rule table.
  for (const ultra::lint::RuleInfo& rule : ultra::lint::rule_registry()) {
    EXPECT_NE(sarif.find("{\"id\":\"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  // At least one concrete result with a physical location.
  EXPECT_NE(sarif.find("physicalLocation"), std::string::npos);
}

// The tree itself is a fixture: src/ and tests/ stay clean. Any new finding
// must be fixed or carry a reasoned NOLINT before it can land.
TEST(UltraLintTree, SrcAndTestsAreClean) {
  LintOptions options;
  options.root = ULTRA_LINT_REPO_ROOT;
  options.paths = {"src", "tests"};
  const LintResult result = run_lint(options);
  EXPECT_GT(result.scanned.size(), 50u) << "tree scan found too few files — "
                                           "wrong root?";
  for (const Finding& f : result.active) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
  // Suppressions are visible here so a review can audit every reason.
  for (const Finding& f : result.suppressed) {
    EXPECT_FALSE(f.suppress_reason.empty());
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every .h and .cpp file under src/.
std::vector<std::filesystem::path> src_files() {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(ULTRA_LINT_REPO_ROOT) / "src";
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(src)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".h" || ext == ".cpp")) {
      files.push_back(entry.path());
    }
  }
  return files;
}

// A run must be a pure function of (graph, protocol, seed), and hash order
// is stable per libstdc++ build, not per spec. With no hash container in
// src/, no output can follow it. The check is exact on the token stream:
// comments and string contents are not tokens. A ban on <unordered_*>
// includes would not be exact, since on GCC 12 <functional> alone makes
// std::unordered_map usable.
TEST(UltraLintTree, SrcHasNoHashContainers) {
  namespace lint = ultra::lint;
  const std::vector<std::filesystem::path> files = src_files();
  EXPECT_GT(files.size(), 50u) << "found too few src/ files — wrong root?";
  for (const std::filesystem::path& path : files) {
    for (const lint::Token& t : lint::lex(read_file(path)).tokens) {
      if (t.kind == lint::TokKind::kIdent && t.text.starts_with("unordered_")) {
        ADD_FAILURE() << path.generic_string() << ":" << t.line << ": "
                      << t.text << " is a hash container";
      }
    }
  }
}

// The round model's two node-local invariants are checked at run time, not
// here: alloc_budget_test counts each protocol's allocations per window of
// the round loop, and parallel_equivalence_test runs each protocol under
// kParallel, which CI's parallel-checked job race-checks under TSan. Those
// guards cover only the protocols they name, so every class in src/ that
// derives from Protocol must appear in both files' code (comments do not
// count).
TEST(UltraLintTree, EveryProtocolIsNamedByTheRuntimeGuards) {
  namespace fs = std::filesystem;
  namespace lint = ultra::lint;
  const fs::path root = ULTRA_LINT_REPO_ROOT;
  std::set<std::string> protocols;
  for (const fs::path& path : src_files()) {
    const lint::FileModel model =
        lint::build_model(path.string(), lint::lex(read_file(path)));
    for (const lint::ClassDecl& cls : model.classes) {
      if (std::ranges::find(cls.bases, "Protocol") != cls.bases.end()) {
        protocols.insert(cls.name);
      }
    }
  }
  EXPECT_GE(protocols.size(), 5u) << "found too few Protocol subclasses — "
                                     "wrong root?";
  for (const char* guard :
       {"tests/alloc_budget_test.cpp", "tests/parallel_equivalence_test.cpp"}) {
    std::set<std::string> named;
    for (const lint::Token& t : lint::lex(read_file(root / guard)).tokens) {
      if (t.kind == lint::TokKind::kIdent) named.insert(t.text);
    }
    for (const std::string& protocol : protocols) {
      EXPECT_TRUE(named.contains(protocol))
          << protocol << " derives from Protocol but " << guard
          << " never names it";
    }
  }
}

}  // namespace
