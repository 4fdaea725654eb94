// Drives the ultra-lint fixture corpus (one positive + one negative file per
// rule under tools/ultra_lint/fixtures/) and then the whole-tree smoke check:
// src/ and tests/ must be clean modulo justified suppressions. The fixture
// assertions pin each rule's behavior — a rule that stops firing on its
// positive fixture, or starts firing on its negative one, fails here before
// it silently rots in CI.
#include <algorithm>
#include <string>
#include <vector>

#include "driver.h"
#include "gtest/gtest.h"

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

TEST(UltraLintFixtures, UnorderedIterPositive) {
  const LintResult r = lint_fixtures();
  // One range-for and one iterator-style loop.
  EXPECT_EQ(lines_for(r, "ultra-unordered-iter", "unordered_iter_pos.cpp").size(),
            2u);
}

TEST(UltraLintFixtures, UnorderedIterNegative) {
  const LintResult r = lint_fixtures();
  EXPECT_EQ(count_for_file(r, "unordered_iter_neg.cpp"), 0);
  // The collect-then-sort NOLINT lands in the audit list, not the findings.
  const auto suppressed = std::count_if(
      r.suppressed.begin(), r.suppressed.end(), [](const Finding& f) {
        return f.file == "src/unordered_iter_neg.cpp" &&
               f.rule == "ultra-unordered-iter";
      });
  EXPECT_EQ(suppressed, 1);
}

TEST(UltraLintFixtures, UnorderedMemberPositive) {
  const LintResult r = lint_fixtures();
  // Unannotated member + lying lookup-only annotation.
  EXPECT_EQ(lines_for(r, "ultra-unordered-member", "unordered_member_pos.h").size(),
            2u);
  // The lying annotation's iteration itself is also a finding.
  EXPECT_EQ(lines_for(r, "ultra-unordered-iter", "unordered_member_pos.h").size(),
            1u);
}

TEST(UltraLintFixtures, UnorderedMemberNegative) {
  EXPECT_EQ(count_for_file(lint_fixtures(), "unordered_member_neg.h"), 0);
}

TEST(UltraLintFixtures, CheckPositive) {
  const LintResult r = lint_fixtures();
  EXPECT_EQ(lines_for(r, "ultra-check", "check_pos.cpp").size(), 2u);
}

TEST(UltraLintFixtures, CheckNegative) {
  EXPECT_EQ(count_for_file(lint_fixtures(), "check_neg.cpp"), 0);
}

TEST(UltraLintFixtures, ParallelMutPositive) {
  const LintResult r = lint_fixtures();
  const std::vector<int> lines =
      lines_for(r, "ultra-parallel-mut", "parallel_mut_pos.h");
  // Direct mutation, helper-reachable mutation, guarded-by without the lock,
  // and the declaration-site bad guarded-by target.
  EXPECT_EQ(lines.size(), 4u);
}

TEST(UltraLintFixtures, ParallelMutNegative) {
  EXPECT_EQ(count_for_file(lint_fixtures(), "parallel_mut_neg.h"), 0);
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

TEST(UltraLintFixtures, HotAllocPositive) {
  const LintResult r = lint_fixtures();
  // Scratch local, temporary, unmanaged member growth, and the three
  // helper-reachable allocations (new / to_string / make_unique).
  EXPECT_EQ(lines_for(r, "ultra-hot-alloc", "hot_alloc_pos.cpp").size(), 6u);
}

TEST(UltraLintFixtures, HotAllocNegative) {
  EXPECT_EQ(count_for_file(lint_fixtures(), "hot_alloc_neg.cpp"), 0);
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

}  // namespace
