#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/fibonacci.h"
#include "util/rng.h"
#include "util/saturating.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/worker_pool.h"

namespace ultra::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMeanApproximatesP) {
  Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(23);
  const auto s = rng.sample_indices(100, 30);
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (const auto x : s) EXPECT_LT(x, 100u);
}

TEST(Rng, SampleIndicesAllWhenKTooLarge) {
  Rng rng(29);
  const auto s = rng.sample_indices(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Saturating, AddSaturates) {
  EXPECT_EQ(sat_add(2, 3), 5u);
  EXPECT_EQ(sat_add(kSaturated, 1), kSaturated);
  EXPECT_EQ(sat_add(kSaturated - 1, 5), kSaturated);
}

TEST(Saturating, MulSaturates) {
  EXPECT_EQ(sat_mul(6, 7), 42u);
  EXPECT_EQ(sat_mul(0, kSaturated), 0u);
  EXPECT_EQ(sat_mul(std::uint64_t{1} << 33, std::uint64_t{1} << 33),
            kSaturated);
}

TEST(Saturating, PowBasics) {
  EXPECT_EQ(sat_pow(2, 10), 1024u);
  EXPECT_EQ(sat_pow(0, 0), 1u);
  EXPECT_EQ(sat_pow(0, 5), 0u);
  EXPECT_EQ(sat_pow(1, 1000), 1u);
  EXPECT_EQ(sat_pow(10, 19), 10000000000000000000ull);
  EXPECT_EQ(sat_pow(10, 20), kSaturated);
  EXPECT_EQ(sat_pow(4, 4), 256u);
  EXPECT_EQ(sat_pow(256, 256), kSaturated);
}

TEST(Saturating, Logs) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Saturating, LogStar) {
  EXPECT_EQ(log_star(1), 0u);
  EXPECT_EQ(log_star(2), 1u);
  EXPECT_EQ(log_star(4), 2u);
  EXPECT_EQ(log_star(16), 3u);
  EXPECT_EQ(log_star(65536), 4u);
  EXPECT_EQ(log_star(std::uint64_t{1} << 63), 5u);
}

TEST(Saturating, AddOverflowBoundaries) {
  // The exact edge: a + b == 2^64 - 1 is representable, one more saturates.
  EXPECT_EQ(sat_add(kSaturated - 5, 5), kSaturated);
  EXPECT_EQ(sat_add(kSaturated - 5, 4), kSaturated - 1);
  EXPECT_EQ(sat_add(kSaturated - 5, 6), kSaturated);
  EXPECT_EQ(sat_add(0, kSaturated), kSaturated);
  EXPECT_EQ(sat_add(0, 0), 0u);
  // Commutative at the boundary.
  EXPECT_EQ(sat_add(1, kSaturated), sat_add(kSaturated, 1));
}

TEST(Saturating, MulOverflowBoundaries) {
  // 2^32 * (2^32 - 1) < 2^64 <= 2^32 * 2^32.
  const std::uint64_t b32 = std::uint64_t{1} << 32;
  EXPECT_EQ(sat_mul(b32, b32 - 1), b32 * (b32 - 1));
  EXPECT_EQ(sat_mul(b32, b32), kSaturated);
  EXPECT_EQ(sat_mul(kSaturated, 1), kSaturated);
  EXPECT_EQ(sat_mul(1, kSaturated), kSaturated);
  EXPECT_EQ(sat_mul(kSaturated, 0), 0u);
  // Largest exact product of the form p * q with p = 2: (2^63 - 1) * 2.
  EXPECT_EQ(sat_mul(2, (std::uint64_t{1} << 63) - 1), kSaturated - 1);
  EXPECT_EQ(sat_mul(2, std::uint64_t{1} << 63), kSaturated);
}

TEST(Saturating, PowOverflowBoundaries) {
  // 2^63 exact, 2^64 saturates; also the paper's tower s_3 = 256^256.
  EXPECT_EQ(sat_pow(2, 63), std::uint64_t{1} << 63);
  EXPECT_EQ(sat_pow(2, 64), kSaturated);
  EXPECT_EQ(sat_pow(2, 10000), kSaturated);
  EXPECT_EQ(sat_pow(kSaturated, 1), kSaturated);
  EXPECT_EQ(sat_pow(kSaturated, 0), 1u);
  EXPECT_EQ(sat_pow(3, 40), 12157665459056928801ull);  // 3^40 < 2^64
  EXPECT_EQ(sat_pow(3, 41), kSaturated);
  // Saturation is sticky: once the base clamps, the result stays clamped.
  EXPECT_EQ(sat_pow(sat_pow(256, 256), 2), kSaturated);
}

TEST(Saturating, LogBoundaries) {
  EXPECT_EQ(floor_log2(0), 0u);
  EXPECT_EQ(floor_log2(kSaturated), 63u);
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(kSaturated), 64u);
  EXPECT_EQ(ceil_log2((std::uint64_t{1} << 63) + 1), 64u);
  EXPECT_EQ(log_star(0), 0u);
  EXPECT_EQ(log_star(kSaturated), 5u);
}

TEST(Fibonacci, Values) {
  EXPECT_EQ(fibonacci(0), 0u);
  EXPECT_EQ(fibonacci(1), 1u);
  EXPECT_EQ(fibonacci(2), 1u);
  EXPECT_EQ(fibonacci(10), 55u);
  EXPECT_EQ(fibonacci(92), 7540113804746346429ull);
  EXPECT_THROW(static_cast<void>(fibonacci(93)), std::out_of_range);
}

TEST(Fibonacci, GoldenRatioIdentity) {
  // phi * F_k + 1 > F_{k+1}, the only Fibonacci property Section 4 uses.
  for (unsigned k = 1; k <= 40; ++k) {
    EXPECT_GT(kGoldenRatio * static_cast<double>(fibonacci(k)) + 1.0,
              static_cast<double>(fibonacci(k + 1)))
        << "k=" << k;
  }
}

TEST(Fibonacci, FloorLogPhi) {
  EXPECT_EQ(floor_log_phi(1.0), 0u);
  EXPECT_EQ(floor_log_phi(kGoldenRatio), 1u);
  EXPECT_EQ(floor_log_phi(10.0), 4u);  // phi^4 ~ 6.85, phi^5 ~ 11.09
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  // Nearest rank is the ceil(p N / 100)-th smallest; each case is worked by
  // hand.
  const std::vector<double> eight{8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(percentile(eight, 90), 8.0);  // ceil(7.2) = 8th
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 25), 2.0);  // ceil(1.25) = 2nd
  // One slow epoch among eight: p99 is rank ceil(7.92) = 8, the slow one.
  EXPECT_DOUBLE_EQ(percentile({0, 0, 0, 0, 0, 0, 0, 37}, 99), 37.0);
  // N = 7 at p50: rank ceil(3.5) = 4.
  EXPECT_DOUBLE_EQ(percentile({70, 10, 60, 20, 50, 30, 40}, 50), 40.0);
  // p N a multiple of 100: the rank is exact, not one above it.
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 7), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0}), 3.0);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(42);
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, AllCellOverloadsRender) {
  Table t({"i64", "u64", "int", "uint", "cstr", "dbl"});
  t.row()
      .cell(std::int64_t{-5})
      .cell(std::uint64_t{18446744073709551615ull})
      .cell(-7)
      .cell(9u)
      .cell("raw")
      .cell(0.125, 3);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("-5"), std::string::npos);
  EXPECT_NE(out.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(out.find("-7"), std::string::npos);
  EXPECT_NE(out.find("raw"), std::string::npos);
  EXPECT_NE(out.find("0.125"), std::string::npos);
}

TEST(Table, ColumnsPadToWidestCell) {
  Table t({"x"});
  t.row().cell("short");
  t.row().cell("a-much-longer-cell");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Every data row is rendered at equal width: the short cell's row must be
  // padded out to the long cell's width.
  std::istringstream lines(out);
  std::string first, line;
  std::size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << "misaligned row: " << line;
  }
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 3), "1.000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

// ---- WorkerPool --------------------------------------------------------------

TEST(WorkerPool, EachIndexRunsExactlyOncePerRun) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::array<std::atomic<int>, 4> calls{};
  for (int run = 1; run <= 5; ++run) {
    pool.run([&](unsigned i) { calls.at(i).fetch_add(1); });
    for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(calls[i].load(), run) << i;
  }
}

TEST(WorkerPool, ThreadsAreReusedAcrossRuns) {
  WorkerPool pool(3);
  std::vector<std::thread::id> first(3), ids(3);
  pool.run([&](unsigned i) { first[i] = std::this_thread::get_id(); });
  // Index 0 runs on the caller, the others on distinct threads of the pool.
  EXPECT_EQ(first[0], std::this_thread::get_id());
  EXPECT_NE(first[1], first[0]);
  EXPECT_NE(first[2], first[0]);
  EXPECT_NE(first[1], first[2]);
  for (int run = 0; run < 20; ++run) {
    pool.run([&](unsigned i) { ids[i] = std::this_thread::get_id(); });
    EXPECT_EQ(ids, first) << "run " << run;
  }
}

TEST(WorkerPool, LowestIndexExceptionWinsAfterAllCallsReturn) {
  WorkerPool pool(4);
  // `thrower` lists the indices that throw; index 3 returns last, after a
  // sleep, so a pool that rethrew before every call returned would see
  // fewer than 4 returns.
  for (const std::vector<unsigned>& thrower :
       {std::vector<unsigned>{1, 2}, std::vector<unsigned>{0, 2},
        std::vector<unsigned>{3}}) {
    std::atomic<unsigned> returned{0};
    std::string caught;
    try {
      pool.run([&](unsigned i) {
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        returned.fetch_add(1);
        if (std::find(thrower.begin(), thrower.end(), i) != thrower.end()) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "index " + std::to_string(thrower.front()));
    EXPECT_EQ(returned.load(), 4u) << caught;
  }
  // The pool serves normally after a run that threw.
  std::atomic<unsigned> sum{0};
  pool.run([&](unsigned i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 10u);
}

TEST(WorkerPool, SizeResolvesByTheRule) {
  // 0 = hardware concurrency (1 when unknown), clamped to [1, 64]. No run,
  // so none of these pools starts a thread.
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(WorkerPool(0).size(), std::clamp(hw, 1u, 64u));
  EXPECT_EQ(WorkerPool(1).size(), 1u);
  EXPECT_EQ(WorkerPool(65).size(), 64u);
}

TEST(WorkerPool, PoolOfOneRunsInlineAndPropagates) {
  WorkerPool pool(1);
  std::thread::id id;
  pool.run([&](unsigned i) {
    EXPECT_EQ(i, 0u);
    id = std::this_thread::get_id();
  });
  EXPECT_EQ(id, std::this_thread::get_id());
  EXPECT_THROW(pool.run([](unsigned) { throw std::logic_error("inline"); }),
               std::logic_error);
}

}  // namespace
}  // namespace ultra::util
