// Trace-digest equivalence across audit modes, plus golden-digest pins.
//
// The flat-buffer transport rewrite (arena payloads, CSR inboxes, worklist
// activation, arc-stamp dedup) is only allowed to change *speed*: the strict
// auditor is an observer, so kStrict and kFast must produce byte-identical
// communication traces, and both must reproduce the exact digests the
// pre-rewrite vector-of-vectors transport produced. The golden constants
// below were captured from that original implementation; if any of them
// moves, the simulator's delivery semantics changed — round numbering,
// inbox order, payload words or message accounting — and every determinism
// guarantee in network.h is suspect.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/baswana_sen_distributed.h"
#include "core/cluster_protocol.h"
#include "core/fibonacci_distributed.h"
#include "core/schedule.h"
#include "core/skeleton_distributed.h"
#include "graph/generators.h"
#include "sim/faults.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;
using sim::AuditMode;

struct Trace {
  std::uint64_t digest = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_words = 0;

  explicit Trace(const sim::Metrics& m)
      : digest(m.trace_digest),
        rounds(m.rounds),
        messages(m.messages),
        total_words(m.total_words) {}

  friend bool operator==(const Trace&, const Trace&) = default;
};

#define EXPECT_TRACE_EQ(a, b)              \
  do {                                     \
    EXPECT_EQ((a).digest, (b).digest);     \
    EXPECT_EQ((a).rounds, (b).rounds);     \
    EXPECT_EQ((a).messages, (b).messages); \
    EXPECT_EQ((a).total_words, (b).total_words); \
  } while (0)

TEST(DigestEquivalence, BfsFloodStrictEqualsFast) {
  for (std::uint64_t seed : {31, 77, 1234}) {
    util::Rng rng(seed);
    const Graph g = graph::connected_gnm(150, 420, rng);
    auto run = [&](AuditMode mode) {
      sim::Network net(g, 1, mode);
      sim::BfsFlood flood(3);
      return Trace(net.run(flood, 1000));
    };
    EXPECT_TRACE_EQ(run(AuditMode::kStrict), run(AuditMode::kFast));
  }
}

TEST(DigestEquivalence, TruncatedMinIdFloodStrictEqualsFast) {
  for (std::uint64_t seed : {33, 55, 99}) {
    util::Rng rng(seed);
    const Graph g = graph::connected_gnm(150, 400, rng);
    std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.bernoulli(0.05)) is_source[v] = 1;
    }
    auto run = [&](AuditMode mode) {
      sim::Network net(g, 1, mode);
      sim::TruncatedMinIdFlood flood(is_source, 3);
      return Trace(net.run(flood, 10));
    };
    EXPECT_TRACE_EQ(run(AuditMode::kStrict), run(AuditMode::kFast));
  }
}

TEST(DigestEquivalence, ExpandProtocolStrictEqualsFast) {
  // Distributed Baswana–Sen is the ClusterProtocol (the Expand machinery)
  // with a single-round schedule — the cheapest full exercise of the
  // status / gather / resolve / contraction message paths.
  for (std::uint64_t seed : {5, 6}) {
    util::Rng rng(21);
    const Graph g = graph::connected_gnm(160, 450, rng);
    auto run = [&](AuditMode mode) {
      return Trace(
          baselines::baswana_sen_distributed(g, 3, seed, 8, mode).network);
    };
    EXPECT_TRACE_EQ(run(AuditMode::kStrict), run(AuditMode::kFast));
  }
}

TEST(DigestEquivalence, DistributedSkeletonStrictEqualsFast) {
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  for (std::uint64_t seed : {9, 10}) {
    auto run = [&](AuditMode mode) {
      return Trace(core::build_skeleton_distributed(
                       g, {.D = 4, .eps = 1.0, .seed = seed, .audit = mode})
                       .network);
    };
    EXPECT_TRACE_EQ(run(AuditMode::kStrict), run(AuditMode::kFast));
  }
}

TEST(DigestEquivalence, DistributedFibonacciStrictEqualsFast) {
  util::Rng rng(43);
  const Graph g = graph::connected_gnm(200, 520, rng);
  for (std::uint64_t seed : {7, 8}) {
    core::FibonacciParams params;
    params.order = 2;
    params.eps = 1.0;
    params.message_t = 3.0;
    params.seed = seed;
    auto run = [&](AuditMode mode) {
      params.audit = mode;
      return Trace(core::build_fibonacci_distributed(g, params).network);
    };
    EXPECT_TRACE_EQ(run(AuditMode::kStrict), run(AuditMode::kFast));
  }
}

// --- Golden digests, captured from the pre-rewrite transport -------------

struct Golden {
  std::uint64_t digest, rounds, messages, total_words;
};

TEST(GoldenDigest, DistributedSkeletonMatchesPreRewriteTransport) {
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const Golden want[] = {{9920093477882535019ull, 46, 8565, 26049},
                         {533071475084392225ull, 61, 9523, 28759}};
  const std::uint64_t seeds[] = {9, 10};
  for (int i = 0; i < 2; ++i) {
    const auto r = core::build_skeleton_distributed(
        g, {.D = 4, .eps = 1.0, .seed = seeds[i]});
    EXPECT_EQ(r.network.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(r.network.rounds, want[i].rounds);
    EXPECT_EQ(r.network.messages, want[i].messages);
    EXPECT_EQ(r.network.total_words, want[i].total_words);
  }
}

TEST(GoldenDigest, DistributedFibonacciMatchesPreRewriteTransport) {
  util::Rng rng(43);
  const Graph g = graph::connected_gnm(200, 520, rng);
  const Golden want[] = {{6356776267301215081ull, 283695, 6243, 13365},
                         {5328015492174695108ull, 1676, 7902, 11723}};
  const std::uint64_t seeds[] = {7, 8};
  for (int i = 0; i < 2; ++i) {
    core::FibonacciParams params;
    params.order = 2;
    params.eps = 1.0;
    params.message_t = 3.0;
    params.seed = seeds[i];
    const auto r = core::build_fibonacci_distributed(g, params);
    EXPECT_EQ(r.network.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(r.network.rounds, want[i].rounds);
    EXPECT_EQ(r.network.messages, want[i].messages);
    EXPECT_EQ(r.network.total_words, want[i].total_words);
  }
}

TEST(GoldenDigest, BfsFloodMatchesPreRewriteTransport) {
  const Golden want[] = {{9123858175633504614ull, 6, 703, 703},
                         {15268099023596930062ull, 6, 715, 715}};
  const std::uint64_t seeds[] = {31, 32};
  for (int i = 0; i < 2; ++i) {
    util::Rng rng(seeds[i]);
    const Graph g = graph::connected_gnm(120, 300, rng);
    sim::Network net(g, 1);
    sim::BfsFlood flood(7);
    const auto m = net.run(flood, 1000);
    EXPECT_EQ(m.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(m.rounds, want[i].rounds);
    EXPECT_EQ(m.messages, want[i].messages);
    EXPECT_EQ(m.total_words, want[i].total_words);
  }
}

TEST(GoldenDigest, TruncatedMinIdFloodMatchesPreRewriteTransport) {
  const Golden want[] = {{5946328646144447975ull, 4, 619, 619},
                         {4898565372255727991ull, 4, 747, 747}};
  const std::uint64_t seeds[] = {33, 34};
  for (int i = 0; i < 2; ++i) {
    util::Rng rng(seeds[i]);
    const Graph g = graph::connected_gnm(150, 400, rng);
    std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.bernoulli(0.05)) is_source[v] = 1;
    }
    sim::Network net(g, 1);
    sim::TruncatedMinIdFlood flood(is_source, 3);
    const auto m = net.run(flood, 10);
    EXPECT_EQ(m.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(m.rounds, want[i].rounds);
    EXPECT_EQ(m.messages, want[i].messages);
    EXPECT_EQ(m.total_words, want[i].total_words);
  }
}

// --- Skeleton output goldens ----------------------------------------------
//
// A trace digest pins what the skeleton says, not what it keeps: the abort
// rule changes the edge set and the counters without moving one message.
// These pins record the spanner's edge sequence (byte-wise FNV-1a over
// spanner.edges() in insertion order) and every ClusterProtocolStats counter.

struct SkeletonOutput {
  std::uint64_t edge_digest = 0;
  std::uint64_t edges = 0;
  // ClusterProtocolStats, in declaration order.
  std::uint64_t joins = 0, deaths = 0, aborts = 0, expand_calls = 0,
                status_rounds = 0, gather_rounds = 0, resolve_rounds = 0,
                contraction_rounds = 0, broadcast_rounds = 0,
                crash_teardowns = 0, crash_rejoins = 0, orphans_healed = 0;
};

SkeletonOutput output_of(const spanner::Spanner& s,
                         const core::ClusterProtocolStats& p) {
  std::uint64_t h = 14695981039346656037ull;
  for (const graph::Edge& e : s.edges()) {
    const std::uint64_t key = graph::edge_key(e);
    for (int i = 0; i < 8; ++i) {
      h ^= (key >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return {h,
          s.size(),
          p.joins,
          p.deaths,
          p.aborts,
          p.expand_calls,
          p.status_rounds,
          p.gather_rounds,
          p.resolve_rounds,
          p.contraction_rounds,
          p.broadcast_rounds,
          p.crash_teardowns,
          p.crash_rejoins,
          p.orphans_healed};
}

void expect_output(const SkeletonOutput& got, const SkeletonOutput& want) {
  EXPECT_EQ(got.edge_digest, want.edge_digest);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.joins, want.joins);
  EXPECT_EQ(got.deaths, want.deaths);
  EXPECT_EQ(got.aborts, want.aborts);
  EXPECT_EQ(got.expand_calls, want.expand_calls);
  EXPECT_EQ(got.status_rounds, want.status_rounds);
  EXPECT_EQ(got.gather_rounds, want.gather_rounds);
  EXPECT_EQ(got.resolve_rounds, want.resolve_rounds);
  EXPECT_EQ(got.contraction_rounds, want.contraction_rounds);
  EXPECT_EQ(got.broadcast_rounds, want.broadcast_rounds);
  EXPECT_EQ(got.crash_teardowns, want.crash_teardowns);
  EXPECT_EQ(got.crash_rejoins, want.crash_rejoins);
  EXPECT_EQ(got.orphans_healed, want.orphans_healed);
}

TEST(SkeletonOutputGolden, GoldenDigestSeeds) {
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const SkeletonOutput want[] = {
      {7986141628175926931ull, 488, 239, 55, 0, 4, 4, 30, 0, 4, 8, 0, 0, 0},
      {11206513896433093928ull, 399, 259, 30, 0, 4, 4, 42, 0, 4, 11, 0, 0,
       0}};
  const std::uint64_t seeds[] = {9, 10};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(seeds[i]);
    const auto r = core::build_skeleton_distributed(
        g, {.D = 4, .eps = 1.0, .seed = seeds[i]});
    expect_output(output_of(r.spanner, r.protocol), want[i]);
  }
}

TEST(SkeletonOutputGolden, CrashRestartPlan) {
  // SkeletonCrashRestartMatrix's first plan (fault_injection_test.cpp).
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const sim::FaultPlan plan(
      3, {.crash = 0.03, .restart = 0.5, .crash_window = 48});
  const auto r = core::build_skeleton_distributed(
      g, {.D = 4, .eps = 1.0, .seed = 9, .faults = &plan});
  expect_output(
      output_of(r.spanner, r.protocol),
      {752365288410380597ull, 506, 239, 57, 0, 4, 4, 30, 0, 4, 8, 4, 2, 0});
}

// The crash paths below also pin the trace: the phase barrier decides when
// each phase ends, so a change to how it reads completion moves the digest
// and the round count before it moves an edge.

TEST(SkeletonOutputGolden, CrashReleasesLastAwaitedCandidate) {
  // The first plan of a 400-seed sweep in which a teardown releases a
  // parent's last awaited candidate while the parent's inbox holds no Cand:
  // only the crash repair can restart its send-up.
  util::Rng rng(1);
  const Graph g = graph::connected_gnm(300, 600, rng);
  const sim::FaultPlan plan(18, {.crash = 0.04,
                                 .restart = 0.6,
                                 .crash_window = 60,
                                 .max_crash_rounds = 4});
  const auto r = core::build_skeleton_distributed(
      g, {.D = 4, .eps = 1.0, .seed = 1, .faults = &plan});
  EXPECT_EQ(r.network.trace_digest, 13793016398657623339ull);
  EXPECT_EQ(r.network.rounds, 89u);
  expect_output(output_of(r.spanner, r.protocol),
                {18048518829986482526ull, 783, 252, 152, 0, 5, 5, 66, 0, 6,
                 11, 13, 10, 30});
}

TEST(SkeletonOutputGolden, CrashStopPlan) {
  // Crashed nodes never return: every teardown is final.
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const sim::FaultPlan plan(
      8, {.crash = 0.05, .restart = 0.0, .crash_window = 48});
  const auto r = core::build_skeleton_distributed(
      g, {.D = 4, .eps = 1.0, .seed = 9, .faults = &plan});
  EXPECT_EQ(r.network.trace_digest, 3439857804058499528ull);
  EXPECT_EQ(r.network.rounds, 65u);
  expect_output(output_of(r.spanner, r.protocol),
                {8082967181929004029ull, 590, 244, 66, 0, 5, 5, 48, 0, 4, 8,
                 11, 0, 4});
}

TEST(SkeletonOutputGolden, BaswanaSenCrashRestartPlan) {
  // The single-round schedule: crashes land inside the Expand calls
  // themselves, not between contractions.
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const sim::FaultPlan plan(1, {.crash = 0.08,
                                .restart = 0.9,
                                .crash_window = 24,
                                .max_crash_rounds = 3});
  const auto r = baselines::baswana_sen_distributed(
      g, 3, 9, 8, AuditMode::kStrict, sim::ExecutionMode::kSequential, 0,
      &plan);
  EXPECT_EQ(r.network.trace_digest, 12334617559596021893ull);
  EXPECT_EQ(r.network.rounds, 10u);
  expect_output(output_of(r.spanner, r.protocol),
                {7333035963766690863ull, 892, 275, 246, 0, 3, 3, 3, 0, 2, 1,
                 6, 5, 0});
}

// Runs `schedule` with seed 9 under a cap of 8 words; returns the output and
// stores the trace digest.
SkeletonOutput run_schedule(const Graph& g,
                            const core::SkeletonSchedule& schedule,
                            double abort_factor, std::uint64_t& digest) {
  sim::Network net(g, 8);
  spanner::Spanner out(g);
  core::ClusterProtocol protocol(g, schedule, 9, &out, abort_factor);
  const auto outcome = net.run_outcome(
      protocol, {.max_rounds = 4096, .protocol_name = "ClusterProtocol"});
  EXPECT_TRUE(outcome.completed()) << outcome.diagnostic;
  digest = outcome.metrics.trace_digest;
  return output_of(out, protocol.stats());
}

TEST(SkeletonOutputGolden, AbortRule) {
  // One schedule round whose threshold factor 0.1 (instead of the paper's 4)
  // makes vertices abort: the edge set and the counters move, the trace
  // does not.
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(300, 2400, rng);
  core::SkeletonSchedule schedule;
  schedule.rounds.push_back({{0.2, 0.1, 0.0}, 0});
  std::uint64_t low_digest = 0;
  std::uint64_t paper_digest = 0;
  const SkeletonOutput low = run_schedule(g, schedule, 0.1, low_digest);
  const SkeletonOutput paper = run_schedule(g, schedule, 4.0, paper_digest);
  EXPECT_GT(low.aborts, 0u);
  EXPECT_EQ(paper.aborts, 0u);
  EXPECT_EQ(low_digest, 0x649761f3bdba2ff8ull);
  EXPECT_EQ(paper_digest, 0x649761f3bdba2ff8ull);
  expect_output(low, {14578782264560035067ull, 1659, 457, 300, 21, 3, 3, 3,
                      0, 0, 1, 0, 0, 0});
  expect_output(paper, {12480235659800913951ull, 1605, 457, 300, 0, 3, 3, 3,
                        0, 0, 1, 0, 0, 0});
}

TEST(SkeletonOutputGolden, AbortRuleAcrossContraction) {
  // Two contractions first, so the dying groups are trees: members stream
  // their lists up, forwarded entries push some members over the threshold,
  // and the abort travels to the center as AbortUp.
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(300, 600, rng);
  core::SkeletonSchedule schedule;
  schedule.rounds.push_back({{0.5}, 0});
  schedule.rounds.push_back({{0.5}, 0});
  schedule.rounds.push_back({{0.5, 0.0}, 0});
  std::uint64_t digest = 0;
  const SkeletonOutput out = run_schedule(g, schedule, 0.1, digest);
  EXPECT_GT(out.aborts, 0u);
  EXPECT_EQ(digest, 9096826999904009272ull);
  expect_output(out, {16514731424955456824ull, 871, 240, 92, 9, 4, 4, 32, 0,
                      4, 8, 0, 0, 0});
}

}  // namespace
}  // namespace ultra
