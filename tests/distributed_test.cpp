#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/baswana_sen_distributed.h"
#include "check/certify.h"
#include "baselines/cds_skeleton.h"
#include "baselines/mis_protocol.h"
#include "baselines/baswana_sen.h"
#include "core/cluster_protocol.h"
#include "core/schedule.h"
#include "core/skeleton.h"
#include "core/skeleton_distributed.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "spanner/evaluate.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace ultra::core {
namespace {

using graph::Graph;

struct DistCase {
  const char* family;
  std::uint32_t n;
  std::uint64_t m;
  std::uint64_t D;
  double eps;
  std::uint64_t seed;
};

Graph make_graph(const DistCase& c, util::Rng& rng) {
  const std::string fam = c.family;
  if (fam == "gnm") return graph::connected_gnm(c.n, c.m, rng);
  if (fam == "torus") {
    const auto side = static_cast<graph::VertexId>(std::sqrt(c.n));
    return graph::torus_graph(side, side);
  }
  if (fam == "cliques") return graph::ring_of_cliques(c.n / 8, 8);
  if (fam == "pa") return graph::preferential_attachment(c.n, 3, rng);
  ADD_FAILURE() << "unknown family";
  return Graph();
}

class DistributedSkeletonProperty : public ::testing::TestWithParam<DistCase> {
};

TEST_P(DistributedSkeletonProperty, InvariantsHold) {
  const DistCase c = GetParam();
  util::Rng rng(c.seed);
  const Graph g = make_graph(c, rng);
  const auto result = build_skeleton_distributed(
      g, {.D = c.D, .eps = c.eps, .seed = c.seed * 31 + 5});

  // Message discipline: the cap was honored (Network would have thrown) and
  // measured message lengths stay within it.
  EXPECT_LE(result.network.max_message_words, result.message_cap_words);

  // Connectivity and distortion.
  EXPECT_TRUE(graph::same_connectivity(g, result.spanner.to_graph()));
  const auto report = spanner::evaluate_sampled(g, result.spanner, 20, rng);
  EXPECT_TRUE(report.connectivity_preserved);
  EXPECT_LE(report.max_mult,
            static_cast<double>(result.schedule.distortion_bound));

  // Size: within the Lemma 6 expectation (x2 slack for variance).
  EXPECT_LE(static_cast<double>(result.spanner.size()),
            2.0 * predicted_skeleton_size(g.num_vertices(), c.D));

  // Every working vertex either joined or died; at the end nothing is alive.
  EXPECT_GT(result.protocol.deaths, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributedSkeletonProperty,
    ::testing::Values(DistCase{"gnm", 400, 1600, 4, 1.0, 1},
                      DistCase{"gnm", 400, 1600, 4, 1.0, 2},
                      DistCase{"gnm", 1000, 6000, 4, 1.0, 3},
                      DistCase{"gnm", 1000, 6000, 8, 2.0, 4},
                      DistCase{"torus", 900, 0, 4, 1.0, 5},
                      DistCase{"cliques", 640, 0, 4, 1.0, 6},
                      DistCase{"pa", 800, 0, 4, 1.0, 7}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return std::string(info.param.family) + "_n" +
             std::to_string(info.param.n) + "_D" +
             std::to_string(info.param.D) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(DistributedSkeleton, RoundsScalePolylogarithmically) {
  // Theorem 2: time O(eps^-1 2^{log* n} log n). Measured rounds at 4x the
  // vertex count should grow by far less than 4x.
  util::Rng rng(11);
  const Graph g1 = graph::connected_gnm(500, 2500, rng);
  const Graph g2 = graph::connected_gnm(4000, 20000, rng);
  const auto r1 = build_skeleton_distributed(g1, {.D = 4, .eps = 1.0, .seed = 1});
  const auto r2 = build_skeleton_distributed(g2, {.D = 4, .eps = 1.0, .seed = 1});
  EXPECT_LE(r2.network.rounds, 2 * r1.network.rounds + 64);
}

TEST(DistributedSkeleton, MatchesSequentialQuality) {
  util::Rng rng(13);
  const Graph g = graph::connected_gnm(1200, 7200, rng);
  const SkeletonParams params{.D = 4, .eps = 1.0, .seed = 9};
  const auto dist = build_skeleton_distributed(g, params);
  const auto seq = build_skeleton(g, params);
  // Same guarantees, similar sizes (not bitwise equal: the protocols make
  // different arbitrary choices).
  const double ratio = static_cast<double>(dist.spanner.size()) /
                       static_cast<double>(seq.stats.spanner_size);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

TEST(DistributedSkeleton, DeterministicForSeed) {
  util::Rng rng(15);
  const Graph g = graph::connected_gnm(300, 1200, rng);
  const SkeletonParams params{.D = 4, .eps = 1.0, .seed = 21};
  const auto a = build_skeleton_distributed(g, params);
  const auto b = build_skeleton_distributed(g, params);
  EXPECT_EQ(a.spanner.size(), b.spanner.size());
  EXPECT_EQ(a.network.rounds, b.network.rounds);
  EXPECT_EQ(a.network.messages, b.network.messages);
}

TEST(DistributedSkeleton, ExactCertificateWithinScheduleBound) {
  util::Rng rng(17);
  const Graph g = graph::connected_gnm(300, 1000, rng);
  const auto result =
      build_skeleton_distributed(g, {.D = 4, .eps = 1.0, .seed = 3});
  check::SpannerCertifyOptions opts;
  opts.alpha = static_cast<double>(result.schedule.distortion_bound);
  opts.sample_sources = 0;
  const auto cert = check::certify_spanner(g, result.spanner, opts);
  EXPECT_TRUE(cert.ok) << cert.violation;
}

TEST(DistributedSkeleton, TinyGraphs) {
  const Graph pair = graph::path_graph(2);
  const auto r = build_skeleton_distributed(pair, {.D = 4, .eps = 1.0});
  EXPECT_EQ(r.spanner.size(), 1u);
  const Graph tri = graph::complete_graph(3);
  const auto r2 = build_skeleton_distributed(tri, {.D = 4, .eps = 1.0});
  EXPECT_EQ(r2.spanner.size(), 3u);
}

TEST(ClusterProtocol, RejectsCapBelowCandAndJoinWords) {
  // Cand and Join carry 6 words: a smaller cap is refused in begin(),
  // before round 0, instead of failing at the first Cand.
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const SkeletonSchedule schedule =
      plan_schedule(g.num_vertices(), {.D = 4, .eps = 1.0, .seed = 9});
  for (const std::uint64_t cap : {3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE(cap);
    sim::Network net(g, cap);
    spanner::Spanner out(g);
    ClusterProtocol protocol(g, schedule, 9, &out);
    const sim::RunOptions options{.max_rounds = 4096};
    if (cap < 6) {
      EXPECT_THROW((void)net.run_outcome(protocol, options),
                   std::invalid_argument);
      EXPECT_EQ(net.round(), 0u);
    } else {
      EXPECT_TRUE(net.run_outcome(protocol, options).completed());
      EXPECT_TRUE(graph::same_connectivity(g, out.to_graph()));
    }
  }
}

TEST(ClusterProtocol, CenterAbortWithChildrenFinishesNextRound) {
  // With the threshold factor at 0.1, centers of contracted groups are over
  // the abort threshold when they decide DIE. Such a center has just sent
  // DieCmd to its children, so its Finish goes out one round later (both in
  // one round broke the one-message-per-arc rule).
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(300, 750, rng);
  SkeletonSchedule schedule;
  schedule.rounds.push_back({{0.5}, 0});
  schedule.rounds.push_back({{0.5, 0.0}, 0});
  sim::Network net(g, 8);
  spanner::Spanner out(g);
  ClusterProtocol protocol(g, schedule, 9, &out, 0.1);
  const sim::RunOutcome outcome = net.run_outcome(
      protocol, {.max_rounds = 4096, .protocol_name = "ClusterProtocol"});
  ASSERT_TRUE(outcome.completed()) << outcome.diagnostic;
  EXPECT_EQ(protocol.stats().aborts, 11u);
  EXPECT_TRUE(graph::same_connectivity(g, out.to_graph()));
}

}  // namespace
}  // namespace ultra::core

namespace ultra::baselines {
namespace {

using graph::Graph;

TEST(DistributedBaswanaSen, StretchWithinBoundExact) {
  util::Rng rng(21);
  for (const unsigned k : {2u, 3u, 4u}) {
    const Graph g = graph::connected_gnm(200, 1600, rng);
    const auto result = baswana_sen_distributed(g, k, k * 101);
    const auto report = spanner::evaluate_exact(g, result.spanner);
    EXPECT_TRUE(report.connectivity_preserved);
    EXPECT_LE(report.max_mult, 2.0 * k - 1.0) << "k=" << k;
  }
}

TEST(DistributedBaswanaSen, RoundsLinearInK) {
  util::Rng rng(23);
  const Graph g = graph::connected_gnm(1500, 9000, rng);
  const auto r2 = baswana_sen_distributed(g, 2, 7);
  const auto r5 = baswana_sen_distributed(g, 5, 7);
  // Each Expand call costs a small constant number of rounds on singleton
  // trees; growing k from 2 to 5 should add ~3 small constants.
  EXPECT_LE(r5.network.rounds, r2.network.rounds + 3 * 6);
  EXPECT_LE(r2.network.rounds, 16u);
}

TEST(DistributedBaswanaSen, UnitishMessagesOnly) {
  util::Rng rng(25);
  const Graph g = graph::connected_gnm(400, 2400, rng);
  const auto result = baswana_sen_distributed(g, 3, 3);
  // Round-one protocol: status messages (3 words) dominate; no list chunks
  // beyond the cap ever needed.
  EXPECT_LE(result.network.max_message_words, 8u);
}

TEST(DistributedBaswanaSen, MatchesSequentialSizeRoughly) {
  util::Rng rng(27);
  const Graph g = graph::erdos_renyi_gnm(600, 9000, rng);
  const auto dist = baswana_sen_distributed(g, 3, 5);
  const auto seq = baswana_sen(g, 3, 5);
  const double ratio = static_cast<double>(dist.spanner.size()) /
                       static_cast<double>(seq.stats.spanner_size);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

}  // namespace
}  // namespace ultra::baselines

namespace ultra::baselines {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(LubyMis, ProducesMaximalIndependentSet) {
  util::Rng rng(41);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = graph::erdos_renyi_gnm(200, 1000, rng);
    sim::Network net(g, 2);
    LubyMisProtocol protocol(seed);
    net.run(protocol, 4096);
    const auto mis = protocol.in_mis();
    // Independent: no two adjacent members.
    for (const auto& e : g.edges()) {
      EXPECT_FALSE(mis[e.u] && mis[e.v]) << e.u << "-" << e.v;
    }
    // Maximal (= dominating): every non-member has a member neighbor.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (mis[v]) continue;
      bool dominated = false;
      for (const VertexId w : g.neighbors(v)) dominated |= (mis[w] != 0);
      EXPECT_TRUE(dominated) << "v=" << v;
    }
  }
}

TEST(LubyMis, LogarithmicRounds) {
  util::Rng rng(43);
  const Graph g = graph::erdos_renyi_gnm(4000, 40000, rng);
  sim::Network net(g, 2);
  LubyMisProtocol protocol(3);
  const auto m = net.run(protocol, 4096);
  // O(log n) Luby rounds w.h.p.; each costs 2 network rounds.
  EXPECT_LE(protocol.luby_rounds(), 4 * 12u);
  EXPECT_LE(m.max_message_words, 2u);
}

TEST(LubyMis, IsolatedVerticesJoin) {
  graph::GraphBuilder b;
  b.add_edge(0, 1);
  b.ensure_vertex(5);
  const Graph g = std::move(b).build();
  sim::Network net(g, 2);
  LubyMisProtocol protocol(1);
  net.run(protocol, 64);
  const auto mis = protocol.in_mis();
  for (VertexId v = 2; v <= 5; ++v) EXPECT_TRUE(mis[v]);
}

TEST(CdsSkeletonDistributed, MatchesSequentialGuarantees) {
  util::Rng rng(45);
  const Graph g = graph::connected_gnm(500, 4000, rng);
  sim::Metrics metrics;
  const auto result = cds_skeleton_distributed(g, 7, &metrics);
  EXPECT_TRUE(graph::same_connectivity(g, result.spanner.to_graph()));
  EXPECT_LE(result.spanner.size(), 2ull * 500);
  EXPECT_GT(result.stats.mis_size, 0u);
  EXPECT_GT(metrics.rounds, 0u);
  EXPECT_LE(metrics.max_message_words, 2u);
}

}  // namespace
}  // namespace ultra::baselines
