#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "check/certify.h"
#include "core/skeleton.h"
#include "graph/connectivity.h"
#include "graph/contraction.h"
#include "graph/generators.h"
#include "spanner/evaluate.h"
#include "util/rng.h"

namespace ultra::core {
namespace {

using graph::Graph;

TEST(Skeleton, EmptyAndTinyGraphs) {
  const Graph empty;
  const auto r0 = build_skeleton(empty, {.D = 4, .eps = 1.0});
  EXPECT_EQ(r0.stats.spanner_size, 0u);

  const Graph pair = graph::path_graph(2);
  const auto r1 = build_skeleton(pair, {.D = 4, .eps = 1.0});
  EXPECT_EQ(r1.stats.spanner_size, 1u);  // the single edge must survive

  const Graph tri = graph::complete_graph(3);
  const auto r2 = build_skeleton(tri, {.D = 4, .eps = 1.0});
  EXPECT_EQ(r2.stats.spanner_size, 3u);
}

TEST(Skeleton, DeterministicForSeed) {
  util::Rng rng(1);
  const Graph g = graph::connected_gnm(300, 900, rng);
  const auto a = build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 5});
  const auto b = build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 5});
  ASSERT_EQ(a.stats.spanner_size, b.stats.spanner_size);
  EXPECT_TRUE(std::equal(a.spanner.edges().begin(), a.spanner.edges().end(),
                         b.spanner.edges().begin()));
}

struct SkeletonCase {
  const char* family;
  std::uint32_t n;
  std::uint64_t m;
  std::uint64_t D;
  std::uint64_t seed;
};

class SkeletonProperty : public ::testing::TestWithParam<SkeletonCase> {};

Graph make_graph(const SkeletonCase& c, util::Rng& rng) {
  const std::string fam = c.family;
  if (fam == "gnm") return graph::connected_gnm(c.n, c.m, rng);
  if (fam == "torus") {
    const auto side = static_cast<graph::VertexId>(std::sqrt(c.n));
    return graph::torus_graph(side, side);
  }
  if (fam == "cliques") return graph::ring_of_cliques(c.n / 8, 8);
  if (fam == "hypercube") return graph::hypercube(9);
  if (fam == "pa") return graph::preferential_attachment(c.n, 3, rng);
  ADD_FAILURE() << "unknown family " << fam;
  return Graph();
}

TEST_P(SkeletonProperty, SpannerInvariantsHold) {
  const SkeletonCase c = GetParam();
  util::Rng rng(c.seed);
  const Graph g = make_graph(c, rng);
  const auto result =
      build_skeleton(g, {.D = c.D, .eps = 1.0, .seed = c.seed * 7 + 1});

  // (1) Subgraph by construction (Spanner::add_edge validates); size sane.
  EXPECT_LE(result.stats.spanner_size, g.num_edges());

  // (2) Connectivity preserved exactly.
  EXPECT_TRUE(graph::same_connectivity(g, result.spanner.to_graph()));

  // (3) Distortion within the schedule's own Lemma-4 bound.
  const auto report = spanner::evaluate_sampled(g, result.spanner, 25, rng);
  EXPECT_TRUE(report.connectivity_preserved);
  EXPECT_LE(report.max_mult,
            static_cast<double>(result.stats.schedule.distortion_bound));

  // (4) Size within Lemma 6's expectation, with generous slack for variance
  // (the bound is an expectation; 2x covers every seed we pin here).
  EXPECT_LE(static_cast<double>(result.stats.spanner_size),
            2.0 * result.stats.predicted_size);
}

INSTANTIATE_TEST_SUITE_P(
    Families, SkeletonProperty,
    ::testing::Values(
        SkeletonCase{"gnm", 500, 2000, 4, 1},
        SkeletonCase{"gnm", 500, 2000, 4, 2},
        SkeletonCase{"gnm", 500, 2000, 4, 3},
        SkeletonCase{"gnm", 1000, 8000, 4, 4},
        SkeletonCase{"gnm", 1000, 8000, 8, 5},
        SkeletonCase{"gnm", 2000, 4000, 4, 6},
        SkeletonCase{"torus", 900, 0, 4, 7},
        SkeletonCase{"torus", 2500, 0, 4, 8},
        SkeletonCase{"cliques", 800, 0, 4, 9},
        SkeletonCase{"hypercube", 512, 0, 4, 10},
        SkeletonCase{"pa", 1500, 0, 4, 11},
        SkeletonCase{"gnm", 3000, 30000, 8, 12}),
    [](const ::testing::TestParamInfo<SkeletonCase>& info) {
      return std::string(info.param.family) + "_n" +
             std::to_string(info.param.n) + "_D" +
             std::to_string(info.param.D) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(Skeleton, ExactCertificateWithinScheduleBound) {
  // Full (all-sources) certificate: subgraph, connectivity preservation and
  // the schedule's own Lemma-4 distortion bound, all recomputed
  // independently of the construction.
  util::Rng rng(23);
  const Graph g = graph::connected_gnm(200, 700, rng);
  const auto result = build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 5});
  check::SpannerCertifyOptions opts;
  opts.alpha = static_cast<double>(result.stats.schedule.distortion_bound);
  opts.sample_sources = 0;
  const auto cert = check::certify_spanner(g, result.spanner, opts);
  EXPECT_TRUE(cert.ok) << cert.violation;
  EXPECT_NO_THROW(check::require(cert));
}

TEST(Skeleton, ExactDistortionOnSmallGraphWithinBound) {
  util::Rng rng(21);
  const Graph g = graph::connected_gnm(120, 480, rng);
  const auto result = build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 3});
  const auto report = spanner::evaluate_exact(g, result.spanner);
  EXPECT_TRUE(report.connectivity_preserved);
  EXPECT_LE(report.max_mult,
            static_cast<double>(result.stats.schedule.distortion_bound));
}

TEST(Skeleton, SizeScalesLinearlyInN) {
  // Doubling n at fixed density roughly doubles the spanner size: the whole
  // point of a linear-size skeleton. Allow wide tolerance.
  util::Rng rng(31);
  const Graph g1 = graph::connected_gnm(1000, 6000, rng);
  const Graph g2 = graph::connected_gnm(4000, 24000, rng);
  const auto r1 = build_skeleton(g1, {.D = 4, .eps = 1.0, .seed = 1});
  const auto r2 = build_skeleton(g2, {.D = 4, .eps = 1.0, .seed = 1});
  const double per1 = r1.spanner.edges_per_vertex();
  const double per2 = r2.spanner.edges_per_vertex();
  EXPECT_NEAR(per2, per1, 0.8);  // edges/vertex roughly constant
}

TEST(Skeleton, DisconnectedGraphSpansEveryComponent) {
  util::Rng rng(41);
  graph::GraphBuilder b;
  const Graph a = graph::connected_gnm(100, 300, rng);
  for (const auto& e : a.edges()) b.add_edge(e.u, e.v);
  const Graph c = graph::connected_gnm(80, 200, rng);
  for (const auto& e : c.edges()) b.add_edge(e.u + 100, e.v + 100);
  b.ensure_vertex(200);  // plus an isolated vertex
  const Graph g = std::move(b).build();
  const auto result = build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 2});
  EXPECT_TRUE(graph::same_connectivity(g, result.spanner.to_graph()));
}

TEST(Skeleton, TraceAccountingConsistent) {
  util::Rng rng(51);
  const Graph g = graph::connected_gnm(800, 4000, rng);
  const auto result = build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 6});
  ASSERT_FALSE(result.stats.rounds.empty());
  EXPECT_EQ(result.stats.rounds.front().working_vertices, 800u);
  // Working graphs shrink monotonically across rounds.
  for (std::size_t i = 1; i < result.stats.rounds.size(); ++i) {
    EXPECT_LE(result.stats.rounds[i].working_vertices,
              result.stats.rounds[i - 1].working_vertices);
    EXPECT_EQ(result.stats.rounds[i].working_vertices,
              result.stats.rounds[i - 1].clusters_after);
  }
  // Every vertex eventually dies: final round leaves zero clusters.
  EXPECT_EQ(result.stats.rounds.back().clusters_after, 0u);
}

TEST(Skeleton, PredictedSizeFormulaMonotoneInD) {
  EXPECT_LT(predicted_skeleton_size(1000, 4), predicted_skeleton_size(1000, 8));
  EXPECT_LT(predicted_skeleton_size(1000, 8), predicted_skeleton_size(1000, 16));
  // Linear in n.
  EXPECT_NEAR(predicted_skeleton_size(2000, 4),
              2.0 * predicted_skeleton_size(1000, 4), 1e-6);
}

// Byte-wise FNV-1a, as in Generators.OutputsPinned (graph_test).
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void fold(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t contracted_digest(const graph::ContractedGraph& c) {
  Fnv f;
  f.fold(c.graph.num_vertices());
  f.fold(c.graph.num_edges());
  for (const graph::Edge& e : c.graph.edges()) f.fold(graph::edge_key(e));
  for (const graph::Edge& e : c.representative) f.fold(graph::edge_key(e));
  return f.h;
}

// Each vertex goes to one of `parts` parts, or is dropped with odds 1 in 10.
std::vector<std::uint32_t> random_partition(graph::VertexId n,
                                            std::uint32_t parts,
                                            util::Rng& rng) {
  std::vector<std::uint32_t> part(n);
  for (std::uint32_t& p : part) {
    p = rng.next_below(10) == 0
            ? graph::kDroppedVertex
            : static_cast<std::uint32_t>(rng.next_below(parts));
  }
  return part;
}

// contract()'s quotient edges and its representatives: the first host edge,
// in g.edges() order, of each quotient edge. The first contraction has no
// base list; the second composes through the first's representatives.
// Dense enough that most quotient edges have many parallel host edges, so a
// different choice of representative moves the digest.
TEST(Skeleton, ContractOutputsPinned) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t first;    // contract(g, part, 48)
    std::uint64_t chained;  // contract(first, part', 12, first's reps)
  };
  const Pin pins[] = {
      {1, 0xfba78b87404159afull, 0xfae85dc5e98c398eull},
      {7, 0x35a93d748e478b33ull, 0xdeb444f84f610327ull},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << p.seed);
    util::Rng rng(p.seed);
    const Graph g = graph::connected_gnm(400, 3200, rng);
    const auto part = random_partition(g.num_vertices(), 48, rng);
    const graph::ContractedGraph first = graph::contract(g, part, 48);
    const auto part2 = random_partition(48, 12, rng);
    const graph::ContractedGraph chained =
        graph::contract(first.graph, part2, 12, first.representative);
    EXPECT_EQ(contracted_digest(first), p.first);
    EXPECT_EQ(contracted_digest(chained), p.chained);
  }
}

// The sequential build's edge sequence, in insertion order. The goldens pin
// the distributed build; this one runs contract() on every phase.
TEST(Skeleton, SequentialEdgeSequencePinned) {
  struct Pin {
    std::uint64_t seed;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1, 2137, 0xf97534c87dddef6bull},
      {2, 2738, 0x3f9ba3d0ae36feebull},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << p.seed);
    util::Rng rng(p.seed);
    const Graph g = graph::connected_gnm(1500, 9000, rng);
    const auto r = build_skeleton(g, {.D = 4, .eps = 1.0, .seed = p.seed});
    Fnv f;
    for (const graph::Edge& e : r.spanner.edges()) f.fold(graph::edge_key(e));
    EXPECT_EQ(r.spanner.size(), p.size);
    EXPECT_EQ(f.h, p.digest);
  }
}

}  // namespace
}  // namespace ultra::core
