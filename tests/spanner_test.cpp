#include <gtest/gtest.h>

#include <bit>

#include "baselines/bfs_forest.h"
#include "core/skeleton.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "spanner/evaluate.h"
#include "spanner/spanner.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace ultra::spanner {
namespace {

TEST(Spanner, AddAndContains) {
  const Graph g = graph::cycle_graph(6);
  Spanner s(g);
  s.add_edge(0, 1);
  s.add_edge(1, 0);  // idempotent
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(0, 1));
  EXPECT_TRUE(s.contains(1, 0));
  EXPECT_FALSE(s.contains(1, 2));
}

TEST(Spanner, RejectsNonHostEdge) {
  const Graph g = graph::path_graph(4);
  Spanner s(g);
  EXPECT_THROW(s.add_edge(0, 2), std::invalid_argument);
}

TEST(Spanner, AddPathAndIncident) {
  const Graph g = graph::cycle_graph(8);
  Spanner s(g);
  const std::vector<graph::VertexId> path{0, 1, 2, 3};
  s.add_path(path);
  EXPECT_EQ(s.size(), 3u);
  s.add_all_incident(5);
  EXPECT_TRUE(s.contains(4, 5));
  EXPECT_TRUE(s.contains(5, 6));
}

TEST(Spanner, ToGraphPreservesEdges) {
  const Graph g = graph::complete_graph(5);
  Spanner s(g);
  s.add_edge(0, 1);
  s.add_edge(2, 3);
  const Graph sg = s.to_graph();
  EXPECT_EQ(sg.num_vertices(), 5u);
  EXPECT_EQ(sg.num_edges(), 2u);
  EXPECT_TRUE(sg.has_edge(0, 1));
}

TEST(Evaluate, IdentitySpannerHasNoDistortion) {
  util::Rng rng(3);
  const Graph g = graph::connected_gnm(40, 80, rng);
  Spanner s(g);
  for (const graph::Edge& e : g.edges()) s.add_edge(e);
  const DistortionReport r = evaluate_exact(g, s);
  EXPECT_DOUBLE_EQ(r.max_mult, 1.0);
  EXPECT_EQ(r.max_add, 0u);
  EXPECT_TRUE(r.connectivity_preserved);
  EXPECT_EQ(r.pairs, 40u * 39u);  // ordered pairs
}

TEST(Evaluate, CycleMinusEdge) {
  // C_n minus one edge: the removed edge's endpoints go from distance 1 to
  // n-1; multiplicative stretch n-1, additive n-2.
  const Graph g = graph::cycle_graph(10);
  Spanner s(g);
  for (const graph::Edge& e : g.edges()) {
    if (!(e == graph::make_edge(0, 9))) s.add_edge(e);
  }
  const DistortionReport r = evaluate_exact(g, s);
  EXPECT_DOUBLE_EQ(r.max_mult, 9.0);
  EXPECT_EQ(r.max_add, 8u);
  EXPECT_TRUE(r.connectivity_preserved);
  // beta for alpha=1 equals the max additive surplus.
  EXPECT_DOUBLE_EQ(r.beta_for_alpha(1.0), 8.0);
  // For alpha = 9 no additive term is needed.
  EXPECT_DOUBLE_EQ(r.beta_for_alpha(9.0), 0.0);
}

TEST(Evaluate, DisconnectionDetected) {
  const Graph g = graph::path_graph(4);
  Spanner s(g);
  s.add_edge(0, 1);  // drops (1,2), (2,3)
  const DistortionReport r = evaluate_exact(g, s);
  EXPECT_FALSE(r.connectivity_preserved);
}

TEST(Evaluate, ByDistanceBucketsConsistent) {
  const Graph g = graph::cycle_graph(12);
  Spanner s(g);
  for (const graph::Edge& e : g.edges()) {
    if (!(e == graph::make_edge(0, 11))) s.add_edge(e);
  }
  const DistortionReport r = evaluate_exact(g, s);
  std::uint64_t total = 0;
  for (std::size_t d = 1; d < r.by_distance.size(); ++d) {
    total += r.by_distance[d].pairs;
    if (r.by_distance[d].pairs > 0) {
      EXPECT_GE(r.by_distance[d].max_mult, 1.0);
      EXPECT_LE(r.by_distance[d].mean_mult(),
                r.by_distance[d].max_mult + 1e-12);
    }
  }
  EXPECT_EQ(total, r.pairs);
}

TEST(Evaluate, SampledSubsetOfExact) {
  util::Rng rng(5);
  const Graph g = graph::connected_gnm(60, 120, rng);
  Spanner s(g);
  // Keep a BFS tree only: guaranteed connected, distorted.
  const auto tree = graph::bfs(g, 0);
  for (graph::VertexId v = 1; v < g.num_vertices(); ++v) {
    s.add_edge(v, tree.parent[v]);
  }
  const DistortionReport exact = evaluate_exact(g, s);
  const DistortionReport sampled = evaluate_sampled(g, s, 20, rng);
  EXPECT_LE(sampled.max_mult, exact.max_mult + 1e-12);
  EXPECT_LE(sampled.max_add, exact.max_add);
  EXPECT_GT(sampled.pairs, 0u);
}

TEST(Evaluate, FromSourcesUsesExactlyThoseSources) {
  const Graph g = graph::path_graph(6);
  Spanner s(g);
  for (const graph::Edge& e : g.edges()) s.add_edge(e);
  const std::vector<graph::VertexId> sources{0};
  const DistortionReport r = evaluate_from_sources(g, s, sources);
  EXPECT_EQ(r.pairs, 5u);
}

TEST(Evaluate, PairStretch) {
  const Graph g = graph::cycle_graph(8);
  Spanner s(g);
  for (const graph::Edge& e : g.edges()) {
    if (!(e == graph::make_edge(0, 7))) s.add_edge(e);
  }
  const auto ps = pair_stretch(g, s.to_graph(), 0, 7);
  EXPECT_EQ(ps.dist_g, 1u);
  EXPECT_EQ(ps.dist_s, 7u);
}

// Every field of a report, doubles by bit pattern, by_distance included.
std::uint64_t report_digest(const DistortionReport& r) {
  using util::fnv_fold;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::uint64_t h = util::kFnvOffset;
  h = fnv_fold(h, r.pairs);
  h = fnv_fold(h, bits(r.max_mult));
  h = fnv_fold(h, bits(r.mean_mult));
  h = fnv_fold(h, r.max_add);
  h = fnv_fold(h, bits(r.mean_add));
  h = fnv_fold(h, r.connectivity_preserved ? 1 : 0);
  h = fnv_fold(h, r.by_distance.size());
  for (const DistanceBucket& b : r.by_distance) {
    h = fnv_fold(h, b.pairs);
    h = fnv_fold(h, bits(b.sum_mult));
    h = fnv_fold(h, bits(b.max_mult));
    h = fnv_fold(h, bits(b.sum_add));
    h = fnv_fold(h, b.max_add);
  }
  return h;
}

// The three evaluators on two inputs, captured from the evaluator that ran
// two single-source BFSs per source. The sums are floating point, so the
// pins also hold the order pairs are accumulated in: source order, then v
// ascending.
TEST(Evaluate, ReportsPinned) {
  struct Pin {
    const char* name;
    std::uint64_t pairs;
    std::uint64_t digest;
  };
  std::vector<std::pair<Pin, DistortionReport>> runs;

  {  // A D = 4 skeleton of a connected graph: distorted, connected.
    util::Rng rng(2);
    const Graph g = graph::connected_gnm(512, 2048, rng);
    const core::SkeletonResult sk =
        core::build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 2});
    std::vector<VertexId> sources;
    for (VertexId i = 0; i < 70; ++i) sources.push_back((i * 37 + 5) % 512);
    sources.push_back(5);
    sources.push_back(42);
    util::Rng pick(11);
    runs.push_back({{"skeleton exact", 261632, 0xb61c6283f0e7ce22ull},
                    evaluate_exact(g, sk.spanner)});
    runs.push_back({{"skeleton sampled", 8176, 0x93b7387cbd85fdbaull},
                    evaluate_sampled(g, sk.spanner, 16, pick)});
    runs.push_back({{"skeleton from sources", 36792, 0x14a24b3c3c342527ull},
                    evaluate_from_sources(g, sk.spanner, sources)});
  }
  {  // A split forest of an R-MAT graph: isolated vertices, several
     // components, and pairs the spanner disconnects.
    util::Rng rng(6);
    const Graph g = graph::rmat_graph(256, 1024, rng);
    const Spanner forest = baselines::bfs_forest(g);
    Spanner s(g);
    for (std::size_t i = 0; i < forest.size(); ++i) {
      if (i % 5 != 2) s.add_edge(forest.edges()[i]);
    }
    const std::vector<VertexId> sources{200, 3, 77, 3, 0, 255, 128, 77};
    util::Rng pick(12);
    runs.push_back({{"rmat split forest exact", 18940, 0x69c900b605ec8fe9ull},
                    evaluate_exact(g, s)});
    runs.push_back({{"rmat split forest sampled", 1097, 0xc4f79f53699568ffull},
                    evaluate_sampled(g, s, 16, pick)});
    runs.push_back(
        {{"rmat split forest from sources", 687, 0x17ce4db67e97b512ull},
         evaluate_from_sources(g, s, sources)});
  }

  for (const auto& [pin, r] : runs) {
    EXPECT_EQ(r.pairs, pin.pairs) << pin.name;
    EXPECT_EQ(report_digest(r), pin.digest) << pin.name;
  }
}

}  // namespace
}  // namespace ultra::spanner
