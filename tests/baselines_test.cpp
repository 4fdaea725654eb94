#include <gtest/gtest.h>

#include <cmath>

#include "baselines/additive2.h"
#include "baselines/baswana_sen.h"
#include "baselines/bfs_forest.h"
#include "baselines/cds_skeleton.h"
#include "baselines/greedy.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/girth.h"
#include "spanner/evaluate.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace ultra::baselines {
namespace {

using graph::Graph;

TEST(Greedy, GirthExceeds2k) {
  util::Rng rng(1);
  const Graph g = graph::erdos_renyi_gnm(200, 2000, rng);
  for (const unsigned k : {2u, 3u, 5u}) {
    const auto s = greedy_spanner(g, k);
    const auto girth_val = graph::girth(s.to_graph());
    EXPECT_GT(girth_val, 2 * k) << "k=" << k;
  }
}

TEST(Greedy, StretchAtMost2kMinus1) {
  util::Rng rng(2);
  const Graph g = graph::connected_gnm(150, 900, rng);
  for (const unsigned k : {2u, 3u}) {
    const auto s = greedy_spanner(g, k);
    const auto report = spanner::evaluate_exact(g, s);
    EXPECT_TRUE(report.connectivity_preserved);
    EXPECT_LE(report.max_mult, 2.0 * k - 1.0) << "k=" << k;
  }
}

TEST(Greedy, SizeWithinMooreBound) {
  util::Rng rng(3);
  const Graph g = graph::erdos_renyi_gnm(400, 8000, rng);
  const unsigned k = 3;
  const auto s = greedy_spanner(g, k);
  // Girth > 2k implies m <= n^{1+1/k} + n.
  const double cap =
      std::pow(400.0, 1.0 + 1.0 / k) + 400.0;
  EXPECT_LE(static_cast<double>(s.size()), cap);
}

TEST(Greedy, KeepsTreeEdges) {
  util::Rng rng(4);
  const Graph t = graph::random_tree(100, rng);
  const auto s = greedy_spanner(t, 2);
  EXPECT_EQ(s.size(), t.num_edges());  // nothing on a tree is redundant
}

TEST(BaswanaSen, StretchAtMost2kMinus1Exact) {
  util::Rng rng(5);
  for (const unsigned k : {2u, 3u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = graph::connected_gnm(150, 1200, rng);
      const auto result = baswana_sen(g, k, seed);
      const auto report = spanner::evaluate_exact(g, result.spanner);
      EXPECT_TRUE(report.connectivity_preserved);
      EXPECT_LE(report.max_mult, 2.0 * k - 1.0)
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(BaswanaSen, PhaseCountMatchesK) {
  util::Rng rng(6);
  const Graph g = graph::connected_gnm(200, 800, rng);
  const auto result = baswana_sen(g, 4, 9);
  EXPECT_EQ(result.stats.edges_per_phase.size(), 4u);
}

TEST(BaswanaSen, SizeNearTheoryForK2) {
  // k=2: expected size O(2n + n^{3/2} log 2). Allow x3 slack.
  util::Rng rng(7);
  const Graph g = graph::erdos_renyi_gnm(400, 12000, rng);
  const auto result = baswana_sen(g, 2, 3);
  const double bound = 3.0 * (2.0 * 400 + std::pow(400.0, 1.5));
  EXPECT_LE(static_cast<double>(result.stats.spanner_size), bound);
}

TEST(BaswanaSen, K1DegeneratesToWholeGraph) {
  // k=1: (2k-1)=1-spanner must keep every edge (single p=0 phase keeps one
  // edge per adjacent singleton cluster = every edge).
  util::Rng rng(8);
  const Graph g = graph::erdos_renyi_gnm(60, 300, rng);
  const auto result = baswana_sen(g, 1, 1);
  EXPECT_EQ(result.stats.spanner_size, g.num_edges());
}

TEST(CdsSkeleton, LinearSizeAndConnectivity) {
  util::Rng rng(9);
  const Graph g = graph::connected_gnm(500, 5000, rng);
  const auto result = cds_skeleton_distributed(g, 4);
  EXPECT_TRUE(graph::same_connectivity(g, result.spanner.to_graph()));
  // Stars (<= n) plus connector forest (< n) -- strictly linear.
  EXPECT_LE(result.spanner.size(), 2 * static_cast<std::uint64_t>(500));
  EXPECT_GT(result.stats.mis_size, 0u);
}

TEST(CdsSkeleton, MisIsIndependentAndDominating) {
  util::Rng rng(10);
  const Graph g = graph::erdos_renyi_gnm(200, 1200, rng);
  const auto result = cds_skeleton_distributed(g, 11);
  // Reconstruct MIS membership from stats indirectly: every vertex must have
  // a spanner path of length <= 2 to some star center, which the star edges
  // provide; weaker but checkable: no vertex is isolated in the skeleton
  // unless isolated in g.
  const Graph sg = result.spanner.to_graph();
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) {
      EXPECT_GT(sg.degree(v), 0u) << v;
    }
  }
}

TEST(Additive2, SurplusAtMost2) {
  util::Rng rng(11);
  // Dense enough that high-degree vertices exist.
  const Graph g = graph::erdos_renyi_gnm(300, 9000, rng);
  const auto result = additive2_spanner(g, 5);
  const auto report = spanner::evaluate_exact(g, result.spanner);
  EXPECT_TRUE(report.connectivity_preserved);
  EXPECT_LE(report.max_add, 2u);
}

TEST(Additive2, SparseGraphKeptWholeIsStillAdditive0) {
  util::Rng rng(12);
  const Graph g = graph::connected_gnm(200, 400, rng);  // all degrees < s
  const auto result = additive2_spanner(g, 5);
  EXPECT_EQ(result.spanner.size(), g.num_edges());
}

TEST(Additive2, SizeOrderN32) {
  util::Rng rng(13);
  const Graph g = graph::erdos_renyi_gnm(400, 20000, rng);
  const auto result = additive2_spanner(g, 7);
  const double n = 400.0;
  // O(n^{3/2} log n) with a generous constant.
  EXPECT_LE(static_cast<double>(result.spanner.size()),
            8.0 * n * std::sqrt(n * std::log(n)));
}

TEST(BfsForest, ExactlyNMinusComponents) {
  util::Rng rng(14);
  const Graph g = graph::erdos_renyi_gnm(300, 500, rng);
  const auto comps = graph::connected_components(g);
  const auto s = bfs_forest(g);
  EXPECT_EQ(s.size(), g.num_vertices() - comps.count);
  EXPECT_TRUE(graph::same_connectivity(g, s.to_graph()));
}

// The forest's edge sequence, not just its edge set: the supervisor's last
// tier publishes it as built, so a change to how the search walks the graph
// must keep every edge in its place. Same inputs as Components.LabelsPinned.
TEST(BfsForest, EdgeSequencePinned) {
  using Make = Graph (*)();
  struct Pin {
    const char* name;
    Make make;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"erdos_renyi_gnm(600, 420)",
       [] {
         util::Rng rng(1);
         return graph::erdos_renyi_gnm(600, 420, rng);
       },
       408, 0xfa697af8c2433aa5ull},
      {"rmat_graph(1024, 4096)",
       [] {
         util::Rng rng(2);
         return graph::rmat_graph(1024, 4096, rng);
       },
       695, 0xc934cc924aed4d78ull},
      {"ring_of_cliques(16, 6)", [] { return graph::ring_of_cliques(16, 6); },
       95, 0x659b398d241657f7ull},
      {"edgeless(40)", [] { return Graph::from_edges(40, {}); }, 0,
       0xaf63bd4c8601b7dfull},
      {"empty", [] { return Graph(); }, 0, 0xaf63bd4c8601b7dfull},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.name);
    const Graph g = p.make();
    const spanner::Spanner s = bfs_forest(g);
    std::uint64_t h = util::fnv_fold(util::kFnvOffset, s.size());
    for (const graph::Edge& e : s.edges()) {
      h = util::fnv_fold(util::fnv_fold(h, e.u), e.v);
    }
    EXPECT_EQ(s.size(), p.size);
    EXPECT_EQ(h, p.digest);
  }
}

}  // namespace
}  // namespace ultra::baselines
