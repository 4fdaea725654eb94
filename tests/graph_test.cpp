#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ultra::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, FromEdgesDedupsAndDropsLoops) {
  const Graph g = Graph::from_edges(
      4, {{0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}, {3, 0}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);  // (0,1), (1,2), (0,3)
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, FindArcNamesOneAdjacencySlotPerEdge) {
  // A star plus a cycle: degree ties (the cycle) and lopsided edges (the
  // hub) both occur.
  util::Rng rng(5);
  GraphBuilder b(40);
  for (VertexId v = 1; v < 40; ++v) b.add_edge(0, v);
  for (VertexId v = 1; v < 40; ++v) b.add_edge(v, v % 39 + 1);
  const Graph g = erdos_renyi_gnm(60, 300, rng);
  for (const Graph& h : {std::move(b).build(), g}) {
    const VertexId* base = h.neighbors(0).data();
    std::set<EdgeId> arcs;
    for (const Edge& e : h.edges()) {
      const EdgeId arc = h.find_arc(e.u, e.v);
      ASSERT_NE(arc, Graph::kNoArc);
      EXPECT_EQ(h.find_arc(e.v, e.u), arc);
      // The slot holds one endpoint inside the other's neighbor list.
      const VertexId* slot = base + arc;
      const bool in_u = slot >= h.neighbors(e.u).data() &&
                        slot < h.neighbors(e.u).data() + h.degree(e.u);
      EXPECT_EQ(*slot, in_u ? e.v : e.u);
      arcs.insert(arc);
    }
    EXPECT_EQ(arcs.size(), h.num_edges());
  }
  const Graph p = path_graph(4);
  EXPECT_EQ(p.find_arc(0, 2), Graph::kNoArc);
  EXPECT_EQ(p.find_arc(1, 1), Graph::kNoArc);
  EXPECT_EQ(p.find_arc(0, 9), Graph::kNoArc);
}

TEST(Graph, FromEdgesRejectsOutOfRange) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), std::out_of_range);
}

TEST(Graph, NeighborsSortedAndDegreesMatch) {
  const Graph g = Graph::from_edges(5, {{4, 0}, {4, 2}, {4, 1}, {4, 3}});
  const auto nbrs = g.neighbors(4);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.degree(4), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 8.0 / 5.0);
}

TEST(Graph, EdgesNormalizedSorted) {
  const Graph g = Graph::from_edges(4, {{3, 1}, {2, 0}, {1, 0}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(GraphBuilder, GrowsVertices) {
  GraphBuilder b;
  b.add_edge(7, 2);
  b.add_edge(2, 7);  // duplicate
  b.add_edge(3, 3);  // loop, ignored
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Generators, PathCycleComplete) {
  EXPECT_EQ(path_graph(10).num_edges(), 9u);
  EXPECT_EQ(cycle_graph(10).num_edges(), 10u);
  EXPECT_EQ(complete_graph(10).num_edges(), 45u);
  EXPECT_EQ(complete_bipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(complete_bipartite(3, 4).num_vertices(), 7u);
}

TEST(Generators, GridAndTorusCounts) {
  const Graph grid = grid_graph(5, 4);
  EXPECT_EQ(grid.num_vertices(), 20u);
  EXPECT_EQ(grid.num_edges(), 4u * 4 + 5u * 3);  // 31
  const Graph torus = torus_graph(5, 4);
  EXPECT_EQ(torus.num_vertices(), 20u);
  EXPECT_EQ(torus.num_edges(), 40u);  // 2n for width,height >= 3
}

TEST(Generators, Hypercube) {
  const Graph h = hypercube(4);
  EXPECT_EQ(h.num_vertices(), 16u);
  EXPECT_EQ(h.num_edges(), 32u);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(h.degree(v), 4u);
}

TEST(Generators, ErdosRenyiGnmExactCount) {
  util::Rng rng(5);
  const Graph g = erdos_renyi_gnm(100, 250, rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 250u);
}

TEST(Generators, ErdosRenyiGnmClampsToCompleteGraph) {
  util::Rng rng(5);
  const Graph g = erdos_renyi_gnm(10, 1000, rng);
  EXPECT_EQ(g.num_edges(), 45u);
}

TEST(Generators, ErdosRenyiGnpDensityApproximatelyP) {
  util::Rng rng(6);
  const Graph g = erdos_renyi_gnp(400, 0.05, rng);
  const double expected = 0.05 * (400.0 * 399.0 / 2.0);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4.0 * std::sqrt(expected));
}

TEST(Generators, ErdosRenyiGnpEdgesValid) {
  util::Rng rng(8);
  const Graph g = erdos_renyi_gnp(50, 0.2, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, e.v);
    EXPECT_LT(e.v, 50u);
  }
}

TEST(Generators, ConnectedGnmIsConnected) {
  util::Rng rng(7);
  const Graph g = connected_gnm(200, 100, rng);
  // Tree edges guarantee connectivity even with few random edges.
  std::vector<std::uint8_t> seen(g.num_vertices(), 0);
  std::vector<VertexId> stack{0};
  seen[0] = 1;
  std::size_t count = 1;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (const VertexId w : g.neighbors(v)) {
      if (!seen[w]) {
        seen[w] = 1;
        ++count;
        stack.push_back(w);
      }
    }
  }
  EXPECT_EQ(count, g.num_vertices());
}

TEST(Generators, RandomTreeHasNMinus1Edges) {
  util::Rng rng(9);
  const Graph t = random_tree(64, rng);
  EXPECT_EQ(t.num_edges(), 63u);
}

TEST(Generators, RandomRegularDegreesBounded) {
  util::Rng rng(10);
  const Graph g = random_regular(100, 6, rng);
  std::size_t exact = 0;
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_LE(g.degree(v), 6u);
    exact += (g.degree(v) == 6);
  }
  EXPECT_GT(exact, 60u);  // most vertices keep full degree
}

TEST(Generators, RingOfCliques) {
  const Graph g = ring_of_cliques(5, 4);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 5u * 6 + 5u);
}

TEST(Generators, CliqueChainStructure) {
  const Graph g = clique_chain(3, 5, 4);
  // 3 cliques of 5 + 2 gaps x 3 interior path vertices.
  EXPECT_EQ(g.num_vertices(), 15u + 2 * 3);
  EXPECT_EQ(g.num_edges(), 3u * 10 + 2u * 4);
}

TEST(Generators, PreferentialAttachmentConnectedish) {
  util::Rng rng(11);
  const Graph g = preferential_attachment(200, 2, rng);
  EXPECT_EQ(g.num_vertices(), 200u);
  EXPECT_GE(g.num_edges(), 199u * 1);  // each vertex adds >= 1 edge
}

}  // namespace
}  // namespace ultra::graph
