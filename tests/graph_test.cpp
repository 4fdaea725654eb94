#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

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

// from_edges against a std::set of normalized pairs, on edge lists with
// loops, both orientations of every duplicate, isolated vertices (endpoints
// drawn below a random ceiling), and shuffled, sorted and reverse-sorted
// input.
TEST(Graph, FromEdgesMatchesReference) {
  const VertexId sizes[] = {0, 1, 2, 17, 300, 4097};
  for (std::uint64_t c = 0; c < 200; ++c) {
    util::Rng rng(c);
    const VertexId n = sizes[c % 6];
    const auto order = (c / 6) % 3;  // 0 shuffled, 1 sorted, 2 reversed
    SCOPED_TRACE(testing::Message() << "case " << c << ", n " << n
                                    << ", order " << order);
    std::vector<Edge> raw;
    std::set<std::pair<VertexId, VertexId>> ref;
    if (n > 0) {
      const auto ceiling = static_cast<VertexId>(1 + rng.next_below(n));
      const std::uint64_t draws = rng.next_below(3 * std::uint64_t{n} + 1);
      for (std::uint64_t i = 0; i < draws; ++i) {
        const auto a = static_cast<VertexId>(rng.next_below(ceiling));
        const auto b = rng.bernoulli(0.05)
                           ? a
                           : static_cast<VertexId>(rng.next_below(ceiling));
        raw.push_back(Edge{a, b});
        if (rng.bernoulli(0.3)) raw.push_back(Edge{b, a});
        if (rng.bernoulli(0.2)) raw.push_back(Edge{a, b});
        if (a != b) ref.insert(std::minmax(a, b));
      }
    }
    if (order == 0) rng.shuffle(raw);
    if (order >= 1) std::sort(raw.begin(), raw.end());
    if (order == 2) std::reverse(raw.begin(), raw.end());

    const Graph g = Graph::from_edges(n, raw);
    std::vector<Edge> want_edges;
    std::vector<std::vector<VertexId>> want_adj(n);
    for (const auto& [u, v] : ref) {
      want_edges.push_back(Edge{u, v});
      want_adj[u].push_back(v);
      want_adj[v].push_back(u);
    }
    ASSERT_EQ(g.num_vertices(), n);
    ASSERT_EQ(g.num_edges(), want_edges.size());
    EXPECT_TRUE(std::equal(g.edges().begin(), g.edges().end(),
                           want_edges.begin(), want_edges.end()));
    for (VertexId v = 0; v < n; ++v) {
      std::sort(want_adj[v].begin(), want_adj[v].end());
      ASSERT_EQ(g.degree(v), want_adj[v].size()) << "vertex " << v;
      const auto nbrs = g.neighbors(v);
      EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), want_adj[v].begin(),
                             want_adj[v].end()))
          << "vertex " << v;
    }
  }
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

// Byte-wise FNV-1a over n, edges() and every neighbor list.
std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  fold(g.num_vertices());
  fold(g.num_edges());
  for (const Edge& e : g.edges()) fold(edge_key(e));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    fold(g.degree(v));
    for (const VertexId w : g.neighbors(v)) fold(w);
  }
  return h;
}

// Every golden digest sees the generators through a build; these pins see
// them directly. The next draw after the call pins how much of the Rng the
// generator consumed. Captured from the comparison-sort build; the R-MAT
// rows with non-default quadrants from the if/else quadrant pick.
TEST(Generators, OutputsPinned) {
  using Make = Graph (*)(util::Rng&);
  struct Pin {
    const char* name;
    Make make;
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t next_draw;
  };
  const Make gnm = [](util::Rng& r) { return connected_gnm(2048, 16384, r); };
  const Make sparse = [](util::Rng& r) {
    return erdos_renyi_gnm(300, 1200, r);
  };
  const Make clamped = [](util::Rng& r) { return erdos_renyi_gnm(12, 500, r); };
  const Make rmat = [](util::Rng& r) { return rmat_graph(2048, 16384, r); };
  const Make pa = [](util::Rng& r) {
    return preferential_attachment(2048, 3, r);
  };
  const Make regular = [](util::Rng& r) { return random_regular(2048, 6, r); };
  // Non-default quadrants: b = 0, d = 1 - a - b - c rounding to 0, and
  // a = 0.
  const Make rmat_b0 = [](util::Rng& r) {
    return rmat_graph(1024, 8192, r, 0.45, 0.0, 0.3);
  };
  const Make rmat_d0 = [](util::Rng& r) {
    return rmat_graph(1024, 8192, r, 0.6, 0.2, 0.2);
  };
  const Make rmat_a0 = [](util::Rng& r) {
    return rmat_graph(1024, 8192, r, 0.0, 0.5, 0.25);
  };
  const Pin pins[] = {
      {"connected_gnm(2048, 16384)", gnm, 1, 0x2d5f77f86e6404e5ull,
       0xfa83e72c946a91c8ull},
      {"connected_gnm(2048, 16384)", gnm, 7, 0x0e18d6108facad63ull,
       0x9e4a84670bd1a34bull},
      {"erdos_renyi_gnm(300, 1200)", sparse, 1, 0xc6d5295c00d96354ull,
       0xed872cfc5535c185ull},
      {"erdos_renyi_gnm(300, 1200)", sparse, 7, 0x25f95ca70eba7dd8ull,
       0xe687c2611745f0ddull},
      {"erdos_renyi_gnm(12, 500)", clamped, 1, 0x3e34df50683c886bull,
       0x3edba3ff071b25aaull},
      {"erdos_renyi_gnm(12, 500)", clamped, 7, 0x3e34df50683c886bull,
       0xa585d54a7a8bb1faull},
      {"rmat_graph(2048, 16384)", rmat, 1, 0xa9dd97ef9c92b895ull,
       0x6a3c0adfaef8b52eull},
      {"rmat_graph(2048, 16384)", rmat, 7, 0xe1665d55aac36a1dull,
       0x0458d6cb92ad5945ull},
      {"preferential_attachment(2048, 3)", pa, 1, 0xf5ba4ff62b66c91eull,
       0xf72848a9f77c053bull},
      {"preferential_attachment(2048, 3)", pa, 7, 0x29b5b4fae9f3bf66ull,
       0xdd24fa2f84e97c3eull},
      {"random_regular(2048, 6)", regular, 1, 0xcdb38d03e5b88f81ull,
       0x24ba6764feb5f35bull},
      {"random_regular(2048, 6)", regular, 7, 0xb7f59e81171545c2ull,
       0xa26341ced3e62c1dull},
      {"rmat_graph(1024, 8192, 0.45, 0, 0.3)", rmat_b0, 1,
       0x7ee3d5752fa761e3ull, 0x370a7088d158ff7eull},
      {"rmat_graph(1024, 8192, 0.6, 0.2, 0.2)", rmat_d0, 1,
       0x31b6f4329c864215ull, 0x370a7088d158ff7eull},
      {"rmat_graph(1024, 8192, 0, 0.5, 0.25)", rmat_a0, 1,
       0x154a6fa6283a06c4ull, 0x370a7088d158ff7eull},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(testing::Message() << p.name << ", seed " << p.seed);
    util::Rng rng(p.seed);
    const Graph g = p.make(rng);
    EXPECT_EQ(graph_digest(g), p.digest);
    EXPECT_EQ(rng.next(), p.next_draw);
  }
}

}  // namespace
}  // namespace ultra::graph
