// Tests for the compact routing scheme (the Section 5 open-problem regime:
// stretch 3 with ~sqrt(n) routing state).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "apps/compact_routing.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ultra::apps {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(CompactRouting, DeliversEverywhereWithStretch3) {
  util::Rng rng(3);
  const Graph g = graph::connected_gnm(250, 1250, rng);
  const CompactRouting scheme(g, 7);
  for (VertexId u = 0; u < g.num_vertices(); u += 9) {
    const auto dist = graph::bfs_distances(g, u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u == v) continue;
      const auto route = scheme.route(u, v);
      ASSERT_TRUE(route.delivered) << u << "->" << v;
      EXPECT_EQ(route.path.front(), u);
      EXPECT_EQ(route.path.back(), v);
      EXPECT_LE(route.path.size() - 1, 3u * dist[v]) << u << "->" << v;
      // Every hop is a real edge.
      for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
        ASSERT_TRUE(g.has_edge(route.path[i], route.path[i + 1]));
      }
    }
  }
}

TEST(CompactRouting, DirectModeIsExact) {
  // Adjacent pairs that share no landmark-shadow route exactly (hop count 1)
  // whenever the destination is in the source's cluster; overall, adjacent
  // routes never exceed 3 hops.
  util::Rng rng(5);
  const Graph g = graph::connected_gnm(180, 900, rng);
  const CompactRouting scheme(g, 9);
  std::uint64_t exact = 0, total = 0;
  for (const auto& e : g.edges()) {
    const auto route = scheme.route(e.u, e.v);
    ASSERT_TRUE(route.delivered);
    EXPECT_LE(route.path.size() - 1, 3u);
    exact += (route.path.size() == 2);
    ++total;
  }
  EXPECT_GT(2 * exact, total);  // most adjacent pairs route directly
}

TEST(CompactRouting, SelfRouteTrivial) {
  const Graph g = graph::cycle_graph(10);
  const CompactRouting scheme(g, 1);
  const auto route = scheme.route(4, 4);
  EXPECT_TRUE(route.delivered);
  EXPECT_EQ(route.path.size(), 1u);
}

TEST(CompactRouting, DisconnectedReportsFailure) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const CompactRouting scheme(g, 11);
  const auto route = scheme.route(0, 5);
  EXPECT_FALSE(route.delivered);
  const auto ok = scheme.route(0, 2);
  EXPECT_TRUE(ok.delivered);
}

TEST(CompactRouting, TableSizesNearSqrtN) {
  util::Rng rng(13);
  const Graph g = graph::connected_gnm(2000, 16000, rng);
  const CompactRouting scheme(g, 13);
  // Average routing state ~ O(sqrt(n) log n)-ish words, far below n.
  EXPECT_LT(scheme.average_table_words(),
            20.0 * std::sqrt(2000.0) * std::log2(2000.0));
  EXPECT_GT(scheme.num_landmarks(), 0u);
}

TEST(CompactRouting, LandmarkDestinationsRoutable) {
  util::Rng rng(17);
  const Graph g = graph::connected_gnm(150, 600, rng);
  const CompactRouting scheme(g, 19);
  // Route to each landmark (pivot of itself).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto addr = scheme.address_of(v);
    if (addr.landmark != v) continue;  // not a landmark
    const auto dist = graph::bfs_distances(g, v);
    for (VertexId u = 0; u < g.num_vertices(); u += 13) {
      if (u == v) continue;
      const auto route = scheme.route(u, v);
      ASSERT_TRUE(route.delivered);
      // Routing to a landmark is exact (climb its own BFS tree).
      EXPECT_LE(route.path.size() - 1, dist[u] + 0u);
    }
  }
}

TEST(CompactRouting, StretchFuzzAcrossFamilies) {
  // Differential routing stretch across structurally different families:
  // delivered routes never exceed 3x the exact BFS distance, on every
  // family x seed combination (the serve-layer differential suite covers
  // the distance oracle; this is its routing counterpart).
  for (int family = 0; family < 4; ++family) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      util::Rng rng(seed * 100 + static_cast<std::uint64_t>(family));
      Graph g;
      switch (family) {
        case 0: g = graph::connected_gnm(120, 480, rng); break;
        case 1: g = graph::random_regular(120, 4, rng); break;
        case 2: g = graph::random_tree(130, rng); break;
        default: g = graph::preferential_attachment(110, 3, rng); break;
      }
      const CompactRouting scheme(g, seed);
      for (VertexId u = 0; u < g.num_vertices(); u += 11) {
        const auto dist = graph::bfs_distances(g, u);
        for (VertexId v = 0; v < g.num_vertices(); v += 3) {
          if (u == v) continue;
          const auto route = scheme.route(u, v);
          ASSERT_TRUE(route.delivered)
              << "family " << family << " seed " << seed << " " << u << "->"
              << v;
          ASSERT_LE(route.path.size() - 1, 3u * dist[v])
              << "family " << family << " seed " << seed << " " << u << "->"
              << v;
          for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
            ASSERT_TRUE(g.has_edge(route.path[i], route.path[i + 1]));
          }
        }
      }
    }
  }
}

TEST(CompactRouting, HeaderSizeIsConstantAndBounded) {
  // The packet header is the destination address: exactly three machine
  // words (node, landmark, dfs_number) regardless of n — the compact-routing
  // contract — and every field stays inside its documented range.
  static_assert(sizeof(CompactRouting::Address) <=
                    3 * sizeof(graph::VertexId) + alignof(graph::VertexId),
                "Address must stay a constant-size 3-word header");
  util::Rng rng(31);
  const Graph g = graph::connected_gnm(400, 2000, rng);
  const CompactRouting scheme(g, 31);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = scheme.address_of(v);
    EXPECT_EQ(a.node, v);
    EXPECT_NE(a.landmark, graph::kInvalidVertex);
    EXPECT_LT(a.landmark, g.num_vertices());
    EXPECT_LT(a.dfs_number, g.num_vertices());
  }
}

TEST(CompactRouting, AddressesAreCompact) {
  util::Rng rng(19);
  const Graph g = graph::connected_gnm(100, 400, rng);
  const CompactRouting scheme(g, 23);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = scheme.address_of(v);
    EXPECT_EQ(a.node, v);
    EXPECT_NE(a.landmark, graph::kInvalidVertex);
    EXPECT_LT(a.dfs_number, g.num_vertices());
  }
}

TEST(CompactRouting, OutOfRangeIdsThrow) {
  util::Rng rng(37);
  const Graph g = graph::connected_gnm(60, 180, rng);
  const CompactRouting scheme(g, 37);
  const VertexId n = g.num_vertices();
  EXPECT_EQ(scheme.num_vertices(), n);
  EXPECT_THROW((void)scheme.route(n, 0), std::out_of_range);
  EXPECT_THROW((void)scheme.route(0, n), std::out_of_range);
  EXPECT_THROW((void)scheme.address_of(n), std::out_of_range);
  EXPECT_TRUE(scheme.route(n - 1, 0).delivered);
}

// FNV chain over every ordered pair's realized route (hop sequence,
// delivered and used_landmark flags), then every node's table_words: the
// whole observable behaviour of the scheme on one graph.
std::uint64_t routing_digest(const Graph& g, std::uint64_t seed) {
  const CompactRouting scheme(g, seed);
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t w) { h = (h ^ w) * 1099511628211ull; };
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto route = scheme.route(u, v);
      fold(route.path.size());
      for (const VertexId hop : route.path) fold(hop);
      fold(route.delivered);
      fold(route.used_landmark);
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) fold(scheme.table_words(v));
  return h;
}

// Two gnm islands plus isolated vertices: components without a landmark,
// whose clusters are the whole component.
Graph disconnected_union(util::Rng& rng) {
  const Graph a = graph::connected_gnm(60, 180, rng);
  const Graph b = graph::connected_gnm(50, 140, rng);
  std::vector<graph::Edge> edges(a.edges().begin(), a.edges().end());
  for (const auto& e : b.edges()) {
    edges.push_back({e.u + a.num_vertices(), e.v + a.num_vertices()});
  }
  return Graph::from_edges(a.num_vertices() + b.num_vertices() + 5, edges);
}

// Tables and routes pinned across changes to how the scheme is built. The
// constants were captured from the construction that ran one full graph::bfs
// per cluster; a change that moves them changes routing behaviour.
TEST(CompactRoutingGolden, RoutesAndTablesPinned) {
  util::Rng gnm_rng(41);
  EXPECT_EQ(routing_digest(graph::connected_gnm(150, 600, gnm_rng), 41),
            2869075773166410906ull);
  util::Rng rmat_rng(43);
  EXPECT_EQ(routing_digest(graph::rmat_graph(128, 512, rmat_rng), 43),
            13122623161127357060ull);
  util::Rng union_rng(47);
  EXPECT_EQ(routing_digest(disconnected_union(union_rng), 47),
            2454456195143170293ull);
}

}  // namespace
}  // namespace ultra::apps
