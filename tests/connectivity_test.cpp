#include <gtest/gtest.h>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace ultra::graph {
namespace {

TEST(Components, CountsAndSizes) {
  const Graph g = Graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 4u);  // {0,1,2}, {3,4}, {5}, {6}
  const auto sizes = c.sizes();
  std::multiset<std::uint32_t> ms(sizes.begin(), sizes.end());
  EXPECT_EQ(ms, (std::multiset<std::uint32_t>{3, 2, 1, 1}));
}

// The component count and every label, in vertex order: components are
// numbered by their least vertex, so a change to how the search walks a
// component must not move a label. ER and R-MAT leave vertices isolated;
// the ring of cliques is one component; the edgeless graphs are all
// singletons.
TEST(Components, LabelsPinned) {
  using Make = Graph (*)();
  struct Pin {
    const char* name;
    Make make;
    std::uint32_t count;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"erdos_renyi_gnm(600, 420)",
       [] {
         util::Rng rng(1);
         return erdos_renyi_gnm(600, 420, rng);
       },
       192, 0x70d734f3eb667664ull},
      {"rmat_graph(1024, 4096)",
       [] {
         util::Rng rng(2);
         return rmat_graph(1024, 4096, rng);
       },
       329, 0x88825318f91e07ffull},
      {"ring_of_cliques(16, 6)", [] { return ring_of_cliques(16, 6); }, 1,
       0x2de9ebcb8b2cf82cull},
      {"edgeless(40)", [] { return Graph::from_edges(40, {}); }, 40,
       0x1ff58b58415f40a7ull},
      {"empty", [] { return Graph(); }, 0, 0xaf63bd4c8601b7dfull},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.name);
    const Components c = connected_components(p.make());
    std::uint64_t h = util::fnv_fold(util::kFnvOffset, c.count);
    for (const std::uint32_t label : c.component_of) {
      h = util::fnv_fold(h, label);
    }
    EXPECT_EQ(c.count, p.count);
    EXPECT_EQ(h, p.digest);
  }
}

TEST(Components, IsConnected) {
  util::Rng rng(1);
  EXPECT_TRUE(is_connected(connected_gnm(50, 60, rng)));
  EXPECT_FALSE(is_connected(Graph::from_edges(4, {{0, 1}, {2, 3}})));
  EXPECT_TRUE(is_connected(Graph::from_edges(1, {})));
  EXPECT_TRUE(is_connected(Graph()));
}

TEST(Components, SameConnectivity) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const Graph sub = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const Graph broken = Graph::from_edges(5, {{0, 1}, {3, 4}});
  EXPECT_TRUE(same_connectivity(g, sub));
  EXPECT_FALSE(same_connectivity(g, broken));
}

TEST(UnionFind, UniteAndFind) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(0, 3));
  EXPECT_EQ(uf.find(1), uf.find(2));
  EXPECT_NE(uf.find(4), uf.find(5));
}

}  // namespace
}  // namespace ultra::graph
