// Tests for the related-work extensions (paper Sections 1.4 and 5):
// streaming spanners, fully dynamic maintenance, the hop-bounded search the
// greedy filters share (against graph::bfs_distances, and golden digests of
// every filter decision), the weighted Baswana–Sen, and the
// Thorup–Zwick-style distance oracle application.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "apps/distance_oracle.h"
#include "baselines/baswana_sen_weighted.h"
#include "baselines/dynamic_spanner.h"
#include "baselines/greedy.h"
#include "baselines/hop_reach.h"
#include "baselines/streaming.h"
#include "graph/bfs.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/girth.h"
#include "graph/weighted.h"
#include "spanner/evaluate.h"
#include "util/rng.h"

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;

// ---------- streaming -------------------------------------------------------

TEST(Streaming, MatchesGreedyUnderSameOrder) {
  util::Rng rng(3);
  const Graph g = graph::erdos_renyi_gnm(200, 1500, rng);
  baselines::StreamingSpanner stream(200, 3);
  for (const auto& e : g.edges()) stream.offer(e.u, e.v);
  const auto greedy = baselines::greedy_spanner(g, 3);
  // Same edge order (Graph::edges() is sorted), same filter: identical.
  EXPECT_EQ(stream.edges_kept(), greedy.size());
  const Graph snap = stream.snapshot();
  for (const auto& e : greedy.edges()) {
    EXPECT_TRUE(snap.has_edge(e.u, e.v));
  }
}

TEST(Streaming, PrefixInvariantHoldsMidStream) {
  util::Rng rng(5);
  const Graph g = graph::connected_gnm(120, 700, rng);
  std::vector<graph::Edge> order(g.edges().begin(), g.edges().end());
  rng.shuffle(order);
  baselines::StreamingSpanner stream(120, 2);
  std::size_t checkpoint = order.size() / 2;
  std::vector<graph::Edge> prefix;
  for (std::size_t i = 0; i < order.size(); ++i) {
    stream.offer(order[i].u, order[i].v);
    if (i + 1 == checkpoint) {
      prefix.assign(order.begin(), order.begin() + static_cast<long>(i + 1));
      const Graph prefix_graph = Graph::from_edges(120, prefix);
      const Graph snap = stream.snapshot();
      // Every prefix edge is bridged within 2k-1 = 3 hops in the snapshot.
      for (const auto& e : prefix) {
        const auto d = graph::bfs_distances(snap, e.u, 3);
        EXPECT_LE(d[e.v], 3u);
      }
    }
  }
  EXPECT_EQ(stream.edges_seen(), order.size());
}

TEST(Streaming, GirthAboveTwoKMooreSize) {
  util::Rng rng(7);
  const Graph g = graph::erdos_renyi_gnm(300, 6000, rng);
  baselines::StreamingSpanner stream(300, 2);
  std::vector<graph::Edge> order(g.edges().begin(), g.edges().end());
  rng.shuffle(order);
  for (const auto& e : order) stream.offer(e.u, e.v);
  EXPECT_GT(graph::girth(stream.snapshot()), 4u);
  EXPECT_LE(static_cast<double>(stream.edges_kept()),
            std::pow(300.0, 1.5) + 300.0);
}

TEST(Streaming, RejectsDuplicatesAndLoops) {
  baselines::StreamingSpanner stream(4, 2);
  EXPECT_TRUE(stream.offer(0, 1));
  EXPECT_FALSE(stream.offer(1, 0));  // distance 1 <= 3 already
  EXPECT_FALSE(stream.offer(2, 2));
  EXPECT_THROW(stream.offer(0, 9), std::out_of_range);
}

// ---------- dynamic ----------------------------------------------------------

TEST(DynamicSpanner, InsertOnlyMatchesGreedy) {
  util::Rng rng(9);
  const Graph g = graph::erdos_renyi_gnm(150, 900, rng);
  baselines::DynamicSpanner dyn(150, 3);
  for (const auto& e : g.edges()) dyn.insert(e.u, e.v);
  const auto greedy = baselines::greedy_spanner(g, 3);
  EXPECT_EQ(dyn.spanner_size(), greedy.size());
  EXPECT_TRUE(dyn.invariant_holds());
}

TEST(DynamicSpanner, DeleteNonSpannerEdgeIsCheap) {
  baselines::DynamicSpanner dyn(4, 2);
  dyn.insert(0, 1);
  dyn.insert(1, 2);
  dyn.insert(2, 0);  // closes a triangle: not kept (path 0-1-2 has 2 hops)
  EXPECT_FALSE(dyn.in_spanner(0, 2));
  EXPECT_EQ(dyn.erase(0, 2), 0u);
  EXPECT_TRUE(dyn.invariant_holds());
}

TEST(DynamicSpanner, DeleteSpannerEdgePromotesReplacement) {
  baselines::DynamicSpanner dyn(4, 2);
  dyn.insert(0, 1);
  dyn.insert(1, 2);
  dyn.insert(0, 2);  // discarded
  EXPECT_EQ(dyn.spanner_size(), 2u);
  // Deleting (0,1) must promote (0,2) to keep the stretch invariant.
  EXPECT_EQ(dyn.erase(0, 1), 1u);
  EXPECT_TRUE(dyn.in_spanner(0, 2));
  EXPECT_TRUE(dyn.invariant_holds());
}

TEST(DynamicSpanner, RandomChurnMaintainsInvariant) {
  util::Rng rng(11);
  const VertexId n = 80;
  baselines::DynamicSpanner dyn(n, 2);
  std::vector<graph::Edge> present;
  for (int step = 0; step < 600; ++step) {
    const bool do_insert =
        present.empty() || rng.bernoulli(0.6);
    if (do_insert) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (u == v || dyn.has_edge(u, v)) continue;
      dyn.insert(u, v);
      present.push_back(graph::make_edge(u, v));
    } else {
      const std::size_t i = rng.next_below(present.size());
      dyn.erase(present[i].u, present[i].v);
      present[i] = present.back();
      present.pop_back();
    }
    if (step % 50 == 49) {
      ASSERT_TRUE(dyn.invariant_holds()) << "step " << step;
    }
  }
  EXPECT_TRUE(dyn.invariant_holds());
  // Connectivity of the final state is preserved by the spanner.
  EXPECT_TRUE(
      graph::same_connectivity(dyn.graph_snapshot(), dyn.spanner_snapshot()));
}

TEST(DynamicSpanner, StretchBoundExactAfterChurn) {
  util::Rng rng(13);
  const VertexId n = 60;
  baselines::DynamicSpanner dyn(n, 3);
  for (int step = 0; step < 400; ++step) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v) continue;
    if (!dyn.has_edge(u, v)) {
      dyn.insert(u, v);
    } else if (rng.bernoulli(0.5)) {
      dyn.erase(u, v);
    }
  }
  const Graph g = dyn.graph_snapshot();
  const Graph s = dyn.spanner_snapshot();
  for (VertexId v = 0; v < n; ++v) {
    const auto dg = graph::bfs_distances(g, v);
    const auto ds = graph::bfs_distances(s, v);
    for (VertexId w = 0; w < n; ++w) {
      if (dg[w] == graph::kUnreachable) continue;
      ASSERT_NE(ds[w], graph::kUnreachable);
      EXPECT_LE(ds[w], 5 * dg[w]);  // 2k-1 = 5
    }
  }
}

TEST(DynamicSpanner, EraseMissingEdgeThrows) {
  baselines::DynamicSpanner dyn(4, 2);
  EXPECT_THROW(dyn.erase(0, 1), std::invalid_argument);
  // An id past the vertex range is in no edge.
  EXPECT_FALSE(dyn.has_edge(0, 9));
  EXPECT_THROW(dyn.erase(0, 9), std::invalid_argument);
}

namespace {

// Canonical edge-key set of the current spanner, for before/after diffs.
std::unordered_set<std::uint64_t> spanner_edge_keys(
    const baselines::DynamicSpanner& dyn) {
  std::unordered_set<std::uint64_t> keys;
  const Graph s = dyn.spanner_snapshot();
  for (const auto& e : s.edges()) keys.insert(graph::edge_key(e));
  return keys;
}

}  // namespace

// Brute-force check of the deletion report: every vertex whose spanner
// adjacency actually changed must be listed in report.invalidated, the list
// must be sorted and duplicate-free, and `promoted` must equal the number of
// edges the repair added.
TEST(DynamicSpanner, ErasedReportCoversAllChangedVertices) {
  util::Rng rng(29);
  const VertexId n = 80;
  baselines::DynamicSpanner dyn(n, 2);
  std::vector<graph::Edge> present;
  const Graph g = graph::connected_gnm(n, 500, rng);
  for (const auto& e : g.edges()) {
    dyn.insert(e.u, e.v);
    present.push_back(e);
  }
  std::size_t spanner_deletions = 0;
  for (int step = 0; step < 120; ++step) {
    const std::size_t i = rng.next_below(present.size());
    const auto [u, v] = present[i];
    present[i] = present.back();
    present.pop_back();
    const bool was_spanner = dyn.in_spanner(u, v);
    const auto before = spanner_edge_keys(dyn);
    const baselines::RepairReport report = dyn.erase_reported(u, v);
    const auto after = spanner_edge_keys(dyn);

    // Sorted, duplicate-free, in range.
    EXPECT_TRUE(std::is_sorted(report.invalidated.begin(),
                               report.invalidated.end()));
    EXPECT_EQ(std::adjacent_find(report.invalidated.begin(),
                                 report.invalidated.end()),
              report.invalidated.end());
    for (const VertexId w : report.invalidated) ASSERT_LT(w, n);

    if (!was_spanner) {
      // Deleting a discarded edge cannot perturb the spanner at all.
      EXPECT_TRUE(report.invalidated.empty());
      EXPECT_EQ(report.promoted, 0u);
      EXPECT_EQ(before, after);
      continue;
    }
    ++spanner_deletions;

    // promoted == |after \ before| (the deleted edge is the only removal).
    std::size_t added = 0;
    for (const std::uint64_t key : after) {
      if (!before.count(key)) ++added;
    }
    EXPECT_EQ(report.promoted, added);
    // Every endpoint of the symmetric difference is in the invalidated set.
    auto touched = [&](std::uint64_t key) {
      const auto a = static_cast<VertexId>(key >> 32);
      const auto b = static_cast<VertexId>(key & 0xffffffffu);
      for (const VertexId w : {a, b}) {
        EXPECT_TRUE(std::binary_search(report.invalidated.begin(),
                                       report.invalidated.end(), w))
            << "vertex " << w << " changed but was not reported";
      }
    };
    for (const std::uint64_t key : after) {
      if (!before.count(key)) touched(key);
    }
    for (const std::uint64_t key : before) {
      if (!after.count(key)) touched(key);
    }
    // Both deleted endpoints are always invalidated (radius-0 ball members).
    EXPECT_TRUE(std::binary_search(report.invalidated.begin(),
                                   report.invalidated.end(), u));
    EXPECT_TRUE(std::binary_search(report.invalidated.begin(),
                                   report.invalidated.end(), v));
    ASSERT_TRUE(dyn.invariant_holds()) << "step " << step;
  }
  // The churn must actually have exercised the repair path.
  EXPECT_GT(spanner_deletions, 10u);
}

// drop_spanner_edge() models fault damage: the edge leaves the overlay but
// stays in the graph, the invariant is intentionally broken, and a later
// patch() over the returned region restores it. Crashed (unavailable)
// vertices are skipped by the patch and their edges re-offered once they
// return.
TEST(DynamicSpanner, DropThenPatchRestoresInvariant) {
  util::Rng rng(31);
  const VertexId n = 60;
  baselines::DynamicSpanner dyn(n, 3);
  const Graph g = graph::connected_gnm(n, 360, rng);
  for (const auto& e : g.edges()) dyn.insert(e.u, e.v);
  ASSERT_TRUE(dyn.invariant_holds());

  // Knock out a handful of spanner edges without repair.
  std::vector<graph::Edge> dropped;
  std::vector<VertexId> region;
  for (const auto& e : g.edges()) {
    if (dropped.size() == 5) break;
    if (!dyn.in_spanner(e.u, e.v)) continue;
    auto part = dyn.drop_spanner_edge(e.u, e.v);
    region.insert(region.end(), part.begin(), part.end());
    dropped.push_back(e);
  }
  ASSERT_EQ(dropped.size(), 5u);
  for (const auto& e : dropped) {
    EXPECT_TRUE(dyn.has_edge(e.u, e.v));     // still a graph edge
    EXPECT_FALSE(dyn.in_spanner(e.u, e.v));  // gone from the overlay
  }
  EXPECT_FALSE(dyn.invariant_holds());  // damage is visible until patched

  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());

  // Patch with one endpoint marked unavailable: no NEW promotion may touch
  // the down vertex (pre-existing spanner edges at it are allowed to stay).
  const VertexId down = dropped.front().u;
  const std::vector<VertexId> down_neighbors_before(
      dyn.spanner_neighbors(down).begin(), dyn.spanner_neighbors(down).end());
  std::vector<bool> unavailable(n, false);
  unavailable[down] = true;
  dyn.patch(region, unavailable);
  const auto down_neighbors_after = dyn.spanner_neighbors(down);
  EXPECT_TRUE(std::equal(down_neighbors_before.begin(),
                         down_neighbors_before.end(),
                         down_neighbors_after.begin(),
                         down_neighbors_after.end()));
  // Once the vertex is back, a full patch restores the exact invariant.
  dyn.patch(region);
  EXPECT_TRUE(dyn.invariant_holds());
}

TEST(DynamicSpanner, DropNonSpannerEdgeThrows) {
  baselines::DynamicSpanner dyn(4, 2);
  dyn.insert(0, 1);
  EXPECT_THROW((void)dyn.drop_spanner_edge(2, 3), std::invalid_argument);
  EXPECT_FALSE(dyn.in_spanner(9, 0));
  EXPECT_THROW((void)dyn.drop_spanner_edge(9, 0), std::invalid_argument);
}

TEST(DynamicSpanner, PatchRejectsOutOfRangeRegion) {
  baselines::DynamicSpanner dyn(4, 2);
  dyn.insert(0, 1);
  EXPECT_THROW(dyn.patch({0, 4}), std::out_of_range);
  EXPECT_THROW(dyn.patch({9}, std::vector<bool>(4, false)), std::out_of_range);
  EXPECT_TRUE(dyn.in_spanner(0, 1));
  EXPECT_TRUE(dyn.invariant_holds());
}

// reseed_spanner() adopts the supervised base edges verbatim and sweeps the
// rest back through the greedy filter: the result contains the base, is a
// subgraph, and satisfies the exact 2k-1 invariant.
TEST(DynamicSpanner, ReseedContainsBaseAndRestoresInvariant) {
  util::Rng rng(37);
  const VertexId n = 70;
  baselines::DynamicSpanner dyn(n, 2);
  const Graph g = graph::connected_gnm(n, 420, rng);
  for (const auto& e : g.edges()) dyn.insert(e.u, e.v);

  // Base: a BFS tree of the graph (always a valid sub-overlay skeleton),
  // plus one edge that is NOT in the graph (must be ignored).
  std::vector<graph::Edge> base;
  {
    const Graph snap = dyn.graph_snapshot();
    const auto dist = graph::bfs_distances(snap, 0);
    for (VertexId v = 1; v < n; ++v) {
      for (const VertexId w : snap.neighbors(v)) {
        if (dist[w] + 1 == dist[v]) {
          base.push_back(graph::make_edge(v, w));
          break;
        }
      }
    }
  }
  graph::Edge ghost = graph::make_edge(0, 1);
  while (dyn.has_edge(ghost.u, ghost.v)) ghost.v++;
  base.push_back(ghost);

  dyn.reseed_spanner(base);
  for (const auto& e : base) {
    if (e.u == ghost.u && e.v == ghost.v) {
      EXPECT_FALSE(dyn.in_spanner(e.u, e.v));  // not a graph edge: ignored
    } else {
      EXPECT_TRUE(dyn.in_spanner(e.u, e.v)) << e.u << "-" << e.v;
    }
  }
  EXPECT_TRUE(dyn.invariant_holds());
  EXPECT_LE(dyn.spanner_size(), dyn.graph_size());
}

// ---------- hop-bounded reachability kernel ----------------------------------

// Random graphs with two components, isolated vertices and a hub, as both
// the kernel's adjacency lists and a Graph for the reference BFS.
struct ReachCase {
  Graph g;
  baselines::AdjacencyLists adj;
};

ReachCase random_reach_case(util::Rng& rng) {
  const auto n = static_cast<VertexId>(2 + rng.next_below(60));
  const VertexId half = n / 2;  // components [0, half) and [half, n)
  const auto isolated = [](VertexId x) { return x % 7 == 6; };
  std::vector<graph::Edge> edges;
  const std::uint64_t m = rng.next_below(2 * std::uint64_t{n});
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const VertexId lo = u < half ? 0 : half;
    const VertexId hi = u < half ? half : n;
    const auto v = static_cast<VertexId>(lo + rng.next_below(hi - lo));
    if (!isolated(u) && !isolated(v)) edges.push_back({u, v});
  }
  for (VertexId v = 1; v < half; v += 2) {  // vertex 0 is a hub
    if (!isolated(v)) edges.push_back({0, v});
  }
  ReachCase c{Graph::from_edges(n, std::move(edges)),
              baselines::AdjacencyLists(n)};
  for (const auto& e : c.g.edges()) {
    c.adj[e.u].push_back(e.v);
    c.adj[e.v].push_back(e.u);
  }
  return c;
}

// The filters' search against graph::bfs_distances: u == v, limits 0 and 1,
// short limits, and limits at or past the diameter, on one reused scratch.
TEST(HopReach, WithinMatchesBfsDistances) {
  util::Rng rng(53);
  std::uint64_t reachable = 0, unreachable = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const ReachCase c = random_reach_case(rng);
    const VertexId n = c.g.num_vertices();
    baselines::HopReach reach(n);
    for (VertexId u = 0; u < n; ++u) {
      const auto dist = graph::bfs_distances(c.g, u);
      for (VertexId v = 0; v < n; ++v) {
        for (const std::uint32_t limit :
             {0u, 1u, 2u, 3u, 5u, n, graph::kUnreachable - 1}) {
          const bool want = dist[v] <= limit;
          ASSERT_EQ(reach.within(c.adj, u, v, limit), want)
              << "trial " << trial << " u=" << u << " v=" << v
              << " limit=" << limit;
          ++(want ? reachable : unreachable);
        }
      }
    }
  }
  EXPECT_GT(reachable, 1000u);
  EXPECT_GT(unreachable, 1000u);
}

// ball() against the union of truncated BFS balls: every vertex once, in
// nondecreasing distance from the sources, appended after what `out` held.
TEST(HopReach, BallMatchesUnionOfBfsBalls) {
  util::Rng rng(59);
  for (int trial = 0; trial < 30; ++trial) {
    const ReachCase c = random_reach_case(rng);
    const VertexId n = c.g.num_vertices();
    baselines::HopReach reach(n);
    for (int q = 0; q < 20; ++q) {
      const auto a = static_cast<VertexId>(rng.next_below(n));
      const auto b = static_cast<VertexId>(rng.next_below(n));
      const VertexId sources[] = {a, b};
      const auto radius = static_cast<std::uint32_t>(rng.next_below(6));
      // Interleave a within() so the two kinds of query share stamps.
      (void)reach.within(c.adj, a, b, radius);
      std::vector<VertexId> out{n};  // a sentinel the call must keep
      reach.ball(c.adj, sources, radius, out);
      ASSERT_EQ(out.front(), n);

      const auto da = graph::bfs_distances(c.g, a);
      const auto db = graph::bfs_distances(c.g, b);
      std::vector<VertexId> want;
      for (VertexId x = 0; x < n; ++x) {
        if (std::min(da[x], db[x]) <= radius) want.push_back(x);
      }
      std::vector<VertexId> got(out.begin() + 1, out.end());
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_LE(std::min(da[got[i - 1]], db[got[i - 1]]),
                  std::min(da[got[i]], db[got[i]]));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "trial " << trial << " radius " << radius;
    }
  }
}

// ---------- golden pins for the greedy (2k-1)-filters ------------------------

struct FilterDigests {
  std::uint64_t greedy;   // greedy_spanner's edge sequence
  std::uint64_t stream;   // StreamingSpanner::offer results, in stream order
  std::uint64_t dynamic;  // the DynamicSpanner script below
};

// Runs the three filters over `g` and folds every observable decision into
// one FNV-1a digest each. The dynamic script walks every entry point that
// asks the filter: inserts, reported erases (region and promotions),
// drop_spanner_edge regions, patch with and without an unavailable mask,
// inserts after the repair, reseed_spanner, and the final per-vertex
// spanner_neighbors order.
FilterDigests filter_digests(const Graph& g, unsigned k, std::uint64_t seed) {
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  FilterDigests d{kBasis, kBasis, kBasis};
  const auto fold = [](std::uint64_t& h, std::uint64_t w) {
    h = (h ^ w) * 1099511628211ull;
  };
  const auto fold_list = [&fold](std::uint64_t& h,
                                 const std::vector<VertexId>& list) {
    fold(h, list.size());
    for (const VertexId v : list) fold(h, v);
  };
  const VertexId n = g.num_vertices();

  const spanner::Spanner greedy = baselines::greedy_spanner(g, k);
  for (const auto& e : greedy.edges()) {
    fold(d.greedy, e.u);
    fold(d.greedy, e.v);
  }

  util::Rng rng(seed);
  std::vector<graph::Edge> order(g.edges().begin(), g.edges().end());
  rng.shuffle(order);
  baselines::StreamingSpanner stream(n, k);
  for (const auto& e : order) fold(d.stream, stream.offer(e.u, e.v));

  baselines::DynamicSpanner dyn(n, k);
  for (const auto& e : order) fold(d.dynamic, dyn.insert(e.u, e.v));
  std::vector<graph::Edge> live = order;
  for (std::size_t i = 0; i < order.size() / 3; ++i) {
    const std::size_t j = rng.next_below(live.size());
    const graph::Edge e = live[j];
    live[j] = live.back();
    live.pop_back();
    const baselines::RepairReport rep = dyn.erase_reported(e.u, e.v);
    fold_list(d.dynamic, rep.invalidated);
    fold(d.dynamic, rep.promoted);
  }
  std::vector<VertexId> region;
  std::size_t dropped = 0;
  for (const auto& e : live) {
    if (dropped == 8) break;
    if (!dyn.in_spanner(e.u, e.v)) continue;
    const std::vector<VertexId> part = dyn.drop_spanner_edge(e.u, e.v);
    fold_list(d.dynamic, part);
    region.insert(region.end(), part.begin(), part.end());
    ++dropped;
  }
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());
  std::vector<bool> unavailable(n, false);
  for (VertexId v = 0; v < n; v += 7) unavailable[v] = true;
  fold(d.dynamic, dyn.patch(region, unavailable));
  fold(d.dynamic, dyn.patch(region));
  for (int i = 0; i < 64; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u != v) fold(d.dynamic, dyn.insert(u, v));
  }
  const auto base = baselines::greedy_spanner(dyn.graph_snapshot(), k + 1);
  dyn.reseed_spanner({base.edges().begin(), base.edges().end()});
  fold(d.dynamic, dyn.spanner_size());
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId w : dyn.spanner_neighbors(v)) fold(d.dynamic, w);
  }
  EXPECT_TRUE(dyn.invariant_holds());
  return d;
}

// Captured from the one-sided BFS filters: any exact dist <= 2k-1 search
// must reproduce every keep, discard, region and promotion order.
TEST(FilterGolden, DecisionsPinnedAcrossSearchStrategies) {
  struct GoldenCase {
    const char* name;
    Graph g;
    unsigned k;
    FilterDigests want;
  };
  const Graph ring = graph::ring_of_cliques(12, 8);
  const auto er = [](std::uint64_t seed) {
    util::Rng rng(seed);
    return graph::erdos_renyi_gnm(120, 600, rng);
  };
  const auto rmat = [](std::uint64_t seed) {
    util::Rng rng(seed);
    return graph::rmat_graph(128, 1024, rng);
  };
  const GoldenCase cases[] = {
      {"er120", er(42), 1,
       {13796366354228445031ull, 18169971462515981789ull,
        1280742560256347451ull}},
      {"rmat128", rmat(44), 1,
       {3632098710198922000ull, 15664548528774058989ull,
        2995503361379866042ull}},
      {"ring_of_cliques", ring, 1,
       {5670048484780665111ull, 14059596457451557329ull,
        14188415011923753019ull}},
      {"er120", er(43), 2,
       {9048754268207127551ull, 10950257265349368047ull,
        8069887068516764976ull}},
      {"rmat128", rmat(45), 2,
       {15017500802460901450ull, 3200015295096916731ull,
        670811408120320960ull}},
      {"ring_of_cliques", ring, 2,
       {3349457286796767703ull, 10200694318978782330ull,
        7077471202852209206ull}},
      {"er120", er(44), 3,
       {12923799129000023207ull, 17784487810761952276ull,
        11892095297492908795ull}},
      {"rmat128", rmat(46), 3,
       {4051239948730668249ull, 1131025335742612288ull,
        11958910588060627314ull}},
      {"ring_of_cliques", ring, 3,
       {3349457286796767703ull, 14507719506029777457ull,
        2070912366708537425ull}},
      {"er120", er(45), 4,
       {7783069012356965888ull, 9103574313441351959ull,
        2299946642077774990ull}},
      {"rmat128", rmat(47), 4,
       {5727952562717126543ull, 17147900910828529688ull,
        14259728189954544504ull}},
      {"ring_of_cliques", ring, 4,
       {3349457286796767703ull, 5711981826105602279ull,
        8736312988429340512ull}},
  };
  for (const GoldenCase& c : cases) {
    const FilterDigests got = filter_digests(c.g, c.k, 47 + c.k);
    EXPECT_EQ(got.greedy, c.want.greedy) << c.name << " k=" << c.k;
    EXPECT_EQ(got.stream, c.want.stream) << c.name << " k=" << c.k;
    EXPECT_EQ(got.dynamic, c.want.dynamic) << c.name << " k=" << c.k;
  }
}

// ---------- weighted graphs & weighted Baswana–Sen -------------------------

graph::WeightedGraph random_weighted(VertexId n, std::uint64_t m,
                                     util::Rng& rng) {
  const Graph base = graph::connected_gnm(n, m, rng);
  std::vector<graph::WeightedEdge> edges;
  for (const auto& e : base.edges()) {
    edges.push_back(
        {e.u, e.v, 1.0 + 9.0 * rng.next_double()});
  }
  return graph::WeightedGraph::from_edges(n, std::move(edges));
}

TEST(WeightedGraph, FromEdgesKeepsLightestParallel) {
  const auto g = graph::WeightedGraph::from_edges(
      3, {{0, 1, 5.0}, {1, 0, 2.0}, {1, 2, 1.0}, {2, 2, 9.0}});
  EXPECT_EQ(g.num_edges(), 2u);
  for (const auto& arc : g.neighbors(0)) {
    if (arc.to == 1) {
      EXPECT_DOUBLE_EQ(arc.w, 2.0);
    }
  }
  EXPECT_THROW(
      graph::WeightedGraph::from_edges(2, {{0, 1, 0.0}}),
      std::invalid_argument);
}

// The whole adjacency from_edges builds, weight bits included, on an input
// with loops and with parallel edges in both orientations at different
// weights: 4000 random pairs over 120 vertices.
TEST(WeightedGraph, FromEdgesOutputPinned) {
  util::Rng rng(29);
  std::vector<graph::WeightedEdge> edges;
  for (int i = 0; i < 4000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(120));
    const auto v = static_cast<VertexId>(rng.next_below(120));
    edges.push_back({u, v, 1.0 + 9.0 * rng.next_double()});
  }
  const auto g = graph::WeightedGraph::from_edges(120, std::move(edges));
  std::uint64_t h = 14695981039346656037ull;  // byte-wise FNV-1a
  const auto fold = [&h](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    fold(g.neighbors(v).size());
    for (const auto& arc : g.neighbors(v)) {
      fold(arc.to);
      fold(std::bit_cast<std::uint64_t>(arc.w));
    }
  }
  EXPECT_EQ(g.num_edges(), 3063u);
  EXPECT_EQ(h, 0xd76bca64bad0e90cull);
}

TEST(WeightedGraph, DijkstraMatchesBfsOnUnitWeights) {
  util::Rng rng(15);
  const Graph base = graph::connected_gnm(100, 300, rng);
  std::vector<graph::WeightedEdge> edges;
  for (const auto& e : base.edges()) edges.push_back({e.u, e.v, 1.0});
  const auto wg = graph::WeightedGraph::from_edges(100, std::move(edges));
  const auto dw = graph::dijkstra(wg, 0);
  const auto db = graph::bfs_distances(base, 0);
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_DOUBLE_EQ(dw[v], static_cast<double>(db[v]));
  }
}

TEST(WeightedGraph, DijkstraTriangleInequality) {
  util::Rng rng(17);
  const auto g = random_weighted(80, 240, rng);
  const auto d0 = graph::dijkstra(g, 0);
  for (VertexId v = 0; v < 80; ++v) {
    for (const auto& arc : g.neighbors(v)) {
      EXPECT_LE(d0[arc.to], d0[v] + arc.w + 1e-9);
    }
  }
}

TEST(BaswanaSenWeighted, PerEdgeStretchBound) {
  util::Rng rng(19);
  for (const unsigned k : {2u, 3u}) {
    const auto g = random_weighted(120, 900, rng);
    const auto result = baselines::baswana_sen_weighted(g, k, k * 3 + 1);
    const auto sg = result.spanner_graph(g.num_vertices());
    // Every ORIGINAL edge is bridged within (2k-1) times its weight — which
    // implies the (2k-1) bound for all pairs.
    std::vector<std::vector<graph::Weight>> dist(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      dist[v] = graph::dijkstra(sg, v);
    }
    for (const auto& e : g.edge_list()) {
      EXPECT_LE(dist[e.u][e.v], (2.0 * k - 1.0) * e.w + 1e-9)
          << "k=" << k << " edge " << e.u << "-" << e.v;
    }
  }
}

TEST(BaswanaSenWeighted, SizeEnvelope) {
  util::Rng rng(21);
  const auto g = random_weighted(400, 6000, rng);
  const auto result = baselines::baswana_sen_weighted(g, 3, 5);
  const double n = 400;
  const double bound = 3.0 * (3.0 * n + std::pow(n, 1.0 + 1.0 / 3.0) *
                                            std::log(3.0));
  EXPECT_LE(static_cast<double>(result.size), bound);
  EXPECT_EQ(result.edges_per_phase.size(), 3u);
}

TEST(BaswanaSenWeighted, K1KeepsEverythingConnectedNeeds) {
  util::Rng rng(23);
  const auto g = random_weighted(50, 200, rng);
  const auto result = baselines::baswana_sen_weighted(g, 1, 1);
  // k=1: 1-spanner; every edge must be kept (up to exact-duplicate weights).
  EXPECT_EQ(result.size, g.num_edges());
}

// ---------- distance oracle --------------------------------------------------

TEST(DistanceOracle, StretchAtMost3Exact) {
  util::Rng rng(25);
  const Graph g = graph::connected_gnm(300, 1800, rng);
  const apps::DistanceOracle oracle(g, 7);
  for (VertexId u = 0; u < g.num_vertices(); u += 11) {
    const auto d = graph::bfs_distances(g, u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u == v) continue;
      const auto q = oracle.query(u, v);
      ASSERT_NE(q, graph::kUnreachable);
      EXPECT_GE(q, d[v]);           // never underestimates
      EXPECT_LE(q, 3 * d[v]);       // stretch 3
    }
  }
}

TEST(DistanceOracle, ExactInsideBunches) {
  util::Rng rng(27);
  const Graph g = graph::connected_gnm(200, 800, rng);
  const apps::DistanceOracle oracle(g, 9);
  // Adjacent pairs where one endpoint has no nearer landmark than the other
  // endpoint are answered exactly through the bunch; spot-check adjacency.
  std::uint64_t exact = 0, total = 0;
  for (const auto& e : g.edges()) {
    ++total;
    exact += (oracle.query(e.u, e.v) == 1);
  }
  // The pivot route can only give odd overestimates >= 3 for adjacent pairs;
  // most adjacent pairs should be exact.
  EXPECT_GT(exact * 2, total);
}

TEST(DistanceOracle, SpaceNearN32) {
  util::Rng rng(29);
  const Graph g = graph::connected_gnm(1000, 10000, rng);
  const apps::DistanceOracle oracle(g, 11);
  const double n32 = std::pow(1000.0, 1.5);
  EXPECT_LE(static_cast<double>(oracle.space_words()), 8.0 * n32);
  EXPECT_GT(oracle.num_landmarks(), 0u);
}

TEST(DistanceOracle, DisconnectedPairsReported) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const apps::DistanceOracle oracle(g, 1);
  EXPECT_EQ(oracle.query(0, 1), 1u);
  EXPECT_EQ(oracle.query(0, 3), graph::kUnreachable);
  EXPECT_EQ(oracle.query(2, 3), 1u);
}

TEST(DistanceOracle, SymmetricQueries) {
  util::Rng rng(31);
  const Graph g = graph::connected_gnm(150, 600, rng);
  const apps::DistanceOracle oracle(g, 13);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(150));
    const auto v = static_cast<VertexId>(rng.next_below(150));
    EXPECT_EQ(oracle.query(u, v), oracle.query(v, u));
  }
}

}  // namespace
}  // namespace ultra
