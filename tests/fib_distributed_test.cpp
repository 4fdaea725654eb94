#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "check/certify.h"
#include "core/ball_broadcast.h"
#include "core/fib_distortion.h"
#include "core/fibonacci.h"
#include "core/fibonacci_distributed.h"
#include "graph/bfs.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "sim/faults.h"
#include "spanner/evaluate.h"
#include "util/rng.h"
#include "util/saturating.h"

namespace ultra::core {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(BallBroadcast, UnboundedMatchesBfsBalls) {
  util::Rng rng(3);
  const Graph g = graph::connected_gnm(150, 450, rng);
  std::vector<std::uint8_t> sources(g.num_vertices(), 0);
  std::vector<VertexId> src_list;
  for (VertexId v = 0; v < g.num_vertices(); v += 17) {
    sources[v] = 1;
    src_list.push_back(v);
  }
  const std::uint32_t radius = 4;
  sim::Network net(g, sim::kUnboundedMessages);
  sim::BallBroadcast bc(sources, radius);
  net.run(bc, radius + 4);
  EXPECT_TRUE(bc.ceased().empty());
  for (const VertexId s : src_list) {
    const auto dist = graph::bfs_distances(g, s, radius);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto* known = bc.find(v, s);
      if (dist[v] == graph::kUnreachable) {
        EXPECT_EQ(known, nullptr) << "v=" << v << " s=" << s;
      } else {
        ASSERT_NE(known, nullptr) << "v=" << v << " s=" << s;
        EXPECT_EQ(known->dist, dist[v]);
      }
    }
  }
}

TEST(BallBroadcast, ParentPointersTraceShortestPaths) {
  util::Rng rng(5);
  const Graph g = graph::connected_gnm(120, 360, rng);
  std::vector<std::uint8_t> sources(g.num_vertices(), 0);
  sources[7] = 1;
  sim::Network net(g, sim::kUnboundedMessages);
  sim::BallBroadcast bc(sources, 5);
  net.run(bc, 16);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto* known = bc.find(v, 7);
    if (known == nullptr || v == 7) continue;
    // Walk to the source in exactly dist steps.
    VertexId cur = v;
    std::uint32_t steps = 0;
    while (cur != 7) {
      const auto* hop = bc.find(cur, 7);
      ASSERT_NE(hop, nullptr);
      cur = hop->parent;
      ++steps;
      ASSERT_LE(steps, 5u);
    }
    EXPECT_EQ(steps, known->dist);
  }
}

// Every record of every node against the definition: with no cap, v learns
// each source s within the radius in round d(v, s), from every neighbor one
// hop closer at once, and the inbox is sender-sorted, so the parent is the
// smallest of them. R-MAT hubs learn from many teachers in one round.
TEST(BallBroadcast, UnboundedRecordsMatchDefinition) {
  util::Rng rng(11);
  const Graph gnm = graph::connected_gnm(150, 450, rng);
  const Graph rmat = graph::rmat_graph(256, 2048, rng);
  for (const Graph* g : {&gnm, &rmat}) {
    const VertexId n = g->num_vertices();
    std::vector<std::uint8_t> sources(n, 0);
    std::vector<VertexId> src_list;
    for (VertexId v = 0; v < n; v += 5) {
      sources[v] = 1;
      src_list.push_back(v);
    }
    const std::uint32_t radius = 3;
    sim::Network net(*g, sim::kUnboundedMessages);
    sim::BallBroadcast bc(sources, radius);
    net.run(bc, radius + 4);
    ASSERT_TRUE(bc.ceased().empty());

    // want[v]: the records v must hold, ascending by source.
    std::vector<std::vector<sim::BallBroadcast::KnownSource>> want(n);
    for (const VertexId s : src_list) {
      const auto dist = graph::bfs_distances(*g, s, radius);
      for (VertexId v = 0; v < n; ++v) {
        if (dist[v] == graph::kUnreachable) continue;
        VertexId parent = graph::kInvalidVertex;
        for (const VertexId u : g->neighbors(v)) {
          if (dist[u] != graph::kUnreachable && dist[u] + 1 == dist[v]) {
            parent = u;  // neighbors ascend: the first is the smallest
            break;
          }
        }
        want[v].push_back({s, dist[v], parent});
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      const auto got = bc.known(v);
      ASSERT_EQ(got.size(), want[v].size()) << "v=" << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].source, want[v][i].source) << "v=" << v;
        EXPECT_EQ(got[i].dist, want[v][i].dist) << "v=" << v;
        EXPECT_EQ(got[i].parent, want[v][i].parent) << "v=" << v;
        const auto* found = bc.find(v, want[v][i].source);
        ASSERT_NE(found, nullptr) << "v=" << v;
        EXPECT_EQ(found, &got[i]) << "v=" << v;
      }
    }
  }
}

// On the path 0 - 1 - ... - 6 with sources 0 and 5, nodes 4 and 6 learn 5
// in round 1 and 0 in rounds 4 and 6: records must come back ascending by
// source, not in the order they arrived.
TEST(BallBroadcast, KnownAscendsBySourceNotArrival) {
  const Graph g = graph::path_graph(7);
  std::vector<std::uint8_t> sources{1, 0, 0, 0, 0, 1, 0};
  sim::Network net(g, sim::kUnboundedMessages);
  sim::BallBroadcast bc(sources, 6);
  net.run(bc, 10);
  using KS = sim::BallBroadcast::KnownSource;
  const auto same = [](const KS& a, const KS& b) {
    return a.source == b.source && a.dist == b.dist && a.parent == b.parent;
  };
  const auto at4 = bc.known(4);
  ASSERT_EQ(at4.size(), 2u);
  EXPECT_TRUE(same(at4[0], {0, 4, 3}));
  EXPECT_TRUE(same(at4[1], {5, 1, 5}));
  const auto at5 = bc.known(5);
  ASSERT_EQ(at5.size(), 2u);
  EXPECT_TRUE(same(at5[0], {0, 5, 4}));
  EXPECT_TRUE(same(at5[1], {5, 0, graph::kInvalidVertex}));
  const auto at6 = bc.known(6);
  ASSERT_EQ(at6.size(), 2u);
  EXPECT_TRUE(same(at6[0], {0, 6, 5}));
  EXPECT_TRUE(same(at6[1], {5, 1, 5}));
  EXPECT_EQ(bc.find(6, 1), nullptr);
  EXPECT_EQ(bc.find(3, 4), nullptr);
}

TEST(BallBroadcast, TinyCapForcesCessation) {
  // A star center adjacent to many sources must relay all of them at once;
  // with cap 2 it has to cease.
  const Graph g = graph::complete_bipartite(1, 10);
  std::vector<std::uint8_t> sources(g.num_vertices(), 0);
  for (VertexId v = 1; v <= 10; ++v) sources[v] = 1;
  sim::Network net(g, 2);
  sim::BallBroadcast bc(sources, 3);
  net.run(bc, 8);
  ASSERT_EQ(bc.ceased().size(), 1u);
  EXPECT_EQ(bc.ceased()[0].first, 0u);
  // The center still *knows* all sources (receiving is passive).
  EXPECT_EQ(bc.known(0).size(), 10u);
}

// Cap 3. Leaf sources 0..2 hang off teacher 3, which relays all of them to
// node 4 in round 2 — a full message from a single neighbor; 5 is node 4's
// onward neighbor.
constexpr VertexId kRelayCap = 3;
const std::vector<graph::Edge> kRelayEdges{{0, 3}, {1, 3}, {2, 3},
                                           {3, 4}, {4, 5}};

TEST(BallBroadcast, RelaysAFullMessageFromOneNeighbor) {
  // Node 4's fresh ids all come from the teacher, so the teacher's message
  // is empty and node 5's holds exactly cap ids.
  const Graph g = Graph::from_edges(6, kRelayEdges);
  std::vector<std::uint8_t> sources{1, 1, 1, 0, 0, 0};
  sim::Network net(g, kRelayCap);
  sim::BallBroadcast bc(sources, 4);
  net.run(bc, 8);
  EXPECT_TRUE(bc.ceased().empty());
  for (VertexId leaf = 0; leaf < kRelayCap; ++leaf) {
    const auto* known = bc.find(5, leaf);
    ASSERT_NE(known, nullptr) << "leaf " << leaf;
    EXPECT_EQ(known->dist, 3u);
    EXPECT_EQ(known->parent, 4u);
  }
}

TEST(BallBroadcast, CeasesWhenOneMessageNeedsCapPlusOne) {
  // A single neighbor cannot deliver more than cap ids, so the extra one
  // comes from source 6 through node 7, in the same round: cap + 1 fresh
  // ids, and node 5's message would be one word over the cap.
  std::vector<graph::Edge> edges = kRelayEdges;
  edges.push_back({6, 7});
  edges.push_back({7, 4});
  const Graph g = Graph::from_edges(8, edges);
  std::vector<std::uint8_t> sources{1, 1, 1, 0, 0, 0, 1, 0};
  sim::Network net(g, kRelayCap);
  sim::BallBroadcast bc(sources, 4);
  net.run(bc, 8);
  const auto ceased = bc.ceased();
  ASSERT_EQ(ceased.size(), 1u);
  EXPECT_EQ(ceased[0], (std::pair<VertexId, std::uint32_t>{4, 2}));
  // It still learned everything; nothing went past it.
  EXPECT_EQ(bc.known(4).size(), kRelayCap + 1);
  EXPECT_TRUE(bc.known(5).empty());
}

TEST(BallBroadcast, DegreeTwoNodeRelaysEachSideTheOther) {
  // Leaves 0..2 -> a=6 -> m=8 <- b=7 <- leaves 3..5, cap 3: m learns 2 cap
  // ids at once, yet each side's message excludes what that side taught, so
  // both hold exactly cap ids and m keeps relaying.
  constexpr VertexId kCap = kRelayCap;
  std::vector<graph::Edge> edges{{6, 8}, {7, 8}};
  for (VertexId leaf = 0; leaf < kCap; ++leaf) {
    edges.push_back({leaf, 6});
    edges.push_back({kCap + leaf, 7});
  }
  const Graph g = Graph::from_edges(9, edges);
  std::vector<std::uint8_t> sources(9, 0);
  for (VertexId leaf = 0; leaf < 2 * kCap; ++leaf) sources[leaf] = 1;
  sim::Network net(g, kCap);
  sim::BallBroadcast bc(sources, 4);
  const auto m = net.run(bc, 8);
  EXPECT_TRUE(bc.ceased().empty());
  EXPECT_EQ(m.max_message_words, kCap);
  for (VertexId leaf = 0; leaf < kCap; ++leaf) {
    const auto* at_a = bc.find(6, kCap + leaf);  // b's leaves reach a via m
    ASSERT_NE(at_a, nullptr);
    EXPECT_EQ(at_a->dist, 3u);
    EXPECT_EQ(at_a->parent, 8u);
    const auto* at_b = bc.find(7, leaf);
    ASSERT_NE(at_b, nullptr);
    EXPECT_EQ(at_b->parent, 8u);
  }
}

TEST(BallBroadcast, MessagesNeverExceedCap) {
  util::Rng rng(9);
  const Graph g = graph::erdos_renyi_gnm(200, 1000, rng);
  std::vector<std::uint8_t> sources(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.bernoulli(0.1)) sources[v] = 1;
  }
  sim::Network net(g, 5);
  sim::BallBroadcast bc(sources, 6);
  const auto m = net.run(bc, 12);  // Network throws if the cap is violated
  EXPECT_LE(m.max_message_words, 5u);
}

struct FibDistCase {
  VertexId n;
  std::uint64_t m;
  unsigned order;
  std::uint32_t ell;
  double t;  // 0 = unbounded
  std::uint64_t seed;
};

class FibDistributedProperty : public ::testing::TestWithParam<FibDistCase> {
};

TEST_P(FibDistributedProperty, SpannerInvariantsHold) {
  const FibDistCase c = GetParam();
  util::Rng rng(c.seed);
  const Graph g = graph::connected_gnm(c.n, c.m, rng);
  const FibonacciParams params{.order = c.order, .eps = 1.0, .ell = c.ell,
                               .message_t = c.t, .seed = c.seed};
  const auto result = build_fibonacci_distributed(g, params);

  EXPECT_TRUE(graph::same_connectivity(g, result.spanner.to_graph()));
  EXPECT_GT(result.network.rounds, 0u);
  if (result.message_cap_words != sim::kUnboundedMessages) {
    EXPECT_LE(result.network.max_message_words, result.message_cap_words);
  }

  // With no cessations the Theorem 7 bound must hold pairwise; with
  // cessations the Las Vegas repair restores it.
  const auto report = spanner::evaluate_sampled(g, result.spanner, 15, rng);
  EXPECT_TRUE(report.connectivity_preserved);
  const auto& lv = result.levels;
  for (std::size_t d = 1; d < report.by_distance.size(); ++d) {
    if (report.by_distance[d].pairs == 0) continue;
    EXPECT_LE(d + report.by_distance[d].max_add,
              fib_pair_bound(lv.ell, lv.order, d))
        << "d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FibDistributedProperty,
    ::testing::Values(FibDistCase{400, 2400, 2, 6, 0.0, 1},
                      FibDistCase{400, 2400, 2, 6, 2.0, 2},
                      FibDistCase{600, 3600, 3, 8, 0.0, 3},
                      FibDistCase{600, 3600, 2, 8, 2.5, 4},
                      FibDistCase{300, 1500, 2, 5, 4.0, 5}),
    [](const ::testing::TestParamInfo<FibDistCase>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_o";
      name += std::to_string(info.param.order);
      name += "_t";
      name += std::to_string(static_cast<int>(info.param.t * 10));
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(FibDistributed, UnboundedMatchesSequentialClosely) {
  util::Rng rng(31);
  const Graph g = graph::connected_gnm(800, 4800, rng);
  const FibonacciParams params{.order = 2, .eps = 1.0, .ell = 6,
                               .message_t = 0.0, .seed = 11};
  const auto dist = build_fibonacci_distributed(g, params);
  const auto seq = build_fibonacci(g, params);
  // Same levels (same seed drives the same sampling), same construction
  // logic; sizes match up to path tie-breaking.
  const double ratio = static_cast<double>(dist.spanner.size()) /
                       static_cast<double>(seq.stats.spanner_size);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
  EXPECT_EQ(dist.stats.ceased_nodes, 0u);
}

TEST(FibDistributed, CessationTriggersRepairAndPreservesConnectivity) {
  util::Rng rng(33);
  const Graph g = graph::connected_gnm(300, 2400, rng);
  FibonacciParams params{.order = 2, .eps = 1.0, .ell = 5,
                         .message_t = 0.0, .seed = 13};
  params.message_cap_override = 2;  // brutally small: force cessation
  const auto result = build_fibonacci_distributed(g, params);
  EXPECT_GT(result.stats.ceased_nodes, 0u);
  EXPECT_TRUE(graph::same_connectivity(g, result.spanner.to_graph()));
}

TEST(FibDistributed, AnalyzedCapAvoidsCessation) {
  // Cap at the analyzed threshold 4 (q_i / q_{i+1}) ln n: the protocol
  // should complete without any node ceasing, w.h.p.
  util::Rng rng(35);
  const Graph g = graph::connected_gnm(600, 3000, rng);
  FibonacciParams params{.order = 2, .eps = 1.0, .ell = 6,
                         .message_t = 0.0, .seed = 17};
  const auto lv = FibonacciLevels::plan(600, params);
  double worst_ratio = 1.0;
  for (unsigned i = 1; i <= lv.order; ++i) {
    const double qnext = i + 1 <= lv.order ? lv.q[i + 1] : 1.0 / 600.0;
    worst_ratio = std::max(worst_ratio, lv.q[i] / qnext);
  }
  params.message_cap_override = static_cast<std::uint64_t>(
      std::ceil(4.0 * worst_ratio * std::log(600.0)));
  const auto result = build_fibonacci_distributed(g, params);
  EXPECT_EQ(result.stats.ceased_nodes, 0u);
}

TEST(FibDistributed, RoundAccountingPositiveAndComposed) {
  util::Rng rng(37);
  const Graph g = graph::connected_gnm(400, 2000, rng);
  const FibonacciParams params{.order = 2, .eps = 1.0, .ell = 5,
                               .message_t = 0.0, .seed = 19};
  const auto r = build_fibonacci_distributed(g, params);
  EXPECT_EQ(r.network.rounds, r.stats.stage1_rounds + r.stats.stage2_rounds +
                                  r.stats.marking_rounds +
                                  r.stats.repair_rounds);
}

// One FNV-1a digest over everything the build reports: the spanner edge
// sequence (insertion order), the cessation / repair counters and the network
// cost. Pins the construction's output byte for byte, so any speedup of the
// Las Vegas repair or the broadcast must leave it unchanged.
std::uint64_t output_digest(const DistributedFibonacciResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t w) { h = (h ^ w) * 1099511628211ull; };
  for (const graph::Edge& e : r.spanner.edges()) {
    fold(e.u);
    fold(e.v);
  }
  fold(r.stats.ceased_nodes);
  fold(r.stats.failures_detected);
  fold(r.stats.repair_edges);
  fold(r.stats.repair_rounds);
  fold(r.network.rounds);
  fold(r.network.total_words);
  fold(r.network.trace_digest);
  return h;
}

Graph rmat(VertexId n, std::uint64_t draws, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::rmat_graph(n, draws, rng);
}

// Digests of the straightforward execution: one full flood per ceased node,
// one full ball per detected failure, per-node std::map broadcast state. The
// pruned repair and the flat broadcast state must reproduce them exactly.
// Every case ceases and detects failures; the two fault-plan cases perturb
// stage 1, so the B_{i+1} limiter is not 1-Lipschitz and the repair must fall
// back to flooding from every ceased node.
TEST(FibDistributedGolden, OutputPinnedAcrossRepairStrategies) {
  const sim::FaultPlan lossy(2, {.drop = 0.01, .duplicate = 0.01,
                                 .delay = 0.01});
  const sim::FaultPlan crashy(4, {.crash = 0.02, .restart = 0.5,
                                  .crash_window = 8, .link_down = 0.02,
                                  .link_down_window = 8});
  const FibonacciParams t3{.order = 2, .eps = 1.0, .message_t = 3.0};
  struct GoldenCase {
    const char* name;
    Graph g;
    FibonacciParams params;
    std::uint64_t digest;
    std::uint64_t ceased_nodes;
    std::uint64_t failures_detected;
  };
  util::Rng gnm_rng(2);
  GoldenCase cases[] = {
      {"rmat1024_t3", rmat(1024, 1u << 13, 2), t3, 1775697954094399967ull,
       393, 114},
      {"gnm300_cap2", graph::connected_gnm(300, 2400, gnm_rng),
       {.order = 2, .eps = 1.0, .ell = 5, .message_t = 0.0},
       2372346465884532931ull, 267, 26},
      {"ring_of_cliques_cap2", graph::ring_of_cliques(32, 8), t3,
       9595332236497622421ull, 81, 918},
      {"rmat512_drop_delay_dup", rmat(512, 1u << 12, 2), t3,
       17053917070446122368ull, 197, 431},
      {"rmat512_crash_link_down", rmat(512, 1u << 12, 4), t3,
       5162562884616306715ull, 235, 447},
  };
  cases[0].params.seed = 2;
  cases[1].params.seed = 2;
  cases[1].params.message_cap_override = 2;
  cases[2].params.seed = 7;
  cases[2].params.message_cap_override = 2;
  cases[3].params.seed = 2;
  cases[3].params.faults = &lossy;
  cases[4].params.seed = 4;
  cases[4].params.faults = &crashy;
  for (const GoldenCase& c : cases) {
    const auto r = build_fibonacci_distributed(c.g, c.params);
    EXPECT_EQ(output_digest(r), c.digest) << c.name;
    EXPECT_EQ(r.stats.ceased_nodes, c.ceased_nodes) << c.name;
    EXPECT_EQ(r.stats.failures_detected, c.failures_detected) << c.name;
  }
}

TEST(FibonacciDistributed, ExactSpannerCertificate) {
  // Same linearization of the Theorem 7 bound as the sequential suite, now
  // over the distributed construction (CONGEST-capped messages).
  util::Rng rng(29);
  const Graph g = graph::connected_gnm(250, 1000, rng);
  const FibonacciParams params{
      .order = 2, .eps = 1.0, .ell = 6, .message_t = 3.0, .seed = 11};
  const auto result = build_fibonacci_distributed(g, params);
  const auto& lv = result.levels;
  double alpha = 1.0;
  for (std::uint64_t d = 1; d <= g.num_vertices(); ++d) {
    const std::uint64_t bound = fib_pair_bound(lv.ell, lv.order, d);
    ASSERT_NE(bound, util::kSaturated) << "d=" << d;
    alpha = std::max(alpha,
                     static_cast<double>(bound) / static_cast<double>(d));
  }
  check::SpannerCertifyOptions opts;
  opts.alpha = alpha;
  opts.sample_sources = 0;
  const auto cert = check::certify_spanner(g, result.spanner, opts);
  EXPECT_TRUE(cert.ok) << cert.violation;
}

}  // namespace
}  // namespace ultra::core
