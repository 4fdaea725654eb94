// Differential and golden tests for the query-serving layer:
//
//   - The oracle index answers exactly as a reference built from the k = 2
//     definitions over all-pairs BFS — value AND landmark attribution — on
//     every pair, and its bunch rows are the reference bunches.
//   - Differential stretch fuzz across >= 4 graph families x >= 8 seeds:
//     d(u,v) <= oracle.query(u,v) <= 3 d(u,v) against exact BFS, and
//     disconnected pairs answer graph::kUnreachable.
//   - The index image of the pinned workload reproduces a golden digest
//     (the serve-layer analogue of digest_equivalence_test's trace pins), as
//     do the images of inputs with long, hub, whole-component and empty
//     bunch rows.
//   - The YCSB-style workload generator: stateless op(i), mix proportions,
//     zipfian skew, pinned zipfian ops, the zipfian tables against the
//     per-draw pow form they invert, argument validation.
//   - The engine's checksum matches a hand-rolled op-order reference at
//     three batch sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/compact_routing.h"
#include "apps/distance_oracle.h"
#include "core/skeleton.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "serve/flat_index.h"
#include "serve/query_engine.h"
#include "serve/workload.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace ultra::serve {
namespace {

using graph::Graph;
using graph::VertexId;

// The graph families the differential suite sweeps. Family 4 deliberately
// produces multiple components so the kUnreachable contract is exercised, not
// just reachable stretch. Family 5 is a forest of small trees, most of which
// draw no landmark: their vertices have no pivot, and each of their bunch
// rows is the whole tree, which the query must search whatever its legs say.
Graph make_family(int family, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (family) {
    case 0:
      return graph::connected_gnm(160, 640, rng);
    case 1:
      return graph::random_regular(150, 4, rng);
    case 2:
      return graph::random_tree(170, rng);
    case 3:
      return graph::preferential_attachment(140, 3, rng);
    case 5: {
      std::vector<graph::Edge> edges;
      VertexId base = 0;
      for (int t = 0; t < 32; ++t) {
        const Graph tree = graph::random_tree(5, rng);
        for (const auto& e : tree.edges()) {
          edges.push_back({e.u + base, e.v + base});
        }
        base += tree.num_vertices();
      }
      return Graph::from_edges(base, edges);
    }
    default: {
      // Two gnm islands plus isolated vertices: guaranteed disconnected.
      const Graph a = graph::connected_gnm(60, 180, rng);
      const Graph b = graph::connected_gnm(50, 140, rng);
      std::vector<graph::Edge> edges;
      for (const auto& e : a.edges()) edges.push_back(e);
      for (const auto& e : b.edges()) {
        edges.push_back({e.u + a.num_vertices(), e.v + a.num_vertices()});
      }
      return Graph::from_edges(a.num_vertices() + b.num_vertices() + 5, edges);
    }
  }
}

constexpr int kNumFamilies = 6;

// The k = 2 oracle rebuilt from its definitions alone, over all-pairs BFS,
// for the landmark set A the index sampled: p(x) is the min-id nearest
// landmark, B(x) = { w != x : d(x,w) < d(x,A) } (the whole component when it
// holds no landmark), and a query is an exact bunch hit in either direction,
// else the shorter pivot detour with ties going to the smaller landmark id.
class ReferenceOracle {
 public:
  ReferenceOracle(const Graph& g, std::span<const VertexId> landmarks)
      : pivot_(g.num_vertices(), graph::kInvalidVertex),
        pivot_dist_(g.num_vertices(), graph::kUnreachable) {
    for (VertexId x = 0; x < g.num_vertices(); ++x) {
      dist_.push_back(graph::bfs_distances(g, x));
    }
    for (VertexId x = 0; x < g.num_vertices(); ++x) {
      for (const VertexId a : landmarks) {
        const std::uint32_t d = dist_[x][a];
        if (d == graph::kUnreachable) continue;
        if (d < pivot_dist_[x] || (d == pivot_dist_[x] && a < pivot_[x])) {
          pivot_[x] = a;
          pivot_dist_[x] = d;
        }
      }
    }
  }

  [[nodiscard]] bool in_bunch(VertexId x, VertexId w) const {
    return w != x && dist_[x][w] < pivot_dist_[x];
  }
  [[nodiscard]] std::uint32_t dist(VertexId x, VertexId w) const {
    return dist_[x][w];
  }

  [[nodiscard]] apps::OracleAnswer query(VertexId u, VertexId v) const {
    if (u == v) return {0, apps::kViaBunch};
    if (in_bunch(u, v) || in_bunch(v, u)) return {dist_[u][v], apps::kViaBunch};
    apps::OracleAnswer best;
    for (const auto& [x, y] : {std::pair{u, v}, std::pair{v, u}}) {
      const VertexId a = pivot_[x];
      if (a == graph::kInvalidVertex || dist_[a][y] == graph::kUnreachable) {
        continue;
      }
      const std::uint32_t d = pivot_dist_[x] + dist_[a][y];
      if (d < best.dist || (d == best.dist && a < best.via)) best = {d, a};
    }
    return best;
  }

 private:
  std::vector<std::vector<std::uint32_t>> dist_;
  std::vector<VertexId> pivot_;
  std::vector<std::uint32_t> pivot_dist_;
};

TEST(FlatIndex, MatchesReferenceOnEveryPairIncludingAttribution) {
  for (std::uint64_t seed : {3u, 11u}) {
    for (int family = 0; family < kNumFamilies; ++family) {
      const Graph g = make_family(family, seed);
      const FlatOracleIndex index(g, seed);
      const ReferenceOracle ref(g, index.landmarks());
      ASSERT_EQ(index.num_vertices(), g.num_vertices());
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const apps::OracleAnswer want = ref.query(u, v);
          const apps::OracleAnswer got = index.query_traced(u, v);
          ASSERT_EQ(want, got)
              << "family " << family << " seed " << seed << " pair " << u
              << "->" << v << ": reference (" << want.dist << ", via "
              << want.via << ") vs index (" << got.dist << ", via " << got.via
              << ")";
        }
      }
    }
  }
}

TEST(FlatIndex, DifferentialStretchFuzz) {
  // >= 4 families x >= 8 seeds, exact BFS as ground truth. The oracle's
  // stretch-3 guarantee must hold pairwise, and disconnected pairs must
  // answer kUnreachable on both the oracle and the flattened index.
  for (int family = 0; family < kNumFamilies; ++family) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Graph g = make_family(family, seed);
      const apps::DistanceOracle oracle(g, seed);
      const FlatOracleIndex index(oracle);
      std::uint64_t unreachable_pairs = 0;
      for (VertexId u = 0; u < g.num_vertices(); u += 7) {
        const auto dist = graph::bfs_distances(g, u);
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const std::uint32_t est = index.query(u, v);
          ASSERT_EQ(est, oracle.query(u, v));
          if (dist[v] == graph::kUnreachable) {
            ASSERT_EQ(est, graph::kUnreachable)
                << "family " << family << " seed " << seed << " pair " << u
                << "->" << v << " is disconnected but answered " << est;
            ++unreachable_pairs;
          } else {
            ASSERT_GE(est, dist[v]) << u << "->" << v;
            ASSERT_LE(est, 3 * dist[v])
                << "family " << family << " seed " << seed << " pair " << u
                << "->" << v << ": estimate " << est << " breaks stretch 3 "
                << "(exact " << dist[v] << ")";
          }
        }
      }
      if (family == 4) {
        EXPECT_GT(unreachable_pairs, 0u)
            << "the disconnected family must exercise kUnreachable";
      }
    }
  }
}

TEST(FlatIndex, ScanRowsMatchReferenceBunches) {
  for (std::uint64_t seed : {3u, 11u}) {
    for (int family = 0; family < kNumFamilies; ++family) {
      const Graph g = make_family(family, seed);
      const FlatOracleIndex index(g, seed);
      const ReferenceOracle ref(g, index.landmarks());
      std::uint64_t entries = 0;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        std::vector<VertexId> want_keys;
        std::vector<std::uint32_t> want_dists;
        for (VertexId w = 0; w < g.num_vertices(); ++w) {
          if (!ref.in_bunch(v, w)) continue;
          want_keys.push_back(w);
          want_dists.push_back(ref.dist(v, w));
        }
        const auto keys = index.bunch_keys(v);
        const auto dists = index.bunch_dists(v);
        ASSERT_EQ(std::vector<VertexId>(keys.begin(), keys.end()), want_keys)
            << "family " << family << " seed " << seed << " row " << v;
        ASSERT_EQ(std::vector<std::uint32_t>(dists.begin(), dists.end()),
                  want_dists)
            << "family " << family << " seed " << seed << " row " << v;
        entries += want_keys.size();
      }
      EXPECT_EQ(index.num_bunch_entries(), entries);
      EXPECT_DOUBLE_EQ(index.average_bunch_size(),
                       static_cast<double>(entries) / g.num_vertices());
    }
  }
}

// Pinned fingerprint of the index image for one fixed (graph, seed) — the
// serve-layer analogue of digest_equivalence_test's golden trace pins. If an
// intentional change to landmark sampling, bunch construction or the index
// layout moves this value, re-pin it in the same commit and say why in the
// commit message.
struct Golden {
  static constexpr std::uint64_t kDigest = 3543939513983494149ull;
  static constexpr std::uint64_t kBunchEntries = 4875ull;
  static constexpr std::size_t kLandmarks = 16u;
};

TEST(FlatIndex, GoldenDigestPinned) {
  util::Rng rng(42);
  const Graph g = graph::connected_gnm(500, 2500, rng);
  const apps::DistanceOracle oracle(g, 42);
  const FlatOracleIndex index(oracle);
  EXPECT_EQ(index.digest(), Golden::kDigest);
  EXPECT_EQ(index.num_bunch_entries(), Golden::kBunchEntries);
  EXPECT_EQ(index.num_landmarks(), Golden::kLandmarks);
  // Rebuild from scratch: bit-identical image.
  const apps::DistanceOracle oracle2(g, 42);
  const FlatOracleIndex index2(oracle2);
  EXPECT_EQ(index2.digest(), index.digest());
}

// The image of DistanceOracle(g, 7) on inputs whose bunch rows differ in
// shape from the golden's short rows: skeletons, whose rows run to hundreds
// of entries; an R-MAT graph with isolated vertices and hub rows; a forest
// whose landmark-free trees make every row a whole component; a path, where
// 19 landmarks leave rows of up to 38; and edgeless graphs of 0, 1 and 2
// vertices. Captured from the build that sorted each row on its own.
TEST(FlatIndex, ImageDigestsPinned) {
  struct Pin {
    const char* name;
    Graph g;
    std::uint64_t digest;
    std::uint64_t bunch_entries;
    std::size_t landmarks;
  };
  const auto skeleton = [](std::uint64_t seed) {
    util::Rng rng(seed);
    const Graph host = graph::connected_gnm(2048, 16384, rng);
    return core::build_skeleton(host, {.D = 4, .eps = 1.0, .seed = seed})
        .spanner.to_graph();
  };
  const auto rmat = [] {
    util::Rng rng(1);
    return graph::rmat_graph(2048, 16384, rng);
  };
  const Pin pins[] = {
      {"skeleton of connected_gnm(2048, 16384), seed 1", skeleton(1),
       328062272251819850ull, 58647, 44},
      {"skeleton of connected_gnm(2048, 16384), seed 2", skeleton(2),
       2755554122667768876ull, 70788, 44},
      {"rmat_graph(2048, 16384), seed 1", rmat(), 10340390212322392849ull,
       12933, 44},
      {"make_family(5, 3)", make_family(5, 3), 5694719923741687669ull, 491,
       11},
      {"path_graph(300)", graph::path_graph(300), 14714983049065969073ull,
       3381, 19},
      {"edgeless, n = 0", Graph::from_edges(0, {}), 15658191375538532279ull,
       0, 0},
      {"edgeless, n = 1", Graph::from_edges(1, {}), 5701465539935650431ull, 0,
       1},
      {"edgeless, n = 2", Graph::from_edges(2, {}), 1305854817856691329ull, 0,
       2},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.name);
    const apps::DistanceOracle oracle(p.g, 7);
    EXPECT_EQ(oracle.digest(), p.digest);
    EXPECT_EQ(oracle.num_bunch_entries(), p.bunch_entries);
    EXPECT_EQ(oracle.num_landmarks(), p.landmarks);
  }
}

TEST(FlatIndex, OutOfRangeQueryThrows) {
  const Graph g = make_family(0, 5);
  const FlatOracleIndex index(g, 5);
  const VertexId n = g.num_vertices();
  EXPECT_THROW((void)index.query(n, 0), std::out_of_range);
  EXPECT_THROW((void)index.query_traced(0, n), std::out_of_range);
  EXPECT_NO_THROW((void)index.query(n - 1, 0));
}

TEST(Workload, OpIsPureInSeedAndIndex) {
  WorkloadSpec spec;
  spec.seed = 77;
  spec.point_pct = 70;
  spec.route_pct = 10;
  spec.scan_pct = 20;
  spec.dist = KeyDist::kZipfian;
  spec.theta = 0.9;
  const WorkloadGen a(spec, 1000);
  const WorkloadGen b(spec, 1000);
  // Query b in a scrambled order: op(i) must not depend on call history.
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t j = (i * 2654435761u) % 5000;
    const auto x = a.op(j);
    const auto y = b.op(j);
    EXPECT_EQ(static_cast<int>(x.type), static_cast<int>(y.type));
    EXPECT_EQ(x.u, y.u);
    EXPECT_EQ(x.v, y.v);
    EXPECT_LT(x.u, 1000u);
    EXPECT_LT(x.v, 1000u);
  }
  // A different seed decorrelates the stream.
  spec.seed = 78;
  const WorkloadGen c(spec, 1000);
  std::uint64_t same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    same += (a.op(i).u == c.op(i).u);
  }
  EXPECT_LT(same, 100u);
}

TEST(Workload, MixProportionsRespected) {
  WorkloadSpec spec;
  spec.seed = 5;
  spec.point_pct = 60;
  spec.route_pct = 30;
  spec.scan_pct = 10;
  const WorkloadGen wl(spec, 500);
  std::uint64_t point = 0, route = 0, scan = 0;
  const std::uint64_t kOps = 100000;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    switch (wl.op(i).type) {
      case OpType::kPoint: ++point; break;
      case OpType::kRoute: ++route; break;
      case OpType::kScan: ++scan; break;
    }
  }
  EXPECT_NEAR(static_cast<double>(point) / kOps, 0.60, 0.01);
  EXPECT_NEAR(static_cast<double>(route) / kOps, 0.30, 0.01);
  EXPECT_NEAR(static_cast<double>(scan) / kOps, 0.10, 0.01);
}

TEST(Workload, ZipfianSkewsUniformDoesNot) {
  WorkloadSpec spec;
  spec.seed = 9;
  spec.dist = KeyDist::kZipfian;
  spec.theta = 0.99;
  const WorkloadGen zipf(spec, 10000);
  spec.dist = KeyDist::kUniform;
  const WorkloadGen uni(spec, 10000);

  const std::uint64_t kOps = 50000;
  std::map<VertexId, std::uint64_t> zipf_freq, uni_freq;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ++zipf_freq[zipf.op(i).u];
    ++uni_freq[uni.op(i).u];
  }
  auto top_share = [&](const std::map<VertexId, std::uint64_t>& freq) {
    std::vector<std::uint64_t> counts;
    counts.reserve(freq.size());
    for (const auto& [k, c] : freq) counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(10, counts.size()); ++i) {
      top += counts[i];
    }
    return static_cast<double>(top) / kOps;
  };
  // Zipf(0.99) over 10k keys: the 10 hottest keys carry a large share;
  // uniform spreads so thin the top 10 are noise.
  EXPECT_GT(top_share(zipf_freq), 0.15);
  EXPECT_LT(top_share(uni_freq), 0.01);
}

// FNV-1a over (type, u, v) of op(i) for i < 2^16, one value per (n, theta).
// Every other serve test compares the engine with itself or with a reference
// that draws from the same WorkloadGen, so a sampler that moved every key
// would pass them all; these pins fail instead. A change that moves a
// zipfian key moves every serve checksum and perfbench identity block built
// on it: re-pin only on purpose, and say why in the commit.
TEST(Workload, ZipfianOpsPinned) {
  constexpr VertexId kNs[] = {3, 4, 256, 1000, 2048, 4097};
  constexpr double kThetas[] = {0.1, 0.5, 0.9, 0.99};
  constexpr std::uint64_t kPins[6][4] = {
      {17802317328268508855ull, 5139668694168630583ull,
       6433050694464330073ull, 6543014074069121493ull},
      {15394503692971930929ull, 4474639144263591759ull,
       13244483179098276690ull, 1260204741636281941ull},
      {10937782833914044647ull, 16530159386955095562ull,
       17848635812368356691ull, 2060993671432260029ull},
      {13238944583119439914ull, 16474302210179410800ull,
       6122583228065781636ull, 12374803430507459317ull},
      {18160209427539798092ull, 15671165773349088114ull,
       6918007533592299844ull, 9485358826860802208ull},
      {14487998474120989550ull, 7821987182644944869ull,
       11932489531010612283ull, 11614862010069296535ull},
  };
  for (std::size_t a = 0; a < std::size(kNs); ++a) {
    for (std::size_t b = 0; b < std::size(kThetas); ++b) {
      WorkloadSpec spec;
      spec.seed = 2024;
      spec.point_pct = 70;
      spec.route_pct = 10;
      spec.scan_pct = 20;
      spec.dist = KeyDist::kZipfian;
      spec.theta = kThetas[b];
      const WorkloadGen wl(spec, kNs[a]);
      std::uint64_t h = util::kFnvOffset;
      for (std::uint64_t i = 0; i < (1u << 16); ++i) {
        const WorkloadGen::Op op = wl.op(i);
        h = util::fnv_fold(h, static_cast<std::uint64_t>(op.type));
        h = util::fnv_fold(h, op.u);
        h = util::fnv_fold(h, op.v);
      }
      EXPECT_EQ(h, kPins[a][b])
          << "n = " << kNs[a] << ", theta = " << kThetas[b];
    }
  }
}

// The zipfian key as Gray et al.'s quick method computes it for each draw,
// with one pow per key: the form WorkloadGen's tables invert, copied here
// constant for constant and operation for operation as their reference.
class PowFormKeys {
 public:
  PowFormKeys(const WorkloadSpec& spec, VertexId n) : seed_(spec.seed), n_(n) {
    for (VertexId i = 0; i < n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i) + 1.0, spec.theta);
    }
    zeta2theta_ = 1.0 + std::pow(0.5, spec.theta);
    alpha_ = 1.0 / (1.0 - spec.theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - spec.theta)) /
           (1.0 - zeta2theta_ / zetan_);
  }

  // The rank of a 53-bit draw.
  [[nodiscard]] std::uint64_t rank(std::uint64_t draw) const {
    const double u = static_cast<double>(draw) * 0x1.0p-53;
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2theta_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min<std::uint64_t>(r, n_ - 1);
  }

  [[nodiscard]] VertexId key(std::uint64_t bits) const {
    util::SplitMix64 scramble(util::fnv_fold(
        util::fnv_fold(util::kFnvOffset, seed_), rank(bits >> 11)));
    return static_cast<VertexId>(
        (static_cast<unsigned __int128>(scramble.next()) * n_) >> 64);
  }

 private:
  std::uint64_t seed_;
  VertexId n_;
  double zetan_ = 0.0;
  double zeta2theta_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// The tables must give every draw the key the per-draw pow form gives it.
// Each rank boundary is found by bisection with the reference, and every
// draw within 64 of it is checked, so a cut, a guide entry or a scan that
// is off by one shows; 2^15 random draws per case cover the bulk. Low
// skews matter most: there one ulp of the base moves pow's result by about
// one ulp, so only this test, not the formula's slope, says the two agree.
TEST(Workload, ZipfianTableMatchesPowForm) {
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  constexpr std::uint64_t kNear = 64;
  util::Rng rng(25);
  for (const double theta : {0.05, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    for (const VertexId n : {3u, 4u, 5u, 255u, 256u, 257u, 2048u, 4097u}) {
      WorkloadSpec spec;
      spec.seed = 31;
      spec.dist = KeyDist::kZipfian;
      spec.theta = theta;
      const WorkloadGen wl(spec, n);
      const PowFormKeys ref(spec, n);
      std::uint64_t checked = 0;
      std::uint64_t mismatches = 0;
      std::uint64_t first_bad = kDraws;
      auto check = [&](std::uint64_t draw) {
        const std::uint64_t bits = draw << 11 | (rng.next() & 0x7ff);
        ++checked;
        if (wl.key(bits) != ref.key(bits) && mismatches++ == 0) {
          first_bad = draw;
        }
      };
      for (std::uint64_t r = 1; r < n; ++r) {
        std::uint64_t lo = 0;
        std::uint64_t hi = kDraws;
        while (lo < hi) {
          const std::uint64_t mid = lo + (hi - lo) / 2;
          if (ref.rank(mid) >= r) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        const std::uint64_t end = std::min(lo + kNear + 1, kDraws);
        for (std::uint64_t d = lo > kNear ? lo - kNear : 0; d < end; ++d) {
          check(d);
        }
      }
      for (int i = 0; i < (1 << 15); ++i) check(rng.next() >> 11);
      EXPECT_EQ(mismatches, 0u)
          << "theta " << theta << ", n " << n << ": " << mismatches << " of "
          << checked << " draws differ, first " << first_bad
          << " (reference rank " << ref.rank(first_bad & (kDraws - 1)) << ")";
    }
  }
}

// Below three keys a zipfian generator draws uniformly (the quick method's
// eta is 0/0 there) through the same multiply-shift as kUniform.
TEST(Workload, ZipfianOverOneAndTwoKeys) {
  util::Rng rng(7);
  for (const double theta : {0.1, 0.5, 0.8, 0.9, 0.99}) {
    WorkloadSpec spec;
    spec.seed = 3;
    spec.dist = KeyDist::kZipfian;
    spec.theta = theta;
    const WorkloadGen one(spec, 1);
    const WorkloadGen two(spec, 2);
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t bits = rng.next();
      EXPECT_EQ(one.key(bits), 0u);
      EXPECT_EQ(two.key(bits), bits >> 63) << "theta " << theta;
      const WorkloadGen::Op op = two.op(static_cast<std::uint64_t>(i));
      EXPECT_LT(op.u, 2u);
      EXPECT_LT(op.v, 2u);
    }
  }
}

TEST(Workload, RejectsBadSpecs) {
  WorkloadSpec spec;
  spec.point_pct = 50;
  spec.route_pct = 10;
  spec.scan_pct = 10;  // sums to 70
  EXPECT_THROW(WorkloadGen(spec, 100), std::invalid_argument);
  spec.scan_pct = 40;
  spec.dist = KeyDist::kZipfian;
  spec.theta = 1.5;
  EXPECT_THROW(WorkloadGen(spec, 100), std::invalid_argument);
  spec.theta = 0.9;
  EXPECT_THROW(WorkloadGen(spec, 0), std::invalid_argument);
}

// Hand-rolled sequential reference implementing the documented checksum
// contract (per-op result words folded in op order per batch, batch digests
// chained in batch order) — pins the contract itself, not just engine
// self-consistency across configurations.
std::uint64_t reference_checksum(const FlatOracleIndex& index,
                                 const apps::CompactRouting* routing,
                                 const WorkloadGen& wl, std::uint64_t ops,
                                 std::uint32_t batch_ops) {
  constexpr std::uint64_t kOffset = 14695981039346656037ull;
  auto fold = [](std::uint64_t h, std::uint64_t w) {
    return (h ^ w) * 1099511628211ull;
  };
  auto op_word = [&](const WorkloadGen::Op& op) -> std::uint64_t {
    switch (op.type) {
      case OpType::kPoint: {
        const apps::OracleAnswer a = index.query_traced(op.u, op.v);
        return (static_cast<std::uint64_t>(a.via) << 32) | a.dist;
      }
      case OpType::kRoute: {
        const auto route = routing->route(op.u, op.v);
        std::uint64_t h = kOffset;
        for (const VertexId hop : route.path) h = fold(h, hop);
        return fold(h, route.delivered ? route.path.size() : 0);
      }
      case OpType::kScan: {
        const auto keys = index.bunch_keys(op.u);
        const auto dists = index.bunch_dists(op.u);
        std::uint64_t h = kOffset;
        for (std::size_t k = 0; k < keys.size(); ++k) {
          h = fold(h, (static_cast<std::uint64_t>(keys[k]) << 32) | dists[k]);
        }
        return fold(h, keys.size());
      }
    }
    return 0;
  };
  const std::uint64_t batches = (ops + batch_ops - 1) / batch_ops;
  std::uint64_t h = kOffset;
  h = fold(h, ops);
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint64_t first = b * batch_ops;
    const std::uint64_t count = std::min<std::uint64_t>(batch_ops, ops - first);
    std::uint64_t bh = kOffset;
    for (std::uint64_t j = 0; j < count; ++j) {
      bh = fold(bh, first + j);
      bh = fold(bh, op_word(wl.op(first + j)));
    }
    h = fold(h, 0x6d65726765ull);
    h = fold(h, bh);
  }
  return h;
}

TEST(QueryEngine, ChecksumMatchesSequentialReference) {
  const Graph g = make_family(0, 31);
  const apps::DistanceOracle oracle(g, 31);
  const FlatOracleIndex index(oracle);
  const apps::CompactRouting routing(g, 31);

  WorkloadSpec spec;
  spec.seed = 31;
  spec.point_pct = 70;
  spec.route_pct = 15;
  spec.scan_pct = 15;
  spec.dist = KeyDist::kZipfian;
  spec.theta = 0.8;
  const WorkloadGen wl(spec, g.num_vertices());
  const std::uint64_t kOps = 7000;

  for (std::uint32_t batch : {64u, 1000u, 8192u}) {
    const std::uint64_t want =
        reference_checksum(index, &routing, wl, kOps, batch);
    EngineOptions opt;
    opt.threads = 1;
    opt.batch_ops = batch;
    QueryEngine engine(index, &routing, opt);
    const ServeResult res = engine.run(wl, kOps);
    EXPECT_EQ(res.checksum, want) << "batch " << batch;
    EXPECT_EQ(res.ops, kOps);
    EXPECT_EQ(res.point_ops + res.route_ops + res.scan_ops, kOps);
  }
}

TEST(QueryEngine, RejectsRouteMixWithoutRoutingTables) {
  const Graph g = make_family(2, 13);
  const apps::DistanceOracle oracle(g, 13);
  const FlatOracleIndex index(oracle);
  WorkloadSpec spec;
  spec.point_pct = 80;
  spec.route_pct = 10;
  spec.scan_pct = 10;
  const WorkloadGen wl(spec, g.num_vertices());
  QueryEngine engine(index, nullptr);
  EXPECT_THROW(engine.run(wl, 100), std::invalid_argument);
  // And a key-universe mismatch is caught too.
  const WorkloadGen small(WorkloadSpec{}, 10);
  EXPECT_THROW(engine.run(small, 100), std::invalid_argument);
}

TEST(QueryEngine, RejectsRoutingOverADifferentVertexCount) {
  util::Rng rng(61);
  const Graph big = graph::connected_gnm(200, 800, rng);
  const Graph small = graph::connected_gnm(100, 400, rng);
  const FlatOracleIndex index(big, 61);
  const apps::CompactRouting routing(small, 61);
  EXPECT_THROW(QueryEngine engine(index, &routing), std::invalid_argument);
}

TEST(QueryEngine, CountersAndUnreachableAreExact) {
  // On the deliberately disconnected family, cross-island point queries
  // must show up in the unreachable counter.
  const Graph g = make_family(4, 3);
  const apps::DistanceOracle oracle(g, 3);
  const FlatOracleIndex index(oracle);
  WorkloadSpec spec;
  spec.seed = 3;
  spec.point_pct = 100;
  spec.route_pct = 0;
  spec.scan_pct = 0;
  const WorkloadGen wl(spec, g.num_vertices());
  QueryEngine engine(index, nullptr);
  const std::uint64_t kOps = 4000;
  const ServeResult res = engine.run(wl, kOps);
  std::uint64_t want_unreachable = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const auto op = wl.op(i);
    want_unreachable += index.query(op.u, op.v) == graph::kUnreachable;
  }
  EXPECT_EQ(res.point_ops, kOps);
  EXPECT_EQ(res.unreachable, want_unreachable);
  EXPECT_GT(res.unreachable, 0u);
}

// Deterministic fake clock: latency sampling must not disturb the checksum,
// and the sample count must follow sample_every exactly.
class FakeTicks : public TickSource {
 public:
  std::uint64_t now_ns() override {
    return t_.fetch_add(7, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> t_{0};
};

TEST(QueryEngine, LatencySamplingIsChecksumInvisible) {
  const Graph g = make_family(1, 17);
  const apps::DistanceOracle oracle(g, 17);
  const FlatOracleIndex index(oracle);
  WorkloadSpec spec;
  spec.seed = 17;
  const WorkloadGen wl(spec, g.num_vertices());
  const std::uint64_t kOps = 3000;

  EngineOptions opt;
  opt.sample_every = 10;
  QueryEngine engine(index, nullptr, opt);
  const ServeResult plain = engine.run(wl, kOps);
  EXPECT_TRUE(plain.latencies_ns.empty());

  FakeTicks ticks;
  const ServeResult sampled = engine.run(wl, kOps, &ticks);
  EXPECT_EQ(sampled.checksum, plain.checksum);
  EXPECT_EQ(sampled.latencies_ns.size(), (kOps + 9) / 10);
}

}  // namespace
}  // namespace ultra::serve
