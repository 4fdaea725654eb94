#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/bfs_forest.h"
#include "check/certify.h"
#include "check/check.h"
#include "core/skeleton.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace ultra::check {
namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;

// ---- ULTRA_CHECK macro family ----------------------------------------------

TEST(Check, PassingChecksAreSilent) {
  EXPECT_NO_THROW(ULTRA_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(ULTRA_CHECK_ARG(true));
  EXPECT_NO_THROW(ULTRA_CHECK_BOUNDS(0 < 1));
  EXPECT_NO_THROW(ULTRA_CHECK_RUNTIME(true));
  EXPECT_NO_THROW(ULTRA_CHECK(true) << "context is not evaluated on success");
}

TEST(Check, FailureMessageCarriesExpressionFileAndContext) {
  try {
    const int x = 41;
    ULTRA_CHECK(x == 42) << "x=" << x;
    FAIL() << "ULTRA_CHECK(false) must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("x == 42"), std::string::npos) << what;
    EXPECT_NE(what.find("check_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("x=41"), std::string::npos) << what;
  }
}

TEST(Check, KindsMapToDocumentedExceptions) {
  EXPECT_THROW(ULTRA_CHECK(false), CheckError);
  EXPECT_THROW(ULTRA_CHECK(false), std::logic_error);  // CheckError's base
  EXPECT_THROW(ULTRA_CHECK_ARG(false), std::invalid_argument);
  EXPECT_THROW(ULTRA_CHECK_BOUNDS(false), std::out_of_range);
  EXPECT_THROW(ULTRA_CHECK_RUNTIME(false), std::runtime_error);
}

TEST(Check, ComparisonMacrosPrintBothValues) {
  const std::uint64_t a = 7, b = 9;
  EXPECT_NO_THROW(ULTRA_CHECK_LT(a, b));
  EXPECT_NO_THROW(ULTRA_CHECK_EQ(a, a));
  try {
    ULTRA_CHECK_EQ(a, b) << "extra";
    FAIL() << "ULTRA_CHECK_EQ(7, 9) must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("a == b"), std::string::npos) << what;
    EXPECT_NE(what.find("(7 vs 9)"), std::string::npos) << what;
    EXPECT_NE(what.find("extra"), std::string::npos) << what;
  }
  EXPECT_THROW(ULTRA_CHECK_NE(a, a), CheckError);
  EXPECT_THROW(ULTRA_CHECK_GT(a, b), CheckError);
  EXPECT_THROW(ULTRA_CHECK_GE(a, b), CheckError);
  EXPECT_THROW(ULTRA_CHECK_LE(b, a), CheckError);
  EXPECT_THROW(ULTRA_CHECK_LT(b, a), CheckError);
}

TEST(Check, ComparisonOperandsEvaluateExactlyOnce) {
  int calls = 0;
  const auto next = [&calls] { return ++calls; };
  EXPECT_THROW(ULTRA_CHECK_EQ(next(), next() + 100), CheckError);
  EXPECT_EQ(calls, 2);
  calls = 0;
  ULTRA_CHECK_LT(next(), next() + 100);
  EXPECT_EQ(calls, 2);
}

TEST(Check, MacroNestsInUnbracedIfElse) {
  // The macros must parse as a single statement (no dangling-else capture).
  int branch = 0;
  if (1 == 1)
    ULTRA_CHECK(true) << "then-branch";
  else
    branch = 1;
  EXPECT_EQ(branch, 0);
  if (1 == 2)
    ULTRA_CHECK_EQ(1, 2) << "never evaluated";
  else
    branch = 2;
  EXPECT_EQ(branch, 2);
}

TEST(Check, DcheckTracksBuildMode) {
#ifdef NDEBUG
  int evaluations = 0;
  const auto probe = [&evaluations] {
    ++evaluations;
    return false;
  };
  EXPECT_NO_THROW(ULTRA_DCHECK(probe()));
  EXPECT_EQ(evaluations, 0) << "NDEBUG DCHECK must not evaluate its condition";
#else
  EXPECT_THROW(ULTRA_DCHECK(false), CheckError);
  EXPECT_NO_THROW(ULTRA_DCHECK(true));
#endif
}

// ---- Certificates: spanner -------------------------------------------------

TEST(CertifySpanner, AcceptsIdentitySubgraph) {
  util::Rng rng(17);
  const Graph g = graph::connected_gnm(80, 200, rng);
  spanner::Spanner h(g);
  for (const Edge& e : g.edges()) h.add_edge(e);
  const Certificate cert = certify_spanner(g, h, 1.0);
  EXPECT_TRUE(cert.ok) << cert.violation;
  EXPECT_GT(cert.checks, 0u);
  EXPECT_TRUE(static_cast<bool>(cert));
  EXPECT_NO_THROW(require(cert));
}

TEST(CertifySpanner, RejectsStretchViolation) {
  // Cycle minus one edge is a path: the endpoints of the removed edge are at
  // distance 1 in G but n-1 in H.
  const Graph g = graph::cycle_graph(20);
  spanner::Spanner h(g);
  for (const Edge& e : g.edges()) {
    if (e.u == 0 && e.v == 19) continue;
    h.add_edge(e);
  }
  SpannerCertifyOptions exact;
  exact.alpha = 2.0;
  exact.sample_sources = 0;  // certify every source
  const Certificate bad = certify_spanner(g, h, exact);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.violation.empty());
  EXPECT_THROW(require(bad), CheckError);

  // The same subgraph is a legitimate 19-spanner.
  const Certificate good = certify_spanner(g, h, 19.0);
  EXPECT_TRUE(good.ok) << good.violation;
}

TEST(CertifySpanner, RejectsLostConnectivity) {
  const Graph g = graph::path_graph(6);
  spanner::Spanner h(g);  // empty: every nontrivial pair is disconnected
  SpannerCertifyOptions opts;
  opts.alpha = 100.0;
  opts.sample_sources = 0;
  const Certificate cert = certify_spanner(g, h, opts);
  EXPECT_FALSE(cert.ok);
  EXPECT_FALSE(cert.violation.empty());
}

TEST(CertifySpanner, AdditiveSlackIsHonoured) {
  const Graph g = graph::cycle_graph(8);
  spanner::Spanner h(g);
  for (const Edge& e : g.edges()) {
    if (e.u == 0 && e.v == 7) continue;
    h.add_edge(e);
  }
  // Path vs cycle: dist_H <= dist_G + 6 everywhere (worst pair 1 -> 7).
  SpannerCertifyOptions opts;
  opts.alpha = 1.0;
  opts.beta = 6.0;
  opts.sample_sources = 0;
  const Certificate cert = certify_spanner(g, h, opts);
  EXPECT_TRUE(cert.ok) << cert.violation;

  opts.beta = 5.0;
  EXPECT_FALSE(certify_spanner(g, h, opts).ok);
}

// ---- Certificates: pinned outputs ------------------------------------------

// (ok, checks, violation) of certify_spanner on fixed inputs, captured from
// the certificate that ran two single-source BFSs per source. A change to
// how the distances are computed, to the order the pairs are checked in or
// to the subgraph step must leave every field as it is: `checks` counts
// the pairs of the failing source after its first violation, and the text
// names the first failure in insertion or (source, v) order.
struct PinnedCertificate {
  const char* name;
  bool ok;
  std::uint64_t checks;
  const char* violation;
};

void expect_pinned(const Certificate& cert, const PinnedCertificate& pin) {
  EXPECT_EQ(cert.ok, pin.ok) << pin.name;
  EXPECT_EQ(cert.checks, pin.checks) << pin.name;
  EXPECT_EQ(cert.violation, pin.violation) << pin.name;
}

// `g` plus `extra` edges on at least g's vertices: a host for a spanner that
// holds edges `g` lacks.
Graph supergraph(const Graph& g, VertexId n, std::vector<Edge> extra) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  edges.insert(edges.end(), extra.begin(), extra.end());
  return Graph::from_edges(n, std::move(edges));
}

TEST(Certify, OutputsPinned) {
  const auto run = [](const PinnedCertificate& pin, const Graph& g,
                      const spanner::Spanner& h,
                      const SpannerCertifyOptions& options) {
    expect_pinned(certify_spanner(g, h, options), pin);
  };

  {  // The 16-source certificate of a D = 4 skeleton: two source seeds at
     // its schedule's bound, then a bound it breaks.
    util::Rng rng(1);
    const Graph g = graph::connected_gnm(2048, 16384, rng);
    const core::SkeletonResult sk =
        core::build_skeleton(g, {.D = 4, .eps = 1.0, .seed = 1});
    SpannerCertifyOptions o;
    o.alpha = static_cast<double>(sk.stats.schedule.distortion_bound);
    o.sample_sources = 16;
    o.seed = 1;
    run({"skeleton 2048, seed 1", true, 35650, ""}, g, sk.spanner, o);
    o.seed = 7;
    run({"skeleton 2048, seed 7", true, 35650, ""}, g, sk.spanner, o);
    o.alpha = 3.0;
    run({"skeleton 2048, seed 7, alpha 3", false, 4945,
         "pair (1434,77): dist_S 7 > alpha 3 * dist_G 2 + beta 0"},
        g, sk.spanner, o);
  }
  {  // Every source, both ways of asking for it, on a small BFS forest.
    util::Rng rng(3);
    const Graph g = graph::connected_gnm(40, 90, rng);
    const spanner::Spanner h = baselines::bfs_forest(g);
    SpannerCertifyOptions o;
    o.alpha = 40.0;
    o.sample_sources = 0;
    run({"forest 40, every source (0)", true, 1599, ""}, g, h, o);
    o.sample_sources = 40;
    run({"forest 40, every source (n)", true, 1599, ""}, g, h, o);
    o.alpha = 2.0;
    o.sample_sources = 1000;
    run({"forest 40, every source (> n), alpha 2", false, 117,
         "pair (1,2): dist_S 5 > alpha 2 * dist_G 1 + beta 0"},
        g, h, o);
  }
  {  // A path with a triangle at its end, less the chord (117,119): every
     // source passes at alpha 1.5 up to 117, the first to fail, which a
     // certificate over every source meets in its second chunk of 64.
    std::vector<Edge> edges;
    for (VertexId v = 0; v + 1 < 120; ++v) edges.push_back({v, v + 1});
    edges.push_back({117, 119});
    const Graph g = Graph::from_edges(120, edges);
    spanner::Spanner h(g);
    for (VertexId v = 0; v + 1 < 120; ++v) h.add_edge(v, v + 1);
    SpannerCertifyOptions o;
    o.alpha = 1.5;
    o.sample_sources = 0;
    run({"lollipop 120, every source, alpha 1.5", false, 14161,
         "pair (117,119): dist_S 2 > alpha 1.5 * dist_G 1 + beta 0"},
        g, h, o);
  }
  {  // A BFS tree at alpha = 1 breaks the stretch bound at its first source.
    util::Rng rng(5);
    const Graph g = graph::connected_gnm(300, 1200, rng);
    spanner::Spanner h(g);
    const graph::BfsResult tree = graph::bfs(g, 0);
    for (VertexId v = 1; v < g.num_vertices(); ++v) {
      h.add_edge(v, tree.parent[v]);
    }
    SpannerCertifyOptions o;
    o.alpha = 1.0;
    o.sample_sources = 16;
    o.seed = 2;
    run({"bfs tree 300, alpha 1", false, 598,
         "pair (30,1): dist_S 4 > alpha 1 * dist_G 3 + beta 0"},
        g, h, o);
  }
  {  // A disconnected spanner: a forest with every 7th edge dropped.
    util::Rng rng(9);
    const Graph g = graph::connected_gnm(120, 400, rng);
    const spanner::Spanner forest = baselines::bfs_forest(g);
    spanner::Spanner h(g);
    for (std::size_t i = 0; i < forest.size(); ++i) {
      if (i % 7 != 3) h.add_edge(forest.edges()[i]);
    }
    SpannerCertifyOptions o;
    o.alpha = 200.0;
    o.sample_sources = 16;
    o.seed = 4;
    o.require_connectivity = true;
    run({"split forest 120, connectivity on", false, 221,
         "pair (31,0) connected in host (dist 3) but disconnected in "
         "spanner"},
        g, h, o);
    o.require_connectivity = false;
    run({"split forest 120, connectivity off", true, 2006, ""}, g, h, o);
    o.sample_sources = 0;
    run({"split forest 120, connectivity off, every source", true, 14382,
         ""},
        g, h, o);
  }
  {  // Spanners over a supergraph of the host: the first foreign edge in
     // insertion order is reported, here (2,9) before the smaller (0,6),
     // and an endpoint past the host's vertices is caught before any search.
    const Graph g = graph::cycle_graph(12);
    const Graph wide = supergraph(g, 12, {{0, 6}, {2, 9}});
    spanner::Spanner h(wide);
    for (const VertexId v : {0u, 1u, 2u, 3u}) h.add_edge(v, v + 1);
    h.add_edge(2, 9);
    h.add_edge(4, 5);
    h.add_edge(0, 6);
    run({"supergraph, foreign (2,9) then (0,6)", false, 5,
         "spanner edge (2,9) is not a host edge"},
        g, h, SpannerCertifyOptions{});
    const Graph taller = supergraph(g, 14, {{5, 13}});
    spanner::Spanner far(taller);
    far.add_edge(0, 1);
    far.add_edge(13, 5);
    far.add_edge(1, 2);
    run({"supergraph, endpoint 13 past n = 12", false, 2,
         "spanner edge (5,13) is not a host edge"},
        g, far, SpannerCertifyOptions{});
  }
}

// ---- Certificates: clustering ----------------------------------------------

// Path 0-1-2-3 split into two radius-1 clusters {0,1} and {2,3} centered at
// 0 and 2. A minimal valid clustering to corrupt one field at a time.
struct ClusterFixture {
  Graph g = graph::path_graph(4);
  std::vector<std::uint8_t> alive{1, 1, 1, 1};
  std::vector<VertexId> cluster_of{0, 0, 2, 2};
  std::vector<std::uint32_t> radius{1, 0, 1, 0};
};

TEST(CertifyClustering, AcceptsValidPartition) {
  const ClusterFixture f;
  const Certificate cert =
      certify_clustering(f.g, f.alive, f.cluster_of, f.radius);
  EXPECT_TRUE(cert.ok) << cert.violation;
  EXPECT_GT(cert.checks, 0u);
}

TEST(CertifyClustering, AcceptsDeadVertices) {
  ClusterFixture f;
  f.alive = {1, 1, 0, 0};  // cluster {2,3} died entirely
  f.cluster_of = {0, 0, 0, 0};
  const Certificate cert =
      certify_clustering(f.g, f.alive, f.cluster_of, f.radius);
  EXPECT_TRUE(cert.ok) << cert.violation;
}

TEST(CertifyClustering, RejectsSizeMismatch) {
  ClusterFixture f;
  f.alive.pop_back();
  EXPECT_FALSE(certify_clustering(f.g, f.alive, f.cluster_of, f.radius).ok);
}

TEST(CertifyClustering, RejectsDeadCenter) {
  ClusterFixture f;
  f.alive[2] = 0;  // center 2 dead, member 3 still claims it
  f.alive[3] = 1;
  const Certificate cert =
      certify_clustering(f.g, f.alive, f.cluster_of, f.radius);
  EXPECT_FALSE(cert.ok);
  EXPECT_FALSE(cert.violation.empty());
}

TEST(CertifyClustering, RejectsNonSelfOwningCenter) {
  ClusterFixture f;
  f.cluster_of[2] = 0;  // vertex 3's center no longer owns itself
  EXPECT_FALSE(certify_clustering(f.g, f.alive, f.cluster_of, f.radius).ok);
}

TEST(CertifyClustering, RejectsUnderstatedRadius) {
  ClusterFixture f;
  f.cluster_of = {0, 0, 0, 0};  // one cluster spanning the whole path...
  f.radius = {1, 0, 0, 0};      // ...claiming radius 1; vertex 3 is 3 hops out
  const Certificate cert =
      certify_clustering(f.g, f.alive, f.cluster_of, f.radius);
  EXPECT_FALSE(cert.ok);
  EXPECT_FALSE(cert.violation.empty());
}

TEST(CertifyClustering, RejectsDisconnectedCluster) {
  // 0 and 3 in one cluster, but every path between them runs through the
  // other cluster: the cluster subgraph is disconnected.
  ClusterFixture f;
  f.cluster_of = {0, 2, 2, 0};
  f.radius = {5, 0, 1, 0};  // generous radius; connectivity is the violation
  EXPECT_FALSE(certify_clustering(f.g, f.alive, f.cluster_of, f.radius).ok);
}

TEST(CertifyClustering, RejectsOutOfRangeCluster) {
  ClusterFixture f;
  f.cluster_of[1] = 9;  // not a vertex of g
  EXPECT_FALSE(certify_clustering(f.g, f.alive, f.cluster_of, f.radius).ok);
}

}  // namespace
}  // namespace ultra::check
