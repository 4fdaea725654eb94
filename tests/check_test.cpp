#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/certify.h"
#include "check/check.h"
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
