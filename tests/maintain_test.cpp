// Overlay-maintenance suite (src/maintain + serve/snapshot.h):
//
//   - end-to-end: a multi-epoch churn + fault run ends every epoch certified,
//     the overlay's exact invariant holds afterwards, and the run exercises
//     every repair tier (clean, patch, escalate) under the pinned seed;
//   - determinism: the chained epoch trace digest is identical run-to-run
//     and across ExecutionMode (sequential vs 4 parallel workers) — the
//     maintain-layer analogue of parallel_equivalence_test;
//   - SLO accounting: certified uptime in [0, 1], p50 <= p99, patch epochs
//     cost zero repair rounds, escalated epochs cost the summed attempt
//     rounds;
//   - SnapshotStore: staleness metadata (begin_epoch/publish/acquire), and
//     the degraded-serving differential — a reader holding the pre-repair
//     View keeps serving the old certified image (bit-identical to an
//     independently built index of the epoch's certified spanner) while the
//     engine repairs, and the publish swap is atomic: post-swap Views serve
//     the new image, in-flight Views still the old;
//   - golden pins: the chained trace digest and the final overlay of the
//     perfbench maintain configuration (ER and R-MAT) and of a churn-only
//     run, so the greedy filter's answers cannot drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/distance_oracle.h"
#include "baselines/dynamic_spanner.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "maintain/maintenance.h"
#include "serve/flat_index.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace ultra::maintain {
namespace {

using graph::Graph;
using graph::VertexId;

Graph workload(VertexId n, std::uint64_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(n, m, rng);
}

MaintenanceOptions stress_options() {
  MaintenanceOptions opt;
  opt.k = 3;
  opt.seed = 1;
  opt.epoch_rounds = 32;
  opt.inserts_per_epoch = 8;
  opt.deletes_per_epoch = 4;
  opt.fault_rates.crash = 0.008;
  opt.fault_rates.restart = 0.7;
  opt.fault_rates.link_down = 0.004;
  opt.fault_rates.drop = 0.01;
  return opt;
}

TEST(MaintenanceEngine, EveryEpochEndsCertified) {
  const Graph g = workload(256, 1024, 1);
  MaintenanceEngine engine(g, stress_options());
  engine.run(25);

  ASSERT_EQ(engine.history().size(), 26u);  // epoch 0 + 25 maintained epochs
  std::uint64_t clean = 0, patch = 0, escalate = 0;
  for (const EpochRecord& rec : engine.history()) {
    EXPECT_TRUE(rec.certified) << "epoch " << rec.epoch << " not certified";
    EXPECT_GT(rec.certify_checks, 0u);
    switch (rec.tier) {
      case RepairTier::kClean:
        ++clean;
        EXPECT_EQ(rec.repair_rounds, 0u);
        break;
      case RepairTier::kPatch:
        ++patch;
        EXPECT_EQ(rec.repair_rounds, 0u);
        EXPECT_GT(rec.dropped_spanner_edges, 0u);
        break;
      case RepairTier::kEscalate:
        ++escalate;
        EXPECT_GT(rec.escalation_attempts, 0u);
        break;
    }
  }
  // The pinned seed must exercise the full repair spectrum; a seed change
  // that silences a tier weakens the suite and should be caught here.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(patch, 0u);
  EXPECT_GT(escalate, 0u);

  // After the last certified epoch the exact 2k-1 invariant holds.
  EXPECT_TRUE(engine.overlay().invariant_holds());
}

TEST(MaintenanceEngine, ChurnOnlyRunsStayCleanOrPatchFree) {
  const Graph g = workload(200, 700, 3);
  MaintenanceOptions opt;
  opt.seed = 9;
  opt.inserts_per_epoch = 6;
  opt.deletes_per_epoch = 6;  // no fault rates: churn only
  MaintenanceEngine engine(g, opt);
  engine.run(10);
  for (const EpochRecord& rec : engine.history()) {
    EXPECT_TRUE(rec.certified);
    EXPECT_EQ(rec.tier, RepairTier::kClean);
    EXPECT_EQ(rec.dropped_spanner_edges, 0u);
  }
  const SloSummary slo = engine.summary();
  EXPECT_DOUBLE_EQ(slo.certified_uptime, 1.0);
  EXPECT_EQ(slo.escalations, 0u);
}

TEST(MaintenanceEngine, TraceDigestIsReproducible) {
  const Graph g = workload(256, 1024, 1);
  MaintenanceEngine a(g, stress_options());
  MaintenanceEngine b(g, stress_options());
  a.run(12);
  b.run(12);
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t i = 0; i < a.history().size(); ++i) {
    EXPECT_EQ(a.history()[i].trace_digest, b.history()[i].trace_digest)
        << "epoch " << i;
  }
  EXPECT_EQ(a.trace_digest(), b.trace_digest());
}

TEST(MaintenanceEngine, TraceDigestInvariantAcrossExecutionModes) {
  const Graph g = workload(256, 1024, 1);
  MaintenanceOptions seq = stress_options();
  MaintenanceOptions par = stress_options();
  par.exec = sim::ExecutionMode::kParallel;
  par.exec_threads = 4;

  MaintenanceEngine a(g, seq);
  MaintenanceEngine b(g, par);
  a.run(12);
  b.run(12);

  ASSERT_EQ(a.history().size(), b.history().size());
  std::uint64_t escalations = 0;
  for (std::size_t i = 0; i < a.history().size(); ++i) {
    const EpochRecord& ra = a.history()[i];
    const EpochRecord& rb = b.history()[i];
    EXPECT_EQ(ra.trace_digest, rb.trace_digest) << "epoch " << i;
    EXPECT_EQ(ra.tier, rb.tier) << "epoch " << i;
    EXPECT_EQ(ra.repair_rounds, rb.repair_rounds) << "epoch " << i;
    EXPECT_EQ(ra.escalation_digest, rb.escalation_digest) << "epoch " << i;
    if (ra.tier == RepairTier::kEscalate) ++escalations;
  }
  // The equivalence claim is vacuous unless the parallel executor actually
  // ran (escalations are the only epochs that touch the network).
  EXPECT_GT(escalations, 0u);
  EXPECT_EQ(a.trace_digest(), b.trace_digest());
}

TEST(MaintenanceEngine, SloSummaryAccounting) {
  const Graph g = workload(256, 1024, 1);
  MaintenanceEngine engine(g, stress_options());
  engine.run(20);
  const SloSummary slo = engine.summary();

  EXPECT_EQ(slo.epochs, 20u);
  EXPECT_EQ(slo.clean_epochs + slo.patch_epochs + slo.escalations, 20u);
  EXPECT_GE(slo.certified_uptime, 0.0);
  EXPECT_LE(slo.certified_uptime, 1.0);
  EXPECT_LE(slo.repair_p50_rounds, slo.repair_p99_rounds);

  // Recompute uptime and the nearest-rank latencies from the records the
  // summary aggregates.
  std::uint64_t downtime = 0;
  std::vector<std::uint64_t> latencies;
  for (const EpochRecord& rec : engine.history()) {
    if (rec.epoch == 0) continue;
    downtime += std::min(rec.repair_rounds, engine.options().epoch_rounds);
    latencies.push_back(rec.repair_rounds);
  }
  const double expected =
      1.0 - static_cast<double>(downtime) /
                (20.0 * static_cast<double>(engine.options().epoch_rounds));
  EXPECT_DOUBLE_EQ(slo.certified_uptime, expected);
  std::sort(latencies.begin(), latencies.end());
  EXPECT_EQ(slo.repair_p50_rounds, latencies[9]);   // ceil(0.50 * 20) = 10th
  EXPECT_EQ(slo.repair_p99_rounds, latencies[19]);  // ceil(0.99 * 20) = 20th
}

// perfbench's maintain_churn_faults settings on one instance whose 8 epochs
// hold a single escalation: p99 is the ceil(7.92) = 8th smallest latency,
// that escalation's rounds, not the 7th (0).
TEST(MaintenanceEngine, SloLatencyIsNearestRank) {
  const Graph g = workload(256, 1024, 3);
  MaintenanceOptions opt;
  opt.k = 3;
  opt.seed = 3;
  opt.epoch_rounds = 32;
  opt.inserts_per_epoch = 32;
  opt.deletes_per_epoch = 16;
  opt.fault_rates.crash = 0.004;
  opt.fault_rates.restart = 0.7;
  opt.fault_rates.link_down = 0.002;
  opt.fault_rates.drop = 0.01;
  opt.fault_rates.delay = 0.01;
  opt.fault_rates.duplicate = 0.005;
  MaintenanceEngine engine(g, opt);
  engine.run(8);
  std::vector<std::uint64_t> latencies;
  for (const EpochRecord& rec : engine.history()) {
    if (rec.epoch != 0) latencies.push_back(rec.repair_rounds);
  }
  ASSERT_EQ(std::count(latencies.begin(), latencies.end(), 0u), 7);
  const std::uint64_t escalation =
      *std::max_element(latencies.begin(), latencies.end());
  ASSERT_GT(escalation, 0u);
  EXPECT_EQ(engine.summary().repair_p50_rounds, 0u);
  EXPECT_EQ(engine.summary().repair_p99_rounds, escalation);
}

TEST(SnapshotStore, StalenessMetadata) {
  serve::SnapshotStore store;
  serve::SnapshotStore::View v = store.acquire();
  EXPECT_EQ(v.index, nullptr);
  EXPECT_FALSE(v.stale());

  const Graph g = workload(64, 160, 2);
  const apps::DistanceOracle oracle(g, 7);
  store.publish(0, std::make_shared<serve::FlatOracleIndex>(oracle));
  v = store.acquire();
  ASSERT_NE(v.index, nullptr);
  EXPECT_EQ(v.certified_epoch, 0u);
  EXPECT_FALSE(v.stale());

  store.begin_epoch(1);
  v = store.acquire();
  EXPECT_TRUE(v.stale());
  EXPECT_EQ(v.staleness(), 1u);
  EXPECT_EQ(v.certified_epoch, 0u);
  EXPECT_EQ(v.announced_epoch, 1u);

  store.begin_epoch(3);  // epochs may be announced faster than publishes land
  v = store.acquire();
  EXPECT_EQ(v.staleness(), 3u);

  store.publish(3, v.index);
  v = store.acquire();
  EXPECT_FALSE(v.stale());
  EXPECT_EQ(v.certified_epoch, 3u);

  store.begin_epoch(2);  // stale announcements never move epochs backwards
  v = store.acquire();
  EXPECT_EQ(v.announced_epoch, 3u);
}

// The degraded-serving differential: a reader that acquired its View before
// an epoch's repair serves the *previous* certified image — bit-identical to
// an index built directly from that epoch's certified spanner — and the
// publish swap is atomic (post-swap acquires see the new image; the
// in-flight View is untouched).
TEST(SnapshotStore, DegradedServingDifferential) {
  const Graph g = workload(200, 800, 4);
  serve::SnapshotStore store;
  MaintenanceOptions opt = stress_options();
  opt.store = &store;
  MaintenanceEngine engine(g, opt);

  // Epoch 0 published at construction. Capture the certified spanner and the
  // reader's view of it.
  const Graph spanner0 = engine.overlay().spanner_snapshot();
  const serve::SnapshotStore::View before = store.acquire();
  ASSERT_NE(before.index, nullptr);
  EXPECT_EQ(before.certified_epoch, 0u);
  EXPECT_FALSE(before.stale());

  // The published image must be the image of the certified spanner: an
  // independent rebuild from the same snapshot and seed is bit-identical.
  const apps::DistanceOracle direct0(spanner0, opt.oracle_seed);
  const serve::FlatOracleIndex direct0_index(direct0);
  EXPECT_EQ(before.index->digest(), direct0_index.digest());

  // Mid-repair: maintenance has announced epoch 1 but not yet re-certified.
  // Readers stay on the stale image, with the staleness visible.
  store.begin_epoch(1);
  const serve::SnapshotStore::View during = store.acquire();
  EXPECT_TRUE(during.stale());
  EXPECT_EQ(during.staleness(), 1u);
  EXPECT_EQ(during.index.get(), before.index.get());  // same physical image

  // Serving from the stale view is fully functional: the engine's checksum
  // over a point/scan workload equals the checksum over the direct rebuild.
  serve::WorkloadSpec spec;
  spec.seed = 11;
  spec.point_pct = 90;
  spec.scan_pct = 10;
  const serve::WorkloadGen wl(spec, g.num_vertices());
  serve::QueryEngine stale_engine(*during.index, nullptr);
  serve::QueryEngine direct_engine(direct0_index, nullptr);
  const std::uint64_t stale_sum = stale_engine.run(wl, 4000).checksum;
  EXPECT_EQ(stale_sum, direct_engine.run(wl, 4000).checksum);

  // Run epochs until the maintained spanner actually differs from epoch 0's
  // (churn guarantees it immediately; be explicit anyway).
  engine.run_epoch();
  const serve::SnapshotStore::View after = store.acquire();
  ASSERT_TRUE(engine.history().back().certified);
  EXPECT_TRUE(engine.history().back().published);
  EXPECT_FALSE(after.stale());
  EXPECT_EQ(after.certified_epoch, 1u);

  // Swap atomicity: the new image matches a direct rebuild of the *new*
  // certified spanner; the in-flight View still serves the old image.
  const apps::DistanceOracle direct1(engine.overlay().spanner_snapshot(),
                                     opt.oracle_seed);
  const serve::FlatOracleIndex direct1_index(direct1);
  EXPECT_EQ(after.index->digest(), direct1_index.digest());
  EXPECT_EQ(before.index->digest(), direct0_index.digest());
  serve::QueryEngine old_reader(*before.index, nullptr);
  EXPECT_EQ(old_reader.run(wl, 4000).checksum, stale_sum);
}

// The perfbench maintain_churn_faults configuration (k = 3, 32 inserts and
// 16 deletes per 32-round epoch, its fault rates, a SnapshotStore attached).
MaintenanceOptions bench_options(serve::SnapshotStore* store) {
  MaintenanceOptions opt;
  opt.k = 3;
  opt.seed = 1;
  opt.epoch_rounds = 32;
  opt.inserts_per_epoch = 32;
  opt.deletes_per_epoch = 16;
  opt.fault_rates.crash = 0.004;
  opt.fault_rates.restart = 0.7;
  opt.fault_rates.link_down = 0.002;
  opt.fault_rates.drop = 0.01;
  opt.fault_rates.delay = 0.01;
  opt.fault_rates.duplicate = 0.005;
  opt.store = store;
  return opt;
}

// FNV-1a over the final overlay: the canonical edge list, then every
// vertex's spanner neighbours in promotion order.
std::uint64_t overlay_digest(const baselines::DynamicSpanner& overlay) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t w) { h = (h ^ w) * 1099511628211ull; };
  const Graph snapshot = overlay.spanner_snapshot();
  for (const graph::Edge& e : snapshot.edges()) {
    fold(e.u);
    fold(e.v);
  }
  for (VertexId v = 0; v < overlay.vertex_count(); ++v) {
    for (const VertexId w : overlay.spanner_neighbors(v)) fold(w);
  }
  return h;
}

// Every keep / discard / promote decision of the greedy filter feeds the
// epoch trace and the final overlay, so these digests pin the filter's
// reachability answers across any change to how it searches. Captured from
// the one-sided BFS filter.
TEST(MaintenanceGolden, TraceAndOverlayPinned) {
  struct GoldenCase {
    const char* name;
    Graph g;
    bool faults;
    std::uint64_t trace;
    std::uint64_t overlay;
  };
  util::Rng rmat_rng(1);
  GoldenCase cases[] = {
      {"bench_gnm256", workload(256, 1024, 1), true, 6310982209443730365ull,
       2611526050893833919ull},
      {"rmat256", graph::rmat_graph(256, 1024, rmat_rng), true,
       9370529394299313889ull, 831615663688538835ull},
      {"churn_only_gnm256", workload(256, 1024, 1), false,
       18341281365604402270ull, 1710879962097153879ull},
  };
  for (const GoldenCase& c : cases) {
    serve::SnapshotStore store;
    MaintenanceOptions opt = bench_options(&store);
    if (!c.faults) opt.fault_rates = sim::FaultRates{};
    MaintenanceEngine engine(c.g, opt);
    engine.run(8);
    if (c.faults) {
      EXPECT_GT(engine.summary().patch_epochs, 0u) << c.name;
    }
    EXPECT_EQ(engine.trace_digest(), c.trace) << c.name;
    EXPECT_EQ(overlay_digest(engine.overlay()), c.overlay) << c.name;
  }
}

TEST(RepairTierNames, Stable) {
  EXPECT_STREQ(repair_tier_name(RepairTier::kClean), "clean");
  EXPECT_STREQ(repair_tier_name(RepairTier::kPatch), "patch");
  EXPECT_STREQ(repair_tier_name(RepairTier::kEscalate), "escalate");
}

}  // namespace
}  // namespace ultra::maintain
