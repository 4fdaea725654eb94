// Thread-count-invariance harness for the query-serving engine — the
// serve-layer analogue of parallel_equivalence_test. One workload seed must
// produce a byte-identical ServeResult checksum at 1, 2, 4 and 7 threads,
// sampled or not: the dynamic batch claiming is racy by design, and this
// suite (run under TSan via the `serve-checked` preset) is what proves the
// race never reaches an observable result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "apps/compact_routing.h"
#include "apps/distance_oracle.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "serve/flat_index.h"
#include "serve/query_engine.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace ultra::serve {
namespace {

using graph::Graph;

class CountingTicks : public TickSource {
 public:
  std::uint64_t now_ns() override {
    return t_.fetch_add(3, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> t_{0};
};

struct Served {
  FlatOracleIndex index;
  apps::CompactRouting routing;

  explicit Served(const Graph& g, std::uint64_t seed)
      : index(apps::DistanceOracle(g, seed)), routing(g, seed) {}
};

TEST(ServeParallel, ChecksumInvariantAcrossThreadCounts) {
  util::Rng rng(101);
  const Graph g = graph::connected_gnm(600, 3600, rng);
  const Served s(g, 101);

  WorkloadSpec spec;
  spec.seed = 101;
  spec.point_pct = 70;
  spec.route_pct = 15;
  spec.scan_pct = 15;
  spec.dist = KeyDist::kZipfian;
  spec.theta = 0.9;
  const WorkloadGen wl(spec, g.num_vertices());
  const std::uint64_t kOps = 40000;

  // Reference: one thread, no sampling. The batch size must match the
  // sweep's — the checksum chains per-batch digests, so the batch structure
  // (unlike the thread count) is part of the result's identity.
  EngineOptions ref_opt;
  ref_opt.threads = 1;
  ref_opt.batch_ops = 512;
  QueryEngine ref_engine(s.index, &s.routing, ref_opt);
  const ServeResult ref = ref_engine.run(wl, kOps);

  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    for (bool sample : {false, true}) {
      EngineOptions opt;
      opt.threads = threads;
      opt.batch_ops = 512;  // enough batches for every worker to claim
      opt.sample_every = 32;
      QueryEngine engine(s.index, &s.routing, opt);
      CountingTicks ticks;
      const ServeResult res = engine.run(wl, kOps, sample ? &ticks : nullptr);
      EXPECT_EQ(res.checksum, ref.checksum)
          << threads << " threads, sample=" << sample;
      EXPECT_EQ(res.ops, ref.ops);
      EXPECT_EQ(res.point_ops, ref.point_ops);
      EXPECT_EQ(res.route_ops, ref.route_ops);
      EXPECT_EQ(res.scan_ops, ref.scan_ops);
      EXPECT_EQ(res.unreachable, ref.unreachable);
      EXPECT_EQ(res.scanned_entries, ref.scanned_entries);
      EXPECT_EQ(res.route_hops, ref.route_hops);
      if (sample) {
        // Which ops are sampled is deterministic even when the values
        // (and the lane that recorded them) are not.
        EXPECT_EQ(res.latencies_ns.size(), (kOps + 31) / 32);
      } else {
        EXPECT_TRUE(res.latencies_ns.empty());
      }
    }
  }
}

TEST(ServeParallel, EngineReuseAcrossRunsAndSeeds) {
  // One engine, many jobs: the persistent pool must serve back-to-back runs
  // (same and different workloads) without bleeding state between them.
  util::Rng rng(7);
  const Graph g = graph::connected_gnm(300, 1500, rng);
  const Served s(g, 7);

  EngineOptions opt;
  opt.threads = 4;
  opt.batch_ops = 256;
  QueryEngine engine(s.index, &s.routing, opt);

  std::vector<std::uint64_t> first_pass;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.point_pct = 80;
    spec.route_pct = 10;
    spec.scan_pct = 10;
    const WorkloadGen wl(spec, g.num_vertices());
    first_pass.push_back(engine.run(wl, 10000).checksum);
  }
  // Replay in reverse order: checksums must match run-for-run.
  for (std::uint64_t seed = 3; seed >= 1; --seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.point_pct = 80;
    spec.route_pct = 10;
    spec.scan_pct = 10;
    const WorkloadGen wl(spec, g.num_vertices());
    EXPECT_EQ(engine.run(wl, 10000).checksum, first_pass[seed - 1]);
  }
  // Distinct seeds must not collide (the workload actually varies).
  EXPECT_NE(first_pass[0], first_pass[1]);
  EXPECT_NE(first_pass[1], first_pass[2]);
}

TEST(ServeParallel, OpsBelowOneBatchStayInline) {
  // Fewer ops than one batch: the pool must not be woken, and the checksum
  // still matches a multi-threaded engine configured identically.
  util::Rng rng(29);
  const Graph g = graph::connected_gnm(200, 800, rng);
  const FlatOracleIndex index{apps::DistanceOracle(g, 29)};
  WorkloadSpec spec;
  spec.seed = 29;
  const WorkloadGen wl(spec, g.num_vertices());

  EngineOptions opt;
  opt.threads = 4;
  opt.batch_ops = 4096;
  QueryEngine pooled(index, nullptr, opt);
  opt.threads = 1;
  QueryEngine inline_engine(index, nullptr, opt);
  EXPECT_EQ(pooled.run(wl, 100).checksum, inline_engine.run(wl, 100).checksum);
}

}  // namespace
}  // namespace ultra::serve
