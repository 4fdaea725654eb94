// Thread-count-invariance harness for the query-serving engine — the
// serve-layer analogue of parallel_equivalence_test. One workload seed must
// produce a byte-identical ServeResult checksum at 1, 2, 4 and 7 threads,
// sampled or not: the dynamic batch claiming is racy by design, and this
// suite (run under TSan via the `serve-checked` preset) is what proves the
// race never reaches an observable result. It also pins the pool's
// exception rule at the engine: a TickSource that throws on a worker or on
// the caller surfaces from run() only after every worker has stopped.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
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

// Throws once: on the first call from the calling thread, or on the first
// call from a pool worker. The caller's first call waits (up to 10 s) until
// some worker has called, so both sides are serving when the throw lands.
// Worker calls made after mark_returned() count as late.
class ThrowingTicks : public TickSource {
 public:
  explicit ThrowingTicks(bool on_caller)
      : throw_on_caller_(on_caller), caller_(std::this_thread::get_id()) {}

  std::uint64_t now_ns() override {
    const bool on_caller = std::this_thread::get_id() == caller_;
    if (on_caller && !caller_waited_) {
      caller_waited_ = true;  // only the caller's thread reads or writes it
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (worker_calls_.load() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    } else if (!on_caller) {
      worker_calls_.fetch_add(1);
      if (returned_.load()) late_worker_calls_.fetch_add(1);
    }
    if (on_caller == throw_on_caller_ && !thrown_.exchange(true)) {
      throw std::runtime_error("tick source failed");
    }
    return t_.fetch_add(3, std::memory_order_relaxed);
  }

  void mark_returned() { returned_.store(true); }
  [[nodiscard]] std::uint64_t worker_calls() const {
    return worker_calls_.load();
  }
  [[nodiscard]] std::uint64_t late_worker_calls() const {
    return late_worker_calls_.load();
  }

 private:
  const bool throw_on_caller_;
  const std::thread::id caller_;
  bool caller_waited_ = false;
  std::atomic<bool> thrown_{false};
  std::atomic<bool> returned_{false};
  std::atomic<std::uint64_t> worker_calls_{0};
  std::atomic<std::uint64_t> late_worker_calls_{0};
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

// Serves 2^16 ops at 4 threads under a TickSource that throws once (on the
// caller or on a worker): run() must rethrow only after every worker has
// stopped serving, and the engine's next runs must reproduce the 1-thread
// checksum.
void expect_tick_failure_is_contained(bool on_caller) {
  util::Rng rng(512);
  const Graph g = graph::connected_gnm(512, 2048, rng);
  const FlatOracleIndex index{apps::DistanceOracle(g, 512)};
  WorkloadSpec spec;
  spec.seed = 512;
  const WorkloadGen wl(spec, g.num_vertices());
  const std::uint64_t kOps = 1u << 16;

  EngineOptions opt;
  opt.batch_ops = 256;
  opt.threads = 1;
  QueryEngine ref_engine(index, nullptr, opt);
  const std::uint64_t ref = ref_engine.run(wl, kOps).checksum;

  // Declared before the engine, so it outlives any worker the engine runs.
  ThrowingTicks ticks(on_caller);
  opt.threads = 4;
  QueryEngine engine(index, nullptr, opt);
  EXPECT_THROW(engine.run(wl, kOps, &ticks), std::runtime_error);
  ticks.mark_returned();
  EXPECT_GT(ticks.worker_calls(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(ticks.late_worker_calls(), 0u)
      << "workers kept serving after run() returned";

  CountingTicks counting;
  EXPECT_EQ(engine.run(wl, kOps, &counting).checksum, ref);
  EXPECT_EQ(engine.run(wl, kOps).checksum, ref);
}

TEST(ServeParallel, WorkerTickExceptionSurfacesFromRun) {
  expect_tick_failure_is_contained(/*on_caller=*/false);
}

TEST(ServeParallel, CallerTickExceptionLeavesNoWorkerServing) {
  expect_tick_failure_is_contained(/*on_caller=*/true);
}

}  // namespace
}  // namespace ultra::serve
