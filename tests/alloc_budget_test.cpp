// Allocation budgets for the round loop.
//
// A counting global operator new/delete counts every heap allocation made
// between a protocol's first on_round_begin and the return of
// Network::run_outcome, on the sequential executor, in three windows:
//
//   round-begin  inside on_round_begin: the controller step on the simulator
//                thread. Zero without faults.
//   on-round     inside on_round, every node activation. Per-protocol
//                budgets leave room for buffers that grow on first use and
//                none for an allocation per message or per activation: at
//                n = 2048 that costs tens of thousands.
//   loop         everything else in the round loop: the barrier, the
//                worklist rebuild, done() and the fault hooks. A small base
//                of first-use growth, plus exactly one allocation per
//                deferred copy of a delayed or duplicated message.
//
// begin() and the Network's construction are outside the windows: a
// protocol sizes its per-node state there, once. These budgets are the
// guard of record for the round loop's allocations; every Protocol subclass
// in src/ must be named here (ultra_lint_test checks).
//
// AllocBudget.Generation counts one whole call of a random graph generator,
// outside any round loop: its buffers and the CSR build, nothing per edge.
//
// AllocBudget.ServeRun counts one QueryEngine::run on the caller's thread,
// over uniform and zipfian keys: the per-batch result slots, the latency
// lanes and the doubling growth of the one latency buffer, nothing per op or
// per batch. AllocBudget.ZipfianWorkloadBuild counts one zipfian
// WorkloadGen construction: its three tables, nothing per rank.
//
// AllocBudget.CertifyAndEvaluate counts one sampled certify_spanner and one
// evaluate_sampled: one chunk of distance rows per graph, nothing per source.
//
// AllocBudget.OracleBuild counts one DistanceOracle construction: its tables
// and the bunch step's scratch, nothing per row.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/distance_oracle.h"
#include "baselines/mis_protocol.h"
#include "check/certify.h"
#include "core/ball_broadcast.h"
#include "core/cluster_protocol.h"
#include "core/schedule.h"
#include "core/skeleton.h"
#include "graph/generators.h"
#include "serve/query_engine.h"
#include "serve/workload.h"
#include "sim/faults.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "spanner/evaluate.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace {

enum Window : int { kOff = -1, kRoundBegin = 0, kOnRound = 1, kLoop = 2 };

std::atomic<int> g_window{kOff};
std::atomic<std::uint64_t> g_allocations[3];

void count_allocation() {
  const int w = g_window.load(std::memory_order_relaxed);
  if (w != kOff) g_allocations[w].fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_allocation();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;
using sim::ExecutionMode;

// Forwards the run to `inner`. The first on_round_begin opens the loop
// window; with `split`, on_round_begin and on_round count in their own
// windows. Under kParallel, on_round runs on several threads at once, so a
// parallel run counts everything in one window.
class Counted : public sim::Protocol {
 public:
  Counted(sim::Protocol& inner, bool split) : inner_(inner), split_(split) {}
  void begin(sim::Network& net) override { inner_.begin(net); }
  void on_round_begin(sim::Network& net) override {
    enter(kRoundBegin);
    inner_.on_round_begin(net);
    g_window.store(kLoop, std::memory_order_relaxed);
  }
  void on_round(sim::Mailbox& mb) override {
    enter(kOnRound);
    inner_.on_round(mb);
    enter(kLoop);
  }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return inner_.done(net);
  }
  void on_crash(sim::Network& net, VertexId v) override {
    inner_.on_crash(net, v);
  }
  void on_restart(sim::Network& net, VertexId v) override {
    inner_.on_restart(net, v);
  }

 private:
  void enter(Window w) const {
    g_window.store(split_ ? w : kLoop, std::memory_order_relaxed);
  }

  sim::Protocol& inner_;
  bool split_;
};

struct Windows {
  std::uint64_t round_begin = 0;
  std::uint64_t on_round = 0;
  std::uint64_t loop = 0;
  sim::RunOutcome outcome;

  [[nodiscard]] std::uint64_t total() const {
    return round_begin + on_round + loop;
  }
  // One allocation each: the copy of a delayed or duplicated payload.
  [[nodiscard]] std::uint64_t deferred_copies() const {
    return outcome.metrics.faults.delayed + outcome.metrics.faults.duplicated;
  }
};

std::ostream& operator<<(std::ostream& os, const Windows& w) {
  const sim::Metrics& m = w.outcome.metrics;
  return os << "round-begin " << w.round_begin << ", on-round " << w.on_round
            << ", loop " << w.loop << "; rounds " << m.rounds
            << ", deferred copies " << w.deferred_copies() << ", crashes "
            << m.faults.crashed << ", restarts " << m.faults.restarted;
}

struct RunSpec {
  std::uint64_t cap = 11;  // ceil(log2 2048): the skeleton's cap
  const sim::FaultPlan* faults = nullptr;
  ExecutionMode exec = ExecutionMode::kSequential;
  unsigned threads = 1;
};

// Runs `protocol` on a fresh network and returns the allocations its rounds
// made, per window (sequential) or all in `loop` (parallel).
Windows count_rounds(const Graph& g, sim::Protocol& protocol,
                     const RunSpec& spec = {}) {
  sim::Network net(g, spec.cap, sim::AuditMode::kStrict, spec.exec,
                   spec.threads);
  net.set_fault_plan(spec.faults);
  Counted counted(protocol, spec.exec == ExecutionMode::kSequential);
  for (auto& a : g_allocations) a.store(0);
  Windows w;
  w.outcome = net.run_outcome(counted, {.max_rounds = 1u << 16});
  g_window.store(kOff);
  w.round_begin = g_allocations[kRoundBegin].load();
  w.on_round = g_allocations[kOnRound].load();
  w.loop = g_allocations[kLoop].load();
  return w;
}

constexpr VertexId kN = 2048;
constexpr std::uint64_t kM = 16384;
// First-use growth of the barrier's and the worklist's buffers: 12-16 on
// every fault-free run below. A skeleton build runs 72-75 rounds, so one
// allocation per round does not fit.
constexpr std::uint64_t kLoopBase = 32;
// The same plus the growth of the fault layer's queues: 34-36 on the
// message-fault runs below.
constexpr std::uint64_t kFaultyLoopBase = 64;

// The fault-free windows every protocol must meet.
void expect_fault_free(const Windows& w, std::uint64_t on_round_budget) {
  EXPECT_TRUE(w.outcome.completed()) << w.outcome.diagnostic;
  EXPECT_EQ(w.round_begin, 0u) << w;
  EXPECT_LE(w.on_round, on_round_budget) << w;
  EXPECT_LE(w.loop, kLoopBase) << w;
}

Graph probe_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(kN, kM, rng);
}

std::vector<std::uint8_t> every_13th(VertexId n) {
  std::vector<std::uint8_t> is_source(n, 0);
  for (VertexId v = 0; v < n; v += 13) is_source[v] = 1;
  return is_source;
}

// 9, 6 and 37 measured (seed 1). One allocation per edge or per vertex
// costs thousands at n = 2048: a node-based hash set of seen edges, or one
// per vertex for its chosen targets.
constexpr std::uint64_t kGenerationBudget = 64;

TEST(AllocBudget, Generation) {
  using Make = Graph (*)(util::Rng&);
  const std::pair<const char*, Make> generators[] = {
      {"connected_gnm(2048, 16384)",
       [](util::Rng& r) { return graph::connected_gnm(kN, kM, r); }},
      {"rmat_graph(2048, 16384)",
       [](util::Rng& r) { return graph::rmat_graph(kN, kM, r); }},
      {"preferential_attachment(2048, 3)",
       [](util::Rng& r) { return graph::preferential_attachment(kN, 3, r); }},
  };
  for (const auto& [name, make] : generators) {
    util::Rng rng(1);
    for (auto& a : g_allocations) a.store(0);
    g_window.store(kLoop, std::memory_order_relaxed);
    const Graph g = make(rng);
    g_window.store(kOff);
    EXPECT_LE(g_allocations[kLoop].load(), kGenerationBudget) << name;
    EXPECT_GT(g.num_edges(), 0u) << name;
  }
}

class FakeTicks : public serve::TickSource {
 public:
  std::uint64_t now_ns() override { return t_ += 7; }

 private:
  std::uint64_t t_ = 0;
};

// 2.5e5 ops over the oracle of connected_gnm(2048, 16384), every 16th op
// timed: 18 measured for uniform and for zipfian (theta = 0.99) keys (the
// batch slots, the lanes, 15 doublings of the latency buffer for its 15,625
// samples, and the merged copy). The run cuts 245 batches, so one
// allocation per batch does not fit.
constexpr std::uint64_t kServeRunBudget = 32;

TEST(AllocBudget, ServeRun) {
  constexpr std::uint64_t kOps = 250000;
  const Graph g = probe_graph(1);
  const apps::DistanceOracle oracle(g, 1);
  for (const serve::KeyDist dist :
       {serve::KeyDist::kUniform, serve::KeyDist::kZipfian}) {
    const serve::WorkloadGen wl({.seed = 1, .dist = dist, .theta = 0.99}, kN);
    serve::QueryEngine engine(oracle, nullptr,
                              {.threads = 1, .sample_every = 16});
    FakeTicks ticks;
    for (auto& a : g_allocations) a.store(0);
    g_window.store(kLoop, std::memory_order_relaxed);
    const serve::ServeResult res = engine.run(wl, kOps, &ticks);
    g_window.store(kOff);
    const bool zipfian = dist == serve::KeyDist::kZipfian;
    EXPECT_LE(g_allocations[kLoop].load(), kServeRunBudget)
        << (zipfian ? "zipfian" : "uniform");
    EXPECT_EQ(res.ops, kOps);
    EXPECT_EQ(res.latencies_ns.size(), kOps / 16);
  }
}

// One zipfian WorkloadGen over 2048 keys: 3 measured, its cut, guide and id
// tables. A table grown one rank at a time costs a dozen or more doublings,
// and one allocation per rank costs thousands.
constexpr std::uint64_t kWorkloadBuildBudget = 8;

TEST(AllocBudget, ZipfianWorkloadBuild) {
  for (auto& a : g_allocations) a.store(0);
  g_window.store(kLoop, std::memory_order_relaxed);
  const serve::WorkloadGen wl(
      {.seed = 1, .dist = serve::KeyDist::kZipfian, .theta = 0.99}, kN);
  g_window.store(kOff);
  EXPECT_LE(g_allocations[kLoop].load(), kWorkloadBuildBudget);
  EXPECT_LT(wl.op(0).u, kN);
}

// One 16-source certify_spanner and one 16-source evaluate_sampled over the
// D = 4 skeleton, each counted alone: the spanner's CSR, the source list,
// one chunk of distance rows per graph and the kernel's masks and frontier
// lists (15 measured for the certificate and 16-17 for the evaluator,
// seeds 1-3). One distance vector per source and BFS, with its queue
// regrowing, costs 424.
constexpr std::uint64_t kCertifyBudget = 32;

TEST(AllocBudget, CertifyAndEvaluate) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const Graph g = probe_graph(seed);
    const core::SkeletonResult sk =
        core::build_skeleton(g, {.D = 4, .eps = 1.0, .seed = seed});
    check::SpannerCertifyOptions options;
    options.alpha = static_cast<double>(sk.stats.schedule.distortion_bound);
    options.sample_sources = 16;
    options.seed = seed;

    for (auto& a : g_allocations) a.store(0);
    g_window.store(kLoop, std::memory_order_relaxed);
    const check::Certificate cert =
        check::certify_spanner(g, sk.spanner, options);
    g_window.store(kOff);
    EXPECT_LE(g_allocations[kLoop].load(), kCertifyBudget) << "certify";
    EXPECT_TRUE(cert.ok) << cert.violation;

    util::Rng rng(seed);
    for (auto& a : g_allocations) a.store(0);
    g_window.store(kLoop, std::memory_order_relaxed);
    const spanner::DistortionReport report =
        spanner::evaluate_sampled(g, sk.spanner, 16, rng);
    g_window.store(kOff);
    EXPECT_LE(g_allocations[kLoop].load(), kCertifyBudget) << "evaluate";
    EXPECT_LE(report.max_mult, options.alpha);
  }
}

// One DistanceOracle(g, 7) over the D = 4 skeleton (seeds 1-3) and over
// rmat_graph(2048, 16384): 70-71 and 68 measured (the landmark sampling,
// the slab and its kernel's scratch, the BFS scratch, the doublings of the
// BFS-order buffer, the grouping pass's arrays and the exact-size image).
// 2048 bunch rows make one allocation per row cost over 2,000.
constexpr std::uint64_t kOracleBuildBudget = 96;

TEST(AllocBudget, OracleBuild) {
  std::vector<std::pair<std::string, Graph>> inputs;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = probe_graph(seed);
    inputs.emplace_back(
        "skeleton, seed " + std::to_string(seed),
        core::build_skeleton(g, {.D = 4, .eps = 1.0, .seed = seed})
            .spanner.to_graph());
  }
  util::Rng rng(1);
  inputs.emplace_back("rmat_graph(2048, 16384)",
                      graph::rmat_graph(kN, kM, rng));
  for (const auto& [name, g] : inputs) {
    for (auto& a : g_allocations) a.store(0);
    g_window.store(kLoop, std::memory_order_relaxed);
    const apps::DistanceOracle oracle(g, 7);
    g_window.store(kOff);
    EXPECT_LE(g_allocations[kLoop].load(), kOracleBuildBudget) << name;
    EXPECT_GT(oracle.num_bunch_entries(), 0u) << name;
  }
}

TEST(AllocBudget, ClusterProtocolSkeleton) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const Graph g = probe_graph(seed);
    const core::SkeletonSchedule schedule =
        core::plan_schedule(kN, {.D = 4, .eps = 1.0, .seed = seed});
    spanner::Spanner out(g);
    core::ClusterProtocol protocol(g, schedule, seed, &out);
    expect_fault_free(count_rounds(g, protocol), 4u * kN);
    EXPECT_GT(out.size(), 0u);
  }
}

// SkeletonOutputGolden's two abort-rule schedules (digest_equivalence_test):
// the abort path streams LIST chunks and keeps every incident edge.
TEST(AllocBudget, ClusterProtocolAbortRule) {
  struct Case {
    VertexId n;
    std::uint64_t m;
    std::vector<core::RoundPlan> rounds;
  };
  const Case cases[] = {
      {300, 2400, {{{0.2, 0.1, 0.0}, 0}}},
      {300, 600, {{{0.5}, 0}, {{0.5}, 0}, {{0.5, 0.0}, 0}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.m);
    util::Rng rng(41);
    const Graph g = graph::connected_gnm(c.n, c.m, rng);
    core::SkeletonSchedule schedule;
    schedule.rounds = c.rounds;
    spanner::Spanner out(g);
    core::ClusterProtocol protocol(g, schedule, 9, &out, 0.1);
    expect_fault_free(count_rounds(g, protocol, {.cap = 8}), 4u * c.n);
    EXPECT_GT(protocol.stats().aborts, 0u);
  }
}

TEST(AllocBudget, BallBroadcast) {
  const Graph g = probe_graph(1);
  sim::BallBroadcast balls(every_13th(kN), 4);
  expect_fault_free(count_rounds(g, balls), 4u * kN);
}

TEST(AllocBudget, BfsFlood) {
  const Graph g = probe_graph(1);
  sim::BfsFlood flood(0);
  expect_fault_free(count_rounds(g, flood), 256u);
}

TEST(AllocBudget, TruncatedMinIdFlood) {
  const Graph g = probe_graph(1);
  sim::TruncatedMinIdFlood flood(every_13th(kN), 4);
  expect_fault_free(count_rounds(g, flood), 256u);
}

TEST(AllocBudget, LubyMis) {
  const Graph g = probe_graph(1);
  baselines::LubyMisProtocol mis(1);
  expect_fault_free(count_rounds(g, mis), 256u);
}

// SkeletonCrashRestartMatrix's first plan at n = 2048. The crash hooks and
// the orphan sweep allocate off the steady state: each crash tears a subtree
// down through a few temporary buffers (71 crashes cost 392 above the base),
// and the sweep takes its two buffers in on_round_begin once per schedule
// round (9 in all).
TEST(AllocBudget, ClusterProtocolUnderCrashRestart) {
  const Graph g = probe_graph(1);
  const core::SkeletonSchedule schedule =
      core::plan_schedule(kN, {.D = 4, .eps = 1.0, .seed = 1});
  const sim::FaultPlan plan(
      3, {.crash = 0.03, .restart = 0.5, .crash_window = 48});
  spanner::Spanner out(g);
  core::ClusterProtocol protocol(g, schedule, 1, &out);
  const Windows w = count_rounds(g, protocol, {.faults = &plan});
  EXPECT_TRUE(w.outcome.completed()) << w.outcome.diagnostic;
  EXPECT_GT(w.outcome.metrics.faults.crashed, 0u);
  EXPECT_LE(w.round_begin, 4 * schedule.rounds.size()) << w;
  EXPECT_LE(w.on_round, 4u * kN) << w;
  EXPECT_LE(w.loop, kFaultyLoopBase + 6 * w.outcome.metrics.faults.crashed)
      << w;
}

// Message faults at 1% each: the barrier's fate step allocates once per
// deferred copy and nothing per fresh send.
TEST(AllocBudget, MessageFaultsCostOneAllocationPerDeferredCopy) {
  const Graph g = probe_graph(1);
  const sim::FaultPlan plan(
      7, {.drop = 0.01, .duplicate = 0.01, .delay = 0.01});
  sim::BfsFlood bfs(0);
  sim::TruncatedMinIdFlood min_id(every_13th(kN), 4);
  sim::BallBroadcast balls(every_13th(kN), 4);
  const std::pair<sim::Protocol*, std::uint64_t> runs[] = {
      {&bfs, 256u}, {&min_id, 256u}, {&balls, 4u * kN}};
  for (const auto& [protocol, on_round_budget] : runs) {
    const Windows w = count_rounds(g, *protocol, {.faults = &plan});
    EXPECT_TRUE(w.outcome.completed()) << w.outcome.diagnostic;
    EXPECT_GT(w.deferred_copies(), 0u);
    EXPECT_EQ(w.round_begin, 0u) << w;
    EXPECT_LE(w.on_round, on_round_budget) << w;
    EXPECT_LE(w.loop, w.deferred_copies() + kFaultyLoopBase) << w;
  }
}

// The parallel executor adds its pool and its per-lane buffers, once per
// run: 269 at 4 workers. Nothing it adds scales with messages or rounds; one
// allocation per round (74) would not fit.
TEST(AllocBudget, ParallelExecutorAddsOnlyPoolSetup) {
  const Graph g = probe_graph(1);
  const core::SkeletonSchedule schedule =
      core::plan_schedule(kN, {.D = 4, .eps = 1.0, .seed = 1});
  std::uint64_t total[2] = {0, 0};
  std::uint64_t digest[2] = {0, 0};
  for (const bool parallel : {false, true}) {
    spanner::Spanner out(g);
    core::ClusterProtocol protocol(g, schedule, 1, &out);
    RunSpec spec;
    if (parallel) {
      spec.exec = ExecutionMode::kParallel;
      spec.threads = 4;
    }
    const Windows w = count_rounds(g, protocol, spec);
    EXPECT_TRUE(w.outcome.completed()) << w.outcome.diagnostic;
    total[parallel] = w.total();
    digest[parallel] = w.outcome.metrics.trace_digest;
  }
  EXPECT_EQ(digest[1], digest[0]);
  EXPECT_LE(total[1], total[0] + 320u)
      << "sequential " << total[0] << ", parallel " << total[1];
}

}  // namespace
}  // namespace ultra
