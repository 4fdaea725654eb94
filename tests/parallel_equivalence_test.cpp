// Randomized differential testing of ExecutionMode::kParallel.
//
// The parallel round executor is only allowed to change *wall-clock*: for
// every graph, protocol, audit mode and thread count, the delivered
// communication trace — trace_digest, rounds, messages, total words — must
// be byte-identical to ExecutionMode::kSequential. This harness drives that
// claim through ~300 seeded random cases: five graph families (Erdős–Rényi,
// star, path, disconnected, multi-block) crossed with the six protocol
// families (flood, ball broadcast, Expand/Baswana–Sen, skeleton, Fibonacci,
// Luby MIS), each compared against the sequential reference at 1, 2, 4 and 7
// worker threads plus a kFast parallel run. It also re-asserts the golden
// digests pinned in digest_equivalence_test.cpp under kParallel, the two
// abort-rule schedules among them, and checks that exceptions thrown inside
// worker shards propagate out of Network::run.
//
// Under ThreadSanitizer (CI's parallel-checked job) this file is the race
// check of record for on_round: every Protocol subclass in src/ runs here
// under kParallel, and ultra_lint_test fails if one is not named here.
//
// Thread counts deliberately include 1 (pool-free parallel path), powers of
// two, and a prime (7) that does not divide typical worklist sizes, so shard
// boundaries land in the middle of rounds in many different ways.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/baswana_sen_distributed.h"
#include "baselines/mis_protocol.h"
#include "core/ball_broadcast.h"
#include "core/cluster_protocol.h"
#include "core/fibonacci_distributed.h"
#include "core/schedule.h"
#include "core/skeleton_distributed.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;
using sim::AuditMode;
using sim::ExecutionMode;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 7};

struct Trace {
  std::uint64_t digest = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_words = 0;

  explicit Trace(const sim::Metrics& m)
      : digest(m.trace_digest),
        rounds(m.rounds),
        messages(m.messages),
        total_words(m.total_words) {}

  friend bool operator==(const Trace&, const Trace&) = default;
};

#define EXPECT_TRACE_EQ(a, b, label)                        \
  do {                                                      \
    EXPECT_EQ((a).digest, (b).digest) << (label);           \
    EXPECT_EQ((a).rounds, (b).rounds) << (label);           \
    EXPECT_EQ((a).messages, (b).messages) << (label);       \
    EXPECT_EQ((a).total_words, (b).total_words) << (label); \
  } while (0)

enum class GraphKind { kErdosRenyi, kStar, kPath, kDisconnected, kMultiBlock };

constexpr GraphKind kGraphKinds[] = {
    GraphKind::kErdosRenyi, GraphKind::kStar, GraphKind::kPath,
    GraphKind::kDisconnected, GraphKind::kMultiBlock};

const char* kind_name(GraphKind kind) {
  switch (kind) {
    case GraphKind::kErdosRenyi: return "er";
    case GraphKind::kStar: return "star";
    case GraphKind::kPath: return "path";
    case GraphKind::kDisconnected: return "disconnected";
    case GraphKind::kMultiBlock: return "multiblock";
  }
  return "?";
}

// Sizes stay in the 60..130 range: big enough that round 0 (all n nodes) and
// the flood wavefronts clear the parallel-dispatch threshold at every tested
// thread count, small enough that 250 cases finish quickly under TSan.
Graph make_test_graph(GraphKind kind, std::uint64_t seed) {
  util::Rng rng(0x9a7a11e1u ^ (seed * 0x9e3779b97f4a7c15ull));
  switch (kind) {
    case GraphKind::kErdosRenyi: {
      const auto n = static_cast<VertexId>(80 + rng.next_below(50));
      const std::uint64_t m = 2 * n + rng.next_below(2 * n);
      return graph::connected_gnm(n, m, rng);
    }
    case GraphKind::kStar: {
      const auto leaves = static_cast<VertexId>(70 + rng.next_below(40));
      return graph::complete_bipartite(1, leaves);
    }
    case GraphKind::kPath: {
      return graph::path_graph(static_cast<VertexId>(70 + rng.next_below(50)));
    }
    case GraphKind::kDisconnected: {
      // Two independent G(n, m) blocks with no edge between them.
      graph::GraphBuilder b;
      VertexId offset = 0;
      for (int block = 0; block < 2; ++block) {
        const auto n = static_cast<VertexId>(35 + rng.next_below(25));
        const std::uint64_t m = 2 * n + rng.next_below(n);
        const Graph part = graph::connected_gnm(n, m, rng);
        for (const auto& e : part.edges()) {
          b.add_edge(offset + e.u, offset + e.v);
        }
        offset += n;
      }
      return std::move(b).build();
    }
    case GraphKind::kMultiBlock: {
      const auto cliques = static_cast<VertexId>(6 + rng.next_below(5));
      const auto size = static_cast<VertexId>(8 + rng.next_below(5));
      return seed % 2 == 0
                 ? graph::ring_of_cliques(cliques, size)
                 : graph::clique_chain(
                       cliques, size,
                       static_cast<std::uint32_t>(1 + rng.next_below(3)));
    }
  }
  return graph::path_graph(2);
}

// One protocol-family run under the given execution configuration. The
// protocol object is rebuilt per run: differential comparison must cover the
// whole construction, not a warm-started one.
enum class ProtocolKind { kFlood, kBall, kExpand, kSkeleton, kFibonacci, kMis };

constexpr ProtocolKind kProtocolKinds[] = {
    ProtocolKind::kFlood,    ProtocolKind::kBall,      ProtocolKind::kExpand,
    ProtocolKind::kSkeleton, ProtocolKind::kFibonacci, ProtocolKind::kMis};

std::vector<std::uint8_t> random_sources(const Graph& g, std::uint64_t seed,
                                         double rate) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.bernoulli(rate)) is_source[v] = 1;
  }
  is_source[0] = 1;  // at least one source even on unlucky draws
  return is_source;
}

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFlood: return "flood";
    case ProtocolKind::kBall: return "ball";
    case ProtocolKind::kExpand: return "expand";
    case ProtocolKind::kSkeleton: return "skeleton";
    case ProtocolKind::kFibonacci: return "fibonacci";
    case ProtocolKind::kMis: return "mis";
  }
  return "?";
}

Trace run_case(ProtocolKind kind, const Graph& g, std::uint64_t seed,
               AuditMode audit, ExecutionMode exec, unsigned threads) {
  switch (kind) {
    case ProtocolKind::kFlood: {
      // Alternate the two flood variants across seeds.
      if (seed % 2 == 0) {
        sim::Network net(g, 1, audit, exec, threads);
        sim::BfsFlood flood(static_cast<VertexId>(seed % 5));
        return Trace(net.run(flood, 4096));
      }
      sim::Network net(g, 1, audit, exec, threads);
      sim::TruncatedMinIdFlood flood(random_sources(g, seed, 0.08), 4);
      return Trace(net.run(flood, 4096));
    }
    case ProtocolKind::kBall: {
      // A 4-word cap: nodes that would relay more cease, mid-round.
      sim::Network net(g, 4, audit, exec, threads);
      sim::BallBroadcast balls(random_sources(g, seed, 0.1), 3);
      return Trace(net.run(balls, 4096));
    }
    case ProtocolKind::kExpand:
      return Trace(
          baselines::baswana_sen_distributed(g, 3, seed, 8, audit, exec,
                                             threads)
              .network);
    case ProtocolKind::kSkeleton:
      return Trace(core::build_skeleton_distributed(
                       g, {.D = 4,
                           .eps = 1.0,
                           .seed = seed,
                           .audit = audit,
                           .exec = exec,
                           .exec_threads = threads})
                       .network);
    case ProtocolKind::kFibonacci: {
      core::FibonacciParams params;
      params.order = 2;
      params.eps = 1.0;
      params.message_t = 3.0;
      params.seed = seed;
      params.audit = audit;
      params.exec = exec;
      params.exec_threads = threads;
      return Trace(core::build_fibonacci_distributed(g, params).network);
    }
    case ProtocolKind::kMis: {
      // Run directly: cds_skeleton_distributed builds a sequential Network,
      // so this is the only place the MIS atomics meet parallel lanes.
      sim::Network net(g, 2, audit, exec, threads);  // rank messages: 2 words
      baselines::LubyMisProtocol mis(seed);
      return Trace(net.run(mis, 4096));
    }
  }
  throw std::logic_error("unreachable");
}

class ParallelDifferential : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ParallelDifferential, MatchesSequentialTraceExactly) {
  const ProtocolKind protocol = GetParam();
  // 10 seeds x 5 graph kinds x 6 protocol families = 300 cases overall.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const GraphKind kind : kGraphKinds) {
      const Graph g = make_test_graph(kind, seed);
      const Trace want =
          run_case(protocol, g, seed, AuditMode::kStrict,
                   ExecutionMode::kSequential, 0);
      for (const unsigned threads : kThreadCounts) {
        const std::string label =
            std::string(protocol_name(protocol)) + "/" + kind_name(kind) +
            " seed=" + std::to_string(seed) +
            " threads=" + std::to_string(threads);
        const Trace strict = run_case(protocol, g, seed, AuditMode::kStrict,
                                      ExecutionMode::kParallel, threads);
        EXPECT_TRACE_EQ(want, strict, label + " strict");
      }
      // The fast auditor must not change the parallel trace either.
      const Trace fast = run_case(protocol, g, seed, AuditMode::kFast,
                                  ExecutionMode::kParallel, 4);
      EXPECT_TRACE_EQ(want, fast,
                      std::string(protocol_name(protocol)) + "/" +
                          kind_name(kind) + " seed=" + std::to_string(seed) +
                          " fast/4");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ParallelDifferential,
                         ::testing::ValuesIn(kProtocolKinds),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

// --- Golden digests (from digest_equivalence_test.cpp) under kParallel ----

struct Golden {
  std::uint64_t digest, rounds, messages, total_words;
};

TEST(ParallelGoldenDigest, DistributedSkeleton) {
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const Golden want[] = {{9920093477882535019ull, 46, 8565, 26049},
                         {533071475084392225ull, 61, 9523, 28759}};
  const std::uint64_t seeds[] = {9, 10};
  for (int i = 0; i < 2; ++i) {
    const auto r = core::build_skeleton_distributed(
        g, {.D = 4,
            .eps = 1.0,
            .seed = seeds[i],
            .exec = ExecutionMode::kParallel,
            .exec_threads = 4});
    EXPECT_EQ(r.network.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(r.network.rounds, want[i].rounds);
    EXPECT_EQ(r.network.messages, want[i].messages);
    EXPECT_EQ(r.network.total_words, want[i].total_words);
  }
}

TEST(ParallelGoldenDigest, DistributedFibonacci) {
  util::Rng rng(43);
  const Graph g = graph::connected_gnm(200, 520, rng);
  const Golden want[] = {{6356776267301215081ull, 283695, 6243, 13365},
                         {5328015492174695108ull, 1676, 7902, 11723}};
  const std::uint64_t seeds[] = {7, 8};
  for (int i = 0; i < 2; ++i) {
    core::FibonacciParams params;
    params.order = 2;
    params.eps = 1.0;
    params.message_t = 3.0;
    params.seed = seeds[i];
    params.exec = ExecutionMode::kParallel;
    params.exec_threads = 4;
    const auto r = core::build_fibonacci_distributed(g, params);
    EXPECT_EQ(r.network.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(r.network.rounds, want[i].rounds);
    EXPECT_EQ(r.network.messages, want[i].messages);
    EXPECT_EQ(r.network.total_words, want[i].total_words);
  }
}

TEST(ParallelGoldenDigest, BfsFlood) {
  const Golden want[] = {{9123858175633504614ull, 6, 703, 703},
                         {15268099023596930062ull, 6, 715, 715}};
  const std::uint64_t seeds[] = {31, 32};
  for (int i = 0; i < 2; ++i) {
    util::Rng rng(seeds[i]);
    const Graph g = graph::connected_gnm(120, 300, rng);
    sim::Network net(g, 1, AuditMode::kStrict, ExecutionMode::kParallel, 4);
    sim::BfsFlood flood(7);
    const auto m = net.run(flood, 1000);
    EXPECT_EQ(m.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(m.rounds, want[i].rounds);
    EXPECT_EQ(m.messages, want[i].messages);
    EXPECT_EQ(m.total_words, want[i].total_words);
  }
}

TEST(ParallelGoldenDigest, TruncatedMinIdFlood) {
  const Golden want[] = {{5946328646144447975ull, 4, 619, 619},
                         {4898565372255727991ull, 4, 747, 747}};
  const std::uint64_t seeds[] = {33, 34};
  for (int i = 0; i < 2; ++i) {
    util::Rng rng(seeds[i]);
    const Graph g = graph::connected_gnm(150, 400, rng);
    std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.bernoulli(0.05)) is_source[v] = 1;
    }
    sim::Network net(g, 1, AuditMode::kStrict, ExecutionMode::kParallel, 4);
    sim::TruncatedMinIdFlood flood(is_source, 3);
    const auto m = net.run(flood, 10);
    EXPECT_EQ(m.trace_digest, want[i].digest) << "seed " << seeds[i];
    EXPECT_EQ(m.rounds, want[i].rounds);
    EXPECT_EQ(m.messages, want[i].messages);
    EXPECT_EQ(m.total_words, want[i].total_words);
  }
}

// SkeletonOutputGolden's abort-rule schedules (digest_equivalence_test.cpp):
// the abort path is where several lanes bump the same counters and keep
// incident edges at once. The trace pins are the sequential ones; the
// counters and the edge count must match the sequential run, though the
// spanner's insertion order follows the lane interleaving.
TEST(ParallelGoldenDigest, ClusterProtocolAbortRule) {
  struct Case {
    std::uint64_t m;
    std::vector<core::RoundPlan> rounds;
    std::uint64_t digest, edges, joins, deaths, aborts;
  };
  const Case cases[] = {
      {2400, {{{0.2, 0.1, 0.0}, 0}}, 0x649761f3bdba2ff8ull, 1659, 457, 300,
       21},
      {600, {{{0.5}, 0}, {{0.5}, 0}, {{0.5, 0.0}, 0}}, 9096826999904009272ull,
       871, 240, 92, 9},
  };
  for (const Case& c : cases) {
    util::Rng rng(41);
    const Graph g = graph::connected_gnm(300, c.m, rng);
    core::SkeletonSchedule schedule;
    schedule.rounds = c.rounds;
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE("m=" + std::to_string(c.m) +
                   " threads=" + std::to_string(threads));
      sim::Network net(g, 8, AuditMode::kStrict, ExecutionMode::kParallel,
                       threads);
      spanner::Spanner out(g);
      core::ClusterProtocol protocol(g, schedule, 9, &out, 0.1);
      EXPECT_EQ(net.run(protocol, 4096).trace_digest, c.digest);
      EXPECT_EQ(out.size(), c.edges);
      EXPECT_EQ(protocol.stats().joins, c.joins);
      EXPECT_EQ(protocol.stats().deaths, c.deaths);
      EXPECT_EQ(protocol.stats().aborts, c.aborts);
    }
  }
}

// --- Executor plumbing edge cases -----------------------------------------

// An exception thrown by a node running inside a worker shard must come out
// of Network::run on the simulator thread, not kill the process.
class OversizeEverywhere : public sim::Protocol {
 public:
  void begin(sim::Network&) override {}
  void on_round(sim::Mailbox& mb) override {
    const std::vector<sim::Word> huge(mb.message_cap() + 1, 7);
    if (!mb.neighbors().empty()) mb.send(mb.neighbors()[0], huge);
  }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return net.round() > 2;
  }
};

TEST(ParallelExecutor, WorkerExceptionPropagates) {
  const Graph g = graph::path_graph(96);
  sim::Network net(g, 2, AuditMode::kStrict, ExecutionMode::kParallel, 4);
  OversizeEverywhere p;
  EXPECT_THROW(net.run(p, 100), sim::MessageTooLong);
}

// A Network object stays reusable after a parallel run (fresh protocol, same
// pool): back-to-back runs must accumulate exactly the metrics a reused
// sequential Network accumulates. (Protocols may key off the absolute round
// counter, which keeps counting across runs, so the reference must be a
// reused Network too, not a fresh one.)
TEST(ParallelExecutor, NetworkReusableAcrossRuns) {
  util::Rng rng(77);
  const Graph g = graph::connected_gnm(100, 260, rng);
  sim::Network net(g, 1, AuditMode::kStrict, ExecutionMode::kParallel, 4);
  sim::Network ref(g, 1);
  EXPECT_EQ(net.worker_threads(), 4u);
  EXPECT_EQ(ref.worker_threads(), 1u);
  for (int run = 0; run < 2; ++run) {
    sim::BfsFlood a(3);
    sim::BfsFlood b(3);
    const auto got = net.run(a, 1000);
    const auto want = ref.run(b, 1000);
    EXPECT_EQ(got.trace_digest, want.trace_digest) << "run " << run;
    EXPECT_EQ(got.rounds, want.rounds) << "run " << run;
    EXPECT_EQ(got.messages, want.messages) << "run " << run;
    EXPECT_EQ(got.total_words, want.total_words) << "run " << run;
  }
}

TEST(ParallelExecutor, SequentialModeResolvesToOneLane) {
  const Graph g = graph::path_graph(4);
  sim::Network net(g, 1, AuditMode::kStrict, ExecutionMode::kSequential, 16);
  EXPECT_EQ(net.worker_threads(), 1u);
}

}  // namespace
}  // namespace ultra
