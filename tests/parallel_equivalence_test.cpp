// Randomized differential testing of ExecutionMode::kParallel.
//
// The parallel round executor is only allowed to change *wall-clock*: for
// every graph, protocol, audit mode and thread count, the delivered
// communication trace — trace_digest, rounds, messages, total words — must
// be byte-identical to ExecutionMode::kSequential, and so must the ball
// broadcast's records and cessations, the ClusterProtocol runs' and the
// Fibonacci build's spanner edge sequences and counters, and the MIS with
// its Luby round count. This harness drives that
// claim through ~300 seeded random cases: five graph families (Erdős–Rényi,
// star, path, disconnected, multi-block) crossed with the six protocol
// families (flood, ball broadcast, Expand/Baswana–Sen, skeleton, Fibonacci,
// Luby MIS), each compared against the sequential reference at 1, 2, 4 and 7
// worker threads plus a kFast parallel run. It also re-asserts the golden
// digests pinned in digest_equivalence_test.cpp under kParallel, with the
// skeleton's edge sequence and counters and the two abort-rule schedules
// among them, checks that exceptions thrown inside worker shards propagate
// out of Network::run, that Mailbox::lane() numbers ascending slices of the
// worklist, and checks Mailbox::send_all against a loop of send across
// three destination shards.
//
// Under ThreadSanitizer (CI's tsan-checked job) this file is the race
// check of record for on_round: every Protocol subclass in src/ runs here
// under kParallel, and ultra_lint_test fails if one is not named here.
//
// Thread counts deliberately include 1 (pool-free parallel path), powers of
// two, and a prime (7) that does not divide typical worklist sizes, so shard
// boundaries land in the middle of rounds in many different ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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
#include "util/fnv.h"
#include "util/rng.h"

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;
using sim::AuditMode;
using sim::ExecutionMode;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 7};

// A run's communication, plus `outputs`: a fold of what the protocol
// computed, for the families that fold one (ball broadcast, the
// ClusterProtocol runs, Fibonacci and the MIS).
struct Trace {
  std::uint64_t digest = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_words = 0;
  std::uint64_t outputs = util::kFnvOffset;

  explicit Trace(const sim::Metrics& m)
      : digest(m.trace_digest),
        rounds(m.rounds),
        messages(m.messages),
        total_words(m.total_words) {}

  void fold(std::uint64_t w) { outputs = util::fnv_fold(outputs, w); }

  friend bool operator==(const Trace&, const Trace&) = default;
};

#define EXPECT_TRACE_EQ(a, b, label)                        \
  do {                                                      \
    EXPECT_EQ((a).digest, (b).digest) << (label);           \
    EXPECT_EQ((a).rounds, (b).rounds) << (label);           \
    EXPECT_EQ((a).messages, (b).messages) << (label);       \
    EXPECT_EQ((a).total_words, (b).total_words) << (label); \
    EXPECT_EQ((a).outputs, (b).outputs) << (label);         \
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

// A ClusterProtocol run: its communication, the spanner's edge sequence in
// insertion order and the eight counters a fault-free run moves.
Trace cluster_trace(const sim::Metrics& network, const spanner::Spanner& s,
                    const core::ClusterProtocolStats& st) {
  Trace t(network);
  for (const graph::Edge& e : s.edges()) {
    t.fold(e.u);
    t.fold(e.v);
  }
  for (const std::uint64_t c :
       {st.joins, st.deaths, st.aborts, st.expand_calls, st.status_rounds,
        st.gather_rounds, st.contraction_rounds, st.broadcast_rounds}) {
    t.fold(c);
  }
  return t;
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
      // A 4-word cap: nodes that would relay more cease, mid-round. Every
      // node's records (from the index the run's end builds) and the
      // cessations are folded in.
      sim::Network net(g, 4, audit, exec, threads);
      sim::BallBroadcast balls(random_sources(g, seed, 0.1), 3);
      Trace t(net.run(balls, 4096));
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        t.fold(balls.known(v).size());
        for (const auto& k : balls.known(v)) {
          t.fold(k.source);
          t.fold(k.dist);
          t.fold(k.parent);
        }
      }
      for (const auto& [v, step] : balls.ceased()) {
        t.fold(v);
        t.fold(step);
      }
      return t;
    }
    case ProtocolKind::kExpand: {
      const auto r = baselines::baswana_sen_distributed(g, 3, seed, 8, audit,
                                                        exec, threads);
      return cluster_trace(r.network, r.spanner, r.protocol);
    }
    case ProtocolKind::kSkeleton: {
      const auto r = core::build_skeleton_distributed(
          g, {.D = 4,
              .eps = 1.0,
              .seed = seed,
              .audit = audit,
              .exec = exec,
              .exec_threads = threads});
      return cluster_trace(r.network, r.spanner, r.protocol);
    }
    case ProtocolKind::kFibonacci: {
      core::FibonacciParams params;
      params.order = 2;
      params.eps = 1.0;
      params.message_t = 3.0;
      params.seed = seed;
      params.audit = audit;
      params.exec = exec;
      params.exec_threads = threads;
      // The spanner edge sequence and every stats counter are folded in.
      const auto r = core::build_fibonacci_distributed(g, params);
      Trace t(r.network);
      for (const graph::Edge& e : r.spanner.edges()) {
        t.fold(e.u);
        t.fold(e.v);
      }
      const core::DistributedFibonacciStats& st = r.stats;
      for (const std::uint64_t c :
           {st.stage1_rounds, st.stage2_rounds, st.marking_rounds,
            st.repair_rounds, st.ceased_nodes, st.failures_detected,
            st.repair_edges}) {
        t.fold(c);
      }
      for (const std::uint64_t size : st.level_sizes) t.fold(size);
      return t;
    }
    case ProtocolKind::kMis: {
      // Run directly: cds_skeleton_distributed builds a sequential Network,
      // so this is the only place the MIS counters meet parallel lanes. The
      // membership and the Luby round count are folded in.
      sim::Network net(g, 2, audit, exec, threads);  // rank messages: 2 words
      baselines::LubyMisProtocol mis(seed);
      Trace t(net.run(mis, 4096));
      for (const std::uint8_t in : mis.in_mis()) t.fold(in);
      t.fold(mis.luby_rounds());
      return t;
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

// SkeletonOutputGolden's edge-sequence digest (digest_equivalence_test.cpp):
// byte-wise FNV-1a over spanner.edges() in insertion order.
std::uint64_t edge_sequence_digest(const spanner::Spanner& s) {
  std::uint64_t h = util::kFnvOffset;
  for (const graph::Edge& e : s.edges()) {
    const std::uint64_t key = graph::edge_key(e);
    for (int i = 0; i < 8; ++i) {
      h ^= (key >> (8 * i)) & 0xffu;
      h *= util::kFnvPrime;
    }
  }
  return h;
}

TEST(ParallelGoldenDigest, DistributedSkeleton) {
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const Golden want[] = {{9920093477882535019ull, 46, 8565, 26049},
                         {533071475084392225ull, 61, 9523, 28759}};
  // SkeletonOutputGolden.GoldenDigestSeeds: the edge-sequence digest, the
  // edge count and every ClusterProtocolStats counter in declaration order.
  const std::uint64_t want_output[][14] = {
      {7986141628175926931ull, 488, 239, 55, 0, 4, 4, 30, 0, 4, 8, 0, 0, 0},
      {11206513896433093928ull, 399, 259, 30, 0, 4, 4, 42, 0, 4, 11, 0, 0,
       0}};
  const std::uint64_t seeds[] = {9, 10};
  for (const unsigned threads : {2u, 4u, 7u}) {
    for (int i = 0; i < 2; ++i) {
      SCOPED_TRACE("seed " + std::to_string(seeds[i]) +
                   " threads=" + std::to_string(threads));
      const auto r = core::build_skeleton_distributed(
          g, {.D = 4,
              .eps = 1.0,
              .seed = seeds[i],
              .exec = ExecutionMode::kParallel,
              .exec_threads = threads});
      EXPECT_EQ(r.network.trace_digest, want[i].digest);
      EXPECT_EQ(r.network.rounds, want[i].rounds);
      EXPECT_EQ(r.network.messages, want[i].messages);
      EXPECT_EQ(r.network.total_words, want[i].total_words);
      const core::ClusterProtocolStats& st = r.protocol;
      const std::uint64_t got[] = {
          edge_sequence_digest(r.spanner), r.spanner.size(), st.joins,
          st.deaths, st.aborts, st.expand_calls, st.status_rounds,
          st.gather_rounds, st.resolve_rounds, st.contraction_rounds,
          st.broadcast_rounds, st.crash_teardowns, st.crash_rejoins,
          st.orphans_healed};
      for (std::size_t k = 0; k < std::size(got); ++k) {
        EXPECT_EQ(got[k], want_output[i][k]) << "output field " << k;
      }
    }
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
// the abort path is where several lanes count deaths and aborts and keep
// incident edges in one round. The trace, the edge sequence and the
// counters must match the sequential pins.
TEST(ParallelGoldenDigest, ClusterProtocolAbortRule) {
  struct Case {
    std::uint64_t m;
    std::vector<core::RoundPlan> rounds;
    std::uint64_t digest, edge_digest, edges, joins, deaths, aborts;
  };
  const Case cases[] = {
      {2400, {{{0.2, 0.1, 0.0}, 0}}, 0x649761f3bdba2ff8ull,
       14578782264560035067ull, 1659, 457, 300, 21},
      {600, {{{0.5}, 0}, {{0.5}, 0}, {{0.5, 0.0}, 0}}, 9096826999904009272ull,
       16514731424955456824ull, 871, 240, 92, 9},
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
      EXPECT_EQ(edge_sequence_digest(out), c.edge_digest);
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

// Records the lane of every activation: every vertex, in each of kRounds
// rounds. Each activation writes only its own vertex's slot.
class LaneRecorder : public sim::Protocol {
 public:
  static constexpr std::uint64_t kRounds = 3;
  static constexpr unsigned kNone = ~0u;

  void begin(sim::Network& net) override {
    lanes_.assign(kRounds, std::vector<unsigned>(net.num_nodes(), kNone));
  }
  void on_round(sim::Mailbox& mb) override {
    lanes_[mb.round()][mb.self()] = mb.lane();
    if (mb.round() + 1 < kRounds) mb.stay_awake();
  }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return net.round() >= kRounds;
  }

  // lanes()[r][v]: the lane that ran v in round r.
  [[nodiscard]] const std::vector<std::vector<unsigned>>& lanes() const {
    return lanes_;
  }

 private:
  std::vector<std::vector<unsigned>> lanes_;
};

// lane() is 0 under kSequential; under kParallel it is below
// worker_threads(), never falls as ids rise within a round, and some round
// runs above lane 0. That is what lets a protocol fold per-lane output in
// lane order and get the sequential order.
TEST(ParallelExecutor, LanesAscendWithTheWorklist) {
  const Graph g = graph::path_graph(200);
  for (const ExecutionMode exec :
       {ExecutionMode::kSequential, ExecutionMode::kParallel}) {
    for (const unsigned threads : {2u, 4u, 7u}) {
      const bool parallel = exec == ExecutionMode::kParallel;
      SCOPED_TRACE(std::string(parallel ? "parallel" : "sequential") +
                   " threads=" + std::to_string(threads));
      sim::Network net(g, 1, AuditMode::kStrict, exec, threads);
      EXPECT_EQ(sim::Mailbox(net, 0).lane(), 0u);
      LaneRecorder p;
      net.run(p, 16);
      unsigned top = 0;
      for (const std::vector<unsigned>& round : p.lanes()) {
        unsigned prev = 0;
        for (const unsigned lane : round) {
          ASSERT_NE(lane, LaneRecorder::kNone);
          EXPECT_LT(lane, net.worker_threads());
          EXPECT_GE(lane, prev);
          prev = lane;
          top = std::max(top, lane);
        }
      }
      if (parallel) {
        EXPECT_GT(top, 0u);
      } else {
        EXPECT_EQ(top, 0u);
      }
    }
  }
}

// --- send_all against a loop of send ---------------------------------------

// Three destination shards, a hub in the middle one adjacent to every fifth
// vertex of all three, and random edges.
constexpr VertexId kShardHostHub = sim::kDestShardSize + 17;

Graph make_shard_host() {
  constexpr VertexId n = 9001;
  static_assert(n > 2 * sim::kDestShardSize, "three destination shards");
  util::Rng rng(0x5e4d);
  graph::GraphBuilder b(n);
  for (VertexId v = 0; v < n; v += 5) b.add_edge(kShardHostHub, v);
  for (VertexId i = 0; i < 4 * n; ++i) {
    b.add_edge(static_cast<VertexId>(rng.next_below(n)),
               static_cast<VertexId>(rng.next_below(n)));
  }
  return std::move(b).build();
}

// Three rounds of mixed traffic, after which every vertex has folded each
// inbox it received. Each round the hub and a third of the vertices
// broadcast 1 to 4 words, by send_all or by a loop of send over
// neighbors(); another third send 1 or 2 words to their first and last
// neighbors. Only broadcasts reach 4 words, so max_message_words reads
// theirs.
class MixedBroadcasts : public sim::Protocol {
 public:
  static constexpr std::uint64_t kRounds = 3;

  explicit MixedBroadcasts(bool loop) : loop_(loop) {}

  void begin(sim::Network& net) override {
    inboxes_.assign(net.num_nodes(), util::kFnvOffset);
  }

  void on_round(sim::Mailbox& mb) override {
    const VertexId v = mb.self();
    const std::uint64_t r = mb.round();
    std::uint64_t& h = inboxes_[v];
    h = util::fnv_fold(h, r);
    h = util::fnv_fold(h, mb.inbox().size());
    for (const sim::MessageView& m : mb.inbox()) {
      h = util::fnv_fold(h, m.from);
      h = util::fnv_fold(h, m.payload.size());
      for (const sim::Word w : m.payload) h = util::fnv_fold(h, w);
    }
    const auto nbrs = mb.neighbors();
    if (r >= kRounds || nbrs.empty()) return;
    mb.stay_awake();
    const std::uint64_t role = (v + r) % 3;
    if (v == kShardHostHub || role == 0) {
      const sim::Word words[4] = {v, r, v ^ r, 7};
      const std::span<const sim::Word> payload(words, 1 + (v + r) % 4);
      if (!loop_) {
        mb.send_all(payload);
        return;
      }
      for (const VertexId w : nbrs) mb.send(w, payload);
    } else if (role == 1) {
      mb.send(nbrs.front(), sim::Word{v});
      if (nbrs.size() > 1) mb.send(nbrs.back(), {v, r});
    }
  }

  [[nodiscard]] bool done(const sim::Network& net) const override {
    return net.round() > kRounds;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& inboxes() const noexcept {
    return inboxes_;
  }

 private:
  bool loop_;
  std::vector<std::uint64_t> inboxes_;  // per vertex, written only by it
};

TEST(SendAll, MatchesLoopOfSendAcrossShardsAndExecutors) {
  const Graph g = make_shard_host();
  ASSERT_GT(g.num_vertices(), 2 * sim::kDestShardSize);
  sim::Network ref_net(g, 4);
  MixedBroadcasts ref(/*loop=*/true);
  const sim::Metrics want = ref_net.run(ref, 16);
  ASSERT_EQ(want.max_message_words, 4u);
  for (const AuditMode audit : {AuditMode::kStrict, AuditMode::kFast}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const std::string label =
          std::string(audit == AuditMode::kStrict ? "strict" : "fast") +
          " threads=" + std::to_string(threads);
      sim::Network net(g, 4, audit, ExecutionMode::kParallel, threads);
      MixedBroadcasts got_protocol(/*loop=*/false);
      const sim::Metrics got = net.run(got_protocol, 16);
      EXPECT_EQ(got.trace_digest, want.trace_digest) << label;
      EXPECT_EQ(got.rounds, want.rounds) << label;
      EXPECT_EQ(got.messages, want.messages) << label;
      EXPECT_EQ(got.total_words, want.total_words) << label;
      EXPECT_EQ(got.max_message_words, want.max_message_words) << label;
      EXPECT_TRUE(got_protocol.inboxes() == ref.inboxes()) << label;
    }
  }
}

// One round in which the hub runs `act`.
class HubRound : public sim::Protocol {
 public:
  explicit HubRound(std::function<void(sim::Mailbox&)> act)
      : act_(std::move(act)) {}
  void begin(sim::Network&) override {}
  void on_round(sim::Mailbox& mb) override {
    if (mb.self() == kShardHostHub) act_(mb);
  }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return net.round() > 0;
  }

 private:
  std::function<void(sim::Mailbox&)> act_;
};

// send_all takes every arc of the sender's block for the round, the last
// shard's too: a later send on one of them, or a second send_all, throws.
TEST(SendAll, TakesEveryArcOfTheRound) {
  const Graph g = make_shard_host();
  const VertexId last = g.neighbors(kShardHostHub).back();
  ASSERT_EQ(last >> sim::kDestShardBits,
            (g.num_vertices() - 1) >> sim::kDestShardBits);
  for (const ExecutionMode exec :
       {ExecutionMode::kSequential, ExecutionMode::kParallel}) {
    {
      sim::Network net(g, 4, AuditMode::kStrict, exec, 4);
      HubRound p([last](sim::Mailbox& mb) {
        mb.send_all({sim::Word{1}});
        mb.send(last, sim::Word{2});
      });
      EXPECT_THROW(net.run(p, 4), std::invalid_argument);
    }
    {
      sim::Network net(g, 4, AuditMode::kStrict, exec, 4);
      HubRound p([](sim::Mailbox& mb) {
        mb.send_all({sim::Word{1}});
        mb.send_all({sim::Word{2}});
      });
      EXPECT_THROW(net.run(p, 4), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace ultra
