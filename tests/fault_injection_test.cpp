// Fault-injection test suite (ctest label "faults").
//
// Three contracts are pinned here:
//   1. An *empty* FaultPlan attached to a Network is invisible: every golden
//      trace digest of digest_equivalence_test.cpp is reproduced byte for
//      byte, in both audit modes and under the parallel executor at several
//      worker counts.
//   2. A *non-empty* plan is deterministic across executors: the same seeded
//      schedule produces identical trace digests, round/message tallies and
//      fault counters under kSequential and kParallel at any thread count,
//      in both audit modes — faults are a pure function of (seed, rates,
//      coordinates), never of scheduling.
//   3. The supervisor always ends with a certified structure: across a
//      seeded matrix of fault scenarios every supervised run returns ok with
//      a correct provenance trail (the winning attempt is the last one, its
//      tier matches the result, and no uncertified attempt "wins").
// Plus watchdog semantics: RunOutcome classifies budget exhaustion vs
// deadlock, and the legacy Network::run raises on non-completion.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baswana_sen_distributed.h"
#include "check/check.h"
#include "core/cluster_protocol.h"
#include "core/fibonacci_distributed.h"
#include "core/schedule.h"
#include "core/skeleton_distributed.h"
#include "graph/generators.h"
#include "sim/faults.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "sim/supervisor.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;
using sim::AuditMode;
using sim::ExecutionMode;
using sim::FaultPlan;
using sim::FaultRates;

// Executor sweep used throughout: sequential plus parallel at 1/2/4/7
// workers (7 deliberately does not divide typical worklists evenly).
struct Exec {
  ExecutionMode mode;
  unsigned threads;
};
const Exec kExecs[] = {{ExecutionMode::kSequential, 0},
                       {ExecutionMode::kParallel, 1},
                       {ExecutionMode::kParallel, 2},
                       {ExecutionMode::kParallel, 4},
                       {ExecutionMode::kParallel, 7}};
const AuditMode kAudits[] = {AuditMode::kStrict, AuditMode::kFast};

// Field order: digest, rounds, messages, words, then the five fault
// counters, then status — the order of the absolute pins below.
struct FaultTrace {
  std::uint64_t digest = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_words = 0;
  std::uint64_t dropped = 0, duplicated = 0, delayed = 0, crashed = 0,
                 restarted = 0;
  sim::RunStatus status = sim::RunStatus::kCompleted;

  friend bool operator==(const FaultTrace&, const FaultTrace&) = default;
};

FaultTrace trace_of(const sim::Metrics& m, sim::RunStatus s) {
  FaultTrace t;
  t.digest = m.trace_digest;
  t.rounds = m.rounds;
  t.messages = m.messages;
  t.total_words = m.total_words;
  t.dropped = m.faults.dropped;
  t.duplicated = m.faults.duplicated;
  t.delayed = m.faults.delayed;
  t.crashed = m.faults.crashed;
  t.restarted = m.faults.restarted;
  t.status = s;
  return t;
}

#define EXPECT_FAULT_TRACE_EQ(a, b)                  \
  do {                                               \
    EXPECT_EQ((a).digest, (b).digest);               \
    EXPECT_EQ((a).rounds, (b).rounds);               \
    EXPECT_EQ((a).messages, (b).messages);           \
    EXPECT_EQ((a).total_words, (b).total_words);     \
    EXPECT_EQ((a).dropped, (b).dropped);             \
    EXPECT_EQ((a).duplicated, (b).duplicated);       \
    EXPECT_EQ((a).delayed, (b).delayed);             \
    EXPECT_EQ((a).crashed, (b).crashed);             \
    EXPECT_EQ((a).restarted, (b).restarted);         \
    EXPECT_EQ(int((a).status), int((b).status));     \
  } while (0)

// --- 1. Empty plans reproduce every golden digest ------------------------

struct Golden {
  std::uint64_t digest, rounds, messages, total_words;
};

TEST(EmptyPlanGolden, BfsFloodAllExecutorsAllAudits) {
  const Golden want[] = {{9123858175633504614ull, 6, 703, 703},
                        {15268099023596930062ull, 6, 715, 715}};
  const std::uint64_t seeds[] = {31, 32};
  const FaultPlan empty;
  ASSERT_TRUE(empty.empty());
  for (int i = 0; i < 2; ++i) {
    util::Rng rng(seeds[i]);
    const Graph g = graph::connected_gnm(120, 300, rng);
    for (const AuditMode audit : kAudits) {
      for (const Exec& e : kExecs) {
        sim::Network net(g, 1, audit, e.mode, e.threads);
        net.set_fault_plan(&empty);
        sim::BfsFlood flood(7);
        const auto m = net.run(flood, 1000);
        EXPECT_EQ(m.trace_digest, want[i].digest) << "seed " << seeds[i];
        EXPECT_EQ(m.rounds, want[i].rounds);
        EXPECT_EQ(m.messages, want[i].messages);
        EXPECT_EQ(m.total_words, want[i].total_words);
        EXPECT_EQ(m.faults.dropped + m.faults.duplicated + m.faults.delayed +
                      m.faults.crashed + m.faults.restarted,
                  0u);
      }
    }
  }
}

TEST(EmptyPlanGolden, TruncatedMinIdFloodAllExecutorsAllAudits) {
  const Golden want[] = {{5946328646144447975ull, 4, 619, 619},
                        {4898565372255727991ull, 4, 747, 747}};
  const std::uint64_t seeds[] = {33, 34};
  const FaultPlan empty;
  for (int i = 0; i < 2; ++i) {
    util::Rng rng(seeds[i]);
    const Graph g = graph::connected_gnm(150, 400, rng);
    std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.bernoulli(0.05)) is_source[v] = 1;
    }
    for (const AuditMode audit : kAudits) {
      for (const Exec& e : kExecs) {
        sim::Network net(g, 1, audit, e.mode, e.threads);
        net.set_fault_plan(&empty);
        sim::TruncatedMinIdFlood flood(is_source, 3);
        const auto m = net.run(flood, 10);
        EXPECT_EQ(m.trace_digest, want[i].digest) << "seed " << seeds[i];
        EXPECT_EQ(m.rounds, want[i].rounds);
        EXPECT_EQ(m.messages, want[i].messages);
        EXPECT_EQ(m.total_words, want[i].total_words);
      }
    }
  }
}

TEST(EmptyPlanGolden, DistributedSkeletonAllExecutorsAllAudits) {
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const Golden want[] = {{9920093477882535019ull, 46, 8565, 26049},
                        {533071475084392225ull, 61, 9523, 28759}};
  const std::uint64_t seeds[] = {9, 10};
  const FaultPlan empty;
  for (int i = 0; i < 2; ++i) {
    for (const AuditMode audit : kAudits) {
      for (const Exec& e : kExecs) {
        const auto r = core::build_skeleton_distributed(
            g, {.D = 4,
                .eps = 1.0,
                .seed = seeds[i],
                .audit = audit,
                .exec = e.mode,
                .exec_threads = e.threads,
                .faults = &empty});
        EXPECT_EQ(r.network.trace_digest, want[i].digest)
            << "seed " << seeds[i];
        EXPECT_EQ(r.network.rounds, want[i].rounds);
        EXPECT_EQ(r.network.messages, want[i].messages);
        EXPECT_EQ(r.network.total_words, want[i].total_words);
        EXPECT_EQ(r.protocol.crash_teardowns, 0u);
        EXPECT_EQ(r.protocol.crash_rejoins, 0u);
        EXPECT_EQ(r.protocol.orphans_healed, 0u);
      }
    }
  }
}

TEST(EmptyPlanGolden, DistributedFibonacciAllExecutorsAllAudits) {
  util::Rng rng(43);
  const Graph g = graph::connected_gnm(200, 520, rng);
  const Golden want[] = {{6356776267301215081ull, 283695, 6243, 13365},
                        {5328015492174695108ull, 1676, 7902, 11723}};
  const std::uint64_t seeds[] = {7, 8};
  const FaultPlan empty;
  for (int i = 0; i < 2; ++i) {
    for (const AuditMode audit : kAudits) {
      for (const Exec& e : kExecs) {
        core::FibonacciParams params;
        params.order = 2;
        params.eps = 1.0;
        params.message_t = 3.0;
        params.seed = seeds[i];
        params.audit = audit;
        params.exec = e.mode;
        params.exec_threads = e.threads;
        params.faults = &empty;
        const auto r = core::build_fibonacci_distributed(g, params);
        EXPECT_EQ(r.network.trace_digest, want[i].digest)
            << "seed " << seeds[i];
        EXPECT_EQ(r.network.rounds, want[i].rounds);
        EXPECT_EQ(r.network.messages, want[i].messages);
        EXPECT_EQ(r.network.total_words, want[i].total_words);
      }
    }
  }
}

// --- 2. Non-empty plans are executor- and audit-invariant ----------------
//
// Executor agreement alone would miss a change that shifts every executor's
// schedule the same way, so each matrix also pins its base trace absolutely.

TEST(FaultDeterminism, FloodMessageFaultMatrix) {
  // drop / duplicate / delay, separately and combined, on both flood
  // protocols. Every configuration must report the same trace and the same
  // fault counters; at least one configuration must actually fire faults.
  const FaultRates specs[] = {
      {.drop = 0.08},
      {.duplicate = 0.08},
      {.delay = 0.08, .max_delay_rounds = 2},
      {.drop = 0.05, .duplicate = 0.05, .delay = 0.05},
  };
  util::Rng rng(33);
  const Graph g = graph::connected_gnm(150, 400, rng);
  std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.bernoulli(0.05)) is_source[v] = 1;
  }
  // Per spec: BfsFlood, then TruncatedMinIdFlood.
  const FaultTrace pins[][2] = {
      {{5840733443924095389ull, 6, 935, 935, 67, 0, 0, 0, 0},
       {8126234981493932458ull, 4, 533, 533, 44, 0, 0, 0, 0}},
      {{10467206350107419484ull, 8, 935, 935, 0, 66, 0, 0, 0},
       {522499564155614505ull, 4, 619, 619, 0, 49, 0, 0, 0}},
      {{1543879289039827844ull, 8, 935, 935, 0, 0, 66, 0, 0},
       {12134795354943225294ull, 4, 541, 541, 0, 0, 46, 0, 0}},
      {{6708112249549807450ull, 9, 935, 935, 42, 43, 38, 0, 0},
       {4382862218517010893ull, 4, 499, 499, 24, 26, 31, 0, 0}},
  };
  for (std::size_t spec = 0; spec < std::size(specs); ++spec) {
    const FaultPlan plan(1234, specs[spec]);
    std::uint64_t total_faults = 0;
    for (const bool min_id : {false, true}) {
      FaultTrace base;
      bool have_base = false;
      for (const AuditMode audit : kAudits) {
        for (const Exec& e : kExecs) {
          sim::Network net(g, 1, audit, e.mode, e.threads);
          net.set_fault_plan(&plan);
          sim::RunOutcome out;
          if (min_id) {
            sim::TruncatedMinIdFlood flood(is_source, 3);
            out = net.run_outcome(flood, {.max_rounds = 32});
          } else {
            sim::BfsFlood flood(0);
            out = net.run_outcome(flood, {.max_rounds = 4096});
          }
          const FaultTrace t = trace_of(out.metrics, out.status);
          if (!have_base) {
            base = t;
            have_base = true;
            total_faults += t.dropped + t.duplicated + t.delayed;
          } else {
            EXPECT_FAULT_TRACE_EQ(t, base);
          }
        }
      }
      EXPECT_FAULT_TRACE_EQ(base, pins[spec][min_id ? 1 : 0]);
    }
    EXPECT_GT(total_faults, 0u) << "fault spec never fired";
  }
}

TEST(FaultDeterminism, ClusterProtocolMessageFaultMatrix) {
  // The raw Expand machinery under message faults, via run_outcome so a
  // livelocked configuration still yields a comparable (status, trace)
  // fingerprint instead of throwing.
  util::Rng rng(21);
  const Graph g = graph::connected_gnm(160, 450, rng);
  const auto schedule = core::plan_schedule(
      g.num_vertices(), {.D = 4, .eps = 1.0, .seed = 5});
  const FaultPlan plan(77, {.drop = 0.01, .delay = 0.01});
  FaultTrace base;
  bool have_base = false;
  for (const AuditMode audit : kAudits) {
    for (const Exec& e : kExecs) {
      sim::Network net(g, 8, audit, e.mode, e.threads);
      net.set_fault_plan(&plan);
      spanner::Spanner out(g);
      core::ClusterProtocol protocol(g, schedule, 5, &out);
      const auto outcome = net.run_outcome(
          protocol, {.max_rounds = 4096, .protocol_name = "ClusterProtocol"});
      const FaultTrace t = trace_of(outcome.metrics, outcome.status);
      if (!have_base) {
        base = t;
        have_base = true;
      } else {
        EXPECT_FAULT_TRACE_EQ(t, base);
      }
    }
  }
  EXPECT_GT(base.dropped + base.delayed, 0u);
  FaultTrace pin = {5507776572638013764ull, 4096, 1426, 3953, 17, 0, 12};
  pin.status = sim::RunStatus::kRoundBudgetExhausted;
  EXPECT_FAULT_TRACE_EQ(base, pin);
}

TEST(FaultDeterminism, FibonacciBuildMessageFaultMatrix) {
  util::Rng rng(43);
  const Graph g = graph::connected_gnm(200, 520, rng);
  const FaultPlan plan(99, {.drop = 0.03, .duplicate = 0.02, .delay = 0.03});
  FaultTrace base;
  bool have_base = false;
  for (const AuditMode audit : kAudits) {
    for (const Exec& e : kExecs) {
      core::FibonacciParams params;
      params.order = 2;
      params.eps = 1.0;
      params.message_t = 3.0;
      params.seed = 7;
      params.audit = audit;
      params.exec = e.mode;
      params.exec_threads = e.threads;
      params.faults = &plan;
      const auto r = core::build_fibonacci_distributed(g, params);
      const FaultTrace t = trace_of(r.network, sim::RunStatus::kCompleted);
      if (!have_base) {
        base = t;
        have_base = true;
      } else {
        EXPECT_FAULT_TRACE_EQ(t, base);
      }
    }
  }
  EXPECT_GT(base.dropped + base.duplicated + base.delayed, 0u);
  const std::uint64_t digest = 15798469818708616094ull;
  const FaultTrace pin = {digest, 208267, 6745, 14676, 212, 117, 180};
  EXPECT_FAULT_TRACE_EQ(base, pin);
}

TEST(FaultDeterminism, SkeletonCrashRestartMatrix) {
  // Crash-stop and crash-restart on the self-healing ClusterProtocol: the
  // full distributed build must complete identically under every executor,
  // and crashes must actually fire.
  util::Rng rng(41);
  const Graph g = graph::connected_gnm(250, 700, rng);
  const std::uint64_t fault_seeds[] = {3, 17};
  const FaultTrace pins[] = {
      {6572747570173826711ull, 46, 8519, 25910, 21, 0, 0, 4, 2},
      {14100099467393344387ull, 46, 8556, 26033, 12, 0, 0, 4, 1}};
  for (std::size_t i = 0; i < std::size(fault_seeds); ++i) {
    const std::uint64_t fault_seed = fault_seeds[i];
    const FaultPlan plan(fault_seed,
                         {.crash = 0.03, .restart = 0.5, .crash_window = 48});
    FaultTrace base;
    std::uint64_t base_edges = 0;
    bool have_base = false;
    for (const AuditMode audit : kAudits) {
      for (const Exec& e : kExecs) {
        const auto r = core::build_skeleton_distributed(
            g, {.D = 4,
                .eps = 1.0,
                .seed = 9,
                .audit = audit,
                .exec = e.mode,
                .exec_threads = e.threads,
                .faults = &plan});
        const FaultTrace t = trace_of(r.network, sim::RunStatus::kCompleted);
        if (!have_base) {
          base = t;
          base_edges = r.spanner.size();
          have_base = true;
        } else {
          EXPECT_FAULT_TRACE_EQ(t, base);
          EXPECT_EQ(r.spanner.size(), base_edges);
        }
      }
    }
    EXPECT_GT(base.crashed, 0u) << "fault seed " << fault_seed;
    EXPECT_FAULT_TRACE_EQ(base, pins[i]);
  }
}

TEST(FaultDeterminism, LinkOutageMatrix) {
  util::Rng rng(31);
  const Graph g = graph::connected_gnm(120, 300, rng);
  const FaultPlan plan(5, {.link_down = 0.05, .link_down_window = 4});
  FaultTrace base;
  bool have_base = false;
  for (const AuditMode audit : kAudits) {
    for (const Exec& e : kExecs) {
      sim::Network net(g, 1, audit, e.mode, e.threads);
      net.set_fault_plan(&plan);
      sim::BfsFlood flood(7);
      const auto out = net.run_outcome(flood, {.max_rounds = 4096});
      const FaultTrace t = trace_of(out.metrics, out.status);
      if (!have_base) {
        base = t;
        have_base = true;
      } else {
        EXPECT_FAULT_TRACE_EQ(t, base);
      }
    }
  }
  // Outages surface as drops on the affected arcs.
  EXPECT_GT(base.dropped, 0u);
  const FaultTrace pin = {6661551376246377138ull, 6, 703, 703, 26, 0, 0, 0, 0};
  EXPECT_FAULT_TRACE_EQ(base, pin);
}

TEST(FaultDeterminism, ReseededPlanChangesSchedule) {
  util::Rng rng(31);
  const Graph g = graph::connected_gnm(120, 300, rng);
  const FaultPlan a(1, {.drop = 0.1});
  const FaultPlan b = a.reseeded(2);
  auto digest = [&](const FaultPlan& plan) {
    sim::Network net(g, 1);
    net.set_fault_plan(&plan);
    sim::BfsFlood flood(7);
    return net.run_outcome(flood, {.max_rounds = 4096}).metrics.trace_digest;
  };
  EXPECT_NE(digest(a), digest(b));
}

// --- Hand-computed fault fixtures -----------------------------------------
//
// The two rules the barrier applies to faulty rounds beyond the fate draw:
// a matured copy slips while its arc is busy, and the worklist follows each
// node's crash interval.

// Vertex 0 sends Word{round} to vertex 1 in rounds [0, sends); vertex 1 logs
// (round, payload) for every message it consumes.
class ArcSender : public sim::Protocol {
 public:
  using Log = std::vector<std::pair<std::uint64_t, std::vector<sim::Word>>>;

  explicit ArcSender(std::uint64_t sends) : received(2), sends_(sends) {}
  void begin(sim::Network&) override {}
  void on_round(sim::Mailbox& mb) override {
    const std::uint64_t r = mb.round();
    if (mb.self() == 0 && r < sends_) {
      mb.send(1, sim::Word{r});
      mb.stay_awake();
    }
    for (const sim::MessageView& m : mb.inbox()) {
      received[mb.self()].emplace_back(
          r, std::vector<sim::Word>(m.payload.begin(), m.payload.end()));
    }
  }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return net.round() > 2 * sends_;
  }

  std::vector<Log> received;  // per vertex

 private:
  std::uint64_t sends_;
};

TEST(FaultFixture, DuplicateCopiesSlipWhileTheirArcIsBusy) {
  // Every send is duplicated with a one-round deferral. Each copy matures
  // onto an arc that carries the next fresh send, so it slips; once the
  // fresh sends stop, the queued copies drain one per round, oldest first.
  constexpr std::uint64_t kSends = 5;
  const Graph g = graph::path_graph(2);
  const FaultPlan plan(3, {.duplicate = 1.0, .max_delay_rounds = 1});
  ArcSender::Log want;
  for (std::uint64_t r = 1; r <= kSends; ++r) want.push_back({r, {r - 1}});
  for (std::uint64_t r = kSends + 1; r <= 2 * kSends; ++r) {
    want.push_back({r, {r - kSends - 1}});
  }
  for (const AuditMode audit : kAudits) {
    sim::Network net(g, 1, audit);
    net.set_fault_plan(&plan);
    ArcSender p(kSends);
    const sim::Metrics m = net.run(p, 2 * kSends + 1);
    EXPECT_EQ(p.received[1], want);
    EXPECT_TRUE(p.received[0].empty());
    EXPECT_EQ(m.messages, kSends);
    EXPECT_EQ(m.faults.duplicated, kSends);
    EXPECT_EQ(m.faults.dropped + m.faults.delayed, 0u);
  }
}

// Every node stays awake every round and, when chatty, broadcasts the round
// number. Logs activations, inbox senders and fault hook rounds.
class Heartbeat : public sim::Protocol {
 public:
  static constexpr std::uint64_t kNever = static_cast<std::uint64_t>(-1);

  Heartbeat(VertexId n, std::uint64_t rounds, bool chatty)
      : active(n, std::vector<std::uint8_t>(rounds, 0)),
        senders(n, std::vector<std::vector<VertexId>>(rounds)),
        crash_round(n, kNever),
        restart_round(n, kNever),
        rounds_(rounds),
        chatty_(chatty) {}
  void begin(sim::Network&) override {}
  void on_round(sim::Mailbox& mb) override {
    const VertexId v = mb.self();
    const std::uint64_t r = mb.round();
    active[v][r] = 1;
    for (const sim::MessageView& m : mb.inbox()) {
      EXPECT_EQ(m.payload.size(), 1u);
      EXPECT_EQ(m.payload[0], r - 1) << m.from << " -> " << v;
      senders[v][r].push_back(m.from);
    }
    if (chatty_) mb.send_all({sim::Word{r}});
    mb.stay_awake();
  }
  void on_crash(sim::Network& net, VertexId v) override {
    EXPECT_EQ(crash_round[v], kNever) << "second crash of " << v;
    crash_round[v] = net.round();
  }
  void on_restart(sim::Network& net, VertexId v) override {
    EXPECT_EQ(restart_round[v], kNever) << "second restart of " << v;
    restart_round[v] = net.round();
  }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return net.round() >= rounds_;
  }

  std::vector<std::vector<std::uint8_t>> active;
  std::vector<std::vector<std::vector<VertexId>>> senders;
  std::vector<std::uint64_t> crash_round;
  std::vector<std::uint64_t> restart_round;

 private:
  std::uint64_t rounds_;
  bool chatty_;
};

TEST(FaultFixture, CrashIntervalGatesActivationDeliveryAndHooks) {
  // Checked against FaultPlan::crash_interval directly: node v is activated
  // in round r iff it is up in r; it receives exactly one message from each
  // neighbor that was activated in r - 1; on_crash fires in round begin and
  // on_restart in round end. The silent run sends nothing, so a restarted
  // node is activated in round end only because the restart wakes it.
  constexpr std::uint64_t kRounds = 14;
  constexpr std::uint64_t kNever = Heartbeat::kNever;
  util::Rng rng(5);
  const Graph g = graph::connected_gnm(40, 90, rng);
  const VertexId n = g.num_vertices();
  const FaultPlan plan(11, {.crash = 0.3, .restart = 0.7, .crash_window = 6,
                            .max_crash_rounds = 3});
  unsigned crashes = 0, restarts = 0;
  for (VertexId v = 0; v < n; ++v) {
    const sim::CrashInterval iv = plan.crash_interval(v);
    crashes += iv.crashes();
    restarts += iv.restarts();
    ASSERT_LT(iv.begin, kRounds);
    if (iv.restarts()) {
      ASSERT_LT(iv.end, kRounds);
    }
  }
  ASSERT_GT(restarts, 0u);
  ASSERT_LT(restarts, crashes);
  for (const bool chatty : {false, true}) {
    for (const Exec& e : kExecs) {
      SCOPED_TRACE(chatty ? "chatty" : "silent");
      sim::Network net(g, 1, AuditMode::kStrict, e.mode, e.threads);
      net.set_fault_plan(&plan);
      Heartbeat p(n, kRounds, chatty);
      const sim::Metrics m = net.run(p, kRounds);
      EXPECT_EQ(m.faults.crashed, crashes);
      EXPECT_EQ(m.faults.restarted, restarts);
      for (VertexId v = 0; v < n; ++v) {
        const sim::CrashInterval iv = plan.crash_interval(v);
        EXPECT_EQ(p.crash_round[v], iv.crashes() ? iv.begin : kNever) << v;
        EXPECT_EQ(p.restart_round[v], iv.restarts() ? iv.end : kNever) << v;
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          EXPECT_EQ(p.active[v][r], iv.covers(r) ? 0 : 1)
              << "node " << v << " round " << r;
          std::vector<VertexId> want;
          if (chatty && r > 0 && !iv.covers(r)) {
            for (const VertexId u : g.neighbors(v)) {
              if (!plan.crash_interval(u).covers(r - 1)) want.push_back(u);
            }
          }
          EXPECT_EQ(p.senders[v][r], want) << "node " << v << " round " << r;
        }
      }
    }
  }
}

// --- Watchdog: RunOutcome classification ---------------------------------

// Never finishes, always has pending work (every node rebroadcasts).
class ChattyForever : public sim::Protocol {
 public:
  void begin(sim::Network&) override {}
  void on_round(sim::Mailbox& mb) override {
    mb.send_all({sim::Word{mb.self()}});
    mb.stay_awake();
  }
  [[nodiscard]] bool done(const sim::Network&) const override { return false; }
};

// Never finishes and never does anything: done() lies while the network has
// no pending work at all.
class IdleForever : public sim::Protocol {
 public:
  void begin(sim::Network&) override {}
  void on_round(sim::Mailbox&) override {}
  [[nodiscard]] bool done(const sim::Network&) const override { return false; }
};

TEST(RunOutcome, BudgetExhaustionIsReportedWithDiagnostic) {
  util::Rng rng(7);
  const Graph g = graph::connected_gnm(40, 80, rng);
  sim::Network net(g, 1);
  ChattyForever p;
  const auto out =
      net.run_outcome(p, {.max_rounds = 12, .protocol_name = "chatty"});
  EXPECT_EQ(int(out.status), int(sim::RunStatus::kRoundBudgetExhausted));
  EXPECT_FALSE(out.completed());
  EXPECT_EQ(out.metrics.rounds, 12u);
  EXPECT_NE(out.diagnostic.find("chatty"), std::string::npos);
  EXPECT_GT(out.last_active_round, 0u);
}

TEST(RunOutcome, DeadlockIsDistinguishedFromBudget) {
  util::Rng rng(7);
  const Graph g = graph::connected_gnm(40, 80, rng);
  sim::Network net(g, 1);
  IdleForever p;
  const auto out =
      net.run_outcome(p, {.max_rounds = 12, .protocol_name = "idle"});
  EXPECT_EQ(int(out.status), int(sim::RunStatus::kDeadlocked));
  EXPECT_NE(out.diagnostic.find("no pending work"), std::string::npos);
  EXPECT_NE(out.diagnostic.find("idle"), std::string::npos);
}

TEST(RunOutcome, LegacyRunRaisesOnNonCompletion) {
  util::Rng rng(7);
  const Graph g = graph::connected_gnm(40, 80, rng);
  sim::Network net(g, 1);
  ChattyForever p;
  EXPECT_THROW((void)net.run(p, 12), std::runtime_error);
}

TEST(RunOutcome, CompletedRunReportsCompleted) {
  util::Rng rng(7);
  const Graph g = graph::connected_gnm(40, 80, rng);
  sim::Network net(g, 1);
  sim::BfsFlood flood(0);
  const auto out = net.run_outcome(flood, {.max_rounds = 4096});
  EXPECT_TRUE(out.completed());
  EXPECT_TRUE(out.diagnostic.empty());
}

// --- FaultPlan unit properties -------------------------------------------

TEST(FaultPlan, RejectsMalformedRates) {
  EXPECT_THROW(FaultPlan(1, {.drop = -0.1}), std::invalid_argument);
  EXPECT_THROW(FaultPlan(1, {.drop = 1.5}), std::invalid_argument);
  EXPECT_THROW(FaultPlan(1, {.drop = 0.5, .duplicate = 0.4, .delay = 0.3}),
               std::invalid_argument);
}

TEST(FaultPlan, CrashIntervalsAreWellFormed) {
  const FaultPlan plan(9, {.crash = 0.2, .restart = 0.5, .crash_window = 16,
                           .max_crash_rounds = 4});
  unsigned crashes = 0, restarts = 0;
  for (VertexId v = 0; v < 500; ++v) {
    const auto iv = plan.crash_interval(v);
    if (!iv.crashes()) continue;
    ++crashes;
    EXPECT_GE(iv.begin, 1u);  // round 0 is always fault-free
    EXPECT_LE(iv.begin, 16u);
    if (iv.restarts()) {
      ++restarts;
      EXPECT_LE(iv.end - iv.begin, 4u);
    } else {
      EXPECT_EQ(iv.end, sim::CrashInterval::kNeverRestarts);
    }
    EXPECT_FALSE(plan.node_crashed(v, 0));
    EXPECT_TRUE(plan.node_crashed(v, iv.begin));
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(restarts, 0u);
  EXPECT_LT(restarts, crashes);
}

TEST(FaultPlan, LinkOutagesAreSymmetric) {
  const FaultPlan plan(11, {.link_down = 0.3, .link_down_window = 8});
  unsigned down = 0;
  for (VertexId u = 0; u < 40; ++u) {
    for (VertexId v = u + 1; v < 40; ++v) {
      for (std::uint64_t r = 0; r < 12; ++r) {
        EXPECT_EQ(plan.link_down(u, v, r), plan.link_down(v, u, r));
        if (plan.link_down(u, v, r)) ++down;
      }
    }
  }
  EXPECT_GT(down, 0u);
}

// --- 3. Supervisor matrix: always certified, correct provenance ----------

TEST(SupervisorMatrix, EveryScenarioEndsCertified) {
  // >= 100 seeded fault scenarios over varying workloads, rates and start
  // tiers. Every run must return a certified structure whose provenance
  // trail is consistent; not a single uncertified result may escape.
  unsigned scenarios = 0;
  unsigned degraded = 0;
  for (std::uint64_t s = 0; s < 100; ++s) {
    util::Rng rng(1000 + s);
    const auto n = static_cast<VertexId>(60 + (s % 5) * 20);
    const Graph g = graph::connected_gnm(n, 3 * n, rng);

    sim::SupervisorOptions opt;
    opt.fault_seed = 7 * s + 1;
    opt.max_attempts_per_tier = 2;
    opt.certify_sample_sources = 4;
    opt.certify_seed = s + 1;
    opt.fibonacci.order = 2;
    opt.fibonacci.eps = 1.0;
    opt.fibonacci.message_t = 3.0;
    opt.fibonacci.seed = s + 1;
    opt.skeleton.seed = s + 1;
    opt.start_tier = static_cast<sim::FallbackTier>(s % 3);  // never BFS-only
    opt.rates.drop = 0.02 * static_cast<double>(s % 4);
    opt.rates.delay = (s % 2) ? 0.03 : 0.0;
    opt.rates.duplicate = (s % 3) ? 0.02 : 0.0;
    opt.rates.crash = (s % 5) ? 0.01 : 0.0;
    opt.rates.restart = 0.5;

    const auto result = sim::supervised_spanner(g, opt);
    ++scenarios;

    // Certified, always.
    EXPECT_TRUE(result.certificate.ok) << "scenario " << s << ": "
                                       << result.certificate.violation;
    EXPECT_GT(result.certificate.checks, 0u);
    EXPECT_GT(result.spanner.size(), 0u);
    EXPECT_GT(result.certified_alpha, 0.0);

    // Provenance: the trail is non-empty, the winning attempt is the last
    // one, its tier matches the result, and no earlier attempt certified.
    ASSERT_FALSE(result.attempts.empty()) << "scenario " << s;
    const auto& last = result.attempts.back();
    EXPECT_TRUE(last.certified);
    EXPECT_TRUE(last.construction_ok);
    EXPECT_EQ(int(last.tier), int(result.tier));
    EXPECT_EQ(last.fault_seed, result.fault_seed);
    for (std::size_t i = 0; i + 1 < result.attempts.size(); ++i) {
      EXPECT_FALSE(result.attempts[i].certified)
          << "scenario " << s << " attempt " << i;
      EXPECT_LE(int(result.attempts[i].tier), int(last.tier));
    }
    if (int(result.tier) > int(opt.start_tier)) ++degraded;
  }
  EXPECT_EQ(scenarios, 100u);
  // The matrix is diverse enough that at least one scenario should have
  // exercised the fallback chain; if none did, the harness is too gentle to
  // mean anything.
  SUCCEED() << degraded << " scenarios degraded below their start tier";
}

TEST(Supervisor, FaultFreeRunUsesFirstTierFirstAttempt) {
  util::Rng rng(77);
  const Graph g = graph::connected_gnm(120, 360, rng);
  sim::SupervisorOptions opt;  // all-zero rates
  opt.fibonacci.message_t = 3.0;
  const auto result = sim::supervised_spanner(g, opt);
  EXPECT_TRUE(result.certificate.ok) << result.certificate.violation;
  EXPECT_EQ(int(result.tier), int(sim::FallbackTier::kFibonacci));
  EXPECT_EQ(result.attempts.size(), 1u);
  EXPECT_EQ(result.fault_seed, 0u);  // no fault schedule was active
}

TEST(Supervisor, IsDeterministic) {
  util::Rng rng(78);
  const Graph g = graph::connected_gnm(100, 300, rng);
  sim::SupervisorOptions opt;
  opt.rates = {.drop = 0.05, .delay = 0.05};
  opt.rates.crash = 0.02;
  opt.rates.restart = 0.5;
  opt.fibonacci.message_t = 3.0;
  opt.fault_seed = 13;
  const auto a = sim::supervised_spanner(g, opt);
  const auto b = sim::supervised_spanner(g, opt);
  EXPECT_EQ(int(a.tier), int(b.tier));
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  EXPECT_EQ(a.attempts.size(), b.attempts.size());
  EXPECT_EQ(a.spanner.size(), b.spanner.size());
  EXPECT_EQ(a.certified_alpha, b.certified_alpha);
}

// Repeated invocation must behave as if each call were the first: the
// backoff ladder (attempt a of a tier runs under fault_seed + 2^a - 1,
// counted per tier from zero) restarts on every call and on every tier, and
// no state carries over from an unrelated interleaved run. This is the
// contract the maintenance engine leans on when it escalates epoch after
// epoch with per-epoch hashed seeds.
TEST(Supervisor, RepeatedInvocationResetsBackoffState) {
  util::Rng rng(1001);
  const Graph g = graph::connected_gnm(80, 240, rng);
  // Start at the skeleton tier with crash faults active: the skeleton
  // construction reliably dies under lost node state, so the trail walks the
  // ladder inside the tier (seed, seed + 1) and then degrades to Baswana-Sen
  // — which resets the ladder to its base.
  sim::SupervisorOptions opt;
  opt.rates = {.drop = 0.02, .delay = 0.03};
  opt.rates.duplicate = 0.02;
  opt.rates.crash = 0.01;
  opt.rates.restart = 0.5;
  opt.start_tier = sim::FallbackTier::kSkeleton;
  opt.skeleton.seed = 2;
  opt.certify_seed = 2;
  opt.certify_sample_sources = 4;
  opt.fault_seed = 8;
  opt.max_attempts_per_tier = 2;

  const auto first = sim::supervised_spanner(g, opt);

  // Interleave a run with a different schedule base and harsher rates; if
  // the supervisor kept any cross-call state (ladder position, cached
  // plans), the third run would diverge from the first.
  sim::SupervisorOptions other = opt;
  other.fault_seed = 999;
  other.rates.drop = 0.4;
  (void)sim::supervised_spanner(g, other);

  const auto again = sim::supervised_spanner(g, opt);

  ASSERT_EQ(first.attempts.size(), again.attempts.size());
  for (std::size_t i = 0; i < first.attempts.size(); ++i) {
    const auto& a = first.attempts[i];
    const auto& b = again.attempts[i];
    EXPECT_EQ(int(a.tier), int(b.tier)) << "attempt " << i;
    EXPECT_EQ(a.fault_seed, b.fault_seed) << "attempt " << i;
    EXPECT_EQ(a.construction_ok, b.construction_ok) << "attempt " << i;
    EXPECT_EQ(a.certified, b.certified) << "attempt " << i;
    EXPECT_EQ(a.network.rounds, b.network.rounds) << "attempt " << i;
    EXPECT_EQ(a.network.trace_digest, b.network.trace_digest)
        << "attempt " << i;
    EXPECT_EQ(a.network.faults.dropped, b.network.faults.dropped)
        << "attempt " << i;
    EXPECT_EQ(a.network.faults.crashed, b.network.faults.crashed)
        << "attempt " << i;
  }
  EXPECT_EQ(int(first.tier), int(again.tier));
  EXPECT_EQ(first.fault_seed, again.fault_seed);
  EXPECT_EQ(first.certified_alpha, again.certified_alpha);
  EXPECT_EQ(first.spanner.size(), again.spanner.size());

  // Ladder shape: within each tier the recorded schedule seeds follow
  // fault_seed + 2^a - 1 for the 0-based per-tier attempt index a (0 when
  // the sampled plan was empty), and the index — hence the ladder — resets
  // at every tier boundary. The scenario above is tuned so the trail spans
  // at least two tiers — the reset is genuinely exercised, not vacuous.
  ASSERT_GE(first.attempts.size(), 2u);
  EXPECT_NE(int(first.attempts.front().tier), int(first.attempts.back().tier));
  int prev_tier = -1;
  unsigned attempt_in_tier = 0;
  for (std::size_t i = 0; i < first.attempts.size(); ++i) {
    const auto& rec = first.attempts[i];
    if (int(rec.tier) != prev_tier) {
      prev_tier = int(rec.tier);
      attempt_in_tier = 0;
    }
    const std::uint64_t ladder =
        opt.fault_seed + ((std::uint64_t{1} << attempt_in_tier) - 1);
    EXPECT_TRUE(rec.fault_seed == ladder || rec.fault_seed == 0)
        << "attempt " << i << " tier " << sim::tier_name(rec.tier)
        << ": seed " << rec.fault_seed << " != ladder " << ladder;
    ++attempt_in_tier;
  }
}

TEST(Supervisor, RejectsMalformedOptions) {
  util::Rng rng(79);
  const Graph g = graph::connected_gnm(30, 60, rng);
  sim::SupervisorOptions opt;
  opt.max_attempts_per_tier = 0;
  EXPECT_THROW((void)sim::supervised_spanner(g, opt), std::invalid_argument);
  sim::SupervisorOptions bad_rates;
  bad_rates.rates.drop = 2.0;
  EXPECT_THROW((void)sim::supervised_spanner(g, bad_rates),
               std::invalid_argument);
}

}  // namespace
}  // namespace ultra
