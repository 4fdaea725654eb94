// Edge cases of the flat-buffer transport: arena lifetime, CSR inbox
// construction, worklist activation, per-arc dedup, cap enforcement — the
// corners that a vector-of-vectors transport got right for free and the
// rewrite must get right on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/faults.h"
#include "sim/network.h"

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;
using sim::AuditMode;
using sim::Mailbox;
using sim::MessageView;
using sim::Network;
using sim::Word;

// A K_{1,d} star with center 0 — every leaf shares the one interior node, so
// the center's inbox exercises the densest CSR slice the graph allows.
Graph star(VertexId leaves) {
  std::vector<graph::Edge> edges;
  for (VertexId i = 1; i <= leaves; ++i) edges.push_back({0, i});
  return Graph::from_edges(leaves + 1, std::move(edges));
}

Graph path3() { return Graph::from_edges(3, {{0, 1}, {1, 2}}); }

// Scriptable single-purpose protocol: runs a callback per activation and
// stops after a fixed number of rounds.
class Script : public sim::Protocol {
 public:
  using Fn = std::function<void(Mailbox&)>;
  Script(std::uint64_t rounds, Fn fn) : rounds_(rounds), fn_(std::move(fn)) {}
  void begin(Network&) override {}
  void on_round(Mailbox& mb) override {
    if (mb.round() < rounds_) mb.stay_awake();
    fn_(mb);
  }
  [[nodiscard]] bool done(const Network& net) const override {
    return net.round() >= rounds_ && !net.has_pending_messages();
  }

 private:
  std::uint64_t rounds_;
  Fn fn_;
};

TEST(Transport, StarCenterReceivesFromAllNeighborsSortedWithCorrectPayloads) {
  for (AuditMode mode : {AuditMode::kStrict, AuditMode::kFast}) {
    const Graph g = star(64);
    Network net(g, 1, mode);
    std::vector<VertexId> senders;
    std::vector<Word> words;
    Script p(2, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() != 0) {
        mb.send(0, Word{1000 + mb.self()});
      }
      if (mb.round() == 1 && mb.self() == 0) {
        for (const MessageView& m : mb.inbox()) {
          senders.push_back(m.from);
          ASSERT_EQ(m.payload.size(), 1u);
          words.push_back(m.payload[0]);
        }
      }
    });
    const auto met = net.run(p, 10);
    ASSERT_EQ(senders.size(), 64u);
    for (VertexId i = 0; i < 64; ++i) {
      EXPECT_EQ(senders[i], i + 1);            // sorted by sender id
      EXPECT_EQ(words[i], 1000u + (i + 1));    // each view intact, distinct
    }
    EXPECT_EQ(met.messages, 64u);
    EXPECT_EQ(met.total_words, 64u);
    EXPECT_EQ(met.max_message_words, 1u);
  }
}

TEST(Transport, ZeroLengthPayloadsDeliverAndDigestStably) {
  auto run = [](AuditMode mode) {
    const Graph g = path3();
    Network net(g, 1, mode);
    std::uint64_t delivered = 0;
    std::uint64_t payload_words = 0;
    Script p(2, [&](Mailbox& mb) {
      if (mb.round() == 0) mb.send_all(std::span<const Word>{});
      for (const MessageView& m : mb.inbox()) {
        ++delivered;
        payload_words += m.payload.size();
        EXPECT_TRUE(m.payload.empty());
      }
    });
    const auto met = net.run(p, 10);
    EXPECT_EQ(delivered, 4u);  // 0->1, 1->0, 1->2, 2->1
    EXPECT_EQ(payload_words, 0u);
    EXPECT_EQ(met.messages, 4u);
    EXPECT_EQ(met.total_words, 0u);
    EXPECT_EQ(met.max_message_words, 0u);
    return met.trace_digest;
  };
  EXPECT_EQ(run(AuditMode::kStrict), run(AuditMode::kFast));
}

TEST(Transport, BroadcastSharesOnePayloadAcrossNeighbors) {
  const Graph g = star(8);
  Network net(g, 4);
  std::uint64_t seen = 0;
  Script p(2, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 0) mb.send_all({7, 8, 9});
    for (const MessageView& m : mb.inbox()) {
      ++seen;
      ASSERT_EQ(m.payload.size(), 3u);
      EXPECT_EQ(m.payload[0], 7u);
      EXPECT_EQ(m.payload[1], 8u);
      EXPECT_EQ(m.payload[2], 9u);
    }
  });
  const auto met = net.run(p, 10);
  EXPECT_EQ(seen, 8u);
  // Accounting charges the model cost (per edge-message), not arena bytes.
  EXPECT_EQ(met.messages, 8u);
  EXPECT_EQ(met.total_words, 24u);
}

TEST(Transport, MessageTooLongAtExactCapBoundary) {
  for (AuditMode mode : {AuditMode::kStrict, AuditMode::kFast}) {
    const Graph g = path3();
    Network net(g, 2, mode);
    Script ok(1, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 0) mb.send(1, {1, 2});  // == cap
    });
    EXPECT_NO_THROW(net.run(ok, 10));

    Network net2(g, 2, mode);
    Script over(1, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 0) mb.send(1, {1, 2, 3});
    });
    EXPECT_THROW(net2.run(over, 10), sim::MessageTooLong);

    Network net3(g, 2, mode);
    Script over_bcast(1, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 1) mb.send_all({1, 2, 3});
    });
    EXPECT_THROW(net3.run(over_bcast, 10), sim::MessageTooLong);
  }
}

TEST(Transport, BroadcastToZeroNeighborsIsFreeEvenOverCap) {
  // Historical behavior kept by the rewrite: send_all on an isolated vertex
  // is a no-op before any cap check, so an oversized payload does not throw.
  const Graph g = Graph::from_edges(3, {{0, 1}});  // vertex 2 isolated
  Network net(g, 1);
  Script p(1, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 2) mb.send_all({1, 2, 3, 4});
  });
  const auto met = net.run(p, 10);
  EXPECT_EQ(met.messages, 0u);
}

TEST(Transport, SecondSendToSameNeighborSameRoundRejected) {
  const Graph g = path3();
  {
    Network net(g, 4);
    Script p(1, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 0) {
        mb.send(1, Word{1});
        mb.send(1, Word{2});  // same arc, same round
      }
    });
    EXPECT_THROW(net.run(p, 10), std::invalid_argument);
  }
  {
    // send + send_all overlapping the same arc must also be rejected.
    Network net(g, 4);
    Script p(1, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 1) {
        mb.send(0, Word{1});
        mb.send_all({Word{2}});
      }
    });
    EXPECT_THROW(net.run(p, 10), std::invalid_argument);
  }
  {
    // ...but the same arc is fresh again next round.
    Network net(g, 4);
    Script p(2, [&](Mailbox& mb) {
      if (mb.self() == 0 && mb.round() < 2) mb.send(1, Word{mb.round()});
    });
    const auto met = net.run(p, 10);
    EXPECT_EQ(met.messages, 2u);
  }
}

TEST(Transport, SendToNonNeighborOrOutOfRangeRejected) {
  const Graph g = path3();
  Network net(g, 4);
  Script non_nbr(1, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 0) mb.send(2, Word{1});
  });
  EXPECT_THROW(net.run(non_nbr, 10), std::invalid_argument);

  Network net2(g, 4);
  Script oob(1, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 0) mb.send(99, Word{1});
  });
  EXPECT_THROW(net2.run(oob, 10), std::invalid_argument);

  Network net3(g, 4);
  Script self_send(1, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 0) mb.send(0, Word{1});
  });
  EXPECT_THROW(net3.run(self_send, 10), std::invalid_argument);
}

// Vertex 0 is adjacent to every even id 2..80 (degree 40, neighbor i is
// 2i + 2); each odd id is a non-neighbor between two neighbors, and 81-82
// lie above the last one.
Graph even_fan() {
  std::vector<graph::Edge> edges;
  for (VertexId w = 2; w <= 80; w += 2) edges.push_back({0, w});
  return Graph::from_edges(83, std::move(edges));
}

// Sends from one activation in ascending, descending and mixed order, and
// from every neighbor to every other, must reach exactly their targets, and
// every invalid second send must be rejected. Ascending gaps of 9 and 33
// neighbors end in the middle and at the end of a long adjacency search,
// where a search window off by one would reject a real link.
TEST(Transport, SendSearchResumesInAnyOrder) {
  const Graph g = even_fan();
  constexpr std::size_t kDegree = 40;
  const auto nbr = [](std::size_t i) { return static_cast<VertexId>(2 * i + 2); };
  const auto ascending = [&](std::size_t first, std::size_t gap) {
    std::vector<VertexId> s;
    for (std::size_t i = first; i < kDegree; i += gap) s.push_back(nbr(i));
    return s;
  };

  // Script r is vertex 0's send order in round r.
  std::vector<std::vector<VertexId>> scripts = {
      ascending(0, 1), ascending(0, 9), ascending(0, 33), ascending(6, 33)};
  std::vector<VertexId> descending = ascending(0, 1);
  std::reverse(descending.begin(), descending.end());
  scripts.push_back(descending);
  scripts.push_back({nbr(20), nbr(5), nbr(30), nbr(0), nbr(39), nbr(38)});
  for (std::size_t a = 0; a < kDegree; ++a) {
    for (std::size_t b = 0; b < kDegree; ++b) {
      if (a != b) scripts.push_back({nbr(a), nbr(b)});
    }
  }

  // (round sent, sender, receiver, payload), in delivery order.
  using Delivery = std::tuple<std::uint64_t, VertexId, VertexId, Word, Word>;
  std::vector<Delivery> got;
  Network net(g, 2);
  Script p(scripts.size(), [&](Mailbox& mb) {
    for (const MessageView& m : mb.inbox()) {
      ASSERT_EQ(m.payload.size(), 2u);
      got.emplace_back(mb.round() - 1, m.from, mb.self(), m.payload[0],
                       m.payload[1]);
    }
    if (mb.self() != 0 || mb.round() >= scripts.size()) return;
    const std::vector<VertexId>& s = scripts[mb.round()];
    for (std::size_t k = 0; k < s.size(); ++k) mb.send(s[k], {Word{k}, s[k]});
  });
  net.run(p, scripts.size() + 2);

  std::vector<Delivery> want;
  for (std::uint64_t r = 0; r < scripts.size(); ++r) {
    const std::size_t first = want.size();
    for (std::size_t k = 0; k < scripts[r].size(); ++k) {
      want.emplace_back(r, 0, scripts[r][k], k, scripts[r][k]);
    }
    std::sort(want.begin() + static_cast<std::ptrdiff_t>(first), want.end());
  }
  EXPECT_EQ(got, want);

  // What the second send of one activation does after a valid send to
  // neighbor a.
  const auto second_send = [&](std::size_t a, VertexId to,
                               std::initializer_list<Word> payload) {
    Network net2(g, 2);
    Script q(1, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 0) {
        mb.send(nbr(a), Word{1});
        mb.send(to, payload);
      }
    });
    try {
      net2.run(q, 10);
    } catch (const std::invalid_argument&) {
      return std::string("invalid_argument");
    } catch (const sim::MessageTooLong&) {
      return std::string("MessageTooLong");
    }
    return std::string("delivered");
  };
  std::vector<VertexId> invalid = {81, 82, 0, 83, 1000};
  for (VertexId odd = 1; odd < 80; odd += 2) invalid.push_back(odd);
  for (std::size_t a = 0; a < kDegree; ++a) {
    SCOPED_TRACE(nbr(a));
    for (const VertexId to : invalid) {
      EXPECT_EQ(second_send(a, to, {Word{2}}), "invalid_argument") << to;
    }
    EXPECT_EQ(second_send(a, nbr(a), {Word{2}}), "invalid_argument");
    // Exception order: link, then cap, then one message per arc.
    const VertexId fresh = nbr((a + 17) % kDegree);
    EXPECT_EQ(second_send(a, fresh, {1, 2, 3}), "MessageTooLong") << fresh;
    EXPECT_EQ(second_send(a, nbr(a), {1, 2, 3}), "MessageTooLong");
    EXPECT_EQ(second_send(a, nbr(a) + 1, {1, 2, 3}), "invalid_argument");
  }
}

TEST(Transport, Cap1CongestCarriesSingleWordsEndToEnd) {
  const Graph g = star(16);
  Network net(g, 1);
  std::uint64_t echoes = 0;
  Script p(3, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 0) mb.send_all({Word{42}});
    for (const MessageView& m : mb.inbox()) {
      if (mb.self() != 0) {
        EXPECT_EQ(m.payload.size(), 1u);
        mb.send(m.from, m.payload[0] + mb.self());
      } else {
        ++echoes;
        EXPECT_EQ(m.payload[0], 42u + m.from);
      }
    }
  });
  const auto met = net.run(p, 10);
  EXPECT_EQ(echoes, 16u);
  EXPECT_EQ(met.max_message_words, 1u);
}

TEST(Transport, HasPendingMessagesTracksDeliveredCount) {
  const Graph g = path3();
  Network net(g, 1);
  EXPECT_FALSE(net.has_pending_messages());
  std::vector<bool> observed;
  Script p(3, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 0) mb.send(1, Word{5});
    if (mb.self() == 0) observed.push_back(mb.round() != 0);
  });
  net.run(p, 10);
  // After the run drains, nothing is pending.
  EXPECT_FALSE(net.has_pending_messages());
}

TEST(Transport, WorklistWakesOnlyReceiversAndStayAwakeNodes) {
  // Node 2 goes silent after round 0; it must not be activated again until a
  // message reaches it. Node 0 stays awake and relays through 1.
  const Graph g = path3();
  Network net(g, 1);
  std::vector<std::pair<std::uint64_t, VertexId>> activations;
  class P : public sim::Protocol {
   public:
    explicit P(std::vector<std::pair<std::uint64_t, VertexId>>& log)
        : log_(log) {}
    void begin(Network&) override {}
    void on_round(Mailbox& mb) override {
      log_.emplace_back(mb.round(), mb.self());
      if (mb.self() == 0 && mb.round() == 2) mb.send(1, Word{1});
      if (mb.self() == 1) {
        for (const MessageView& m : mb.inbox()) {
          if (m.from == 0) mb.send(2, Word{2});
        }
      }
      if (mb.self() == 0 && mb.round() < 3) mb.stay_awake();
    }
    [[nodiscard]] bool done(const Network& net) const override {
      return net.round() >= 3 && !net.has_pending_messages();
    }

   private:
    std::vector<std::pair<std::uint64_t, VertexId>>& log_;
  } p(activations);
  net.run(p, 20);
  // Round 0: all nodes start awake. Rounds 1-2: only node 0 (stay_awake).
  // Round 3: node 1 (got mail). Round 4: node 2 (got mail).
  const std::vector<std::pair<std::uint64_t, VertexId>> want = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}, {3, 0}, {3, 1}, {4, 2}};
  EXPECT_EQ(activations, want);
}

TEST(Transport, NetworkIsReusableAcrossRuns) {
  const Graph g = star(4);
  Network net(g, 1);
  // mb.round() is cumulative across runs on a reused Network, so the script
  // keys off a run-relative round.
  auto once = [&]() {
    const std::uint64_t base = net.round();
    Script p(base + 2, [&](Mailbox& mb) {
      if (mb.round() == base && mb.self() == 0) mb.send_all({Word{0}});
    });
    return net.run(p, 10);
  };
  const auto a = once();
  const auto b = once();
  // Metrics accumulate across runs on the same Network; the second run must
  // deliver the same number of fresh messages (no stale pending state).
  EXPECT_EQ(a.messages, 4u);
  EXPECT_EQ(b.messages - a.messages, 4u);
  EXPECT_FALSE(net.has_pending_messages());
}

// --- destination-shard aggregation edge cases -----------------------------
// kDestShardSize receivers share one coalescing buffer; star(5000) puts the
// center in shard 0 and splits the leaves across shards 0 and 1, so these
// runs exercise the (shard, lane) merge across a real shard boundary.
static_assert(sim::kDestShardSize == 4096,
              "shard-crossing tests assume 4096-receiver shards");

TEST(Transport, ZeroLengthPayloadsCrossShardBuffers) {
  auto run = [](AuditMode mode) {
    const Graph g = star(5000);
    Network net(g, 1, mode);
    std::uint64_t delivered = 0;
    Script p(2, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 0) {
        mb.send_all(std::span<const Word>{});  // fans out into two shards
      }
      if (mb.round() == 0 && mb.self() != 0) {
        mb.send(0, std::span<const Word>{});  // 5000 senders into shard 0
      }
      for (const MessageView& m : mb.inbox()) {
        ++delivered;
        EXPECT_TRUE(m.payload.empty());
      }
    });
    const auto met = net.run(p, 10);
    EXPECT_EQ(delivered, 10000u);
    EXPECT_EQ(met.messages, 10000u);
    EXPECT_EQ(met.total_words, 0u);
    return met.trace_digest;
  };
  EXPECT_EQ(run(AuditMode::kStrict), run(AuditMode::kFast));
}

TEST(Transport, BroadcastStoredOnceAcrossShards) {
  // Coalescing must not copy the broadcast payload per shard buffer: every
  // receiver's view — in either destination shard — aliases the same words.
  const Graph g = star(5000);
  Network net(g, 4);
  std::vector<const Word*> bases;
  Script p(2, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() == 0) mb.send_all({7, 8, 9});
    for (const MessageView& m : mb.inbox()) {
      ASSERT_EQ(m.payload.size(), 3u);
      EXPECT_EQ(m.payload[0], 7u);
      bases.push_back(m.payload.data());
    }
  });
  const auto met = net.run(p, 10);
  ASSERT_EQ(bases.size(), 5000u);
  for (const Word* b : bases) EXPECT_EQ(b, bases.front());
  EXPECT_EQ(met.messages, 5000u);     // model cost: one per edge-message
  EXPECT_EQ(met.total_words, 15000u);  // ...even though the arena stores 3
}

TEST(Transport, Cap1ArcDedupSpansShards) {
  const Graph g = star(5000);
  {
    // Distinct arcs into different destination shards are independent.
    Network net(g, 1);
    std::uint64_t got = 0;
    Script ok(2, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 0) {
        mb.send(100, Word{1});   // shard 0
        mb.send(4500, Word{2});  // shard 1
      }
      for (const MessageView& m : mb.inbox()) got += m.payload[0];
    });
    net.run(ok, 10);
    EXPECT_EQ(got, 3u);
  }
  {
    // The per-arc round stamp must still fire when the duplicate lands in a
    // shard buffer other than shard 0.
    Network net(g, 1);
    Script dup(1, [&](Mailbox& mb) {
      if (mb.round() == 0 && mb.self() == 0) {
        mb.send(4500, Word{1});
        mb.send(4500, Word{2});  // same arc, same round, shard 1
      }
    });
    EXPECT_THROW(net.run(dup, 10), std::invalid_argument);
  }
}

TEST(Transport, NetworkReusableAfterAggregatedRound) {
  // A second run on the same Network must start from empty shard buffers:
  // no replayed entries, no stale pending counts, same per-run delivery.
  const Graph g = star(5000);
  Network net(g, 1);
  auto once = [&]() {
    const std::uint64_t base = net.round();
    Script p(base + 2, [&](Mailbox& mb) {
      if (mb.round() == base && mb.self() == 0) mb.send_all({Word{9}});
      if (mb.round() == base && mb.self() >= 4500) mb.send(0, Word{3});
    });
    return net.run(p, 10);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.messages, 5501u);  // 5000 broadcast + 501 far-shard replies
  EXPECT_EQ(b.messages - a.messages, 5501u);
  EXPECT_FALSE(net.has_pending_messages());
}

TEST(Transport, ArenaViewsStableWithinRoundAcrossManySizes) {
  // Mixed-length payloads from many senders into one receiver: every view
  // must point at its own words even as the arena grows (bump allocation
  // must not invalidate previously delivered views mid-round).
  const Graph g = star(32);
  Network net(g, sim::kUnboundedMessages);
  bool checked = false;
  Script p(2, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() != 0) {
      std::vector<Word> payload(mb.self() % 7 + 1, Word{mb.self()});
      mb.send(0, payload);
    }
    if (mb.round() == 1 && mb.self() == 0) {
      checked = true;
      ASSERT_EQ(mb.inbox().size(), 32u);
      for (const MessageView& m : mb.inbox()) {
        ASSERT_EQ(m.payload.size(), m.from % 7 + 1);
        for (Word w : m.payload) EXPECT_EQ(w, Word{m.from});
      }
    }
  });
  net.run(p, 10);
  EXPECT_TRUE(checked);
}

// --- runtime checks of the message contract --------------------------------
// A message is a short run of words that lives for exactly one round. The
// sanitizer builds check both properties at the read itself: every one of
// them defines _GLIBCXX_ASSERTIONS, which bounds std::span::operator[]; the
// barrier ASan-poisons each retired payload arena; and a matured delayed
// copy is freed at the barrier after the round that reads it. Each test
// below breaks one property and expects the run to die at the bad read.

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

#if defined(_GLIBCXX_ASSERTIONS)
constexpr bool kBoundsChecked = true;
#else
constexpr bool kBoundsChecked = false;
#endif

constexpr sim::ExecutionMode kExecutors[] = {sim::ExecutionMode::kSequential,
                                             sim::ExecutionMode::kParallel};

// Keeps a payload read that nothing else uses.
volatile Word observed = 0;
void observe(Word w) { observed = w; }

// Every leaf of a 33-node star sends the center 3 words in round 0, and
// `center` runs at node 0 in every round. Script keeps all nodes awake, so
// under kParallel with 2 workers every round dispatches to both lanes (33
// active nodes clear the threshold of 8 per lane) and the center's inbox
// views point into both lanes' arenas.
void run_star(sim::ExecutionMode exec, std::uint64_t rounds,
              const Script::Fn& center, const sim::FaultPlan* plan = nullptr) {
  const Graph g = star(32);
  Network net(g, 3, AuditMode::kStrict, exec, 2);
  net.set_fault_plan(plan);
  Script p(rounds, [&](Mailbox& mb) {
    if (mb.round() == 0 && mb.self() != 0) mb.send(0, {mb.self(), 2, 3});
    if (mb.self() == 0) center(mb);
  });
  net.run(p, rounds + 4);
}

TEST(TransportDeathTest, PayloadReadPastItsLengthAborts) {
  if (!kBoundsChecked) GTEST_SKIP() << "needs _GLIBCXX_ASSERTIONS";
  EXPECT_DEATH(run_star(sim::ExecutionMode::kSequential, 2,
                        [](Mailbox& mb) {
                          for (const MessageView& m : mb.inbox()) {
                            observe(m.payload[3]);
                          }
                        }),
               "__idx < size\\(\\)");
}

TEST(TransportDeathTest, ViewKeptInAMemberIsPoisonedNextRound) {
  if (!kAddressSanitizer) GTEST_SKIP() << "needs AddressSanitizer";
  for (const sim::ExecutionMode exec : kExecutors) {
    EXPECT_DEATH(run_star(exec, 3,
                          [last = MessageView{}](Mailbox& mb) mutable {
                            if (mb.round() == 1) last = mb.inbox().back();
                            if (mb.round() == 2) observe(last.payload[0]);
                          }),
                 "use-after-poison");
  }
}

TEST(TransportDeathTest, PayloadSpanKeptInAMemberIsPoisonedNextRound) {
  if (!kAddressSanitizer) GTEST_SKIP() << "needs AddressSanitizer";
  for (const sim::ExecutionMode exec : kExecutors) {
    EXPECT_DEATH(
        run_star(exec, 3,
                 [words = std::span<const Word>{}](Mailbox& mb) mutable {
                   if (mb.round() == 1) words = mb.inbox().front().payload;
                   if (mb.round() == 2) observe(words[0]);
                 }),
        "use-after-poison");
  }
}

TEST(TransportDeathTest, ViewsPushedIntoAMemberVectorArePoisonedNextRound) {
  if (!kAddressSanitizer) GTEST_SKIP() << "needs AddressSanitizer";
  for (const sim::ExecutionMode exec : kExecutors) {
    EXPECT_DEATH(
        run_star(exec, 3,
                 [log = std::vector<MessageView>{}](Mailbox& mb) mutable {
                   if (mb.round() == 1) {
                     for (const MessageView& m : mb.inbox()) log.push_back(m);
                   }
                   if (mb.round() == 2) {
                     for (const MessageView& m : log) observe(m.payload[0]);
                   }
                 }),
        "use-after-poison");
  }
}

TEST(TransportDeathTest, DelayedCopyViewIsFreedNextRound) {
  if (!kAddressSanitizer) GTEST_SKIP() << "needs AddressSanitizer";
  // Every send matures one round late: round-0 sends reach the center in
  // round 2, and the barrier after that round frees the matured copies.
  const sim::FaultPlan plan(1, {.delay = 1.0, .max_delay_rounds = 1});
  EXPECT_DEATH(run_star(sim::ExecutionMode::kSequential, 4,
                        [last = MessageView{}](Mailbox& mb) mutable {
                          if (mb.round() == 2) last = mb.inbox().back();
                          if (mb.round() == 3) observe(last.payload[0]);
                        },
                        &plan),
               "heap-use-after-free");
}

}  // namespace
}  // namespace ultra
