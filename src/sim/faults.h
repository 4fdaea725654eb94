// Deterministic fault schedules for sim::Network.
//
// The paper assumes a reliable synchronous network; this layer lets us ask
// what the implemented protocols do when that assumption is violated. A
// FaultPlan is a *pure function* from (seed, rates) to a complete fault
// schedule: every query — "is this message dropped?", "is node v crashed at
// round r?", "is link {u, v} down at round r?" — is answered by hashing the
// identifying coordinates with the seed. No draw ever depends on traversal
// order, thread count, ExecutionMode or AuditMode, so the same plan produces
// the same faults (and the same Metrics::FaultCounters) in every executor
// configuration; that invariance is pinned by tests/fault_injection_test.cpp.
//
// Fault classes (all independently seeded per coordinate):
//   * message drop         — the send silently vanishes;
//   * message duplication  — delivered normally, plus a copy re-delivered
//                            1..max_delay_rounds rounds later;
//   * bounded delay        — delivered 1..max_delay_rounds rounds late;
//   * crash-stop/restart   — a node is down for an interval [begin, end);
//                            with probability `restart` the interval is
//                            finite and the node comes back, otherwise it
//                            never returns (end = forever);
//   * link down/up         — an undirected edge is unusable for an interval;
//                            messages sent across it while down are lost.
//
// Rounds in a plan are absolute Network round numbers; a plan is meant to be
// paired with a freshly constructed Network (whose round counter starts at
// zero).
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace ultra::sim {

using graph::VertexId;

// Per-fault-class probabilities (each in [0, 1]) plus interval bounds. The
// three message fates are mutually exclusive per message and are drawn from
// a single uniform variate, so drop + duplicate + delay must be <= 1.
struct FaultRates {
  double drop = 0.0;       // P[message is lost]
  double duplicate = 0.0;  // P[message is delivered twice]
  double delay = 0.0;      // P[message is deferred]
  std::uint64_t max_delay_rounds = 3;  // delays/duplicates mature in [1, max]

  double crash = 0.0;    // P[node suffers one crash interval]
  double restart = 0.0;  // P[a crashed node restarts | it crashed]
  std::uint64_t crash_window = 64;      // crash begins in round [1, window]
  std::uint64_t max_crash_rounds = 8;   // restart interval length in [1, max]

  double link_down = 0.0;  // P[undirected edge has one outage interval]
  std::uint64_t link_down_window = 64;    // outage begins in round [1, window]
  std::uint64_t max_link_down_rounds = 4; // outage length in [1, max]

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || crash > 0.0 ||
           link_down > 0.0;
  }
};

// The fate of one (round, from, to) send.
struct FateDecision {
  enum class Kind : std::uint8_t { kDeliver, kDrop, kDuplicate, kDelay };
  Kind kind = Kind::kDeliver;
  // kDelay: the message matures this many rounds late (>= 1).
  // kDuplicate: the extra copy matures this many rounds late (>= 1).
  std::uint64_t delay_rounds = 0;
};

// A node's crash interval in absolute rounds; [begin, end) with begin >= 1.
// end == kNeverRestarts encodes crash-stop without recovery.
struct CrashInterval {
  static constexpr std::uint64_t kNeverRestarts =
      static_cast<std::uint64_t>(-1);
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] bool crashes() const noexcept { return begin < end; }
  [[nodiscard]] bool restarts() const noexcept {
    return crashes() && end != kNeverRestarts;
  }
  [[nodiscard]] bool covers(std::uint64_t round) const noexcept {
    return begin <= round && round < end;
  }
};

class FaultPlan {
 public:
  // The default plan is empty: every query reports "no fault". With an empty
  // plan attached, a Network's barrier skips its fate step, so the golden
  // trace digests are reproduced byte-for-byte.
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, const FaultRates& rates);

  [[nodiscard]] bool empty() const noexcept { return !rates_.any(); }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultRates& rates() const noexcept { return rates_; }

  // Fate of the message sent from `from` to `to` in round `round`.
  [[nodiscard]] FateDecision message_fate(std::uint64_t round, VertexId from,
                                          VertexId to) const;

  // The (single) crash interval of node v; !crashes() if v never crashes.
  [[nodiscard]] CrashInterval crash_interval(VertexId v) const;

  [[nodiscard]] bool node_crashed(VertexId v, std::uint64_t round) const {
    return crash_interval(v).covers(round);
  }

  // Symmetric in {u, v}: true while the undirected link is unusable.
  [[nodiscard]] bool link_down(VertexId u, VertexId v,
                               std::uint64_t round) const;

  // The (single) outage interval of the undirected link {u, v}; !crashes()
  // if the link never goes down. Reuses CrashInterval as a plain
  // [begin, end) round window (links always come back, so end is finite).
  // Overlay-maintenance callers read the whole window at once instead of
  // probing link_down round by round.
  [[nodiscard]] CrashInterval link_interval(VertexId u, VertexId v) const;

 private:
  std::uint64_t seed_ = 0;
  FaultRates rates_;
};

}  // namespace ultra::sim
