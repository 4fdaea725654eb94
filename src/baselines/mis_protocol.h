// Distributed Luby MIS on the synchronous simulator — the engine of the
// Dubhashi-et-al-style linear skeleton ([18] builds its O(log n)-time
// skeleton from exactly this kind of randomized symmetry breaking).
//
// Each round costs 3 network steps: (1) undecided nodes exchange random
// ranks (1 word); (2) local minima announce they joined the MIS; (3) their
// neighbors announce they dropped out (so second-neighborhood nodes can
// recompute who is still undecided). Terminates when every node is decided,
// O(log n) rounds w.h.p.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.h"
#include "util/rng.h"

namespace ultra::baselines {

class LubyMisProtocol : public sim::Protocol {
 public:
  explicit LubyMisProtocol(std::uint64_t seed) : seed_(seed) {}

  void begin(sim::Network& net) override;
  void on_round(sim::Mailbox& mb) override;
  [[nodiscard]] bool done(const sim::Network& net) const override;

  // After the run: MIS membership per node.
  [[nodiscard]] std::vector<std::uint8_t> in_mis() const;
  [[nodiscard]] std::uint64_t luby_rounds() const noexcept {
    return luby_rounds_;
  }

 private:
  enum class State : std::uint8_t { kUndecided, kInMis, kOut };
  enum Tag : sim::Word { kTagRank = 0, kTagJoined = 1 };

  std::uint64_t seed_;
  std::vector<util::Rng> node_rng_;  // independent per-node streams
  std::vector<State> state_;
  std::vector<std::uint64_t> my_rank_;
  // Per worker lane (Mailbox::lane()): the vertices it decided this round
  // and the Luby round of its rank draws. done() folds them into the totals.
  struct LaneSlot {
    std::uint64_t decided = 0;
    std::uint64_t luby_round = 0;
  };
  mutable std::vector<LaneSlot> lanes_;
  mutable std::uint64_t undecided_ = 0;
  mutable std::uint64_t luby_rounds_ = 0;
};

}  // namespace ultra::baselines
