#include "baselines/mis_protocol.h"

#include <algorithm>
#include <utility>

#include "check/check.h"

namespace ultra::baselines {

using graph::VertexId;
using sim::Word;

void LubyMisProtocol::begin(sim::Network& net) {
  const VertexId n = net.num_nodes();
  util::Rng master(seed_);
  node_rng_.clear();
  node_rng_.reserve(n);
  for (VertexId v = 0; v < n; ++v) node_rng_.push_back(master.fork());
  state_.assign(n, State::kUndecided);
  my_rank_.assign(n, 0);
  lanes_.assign(net.worker_threads(), {});
  undecided_ = n;
  luby_rounds_ = 0;
  // Isolated vertices join immediately (no neighbors to contend with).
  for (VertexId v = 0; v < n; ++v) {
    if (net.graph().degree(v) == 0) {
      state_[v] = State::kInMis;
      --undecided_;
    }
  }
}

void LubyMisProtocol::on_round(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  LaneSlot& lane = lanes_[mb.lane()];

  // Process join announcements first: an undecided node adjacent to a fresh
  // MIS member drops out before the next rank exchange.
  for (const sim::MessageView& m : mb.inbox()) {
    if (!m.payload.empty() && m.payload[0] == kTagJoined &&
        state_[v] == State::kUndecided) {
      state_[v] = State::kOut;
      ++lane.decided;
    }
  }
  if (state_[v] != State::kUndecided) return;
  mb.stay_awake();

  if (mb.round() % 2 == 0) {
    // Rank exchange step: draw and broadcast this Luby round's rank.
    lane.luby_round = mb.round() / 2 + 1;
    my_rank_[v] = node_rng_[v].next();
    mb.send_all({kTagRank, my_rank_[v]});
  } else {
    // Decide step: ranks from currently-undecided neighbors are in the
    // inbox (decided neighbors sent nothing). Strict lexicographic
    // (rank, id) minimum joins — adjacent double-joins are impossible.
    bool is_min = true;
    for (const sim::MessageView& m : mb.inbox()) {
      if (m.payload.empty() || m.payload[0] != kTagRank) continue;
      ULTRA_CHECK_GE(m.payload.size(), 2u);
      const std::uint64_t their = m.payload[1];
      if (their < my_rank_[v] || (their == my_rank_[v] && m.from < v)) {
        is_min = false;
        break;
      }
    }
    if (is_min) {
      state_[v] = State::kInMis;
      ++lane.decided;
      mb.send_all({kTagJoined});
    }
  }
}

bool LubyMisProtocol::done(const sim::Network&) const {
  for (LaneSlot& lane : lanes_) {
    undecided_ -= std::exchange(lane.decided, 0);
    luby_rounds_ = std::max(luby_rounds_, std::exchange(lane.luby_round, 0));
  }
  return undecided_ == 0;
}

std::vector<std::uint8_t> LubyMisProtocol::in_mis() const {
  std::vector<std::uint8_t> out(state_.size(), 0);
  for (std::size_t v = 0; v < state_.size(); ++v) {
    out[v] = state_[v] == State::kInMis ? 1 : 0;
  }
  return out;
}

}  // namespace ultra::baselines
