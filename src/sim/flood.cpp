#include "sim/flood.h"

#include "check/check.h"

namespace ultra::sim {

void TruncatedMinIdFlood::begin(Network& net) {
  const VertexId n = net.num_nodes();
  dist_.assign(n, graph::kUnreachable);
  nearest_.assign(n, graph::kInvalidVertex);
  parent_.assign(n, graph::kInvalidVertex);
  for (VertexId v = 0; v < n && v < is_source_.size(); ++v) {
    if (is_source_[v]) {
      dist_[v] = 0;
      nearest_[v] = v;
    }
  }
}

void TruncatedMinIdFlood::on_round(Mailbox& mb) {
  const VertexId v = mb.self();
  const auto now = static_cast<std::uint32_t>(mb.round());
  const auto inbox = mb.inbox();

  if (dist_[v] == graph::kUnreachable && !inbox.empty()) {
    // First arrivals: they all traveled exactly `now` hops, so the minimum
    // id among them is the min-id source at distance `now`.
    dist_[v] = now;
    for (const MessageView& msg : inbox) {
      ULTRA_CHECK_GE(msg.payload.size(), 1u);
      if (msg.payload[0] < nearest_[v]) {
        nearest_[v] = static_cast<VertexId>(msg.payload[0]);
        parent_[v] = msg.from;
      }
    }
  }

  // Relay once, in the activation where we became settled, if the flood may
  // still extend (dist < radius), to every neighbor not among this inbox's
  // senders. Both lists ascend, and every sender is a neighbor.
  if (dist_[v] == now && dist_[v] < radius_) {
    auto sender = inbox.begin();
    for (const VertexId w : mb.neighbors()) {
      if (sender != inbox.end() && sender->from == w) {
        ++sender;
      } else {
        mb.send(w, Word{nearest_[v]});
      }
    }
  }
}

bool TruncatedMinIdFlood::done(const Network& net) const {
  return net.round() > radius_;
}

void BfsFlood::begin(Network& net) {
  const VertexId n = net.num_nodes();
  dist_.assign(n, graph::kUnreachable);
  parent_.assign(n, graph::kInvalidVertex);
  dist_[root_] = 0;
}

void BfsFlood::on_round(Mailbox& mb) {
  const VertexId v = mb.self();
  const auto now = static_cast<std::uint32_t>(mb.round());
  if (dist_[v] == graph::kUnreachable && !mb.inbox().empty()) {
    dist_[v] = now;
    parent_[v] = mb.inbox().front().from;  // inbox sorted: min-id parent
  }
  if (dist_[v] == now) {
    for (const VertexId w : mb.neighbors()) {
      if (w != parent_[v]) mb.send(w, Word{v});
    }
  }
}

bool BfsFlood::done(const Network& net) const {
  return net.round() > 0 && !net.has_pending_messages();
}

}  // namespace ultra::sim
