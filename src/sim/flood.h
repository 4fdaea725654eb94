// Reusable flooding protocols on the synchronous network.
//
// TruncatedMinIdFlood implements exactly the first-stage primitive of the
// paper's Section 4.4: "In the first step each vertex in V_i notifies its
// neighbors that it is in V_i. In general, in the kth step each vertex v
// receives a message from each neighbor w indicating the V_i-vertex with the
// minimum unique identifier at distance k-1 from w. In the (k+1)th step v
// sends the minimum among these V_i-vertices to all neighbors that it has yet
// to receive a message from." After radius rounds every vertex within
// distance `radius` of a source knows its nearest (min-id tie-broken) source,
// the distance, and the first edge of a shortest path toward it — all with
// unit-length messages.
//
// A node relays only in the activation where its first mail settles it (a
// source at round 0), so every earlier inbox it saw was empty: crashed nodes
// receive nothing, and delayed or duplicated copies that arrive later find
// it settled. The neighbors it has "yet to receive a message from" are
// therefore exactly those missing from that one inbox, and the relay merges
// the sender-sorted inbox against the sorted neighbor list; no per-neighbor
// record is kept.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/bfs.h"
#include "sim/network.h"

namespace ultra::sim {

class TruncatedMinIdFlood : public Protocol {
 public:
  // `is_source[v]` marks membership in the source set; `radius` bounds the
  // flood (and the round count).
  TruncatedMinIdFlood(std::vector<std::uint8_t> is_source,
                      std::uint32_t radius)
      : is_source_(std::move(is_source)), radius_(radius) {}

  void begin(Network& net) override;
  void on_round(Mailbox& mb) override;
  [[nodiscard]] bool done(const Network& net) const override;

  // Results, valid after Network::run. Unreached entries hold
  // graph::kUnreachable / graph::kInvalidVertex.
  [[nodiscard]] const std::vector<std::uint32_t>& dist() const noexcept {
    return dist_;
  }
  [[nodiscard]] const std::vector<VertexId>& nearest() const noexcept {
    return nearest_;
  }
  // Next hop from v toward nearest(v); kInvalidVertex at sources.
  [[nodiscard]] const std::vector<VertexId>& parent() const noexcept {
    return parent_;
  }

 private:
  std::vector<std::uint8_t> is_source_;
  std::uint32_t radius_;

  std::vector<std::uint32_t> dist_;
  std::vector<VertexId> nearest_;
  std::vector<VertexId> parent_;
};

// Single-root BFS by flooding; every node learns its distance from the root
// and a parent pointer (a distributed BFS tree). Used by tests as the
// simplest end-to-end protocol and by examples as a broadcast backbone.
class BfsFlood : public Protocol {
 public:
  explicit BfsFlood(VertexId root) : root_(root) {}

  void begin(Network& net) override;
  void on_round(Mailbox& mb) override;
  [[nodiscard]] bool done(const Network& net) const override;

  [[nodiscard]] const std::vector<std::uint32_t>& dist() const noexcept {
    return dist_;
  }
  [[nodiscard]] const std::vector<VertexId>& parent() const noexcept {
    return parent_;
  }

 private:
  VertexId root_;
  std::vector<std::uint32_t> dist_;
  std::vector<VertexId> parent_;
};

}  // namespace ultra::sim
