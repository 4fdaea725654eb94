// Stage 2 of the distributed Fibonacci construction (Section 4.4): every
// source (a V_i vertex) broadcasts its identity to all nodes within radius
// ell^i. In step k each node receives, from each neighbor, the list of
// source ids at distance k-1 from that neighbor, and relays the newly
// learned ids onward — except that a node required to send a message longer
// than the cap (O(n^{1/t}) words) CEASES participation, recording the step
// at which it stopped. The interference lemma (Fig. 9 of the paper): a
// message from y ∈ B_{i+1,ell}(x) can only be blocked by congestion from
// other members of B_{i+1,ell}(x), so with cap >= 4 q_i/q_{i+1} ln n
// cessation never hides a ball member, w.h.p.
//
// Each node also records, per known source, the neighbor it first heard the
// source from — the next hop of a shortest path toward that source. The
// spanner-path marking that follows the broadcast walks these pointers.
//
// A node's record is one flat vector sorted by source id: find() is a binary
// search, and iteration runs in ascending id — the order path marking
// inserts spanner edges in, so it is part of the observable output. The relay
// itself allocates nothing in steady state: the round's fresh ids come out
// grouped by the neighbor that taught them (inboxes are sender-sorted), one
// merge of those groups against the sorted neighbor list sizes every
// neighbor's message, and the messages are assembled in reused per-thread
// buffers.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/network.h"

namespace ultra::sim {

class BallBroadcast : public Protocol {
 public:
  struct KnownSource {
    VertexId source = graph::kInvalidVertex;
    std::uint32_t dist = 0;
    VertexId parent = graph::kInvalidVertex;  // next hop toward the source
  };

  BallBroadcast(std::vector<std::uint8_t> is_source, std::uint32_t radius)
      : is_source_(std::move(is_source)), radius_(radius) {}

  void begin(Network& net) override;
  void on_round(Mailbox& mb) override;
  [[nodiscard]] bool done(const Network& net) const override;

  // known()[v]: every source v learned about, ascending by source id.
  [[nodiscard]] const std::vector<std::vector<KnownSource>>& known()
      const noexcept {
    return known_;
  }

  // v's record of `source`, or nullptr if v never heard of it.
  [[nodiscard]] const KnownSource* find(VertexId v, VertexId source) const;

  // Nodes that ceased, with the step after which they stopped relaying, in
  // chronological (step, id) order. Built on demand from the per-node cease
  // record — cessation is marked in per-node state so that on_round stays
  // safe under ExecutionMode::kParallel, and the sort reproduces exactly the
  // order sequential execution would have appended in.
  [[nodiscard]] std::vector<std::pair<VertexId, std::uint32_t>> ceased() const;

 private:
  static constexpr std::uint32_t kNotCeased =
      static_cast<std::uint32_t>(-1);

  std::vector<std::uint8_t> is_source_;
  std::uint32_t radius_;

  std::vector<std::vector<KnownSource>> known_;  // per node, source-sorted
  std::vector<std::uint32_t> cease_step_;  // kNotCeased if still relaying
};

}  // namespace ultra::sim
