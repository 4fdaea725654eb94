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
// Each activation appends its fresh ids to the node's records in arrival
// order: no sort or merge per round. When the run ends, one counting pass by
// source builds a CSR index of all records, each node's slice ascending by
// source: known(v) is that slice and find() a binary search in it. The
// ascending order is the order path marking inserts spanner edges in, so it
// is part of the observable output. The relay copies each word once: the
// round's fresh ids come out grouped by the neighbor that taught them
// (inboxes are sender-sorted), the node stores them in the round arena
// once, and each neighbor is sent all of them, or the front or back slice
// that leaves out its own group, without a copy. Only a neighbor whose
// group sits in the middle gets the two pieces joined in a reused
// per-lane buffer.
#pragma once

#include <cstdint>
#include <span>
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
  // True once the last round has run. The network stops at the first true
  // answer, so that call builds the record index known() and find() read.
  [[nodiscard]] bool done(const Network& net) const override;

  // Every source v learned about, ascending by source id. Valid after the
  // run.
  [[nodiscard]] std::span<const KnownSource> known(VertexId v) const {
    return {index_.data() + head_[v], index_.data() + head_[v + 1]};
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

  // Relay buffers, one per worker lane (Mailbox::lane()), reused by every
  // activation the lane runs.
  struct RelayScratch {
    std::vector<std::uint32_t> seen;  // seen[y] == stamp: y already taken
    std::uint32_t stamp = 0;
    std::vector<Word> ids;       // this round's fresh ids, in arrival order
    std::vector<VertexId> from;  // ...and the neighbor each one came from
    std::vector<Word> message;   // a middle teacher's relay payload
  };

  static void learn(std::span<const MessageView> inbox, std::uint32_t now,
                    VertexId n, std::vector<KnownSource>& records,
                    RelayScratch& s);
  void build_index() const;

  std::vector<std::uint8_t> is_source_;
  std::uint32_t radius_;

  std::vector<std::vector<KnownSource>> records_;  // per node, arrival order
  std::vector<std::uint32_t> cease_step_;  // kNotCeased if still relaying
  std::vector<RelayScratch> relay_;
  // The records by node, each node's slice ascending by source: v's are
  // index_[head_[v], head_[v + 1]). Built by the done() call that ends the
  // run (head_ is empty until then), so they are mutable.
  mutable std::vector<std::uint64_t> head_;
  mutable std::vector<KnownSource> index_;
};

}  // namespace ultra::sim
