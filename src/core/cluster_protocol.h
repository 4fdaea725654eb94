// Distributed execution of an Expand schedule on the synchronous network —
// the implementation behind Theorem 2 (and, run with a single-round
// schedule, behind the distributed Baswana–Sen baseline).
//
// Every node is an ORIGINAL vertex; contracted working vertices exist only as
// trees of spanner edges over original vertices, exactly as in the paper:
// each vertex w maintains two pointers, p1(w) toward the center c of
// phi^{-1}(u) (its working vertex) and p2(w) toward the center c' of the
// current cluster (Section 2, Theorem 2's proof). Before any communication,
// every vertex draws all its sampling decisions for the whole schedule: per
// round, the first Expand call at which a cluster centered at it would be
// left unsampled ("c selects the round and iteration when its cluster is
// first left unsampled").
//
// One Expand call proceeds in completion-driven phases (all message passing
// is real; the phase barrier itself is the only omniscient step — the paper
// instead uses locally computable worst-case radius bounds, which would only
// make the round counts larger):
//
//   Status     every alive vertex tells each neighbor its cluster center and
//              horizon (2 data words);
//   Gather     vertices whose cluster dies this call convergecast their best
//              candidate edge into a sampled cluster up the p1-tree (one
//              fixed-size message per tree edge);
//   Resolve    the center either JOINs — the decision travels back down, the
//              winning path updates p2 toward the selected edge (Fig. 4),
//              everyone else sets p2 = p1 — or DIEs: a command travels down
//              and the pipelined, deduplicating list convergecast streams
//              (cluster, edge) entries up in message chunks bounded by the
//              cap, with the paper's abort rule: a vertex seeing more than
//              4 s_i ln n distinct adjacent clusters aborts and the whole
//              group keeps all incident edges.
//
// Between rounds, contraction is the pointer assignment p1 := p2 plus one
// round of parent pings to rebuild the tree children lists.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/schedule.h"
#include "graph/graph.h"
#include "sim/network.h"
#include "spanner/spanner.h"

namespace ultra::core {

struct ClusterProtocolStats {
  std::uint64_t joins = 0;
  std::uint64_t deaths = 0;       // working vertices that died
  std::uint64_t aborts = 0;       // high-degree abort rule firings
  std::uint64_t expand_calls = 0;
  std::uint64_t status_rounds = 0;
  std::uint64_t gather_rounds = 0;
  std::uint64_t resolve_rounds = 0;
  std::uint64_t contraction_rounds = 0;
  std::uint64_t broadcast_rounds = 0;  // round-start horizon broadcasts
  // Crash-fault resilience (all zero without an active FaultPlan):
  std::uint64_t crash_teardowns = 0;  // crash events that tore down a subtree
  std::uint64_t crash_rejoins = 0;    // restarted nodes re-joined as singletons
  std::uint64_t orphans_healed = 0;   // vertices singleton-ized by the sweep
};

class ClusterProtocol : public sim::Protocol {
 public:
  // `out` receives the selected spanner edges; must outlive the run.
  // `abort_threshold_factor` is the paper's 4 in "q > 4 s_i ln n".
  ClusterProtocol(const graph::Graph& g, SkeletonSchedule schedule,
                  std::uint64_t seed, spanner::Spanner* out,
                  double abort_threshold_factor = 4.0);

  void begin(sim::Network& net) override;
  void on_round_begin(sim::Network& net) override;
  void on_round(sim::Mailbox& mb) override;
  [[nodiscard]] bool done(const sim::Network& net) const override;

  // In-protocol crash-restart resilience (simulator-thread hooks). A crash
  // tears down the crashed node's whole p1-subtree: every member keeps all
  // its incident edges (the paper's abort-rule safety escape, which preserves
  // the stretch guarantee unconditionally), settles its outstanding barrier
  // debt, and becomes a singleton cluster again; the crashed node's parent
  // stops waiting for it. A restarted node re-joins as a fresh singleton
  // cluster (unless it was already protocol-dead before the crash). Residual
  // pointer damage — e.g. a subtree that contracted toward a node that then
  // crashed — is repaired by an orphan sweep at every schedule-round start.
  void on_crash(sim::Network& net, graph::VertexId v) override;
  void on_restart(sim::Network& net, graph::VertexId v) override;

  [[nodiscard]] const ClusterProtocolStats& stats() const noexcept {
    return stats_;
  }

  // Per-vertex liveness at the end (all false after a complete schedule).
  [[nodiscard]] const std::vector<std::uint8_t>& alive() const noexcept {
    return alive_;
  }

 private:
  enum class Phase : std::uint8_t {
    kRoundStart,  // horizon broadcast down p1-trees
    kStatus,      // one round of neighbor status messages
    kAct,         // candidate convergecast, decisions, DIE lists, finishes
    kContract,    // p1 := p2; parent pings (2 rounds)
    kDone,
  };

  // Message type tags (first payload word).
  enum Tag : sim::Word {
    kTagHorizon = 0,
    kTagStatus = 1,
    kTagCand = 2,
    kTagJoin = 3,
    kTagDieCmd = 4,
    kTagList = 5,
    kTagListEnd = 6,
    kTagAbortUp = 7,
    kTagFinish = 8,
    kTagParentPing = 9,
  };

  struct Candidate {
    bool has = false;
    graph::VertexId target_center = graph::kInvalidVertex;
    std::uint32_t target_horizon = 0;
    graph::VertexId v = graph::kInvalidVertex;  // our endpoint
    graph::VertexId w = graph::kInvalidVertex;  // their endpoint
  };

  struct ListEntry {
    graph::VertexId cluster = graph::kInvalidVertex;
    graph::VertexId v = graph::kInvalidVertex;
    graph::VertexId w = graph::kInvalidVertex;
  };

  void advance_controller();
  void start_schedule_round();
  void start_call();

  void handle_round_start(sim::Mailbox& mb);
  void handle_status(sim::Mailbox& mb);
  void handle_act(sim::Mailbox& mb);
  void handle_contract(sim::Mailbox& mb);

  void read_statuses(sim::Mailbox& mb);
  void send_candidate_up_or_decide(sim::Mailbox& mb);
  void center_decide(sim::Mailbox& mb);
  void pump_list_queue(sim::Mailbox& mb);
  void center_try_finish(sim::Mailbox& mb);
  void finish_member(sim::Mailbox& mb, bool aborted);
  void enqueue_entry(graph::VertexId v, const ListEntry& entry);
  [[nodiscard]] bool mark_seen(graph::VertexId v, graph::VertexId cluster);

  // Crash-resilience helpers (simulator thread only).
  void resolve_barrier_debt(graph::VertexId w);
  void keep_all_incident_edges(graph::VertexId w);
  void make_singleton(graph::VertexId w);
  [[nodiscard]] std::vector<graph::VertexId> collect_subtree(graph::VertexId v);
  void heal_orphans();

  [[nodiscard]] bool is_acting(graph::VertexId v) const {
    return alive_[v] && horizon_[v] == call_index_;
  }

  const graph::Graph& graph_;
  SkeletonSchedule schedule_;
  std::uint64_t seed_;
  spanner::Spanner* out_;  // written only under out_mu_
  double abort_factor_;
  ClusterProtocolStats stats_;

  // --- static per-run data
  // first_unsampled_[round][v]: the call at which a cluster centered at v is
  // first left unsampled in that round.
  std::vector<std::vector<std::uint32_t>> first_unsampled_;
  double abort_threshold_ = 0;  // per current round

  // --- controller state (mutated only in on_round_begin, which the network
  // runs on the simulator thread in both execution modes)
  Phase phase_ = Phase::kRoundStart;
  std::size_t round_index_ = 0;   // index into schedule_.rounds
  std::uint32_t call_index_ = 0;  // j within the round
  // Phase-specific completion counter, decremented from node context — under
  // ExecutionMode::kParallel concurrently by several workers, hence atomic.
  // The controller only reads it at round boundaries, after the pool barrier.
  std::atomic<std::uint64_t> barrier_pending_{0};
  std::uint64_t phase_rounds_ = 0;  // rounds spent in current phase

  // --- per-vertex protocol state
  std::atomic<std::uint64_t> alive_total_{0};  // decremented from node context
  std::mutex out_mu_;  // serializes out_->add_edge under kParallel
  std::vector<std::uint8_t> alive_;
  std::vector<graph::VertexId> vcenter_;  // center of phi^{-1}(working vertex)
  std::vector<graph::VertexId> p1_;       // next hop toward vcenter
  std::vector<graph::VertexId> ccenter_;  // cluster center
  std::vector<graph::VertexId> p2_;       // next hop toward ccenter
  std::vector<std::uint32_t> horizon_;    // cluster's first-unsampled call
  std::vector<std::vector<graph::VertexId>> children_;  // p1-children

  // per-call scratch. The per-vertex lists are cleared, never freed, so
  // they keep their capacity from call to call.
  std::vector<Candidate> best_;            // best candidate seen so far
  std::vector<graph::VertexId> winner_child_;  // child that supplied best_
  std::vector<std::uint32_t> cand_wait_;   // children yet to report
  std::vector<std::uint8_t> statuses_read_;    // read STATUS this call
  std::vector<std::vector<ListEntry>> local_entries_;  // own adjacency list
  std::vector<std::vector<ListEntry>> list_queue_;     // outgoing DIE entries
  std::vector<std::uint32_t> list_head_;  // first unsent list_queue_ entry
  // Distinct adjacent clusters seen this call, a sorted run (mark_seen).
  std::vector<std::vector<graph::VertexId>> seen_clusters_;
  std::vector<std::uint32_t> list_wait_;   // children yet to send ListEnd
  std::vector<std::uint8_t> list_mode_;    // in DIE list convergecast
  std::vector<std::uint8_t> list_done_sending_;
  std::vector<std::uint8_t> abort_flag_;   // abort seen at this vertex
  std::vector<std::uint8_t> horizon_known_;
  std::uint64_t list_chunk_entries_ = 1;   // entries per LIST message

  // --- crash-fault bookkeeping (untouched in fault-free runs)
  // cand_sent_: this member's candidate is up (or in flight) — its parent's
  // cand_wait_ must NOT be repaired for it. act_resolved_: this vertex has
  // settled its kAct barrier debt (JOIN received/decided or finished dead).
  // cand_recheck_: a teardown repaired this vertex's cand_wait_; re-evaluate
  // the send-candidate gate even without a fresh message.
  std::vector<std::uint8_t> cand_sent_;
  std::vector<std::uint8_t> act_resolved_;
  std::vector<std::uint8_t> cand_recheck_;
  std::vector<std::uint8_t> crash_was_alive_;  // protocol-alive when crashed
  bool crash_seen_ = false;  // gates the orphan sweep off fault-free runs
};

}  // namespace ultra::core
