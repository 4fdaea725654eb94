// Synchronous message-passing network simulator.
//
// This is the computational model assumed by the paper (Section 1.1): the
// graph *is* the communication network; each vertex hosts a processor with a
// unique O(log n)-bit identifier; computation proceeds in synchronized time
// steps in which each processor may send one message to each neighbor; local
// computation is free. Algorithms are separated by their maximum message
// length measured in units of O(log n) bits — we call that unit a Word (one
// word carries one vertex id or one bounded scalar). A word cap of
// kUnboundedMessages corresponds to Peleg's LOCAL model; a cap of 1 to
// CONGEST.
//
// The simulator is deterministic: node activations are in id order, inboxes
// are sorted by sender. All randomness lives in the protocols' explicitly
// seeded Rngs, so any run is exactly reproducible.
//
// Execution modes: ExecutionMode::kSequential (the default) activates the
// round's worklist on the calling thread; ExecutionMode::kParallel shards the
// sorted worklist into contiguous ranges, one per worker of a
// util::WorkerPool, in one pool run per round (the lowest shard's exception
// is rethrown after every shard has returned). Each worker owns a
// detail::Lane — a thread-local bump arena, send log, stay-awake list and
// message tally — and the barrier merges the lanes *in shard order*, which
// is exactly ascending sender id, so the
// stable counting scatter below produces byte-identical CSR inboxes,
// activation order, Metrics counters and trace_digest for every thread count
// (pinned by tests/parallel_equivalence_test.cpp). Parallel activation
// requires the protocol's on_round to touch only its own node's state (the
// CONGEST independence the paper assumes); cross-node bookkeeping belongs in
// Protocol::on_round_begin, which always runs on the simulator thread.
//
// Transport layout (see DESIGN.md, "Simulator memory layout"): payloads live
// in per-lane bump arenas (two Word buffers swapped at delivery; a broadcast
// stores its payload once), and sends coalesce into per-lane,
// per-destination-shard outboxes in structure-of-arrays layout (parallel
// dst / from / words / payload-offset arrays, appended in send order). The
// round barrier merges shards in (shard, lane) order — shards are contiguous
// destination ranges, so the merge is receiver-major — and rebuilds the CSR
// inboxes (slices over one flat MessageView array) with a stable counting
// scatter whose working set is one shard of receivers at a time, i.e. cache
// resident. The round loop walks a sorted active-node worklist instead of
// scanning all n nodes, and per-send discipline (real link, one message per
// neighbor per round) is enforced by a search of the sender's sorted
// adjacency list that resumes just past the previous send's match, plus
// per-directed-edge round stamps — no hashing, no per-message allocation.
//
// Strict audit mode (the default) double-checks the discipline from the
// receiving side: at every delivery the network re-verifies — independently
// of the send-time checks — that each message travelled along a real link,
// respected the declared word cap, and that inboxes arrive sorted by sender
// with node activations in strictly increasing id order. The link/sortedness
// scan is a branch-light merge over the flat delivered arrays, run at the
// barrier while the shard is cache hot. Violations raise check::CheckError.
// Every run also folds (round, sender, receiver, payload) into
// Metrics::trace_digest, a replay fingerprint: two runs are byte-identical
// in their communication iff their digests, rounds and message counts agree.
//
// Faults (sim/faults.h) run through the same barrier: with a non-empty
// FaultPlan attached, a fate step first filters the shard outboxes and
// matures due deferred copies, which the shard passes merge into their
// receivers' slices in sender order. Fault-free rounds skip that step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/fnv.h"
#include "util/worker_pool.h"

namespace ultra::sim {

class FaultPlan;  // sim/faults.h

using Word = std::uint64_t;
using graph::VertexId;

inline constexpr std::uint64_t kUnboundedMessages =
    static_cast<std::uint64_t>(-1);

// One delivered message as seen by the receiving node: the sender id and a
// view of the payload words inside the network's delivery arena. Valid until
// the end of the receiving round: the next barrier retires the arena for
// reuse, and under ASan poisons it, so reading a view's words later, before
// a new send re-fills them, aborts the run as a use-after-poison (DESIGN.md
// §8, "Runtime enforcement").
struct MessageView {
  VertexId from = graph::kInvalidVertex;
  std::span<const Word> payload;
};

// Cost and compliance accounting for a protocol run.
struct Metrics {
  // Injected-fault accounting (all zero unless a non-empty FaultPlan is
  // attached). `messages`/`total_words` keep counting what protocols *send*
  // (the protocol's cost is charged whether or not the network loses the
  // message); the counters below describe what the fault layer did to those
  // sends and to the nodes. Like the other counters they are a pure function
  // of (plan, protocol, seed) — identical across ExecutionMode, thread count
  // and AuditMode.
  struct FaultCounters {
    std::uint64_t dropped = 0;     // lost: fate draw, dead link, dead receiver
    std::uint64_t duplicated = 0;  // extra copies scheduled
    std::uint64_t delayed = 0;     // deliveries deferred >= 1 round
    std::uint64_t crashed = 0;     // node crash events
    std::uint64_t restarted = 0;   // node restart events
    [[nodiscard]] bool any() const noexcept {
      return dropped || duplicated || delayed || crashed || restarted;
    }
    FaultCounters& operator+=(const FaultCounters& o) noexcept {
      dropped += o.dropped;
      duplicated += o.duplicated;
      delayed += o.delayed;
      crashed += o.crashed;
      restarted += o.restarted;
      return *this;
    }
  };

  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_words = 0;
  std::uint64_t max_message_words = 0;
  FaultCounters faults;
  // FNV-1a fingerprint of the full delivered message trace
  // (round, from, to, length, words). Equal traces <=> equal digests for all
  // practical purposes; used by the determinism regression tests.
  std::uint64_t trace_digest = util::kFnvOffset;

  void note_message(std::size_t words) noexcept {
    ++messages;
    total_words += words;
    if (words > max_message_words) max_message_words = words;
  }

  void fold(std::uint64_t word) noexcept {
    trace_digest = util::fnv_fold(trace_digest, word);
  }

  // Accumulate another run's costs (used by constructions that execute a
  // sequence of protocols); digests chain so the combined value still
  // fingerprints the whole sequence.
  void merge(const Metrics& other) noexcept {
    rounds += other.rounds;
    messages += other.messages;
    total_words += other.total_words;
    if (other.max_message_words > max_message_words) {
      max_message_words = other.max_message_words;
    }
    faults += other.faults;
    // Fold a separator first: a lone fold(x) is XOR-commutative in x, and a
    // trace is a sequence — merging A then B must not equal B then A.
    fold(0x6d65726765ull);
    fold(other.trace_digest);
  }
};

// Thrown when a protocol sends a message longer than the configured cap —
// a protocol implementing the paper correctly must never trigger this (the
// paper's protocols truncate or cease participation instead).
class MessageTooLong : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// kStrict re-audits every delivery (link validity, word cap, inbox order,
// activation order) through the ULTRA_CHECK machinery; kFast trusts the
// send-time checks only. Both are deterministic and fold the trace digest.
enum class AuditMode : std::uint8_t { kStrict, kFast };

// kSequential activates the worklist on the simulator thread; kParallel
// shards it across a worker pool. Both produce bit-identical traces (and
// both honor AuditMode independently).
enum class ExecutionMode : std::uint8_t { kSequential, kParallel };

// How a supervised run ended. kCompleted: the protocol's done() flipped
// within the round budget. kRoundBudgetExhausted: the budget ran out while
// the network still had work in flight (active nodes, undelivered or delayed
// messages, or a pending node restart) — the classic "too-small budget"
// case. kDeadlocked: the budget ran out after the network had gone
// permanently silent — no activations, no messages, no delayed traffic, no
// future restarts — yet done() never flipped; nothing the network can do
// will ever change the protocol's state again. (Idle rounds still advance
// the round counter, as several protocols terminate on a round count, so
// deadlock is only *declared* when the budget elapses.)
enum class RunStatus : std::uint8_t {
  kCompleted,
  kRoundBudgetExhausted,
  kDeadlocked,
};

// Structured result of Network::run_outcome: metrics plus how the run ended.
struct RunOutcome {
  RunStatus status = RunStatus::kCompleted;
  Metrics metrics;
  // Last round in which any node activated or any message was delivered.
  std::uint64_t last_active_round = 0;
  // Empty when completed; otherwise names the protocol, the budget and the
  // last-active round — the string ULTRA_CHECK failures surface.
  std::string diagnostic;
  [[nodiscard]] bool completed() const noexcept {
    return status == RunStatus::kCompleted;
  }
};

// Knobs for one supervised run.
struct RunOptions {
  std::uint64_t max_rounds = 0;
  // Used in watchdog diagnostics ("which protocol is stuck?").
  const char* protocol_name = "protocol";
};

class Network;

// Receivers are grouped into contiguous destination shards of
// 2^kDestShardBits ids; sends coalesce per (lane, shard) so the barrier's
// counting scatter touches one shard's counters at a time (a few KiB — cache
// resident even at n = 1e6+, where a flat scatter misses on every message).
inline constexpr unsigned kDestShardBits = 12;
inline constexpr VertexId kDestShardSize = VertexId{1} << kDestShardBits;

namespace detail {

// Coalesced outbox for one destination shard of one lane: entry i is a
// message from[i] -> dst[i] whose payload is lane.arena[off[i], off[i] +
// words[i]). Structure-of-arrays so the barrier's count / scatter / audit
// passes stream over dense, homogeneous arrays. Entries are appended in send
// order, which within a lane is ascending sender id; merging shard buffers
// in (shard, lane) order therefore replays messages receiver-shard-major
// with senders ascending inside every shard — exactly what the stable
// counting scatter needs to produce sender-sorted CSR inboxes with no sort.
// Broadcast entries share one payload offset.
struct ShardOutbox {
  std::vector<VertexId> dst;
  std::vector<VertexId> from;
  std::vector<std::uint32_t> words;
  std::vector<std::uint64_t> off;

  [[nodiscard]] std::size_t size() const noexcept { return dst.size(); }
  [[nodiscard]] bool empty() const noexcept { return dst.empty(); }

  void push(VertexId f, VertexId d, std::uint32_t w, std::uint64_t o) {
    dst.push_back(d);
    from.push_back(f);
    words.push_back(w);
    off.push_back(o);
  }

  // Keep the entries i with keep(i), in order; keep sees each i once.
  template <class Keep>
  void retain(Keep&& keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      if (!keep(i)) continue;
      dst[kept] = dst[i];
      from[kept] = from[i];
      words[kept] = words[i];
      off[kept] = off[i];
      ++kept;
    }
    dst.resize(kept);
    from.resize(kept);
    words.resize(kept);
    off.resize(kept);
  }

  void clear() noexcept {
    dst.clear();
    from.clear();
    words.clear();
    off.clear();
  }
};

// Per-worker transport state. The sequential executor uses lane 0 only; the
// parallel executor gives each worker its own lane so a round's activations
// never contend: sends bump-append into the lane arena and the lane's
// destination-shard outboxes, and the barrier merges the shard buffers in
// (shard, lane) order — lanes cover ascending sender ranges — which is
// exactly the order the sequential path records.
struct Lane {
  std::vector<Word> arena;      // payloads of the running round's sends
  std::vector<Word> delivered;  // payloads delivered at the last barrier
  std::vector<ShardOutbox> out;  // send log, one buffer per destination shard
  std::uint64_t pending_count = 0;  // total queued entries across `out`
  std::vector<VertexId> awake;       // stay_awake() requests, ascending
  Metrics tally;  // per-round message counters; merged at the barrier
};

// A message the fault layer holds back: it joins the inboxes at the barrier
// of round `due` (so it is consumed in round due + 1). The payload is owned
// here — the sender's arena is long recycled by the time it matures.
struct DelayedMsg {
  std::uint64_t due;
  VertexId from;
  VertexId to;
  std::vector<Word> payload;
};

// A scheduled crash or restart, effective at the start of `round`.
struct FaultEvent {
  std::uint64_t round;
  VertexId node;
};

// Defined after Network; drives the barrier in isolation for microbenches.
struct BarrierBench;

}  // namespace detail

// The per-round view a node's code receives. Thin handle; cheap to construct.
class Mailbox {
 public:
  // Binds to the network's first lane — the lane the sequential executor
  // uses. The parallel executor hands nodes lane-bound mailboxes internally.
  Mailbox(Network& net, VertexId self);

  [[nodiscard]] VertexId self() const noexcept { return self_; }
  [[nodiscard]] const graph::Graph& topology() const noexcept;
  [[nodiscard]] std::uint64_t round() const noexcept;
  [[nodiscard]] std::span<const VertexId> neighbors() const;
  [[nodiscard]] std::span<const MessageView> inbox() const;
  [[nodiscard]] std::uint64_t message_cap() const noexcept;

  // Send `payload` to adjacent vertex `to`, delivered at the start of the
  // next round. A node may send at most one message per neighbor per round
  // (enforced); length above the cap throws MessageTooLong. The payload is
  // copied into the round arena inside the call, so any backing storage
  // (including a temporary vector or braced list) only needs to live for the
  // duration of the call. The link check resumes just past the previous
  // send's target, so a walk over neighbors() in ascending order costs
  // O(log gap) per send; any other order costs O(log degree).
  void send(VertexId to, std::span<const Word> payload);

  void send(VertexId to, std::initializer_list<Word> payload) {
    send(to, std::span<const Word>{payload.begin(), payload.size()});
  }

  // Convenience for single-word messages.
  void send(VertexId to, Word w) {
    send(to, std::span<const Word>{&w, 1});
  }

  // Broadcast the same payload to every neighbor. The payload is stored in
  // the arena once, no matter the degree; every neighbor is a known-valid
  // link so per-recipient link validation is skipped (the per-round one-
  // message-per-neighbor discipline is still enforced).
  void send_all(std::span<const Word> payload);

  void send_all(std::initializer_list<Word> payload) {
    send_all(std::span<const Word>{payload.begin(), payload.size()});
  }

  // Keep this node scheduled next round even if it receives no message.
  // (Nodes are always activated in rounds where they have mail.)
  void stay_awake();

 private:
  friend class Network;

  Mailbox(Network& net, VertexId self, detail::Lane* lane)
      : net_(net), self_(self), lane_(lane) {}

  Network& net_;
  VertexId self_;
  detail::Lane* lane_;
  // Adjacency position just past the previous send's target, where the next
  // send's link search starts.
  std::size_t resume_ = 0;
};

// A distributed protocol: one object holding the state of *all* nodes
// (struct-of-arrays is idiomatic here; "local computation is free" so only
// the messaging discipline matters). The simulator activates every awake
// node each round via on_round.
class Protocol {
 public:
  virtual ~Protocol() = default;

  // Called once before the first round; set up per-node state.
  virtual void begin(Network& net) = 0;

  // Called once at the start of every round that activates at least one
  // node, before any on_round, always on the simulator's own thread (in both
  // execution modes). Controller-style protocols advance global phase state
  // here; under ExecutionMode::kParallel this is the only place a protocol
  // may mutate cross-node state without synchronization.
  virtual void on_round_begin(Network& /*net*/) {}

  // Execute one round of node v's program. Under ExecutionMode::kParallel
  // this runs concurrently for distinct nodes: it must only write state owned
  // by mb.self() (plus explicitly synchronized shared accumulators).
  virtual void on_round(Mailbox& mb) = 0;

  // Queried after every round; return true to stop.
  [[nodiscard]] virtual bool done(const Network& net) const = 0;

  // Fault notifications, delivered on the simulator thread at the start of
  // the round in which the event takes effect (before on_round_begin). A
  // crashed node is excluded from the worklist and receives no messages for
  // the duration of its crash interval; a restarted node is force-woken in
  // its restart round. Protocols that want in-protocol resilience override
  // these; the defaults ignore the events (retry-level recovery only).
  virtual void on_crash(Network& /*net*/, VertexId /*v*/) {}
  virtual void on_restart(Network& /*net*/, VertexId /*v*/) {}
};

class Network {
 public:
  // message_cap: maximum words per message (kUnboundedMessages = LOCAL).
  // threads: worker count for ExecutionMode::kParallel, resolved by
  // util::WorkerPool (0 picks the hardware concurrency); kSequential always
  // runs single-threaded. Thread count never changes the delivered trace,
  // only the wall clock.
  Network(const graph::Graph& g, std::uint64_t message_cap,
          AuditMode audit = AuditMode::kStrict,
          ExecutionMode exec = ExecutionMode::kSequential,
          unsigned threads = 0);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] VertexId num_nodes() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] std::uint64_t message_cap() const noexcept { return cap_; }
  [[nodiscard]] AuditMode audit_mode() const noexcept { return audit_; }
  // The resolved worker count (1 under kSequential).
  [[nodiscard]] unsigned worker_threads() const noexcept {
    return pool_.size();
  }
  [[nodiscard]] std::uint64_t round() const noexcept {
    return metrics_.rounds;
  }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  // True if any message is still on its way: delivered at the last barrier
  // for the next round, or a delayed or duplicated copy that a fault plan
  // holds back for a later one. Lets quiescence-based protocols detect
  // global termination in done() (an omniscient-observer convenience — real
  // networks would use a termination-detection subprotocol, whose cost the
  // paper does not charge). O(1).
  [[nodiscard]] bool has_pending_messages() const noexcept {
    return delivered_last_round_ != 0 || !delayed_.empty();
  }

  // Attach a fault schedule for subsequent runs (nullptr or an empty plan
  // restores the fault-free fast path — byte-identical to a network that
  // never saw a plan). The plan is borrowed, not copied; it must outlive the
  // runs that use it. Fault rounds are absolute network rounds, so pair a
  // plan with a freshly constructed Network.
  void set_fault_plan(const FaultPlan* plan) noexcept { plan_ = plan; }

  // Run `protocol` until done() or `max_rounds` elapse. Returns the metrics.
  // Throws std::runtime_error if max_rounds is hit before done() — protocols
  // in this library must terminate by their analyzed round bounds. An
  // exception thrown by on_round in a parallel worker is rethrown here (the
  // lowest-sharded one when several workers throw in the same round).
  Metrics run(Protocol& protocol, std::uint64_t max_rounds);

  // Like run(), but a blown round budget yields a structured RunOutcome
  // (budget-exhausted vs deadlocked-no-pending-work, with a diagnostic
  // naming the protocol and its last active round) instead of a throw.
  // Callers that cannot make progress without the structure should prefer
  // run(); supervisors that retry/degrade should use this.
  RunOutcome run_outcome(Protocol& protocol, const RunOptions& options);

 private:
  friend class Mailbox;
  friend struct detail::BarrierBench;

  void reset_transport();
  void deliver_outboxes();
  void rebuild_worklist();
  void merge_matured(std::size_t begin, std::size_t end);
  [[nodiscard]] std::uint64_t arc_id(VertexId from, VertexId to) const;
  // The fault layer. prepare_fault_run resets it and sets faults_active_;
  // the barrier and the worklist rebuild call their steps
  // (apply_message_faults, apply_crash_intervals) only while that is set.
  void prepare_fault_run();
  void apply_fault_events(Protocol& protocol);
  void apply_message_faults();
  [[nodiscard]] bool fresh_send_delivers(VertexId from, VertexId to,
                                         std::span<const Word> payload);
  void apply_crash_intervals();
  [[nodiscard]] bool fault_work_pending() const noexcept;
  // Strict-audit pass over receivers_[begin, end): a branch-light merge of
  // every receiver's freshly scattered inbox against its sorted adjacency
  // list (sortedness + link validity + cap in one pass over the flat
  // arrays); on a violation re-runs audit_inbox for the precise diagnostic.
  void audit_delivered_range(std::size_t begin, std::size_t end) const;
  void audit_inbox(VertexId v) const;
  void stamp_arc_or_reject(VertexId from, VertexId to, std::uint64_t arc);

  // Activate ids[0..count) through `lane`, auditing inbox and activation
  // order in kStrict ('audit_prev' carries the id activated just before this
  // shard, kInvalidVertex for the first shard).
  void run_shard(Protocol& protocol, detail::Lane& lane, const VertexId* ids,
                 std::size_t count, VertexId audit_prev);
  void run_round(Protocol& protocol);

  const graph::Graph& graph_;
  std::uint64_t cap_;
  AuditMode audit_;
  Metrics metrics_;
  // Destination shards: ceil(n / kDestShardSize), >= 1 so node 0 of an empty
  // graph still maps somewhere. shard_of(v) == v >> kDestShardBits.
  std::size_t shard_count_ = 1;

  // --- per-worker accumulating state (sends of the running round) ---------
  // One lane per pool worker: lane 0 belongs to the simulator thread, lanes
  // 1.. to the pool's threads.
  std::vector<detail::Lane> lanes_;

  // --- delivered state (what inbox() views) -------------------------------
  std::vector<MessageView> in_msgs_;    // flat, receiver-major, sender-sorted
  std::vector<std::uint64_t> in_head_;  // per node: first slot in in_msgs_
  std::vector<std::uint32_t> in_count_; // per node: inbox length
  std::vector<VertexId> receivers_;     // nodes with in_count_ > 0, sorted
  std::vector<std::uint64_t> cursor_;   // scatter cursors, per receiver
  std::vector<std::uint32_t> pend_count_;  // scratch: per-receiver counts
  std::uint64_t delivered_last_round_ = 0;

  // --- activation worklist ------------------------------------------------
  std::vector<VertexId> active_;        // sorted ids to activate this round
  std::vector<VertexId> awake_merged_;  // scratch: lanes' awake lists merged
  std::vector<std::uint8_t> awake_flag_;

  // --- send discipline ----------------------------------------------------
  // graph_.arc_begin(v) + i is the directed-arc id of (v -> neighbors(v)[i]);
  // arc_stamp_ records the last round epoch in which that arc carried a
  // message (one message per neighbor per round). Each directed arc belongs
  // to exactly one sender, and each sender activates on exactly one lane per
  // round, so parallel workers write disjoint stamps. The fault layer keeps
  // them exact for delivery: a lost send clears its stamp, a matured copy
  // sets one, and a copy maturing onto a stamped arc slips.
  std::vector<std::uint64_t> arc_stamp_;
  std::uint64_t round_epoch_ = 0;

  // --- fault schedule (active only while plan_ is non-empty) --------------
  const FaultPlan* plan_ = nullptr;
  bool faults_active_ = false;
  std::vector<detail::DelayedMsg> delayed_;   // in-flight deferred messages
  std::vector<detail::DelayedMsg> matured_;   // payload owners, (to, from)
  std::vector<detail::FaultEvent> crash_events_;    // sorted (round, node)
  std::vector<detail::FaultEvent> restart_events_;  // sorted (round, node)
  std::size_t crash_cursor_ = 0;
  std::size_t restart_cursor_ = 0;
  std::uint64_t last_active_round_ = 0;

  // kParallel's workers (kSequential: a pool of one, which starts no
  // thread). Declared last: its threads run shards that use the members
  // above.
  util::WorkerPool pool_;
};

namespace detail {

// Bench/test-only access to the private round machinery, so the
// scatter/merge kernel can be driven and profiled without a protocol run
// (bench/micro_core.cpp, BM_DeliverOutboxes). Not part of the public API.
struct BarrierBench {
  // Open a fresh round epoch (invalidates last round's arc stamps), exactly
  // as Network::run_outcome does before activations.
  static void begin_round(Network& net) { ++net.round_epoch_; }
  // Run the barrier: shard merge, counting scatter, digest fold, strict
  // audit, worklist rebuild.
  static void deliver(Network& net) {
    net.deliver_outboxes();
    net.rebuild_worklist();
  }
};

}  // namespace detail

}  // namespace ultra::sim
