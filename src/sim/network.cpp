#include "sim/network.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <ranges>
#include <string>
#include <utility>

#include "check/check.h"
#include "sim/faults.h"

namespace ultra::sim {

namespace {

// kParallel falls back to an inline single-lane round when the worklist is
// too small to amortize the dispatch handshake. Pure wall-clock heuristic:
// the merged output is independent of how (or whether) a round is sharded.
constexpr std::size_t kParallelDispatchMin = 8;

// Bump-appends `payload` to a lane's send arena; returns its word offset.
// The barrier poisons a retired arena's whole capacity, so an append that
// fits unpoisons exactly the words it writes. One that reallocates gets
// fresh storage and frees the old buffer, which ASan then guards as freed.
inline std::uint64_t append_payload(std::vector<Word>& arena,
                                    std::span<const Word> payload) {
  const std::uint64_t off = arena.size();
  if (payload.size() <= arena.capacity() - off) {
    ASAN_UNPOISON_MEMORY_REGION(arena.data() + off,
                                payload.size() * sizeof(Word));
  }
  if (payload.size() == 1) {
    arena.push_back(payload.front());
  } else {
    arena.insert(arena.end(), payload.begin(), payload.end());
  }
  return off;
}

// MessageTooLong is documented API surface that a caller may catch, not a
// failure of the ULTRA_CHECK* taxonomy, so it is raised directly, here
// only: post and send_all call this where they check the cap.
[[noreturn]] void throw_message_too_long(std::size_t words,
                                         std::uint64_t cap) {
  throw MessageTooLong("message of " + std::to_string(words) +
                       " words exceeds cap " + std::to_string(cap));
}

}  // namespace

Mailbox::Mailbox(Network& net, VertexId self)
    : Mailbox(net, self, &net.lanes_.front()) {}

std::uint64_t Mailbox::round() const noexcept { return net_.round(); }

const graph::Graph& Mailbox::topology() const noexcept {
  return net_.graph();
}

std::span<const VertexId> Mailbox::neighbors() const {
  return net_.graph().neighbors(self_);
}

std::span<const MessageView> Mailbox::inbox() const {
  return {net_.in_msgs_.data() + net_.in_head_[self_],
          net_.in_count_[self_]};
}

std::uint64_t Mailbox::message_cap() const noexcept {
  return net_.message_cap();
}

unsigned Mailbox::lane() const noexcept {
  return static_cast<unsigned>(lane_ - net_.lanes_.data());
}

// One message per neighbor per round: the directed arc's stamp must not
// already carry this round's epoch. Arc blocks are per-sender and a sender
// activates on exactly one lane, so concurrent workers stamp disjoint slots.
void Network::stamp_arc_or_reject(VertexId from, VertexId to,
                                  std::uint64_t arc) {
  ULTRA_CHECK_ARG(arc_stamp_[arc] != round_epoch_)
      << "Mailbox::send: second message from " << from << " to " << to
      << " in one round";
  arc_stamp_[arc] = round_epoch_;
}

template <class Place>
void Mailbox::post(VertexId to, std::size_t words, Place&& place) {
  Network& net = net_;
  detail::Lane& lane = *lane_;
  // Link check by a search of the sender's own sorted adjacency list that
  // resumes just past the previous send's match: relays walk their neighbors
  // in ascending order, so a send gallops O(log gap) slots forward, and a
  // target at or below the previous match binary-searches the prefix. The
  // match position doubles as the directed-arc offset inside the sender's
  // arc block. Covers every invalid target uniformly (out of range,
  // non-neighbor, self): a slot is used only if it holds `to`.
  const auto nbrs = net.graph_.neighbors(self_);
  const VertexId* const first = nbrs.data();
  const VertexId* const last = first + nbrs.size();
  const VertexId* lo = first + resume_;
  const VertexId* pos;
  if (lo != first && to <= lo[-1]) {
    pos = std::lower_bound(first, lo, to);
  } else {
    // Probe lo[0], lo[1], lo[3], lo[7], ...; every slot before lo is < to.
    std::ptrdiff_t step = 1;
    while (step < last - lo && lo[step - 1] < to) {
      lo += step;
      step *= 2;
    }
    pos = std::lower_bound(lo, lo + std::min(step, last - lo), to);
  }
  ULTRA_CHECK_ARG(pos != last && *pos == to)
      << "Mailbox::send: " << self_ << " -> " << to
      << " is not a network link";
  const auto slot = static_cast<std::size_t>(pos - first);
  resume_ = slot + 1;
  if (words > net.cap_) throw_message_too_long(words, net.cap_);
  net.stamp_arc_or_reject(self_, to, net.graph_.arc_begin(self_) + slot);
  const std::uint64_t off = place();
  lane.tally.note_message(words);
  lane.out[to >> kDestShardBits].push(
      self_, to, static_cast<std::uint32_t>(words), off);
  ++lane.pending_count;
}

void Mailbox::send(VertexId to, std::span<const Word> payload) {
  post(to, payload.size(),
       [&] { return append_payload(lane_->arena, payload); });
}

StoredPayload Mailbox::store(std::span<const Word> payload) {
  return {self_, net_.round_epoch_, append_payload(lane_->arena, payload),
          static_cast<std::uint32_t>(payload.size())};
}

StoredPayload StoredPayload::slice(std::size_t begin, std::size_t end) const {
  ULTRA_CHECK_ARG(begin <= end && end <= words_)
      << "StoredPayload::slice: [" << begin << ", " << end
      << ") is not inside a payload of " << words_ << " words";
  return {owner_, epoch_, off_ + begin,
          static_cast<std::uint32_t>(end - begin)};
}

void Mailbox::send(VertexId to, const StoredPayload& payload) {
  ULTRA_CHECK_ARG(payload.owner_ == self_ &&
                  payload.epoch_ == net_.round_epoch_)
      << "Mailbox::send: node " << self_ << " sent a payload that node "
      << payload.owner_ << " stored in another activation";
  post(to, payload.size(), [&] { return payload.off_; });
}

void Mailbox::send_all(std::span<const Word> payload) {
  Network& net = net_;
  detail::Lane& lane = *lane_;
  const auto nbrs = neighbors();
  if (nbrs.empty()) return;
  if (payload.size() > net.cap_) {
    throw_message_too_long(payload.size(), net.cap_);
  }
  // Neighbors come straight from the adjacency list, so no per-recipient
  // link validation is needed, and the directed-arc ids are just
  // consecutive slots of the sender's arc block.
  const std::uint64_t base = net.graph_.arc_begin(self_);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    net.stamp_arc_or_reject(self_, nbrs[i], base + i);
  }
  // The payload enters the arena once; every recipient's inbox entry views
  // the same words. Neighbors ascend, so each destination shard's
  // recipients form one run, appended to the shard's outbox in one step.
  const std::uint64_t off = append_payload(lane.arena, payload);
  const auto len = static_cast<std::uint32_t>(payload.size());
  const VertexId last_shard = nbrs.back() >> kDestShardBits;
  for (auto run = nbrs.begin(); run != nbrs.end();) {
    const VertexId shard = *run >> kDestShardBits;
    const auto run_end =
        shard == last_shard
            ? nbrs.end()
            : std::lower_bound(run, nbrs.end(),
                               (shard + 1) << kDestShardBits);
    lane.out[shard].push_run(self_, {run, run_end}, len, off);
    run = run_end;
  }
  lane.tally.note_message(payload.size(), nbrs.size());
  lane.pending_count += nbrs.size();
}

void Mailbox::stay_awake() {
  if (!net_.awake_flag_[self_]) {
    net_.awake_flag_[self_] = 1;
    // A lane activates its shard in increasing id order and shards partition
    // the sorted worklist, so every lane's list stays sorted and the lists
    // concatenate in lane order to the same sequence the sequential executor
    // records.
    lane_->awake.push_back(self_);
  }
}

Network::Network(const graph::Graph& g, std::uint64_t message_cap,
                 AuditMode audit, ExecutionMode exec, unsigned threads)
    : graph_(g),
      cap_(message_cap),
      audit_(audit),
      pool_(exec == ExecutionMode::kSequential ? 1 : threads) {
  const VertexId n = g.num_vertices();
  in_head_.assign(n, 0);
  in_count_.assign(n, 0);
  pend_count_.assign(n, 0);
  awake_flag_.assign(n, 0);
  cursor_.assign(n, 0);
  arc_stamp_.assign(2 * g.num_edges(), 0);

  shard_count_ = std::max<std::size_t>(
      1, (static_cast<std::size_t>(n) + kDestShardSize - 1) >> kDestShardBits);
  lanes_.resize(pool_.size());
  for (detail::Lane& lane : lanes_) {
    lane.out.resize(shard_count_);
  }
}

// Receiving-side re-verification, independent of the send-time checks: the
// inbox of v must be strictly sorted by sender, every sender must be a real
// neighbor, and every payload must respect the declared word cap. Catches
// simulator bugs (mis-routed, duplicated or mis-ordered deliveries — the
// delivery scatter no longer sorts, so inbox order is an audited invariant
// of the shard merge order, not a post-processing step) as well as protocol
// code that somehow bypassed Mailbox::send. Deliberately uses the graph's
// own binary-search has_edge rather than the transport's arc tables. This is
// the slow diagnostic path; fold_delivered below is the hot one.
void Network::audit_inbox(VertexId v) const {
  VertexId prev = graph::kInvalidVertex;
  for (std::uint32_t i = 0; i < in_count_[v]; ++i) {
    const MessageView& m = in_msgs_[in_head_[v] + i];
    ULTRA_CHECK(prev == graph::kInvalidVertex || prev < m.from)
        << "inbox of " << v << " not strictly sorted by sender at round "
        << metrics_.rounds;
    prev = m.from;
    ULTRA_CHECK(graph_.has_edge(m.from, v))
        << "delivered message " << m.from << " -> " << v
        << " does not follow a network link";
    ULTRA_CHECK(m.payload.size() <= cap_)
        << "delivered message " << m.from << " -> " << v << " carries "
        << m.payload.size() << " words, above the declared cap " << cap_;
  }
}

// The barrier's last pass over receivers_[begin, end), run per shard while
// its freshly built CSR slices are cache resident: fold each receiver's
// inbox into the trace digest and, under kStrict, audit it in the same
// loop, so the audit's merge runs in the shadow of the fold's serial
// multiply chain. Folding receiver-major (ascending receiver, ascending
// sender within a receiver), concatenated across shards, is the exact order
// the digest has always used. The audit is one linear merge of the
// (ascending) inbox senders against the (ascending) adjacency list:
// sortedness, link validity and the word cap accumulate into a single flag
// with no per-message branching. It stays independent of the send-time arc
// tables: membership comes from the graph's own adjacency arrays.
template <bool kAudit>
std::uint64_t Network::fold_delivered(std::size_t begin, std::size_t end,
                                      std::uint64_t digest) const {
  const std::uint64_t round_word = metrics_.rounds;
  for (std::size_t i = begin; i < end; ++i) {
    const VertexId v = receivers_[i];
    const MessageView* m = in_msgs_.data() + in_head_[v];
    const MessageView* const m_end = m + in_count_[v];
    const auto nbrs = graph_.neighbors(v);
    const VertexId* np = nbrs.data();
    const VertexId* const ne = np + nbrs.size();
    std::int64_t prev = -1;
    bool ok = true;
    for (; m != m_end; ++m) {
      digest = util::fnv_fold(digest, round_word);
      digest = util::fnv_fold(digest, m->from);
      digest = util::fnv_fold(digest, v);
      digest = util::fnv_fold(digest, m->payload.size());
      for (const Word w : m->payload) digest = util::fnv_fold(digest, w);
      if constexpr (kAudit) {
        ok &= static_cast<std::int64_t>(m->from) > prev;
        prev = m->from;
        while (np != ne && *np < m->from) ++np;
        ok &= np != ne && *np == m->from;
        ok &= m->payload.size() <= cap_;
      }
    }
    if (kAudit && !ok) {
      audit_inbox(v);  // rebuilds the precise diagnostic and throws
      ULTRA_CHECK(false) << "strict audit: inbox of " << v
                         << " failed the merge scan at round "
                         << metrics_.rounds;
    }
  }
  return digest;
}

// Barrier: move this round's queued sends into the delivered (inbox) state.
// Each lane's payload arena is swapped (not copied) into its delivered slot;
// inboxes become CSR slices of one flat MessageView array, built shard by
// shard: destination shards are contiguous id ranges, so walking them in
// order visits receivers ascending, and within a shard the (lane, entry)
// order concatenates the lanes' send logs — ascending sender id — so the
// stable counting scatter yields sender-sorted inboxes with no sort and a
// per-shard working set (counters, cursors, CSR slice) that stays cache
// resident at any n. Per shard the passes are count, prefix, scatter, and
// fold+audit: the digest fold with the strict audit in the same loop,
// immediately after the scatter, on the same hot lines. On a faulty round
// the fate step runs first; each shard also takes its run of matured_.
void Network::deliver_outboxes() {
  if (faults_active_) apply_message_faults();
  for (const VertexId v : receivers_) in_count_[v] = 0;
  receivers_.clear();

  std::uint64_t delivered = matured_.size();
  for (detail::Lane& lane : lanes_) {
    lane.arena.swap(lane.delivered);
    lane.arena.clear();
    // The retired buffer's views died with the round that read them; under
    // ASan a kept view reads as use-after-poison until a send re-fills it.
    ASAN_POISON_MEMORY_REGION(lane.arena.data(),
                              lane.arena.capacity() * sizeof(Word));
    delivered += lane.pending_count;
    lane.pending_count = 0;
    metrics_.messages += lane.tally.messages;
    metrics_.total_words += lane.tally.total_words;
    if (lane.tally.max_message_words > metrics_.max_message_words) {
      metrics_.max_message_words = lane.tally.max_message_words;
    }
    lane.tally.messages = 0;
    lane.tally.total_words = 0;
    lane.tally.max_message_words = 0;
  }
  in_msgs_.resize(delivered);

  std::uint64_t digest = metrics_.trace_digest;
  std::uint64_t pos = 0;
  std::size_t mat_end = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const auto lo = static_cast<VertexId>(s << kDestShardBits);
    const VertexId hi =
        std::min<VertexId>(num_nodes(), lo + kDestShardSize);
    const std::size_t mat_begin = mat_end;
    while (mat_end < matured_.size() && matured_[mat_end].to < hi) ++mat_end;
    bool empty = mat_begin == mat_end;
    for (const detail::Lane& lane : lanes_) empty &= lane.out[s].empty();
    if (empty) continue;

    // Count pass: per-receiver tallies plus the set of touched receivers.
    const std::size_t recv_begin = receivers_.size();
    const auto count = [this](VertexId d) {
      if (pend_count_[d]++ == 0) receivers_.push_back(d);
    };
    for (detail::Lane& lane : lanes_) {
      for (const VertexId d : lane.out[s].dst) count(d);
    }
    for (std::size_t j = mat_begin; j < mat_end; ++j) count(matured_[j].to);
    // Order the shard's receivers ascending: sort when sparse, rebuild by
    // scanning the shard's id range when dense (branch-light, already
    // sorted). Either way the global receivers_ list stays ascending
    // because shards are visited in increasing id-range order.
    if ((receivers_.size() - recv_begin) * 4 >=
        static_cast<std::size_t>(hi - lo)) {
      receivers_.resize(recv_begin);
      for (VertexId v = lo; v < hi; ++v) {
        if (pend_count_[v] != 0) receivers_.push_back(v);
      }
    } else {
      std::sort(receivers_.begin() + static_cast<std::ptrdiff_t>(recv_begin),
                receivers_.end());
    }
    // Prefix pass: CSR heads and scatter cursors for this shard.
    for (std::size_t i = recv_begin; i < receivers_.size(); ++i) {
      const VertexId v = receivers_[i];
      in_head_[v] = pos;
      in_count_[v] = pend_count_[v];
      cursor_[v] = pos;
      pos += pend_count_[v];
      pend_count_[v] = 0;
    }
    // Scatter pass: stable over (lane, entry) order, i.e. ascending sender.
    for (detail::Lane& lane : lanes_) {
      detail::ShardOutbox& ob = lane.out[s];
      const Word* base = lane.delivered.data();
      for (std::size_t i = 0; i < ob.dst.size(); ++i) {
        in_msgs_[cursor_[ob.dst[i]]++] =
            MessageView{ob.from[i], {base + ob.off[i], ob.words[i]}};
      }
      ob.clear();
    }
    if (mat_begin != mat_end) merge_matured(mat_begin, mat_end);
    // Fold pass, with the strict audit in it.
    digest = audit_ == AuditMode::kStrict
                 ? fold_delivered<true>(recv_begin, receivers_.size(), digest)
                 : fold_delivered<false>(recv_begin, receivers_.size(), digest);
  }
  metrics_.trace_digest = digest;
  delivered_last_round_ = delivered;
}

// Merge the shard's matured copies matured_[begin, end), sorted by (to,
// from), into the scattered inboxes: v's fresh messages sit at [head,
// cursor_[v]) in sender order with one free slot per copy after them, so a
// merge from the back places every copy in sender order, in place.
void Network::merge_matured(std::size_t begin, std::size_t end) {
  for (std::size_t j = end; j > begin;) {
    const VertexId v = matured_[j - 1].to;
    const std::uint64_t head = in_head_[v];
    std::uint64_t fresh = cursor_[v];
    std::uint64_t out = head + in_count_[v];
    for (; j > begin && matured_[j - 1].to == v; --j) {
      const detail::DelayedMsg& dm = matured_[j - 1];
      while (fresh > head && in_msgs_[fresh - 1].from > dm.from) {
        in_msgs_[--out] = in_msgs_[--fresh];
      }
      in_msgs_[--out] = MessageView{dm.from, dm.payload};
    }
  }
}

// Directed-arc id of from -> to; `to` must be a neighbor of `from`.
std::uint64_t Network::arc_id(VertexId from, VertexId to) const {
  const auto nbrs = graph_.neighbors(from);
  const auto pos = std::lower_bound(nbrs.begin(), nbrs.end(), to);
  return graph_.arc_begin(from) +
         static_cast<std::uint64_t>(pos - nbrs.begin());
}

// Next round's worklist: nodes with mail plus explicit stay_awake()
// requests — a merge of two sorted id lists instead of an O(n) scan. The
// lanes' awake lists concatenate (in lane order) to one sorted sequence
// because shards partition the sorted worklist contiguously.
void Network::rebuild_worklist() {
  awake_merged_.clear();
  for (detail::Lane& lane : lanes_) {
    awake_merged_.insert(awake_merged_.end(), lane.awake.begin(),
                         lane.awake.end());
    lane.awake.clear();
  }
  active_.clear();
  std::set_union(receivers_.begin(), receivers_.end(), awake_merged_.begin(),
                 awake_merged_.end(), std::back_inserter(active_));
  for (const VertexId v : awake_merged_) awake_flag_[v] = 0;
  if (faults_active_) apply_crash_intervals();
}

// Return the transport to its start-of-run state: empty inboxes and send
// queues, every node scheduled for round 0 (the standard synchronous-start
// assumption: everyone knows the protocol is starting).
void Network::reset_transport() {
  for (const VertexId v : receivers_) in_count_[v] = 0;
  receivers_.clear();
  in_msgs_.clear();
  delivered_last_round_ = 0;

  for (detail::Lane& lane : lanes_) {
    lane.arena.clear();
    lane.delivered.clear();
    for (detail::ShardOutbox& ob : lane.out) ob.clear();
    lane.pending_count = 0;
    for (const VertexId v : lane.awake) awake_flag_[v] = 0;
    lane.awake.clear();
    lane.tally.messages = 0;
    lane.tally.total_words = 0;
    lane.tally.max_message_words = 0;
  }

  active_.resize(num_nodes());
  std::iota(active_.begin(), active_.end(), VertexId{0});
}

// Activate a contiguous, ascending slice of the worklist through one lane.
// Both executors funnel through this function, so the per-node sequence is
// identical by construction. The inbox contents were already strict-audited
// at the barrier that delivered them (fold_delivered); here the
// strict mode checks the remaining activation-order invariant.
void Network::run_shard(Protocol& protocol, detail::Lane& lane,
                        const VertexId* ids, std::size_t count,
                        VertexId audit_prev) {
  VertexId last_activated = audit_prev;
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId v = ids[i];
    if (audit_ == AuditMode::kStrict) {
      ULTRA_CHECK(last_activated == graph::kInvalidVertex ||
                  last_activated < v)
          << "activation order regressed at node " << v << " round "
          << metrics_.rounds;
      last_activated = v;
    }
    Mailbox mb(*this, v, &lane);
    protocol.on_round(mb);
  }
}

// kParallel shards the worklist into contiguous ranges, one per lane, and
// runs them as one pool run: the simulator thread takes shard 0, the pool's
// threads the rest. The pool returns after every shard has, and rethrows
// the lowest shard's exception (sequential execution would have thrown at
// the first offending node; any thrown error aborts the run either way).
void Network::run_round(Protocol& protocol) {
  const std::size_t total = active_.size();
  const std::size_t shards = lanes_.size();
  if (shards == 1 || total < kParallelDispatchMin * shards) {
    run_shard(protocol, lanes_.front(), active_.data(), total,
              graph::kInvalidVertex);
    return;
  }
  pool_.run([&](unsigned s) {
    const std::size_t begin = total * s / shards;
    const std::size_t end = total * (s + 1) / shards;
    run_shard(protocol, lanes_[s], active_.data() + begin, end - begin,
              begin == 0 ? graph::kInvalidVertex : active_[begin - 1]);
  });
}

Metrics Network::run(Protocol& protocol, std::uint64_t max_rounds) {
  const RunOutcome out = run_outcome(protocol, {.max_rounds = max_rounds});
  ULTRA_CHECK_RUNTIME(out.completed()) << out.diagnostic;
  return out.metrics;
}

RunOutcome Network::run_outcome(Protocol& protocol,
                                const RunOptions& options) {
  protocol.begin(*this);
  reset_transport();
  prepare_fault_run();
  last_active_round_ = metrics_.rounds;

  while (!protocol.done(*this)) {
    if (metrics_.rounds >= options.max_rounds) {
      // Budget elapsed before done(). Distinguish "still working, budget too
      // small" from "permanently silent": with no active nodes, no delivered
      // or delayed messages and no future restart, the network's state can
      // never change again — only the round counter would advance.
      RunOutcome out;
      const bool pending = !active_.empty() || delivered_last_round_ != 0 ||
                           fault_work_pending();
      out.status = pending ? RunStatus::kRoundBudgetExhausted
                           : RunStatus::kDeadlocked;
      out.metrics = metrics_;
      out.last_active_round = last_active_round_;
      out.diagnostic =
          std::string("Network::run: protocol '") + options.protocol_name +
          (pending ? "' exceeded " : "' deadlocked with no pending work at ") +
          std::to_string(options.max_rounds) + " rounds (last active round " +
          std::to_string(last_active_round_) + ")";
      return out;
    }
    ++round_epoch_;  // invalidates all of last round's arc stamps at once
    apply_fault_events(protocol);
    const bool activated = !active_.empty();
    if (activated) protocol.on_round_begin(*this);
    run_round(protocol);
    deliver_outboxes();
    rebuild_worklist();
    if (activated || delivered_last_round_ != 0) {
      last_active_round_ = metrics_.rounds;
    }
    ++metrics_.rounds;
  }
  RunOutcome out;
  out.status = RunStatus::kCompleted;
  out.metrics = metrics_;
  out.last_active_round = last_active_round_;
  return out;
}

// --- The fault layer -------------------------------------------------------
//
// What the network does with an attached FaultPlan, whose schedule
// sim/faults.cpp computes as pure hashes. Without a non-empty plan none of
// it acts: prepare_fault_run leaves faults_active_ unset and the event lists
// and the delay queue empty.

// Reset the fault state for a run and, when a non-empty plan is attached,
// expand its crash intervals into sorted (round, node) event lists. Cursors
// skip events scheduled before the network's current round, so a reused
// network never replays stale hooks (plans are documented for fresh
// networks; this just keeps reuse well-defined).
void Network::prepare_fault_run() {
  faults_active_ = plan_ != nullptr && !plan_->empty();
  delayed_.clear();
  matured_.clear();
  crash_events_.clear();
  restart_events_.clear();
  crash_cursor_ = 0;
  restart_cursor_ = 0;
  if (!faults_active_) return;
  const VertexId n = num_nodes();
  for (VertexId v = 0; v < n; ++v) {
    const CrashInterval iv = plan_->crash_interval(v);
    if (!iv.crashes()) continue;
    crash_events_.push_back({iv.begin, v});
    if (iv.restarts()) restart_events_.push_back({iv.end, v});
  }
  const auto by_round_node = [](const detail::FaultEvent& a,
                                const detail::FaultEvent& b) {
    return a.round < b.round || (a.round == b.round && a.node < b.node);
  };
  std::sort(crash_events_.begin(), crash_events_.end(), by_round_node);
  std::sort(restart_events_.begin(), restart_events_.end(), by_round_node);
  while (crash_cursor_ < crash_events_.size() &&
         crash_events_[crash_cursor_].round < metrics_.rounds) {
    ++crash_cursor_;
  }
  while (restart_cursor_ < restart_events_.size() &&
         restart_events_[restart_cursor_].round < metrics_.rounds) {
    ++restart_cursor_;
  }
}

// Fire the crash/restart notifications taking effect this round, on the
// simulator thread, before on_round_begin. The worklist consequences were
// already applied when this round's worklist was built; these calls let the
// protocol repair its own state.
void Network::apply_fault_events(Protocol& protocol) {
  const std::uint64_t r = metrics_.rounds;
  while (crash_cursor_ < crash_events_.size() &&
         crash_events_[crash_cursor_].round <= r) {
    const VertexId v = crash_events_[crash_cursor_++].node;
    ++metrics_.faults.crashed;
    protocol.on_crash(*this, v);
  }
  while (restart_cursor_ < restart_events_.size() &&
         restart_events_[restart_cursor_].round <= r) {
    const VertexId v = restart_events_[restart_cursor_++].node;
    ++metrics_.faults.restarted;
    protocol.on_restart(*this, v);
  }
}

bool Network::fault_work_pending() const noexcept {
  return !delayed_.empty() || restart_cursor_ < restart_events_.size();
}

// The barrier's fate step. Fresh sends meet the plan in (shard, lane, entry)
// order and only survivors stay in the outboxes. Fates are pure hashes of
// (seed, round, from, to), and the deferred copies of one arc share a shard
// and a lane, so they queue in the same relative order under every
// executor. Copies due now then mature in queue order; one whose arc is
// stamped (a surviving fresh send or an earlier matured copy delivers on
// it) slips one more round, keeping one message per arc per round and with
// it the strict audit's strictly sorted inboxes.
void Network::apply_message_faults() {
  const std::uint64_t r = metrics_.rounds;
  matured_.clear();  // the previous round's matured payloads die here
  for (std::size_t s = 0; s < shard_count_; ++s) {
    for (detail::Lane& lane : lanes_) {
      detail::ShardOutbox& ob = lane.out[s];
      const std::size_t sent = ob.size();
      ob.retain([&](std::size_t i) {
        const std::span<const Word> payload(lane.arena.data() + ob.off[i],
                                            ob.words[i]);
        return fresh_send_delivers(ob.from[i], ob.dst[i], payload);
      });
      lane.pending_count -= sent - ob.size();
    }
  }

  std::size_t kept = 0;
  for (std::size_t i = 0; i < delayed_.size(); ++i) {
    detail::DelayedMsg& dm = delayed_[i];
    if (dm.due == r) {
      if (plan_->node_crashed(dm.to, r + 1)) {
        ++metrics_.faults.dropped;
        continue;
      }
      std::uint64_t& stamp = arc_stamp_[arc_id(dm.from, dm.to)];
      if (stamp != round_epoch_) {
        stamp = round_epoch_;
        matured_.push_back(std::move(dm));
        continue;
      }
      dm.due = r + 1;  // arc busy this round: slip once more
    }
    // A self-move would empty the payload this copy keeps.
    if (kept != i) delayed_[kept] = std::move(dm);
    ++kept;
  }
  delayed_.resize(kept);
  // Receiver-major, sender-ascending: the order the shard passes merge in.
  std::ranges::sort(matured_, {}, [](const detail::DelayedMsg& m) {
    return std::pair(m.to, m.from);
  });
}

// True if a fresh send of this round delivers at this barrier: link outage,
// then the fate draw (queueing any deferred copy), then the receiver's
// liveness in the consuming round. A send that does not deliver clears its
// arc stamp, freeing the arc for a maturing copy.
bool Network::fresh_send_delivers(VertexId from, VertexId to,
                                  std::span<const Word> payload) {
  const std::uint64_t r = metrics_.rounds;
  using Kind = FateDecision::Kind;
  const FateDecision fate = plan_->link_down(from, to, r)
                                ? FateDecision{.kind = Kind::kDrop}
                                : plan_->message_fate(r, from, to);
  if (fate.kind == Kind::kDelay || fate.kind == Kind::kDuplicate) {
    (fate.kind == Kind::kDelay ? metrics_.faults.delayed
                               : metrics_.faults.duplicated)++;
    // Fault path: the copy must outlive the arena.
    std::vector<Word> copy(payload.begin(), payload.end());
    delayed_.push_back(
        detail::DelayedMsg{r + fate.delay_rounds, from, to, std::move(copy)});
  }
  // A receiver that is down when the message would arrive (consumption
  // round r + 1) loses it; a duplicate's deferred copy is already in flight
  // and may still land after a restart.
  const bool in_flight = fate.kind != Kind::kDrop && fate.kind != Kind::kDelay;
  const bool delivers = in_flight && !plan_->node_crashed(to, r + 1);
  if (fate.kind == Kind::kDrop || (in_flight && !delivers)) {
    ++metrics_.faults.dropped;
  }
  if (!delivers) arc_stamp_[arc_id(from, to)] = 0;
  return delivers;
}

// Crash intervals on next round's worklist: nodes down next round leave it,
// and nodes restarting next round join it, force-woken so protocols
// re-engage them even if nobody messaged them. apply_fault_events consumed
// every event up to this round, so next round's restarts start at the
// cursor, ascending in id.
void Network::apply_crash_intervals() {
  const std::uint64_t next = metrics_.rounds + 1;
  std::erase_if(active_,
                [&](VertexId v) { return plan_->node_crashed(v, next); });
  const auto restarts = std::ranges::equal_range(
      restart_events_.begin() + static_cast<std::ptrdiff_t>(restart_cursor_),
      restart_events_.end(), next, {}, &detail::FaultEvent::round);
  if (restarts.empty()) return;
  awake_merged_.clear();
  std::ranges::set_union(
      active_, restarts | std::views::transform(&detail::FaultEvent::node),
      std::back_inserter(awake_merged_));
  active_.swap(awake_merged_);
}

}  // namespace ultra::sim
