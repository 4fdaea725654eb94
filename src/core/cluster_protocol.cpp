#include "core/cluster_protocol.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <span>

#include "check/check.h"
#include "util/rng.h"

namespace ultra::core {

using graph::VertexId;
using sim::Word;

namespace {

// Event counters bumped from node context run concurrently under
// ExecutionMode::kParallel; additions commute, so relaxed atomics keep the
// totals exact without making the whole stats struct atomic.
void bump(std::uint64_t& counter) {
  std::atomic_ref<std::uint64_t>(counter).fetch_add(
      1, std::memory_order_relaxed);
}

// The LIST chunk being built, reused by every activation on the same thread:
// under ExecutionMode::kParallel on_round runs concurrently for distinct
// nodes, so it cannot be a protocol member.
thread_local std::vector<Word> t_list_chunk;

// Verdicts of walk_p1_chains: 0 is unknown.
constexpr std::uint8_t kIn = 1;
constexpr std::uint8_t kOut = 2;

// Memoized walks up the p1-chain of every alive vertex, linear in their
// number. Each alive vertex whose `state` is still unknown takes the verdict
// of the first decided vertex on its chain. `stop(cur)` returns 0 to go on
// to p1[cur], or the verdict at which cur's chain ends; a pointer cycle (a
// damaged chain) ends at kOut.
template <typename Stop>
void walk_p1_chains(const std::vector<VertexId>& p1,
                    const std::vector<std::uint8_t>& alive,
                    std::vector<std::uint8_t>& state, Stop stop) {
  constexpr std::uint8_t kOnWalk = 3;
  const auto n = static_cast<VertexId>(alive.size());
  std::vector<VertexId> path;
  for (VertexId w = 0; w < n; ++w) {
    if (!alive[w] || state[w]) continue;
    path.clear();
    VertexId cur = w;
    std::uint8_t verdict = kOut;
    for (;;) {
      if (state[cur] == kIn || state[cur] == kOut) {
        verdict = state[cur];
        break;
      }
      if (state[cur] == kOnWalk) break;
      state[cur] = kOnWalk;
      path.push_back(cur);
      if (const std::uint8_t end = stop(cur); end != 0) {
        verdict = end;
        break;
      }
      cur = p1[cur];
    }
    for (const VertexId x : path) state[x] = verdict;
  }
}

}  // namespace

ClusterProtocol::ClusterProtocol(const graph::Graph& g,
                                 SkeletonSchedule schedule, std::uint64_t seed,
                                 spanner::Spanner* out,
                                 double abort_threshold_factor)
    : graph_(g),
      schedule_(std::move(schedule)),
      seed_(seed),
      out_(out),
      abort_factor_(abort_threshold_factor) {}

void ClusterProtocol::begin(sim::Network& net) {
  const VertexId n = net.num_nodes();
  // Cand and Join messages are 6 words; a smaller cap would only fail at the
  // first of them, mid-run.
  const std::uint64_t cap = net.message_cap();
  ULTRA_CHECK_ARG(cap >= 6) << "ClusterProtocol: message cap " << cap
                            << " is below its 6-word Cand/Join messages";
  util::Rng rng(seed_);

  // Pre-draw every sampling decision (the paper: all sampling happens before
  // the first round of communication). first_unsampled_[r][v] is the first
  // call j of round r whose Bernoulli(p_j) draw fails for a cluster centered
  // at v; t (= #calls) if every draw succeeds.
  first_unsampled_.assign(schedule_.rounds.size(), {});
  for (std::size_t r = 0; r < schedule_.rounds.size(); ++r) {
    const auto& probs = schedule_.rounds[r].probs;
    first_unsampled_[r].assign(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      std::uint32_t k = 0;
      while (k < probs.size() && rng.bernoulli(probs[k])) ++k;
      first_unsampled_[r][v] = k;
    }
  }

  alive_.assign(n, 1);
  alive_total_ = n;
  vcenter_.resize(n);
  for (VertexId v = 0; v < n; ++v) vcenter_[v] = v;
  p1_.assign(n, graph::kInvalidVertex);
  ccenter_ = vcenter_;
  p2_.assign(n, graph::kInvalidVertex);
  horizon_.assign(n, 0);
  children_.assign(n, {});

  best_.assign(n, {});
  winner_child_.assign(n, graph::kInvalidVertex);
  cand_wait_.assign(n, 0);
  statuses_read_.assign(n, 0);
  local_entries_.assign(n, {});
  list_queue_.assign(n, {});
  list_head_.assign(n, 0);
  seen_clusters_.assign(n, {});
  // A vertex's children and its own adjacent clusters are among its
  // neighbors: reserve those lists once, so no round grows them.
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t deg = graph_.degree(v);
    children_[v].reserve(deg);
    local_entries_[v].reserve(deg);
    seen_clusters_[v].reserve(deg);
  }
  list_wait_.assign(n, 0);
  list_mode_.assign(n, 0);
  list_done_sending_.assign(n, 0);
  abort_flag_.assign(n, 0);
  horizon_known_.assign(n, 0);
  cand_sent_.assign(n, 0);
  act_resolved_.assign(n, 0);
  cand_recheck_.assign(n, 0);
  crash_was_alive_.assign(n, 0);
  crash_seen_ = false;

  // Per-message list chunk capacity: 1 tag word + 3 words per entry.
  list_chunk_entries_ = cap == sim::kUnboundedMessages
                            ? 64
                            : std::max<std::uint64_t>(1, (cap - 1) / 3);

  round_index_ = 0;
  start_schedule_round();
}

void ClusterProtocol::start_schedule_round() {
  // Repair pointer damage left by mid-round crashes before counting the
  // round's participants (no-op, and skipped entirely, in fault-free runs).
  if (crash_seen_) heal_orphans();
  // Clusters become singletons of working vertices; p2 starts out as p1.
  std::uint64_t alive_count = 0;
  const auto& probs = schedule_.rounds[round_index_].probs;
  const std::uint64_t s = schedule_.rounds[round_index_].s;
  const double inv_p =
      s != 0 ? static_cast<double>(s)
             : (probs.empty() || probs[0] <= 0.0 ? 1.0 : 1.0 / probs[0]);
  abort_threshold_ = std::max(
      8.0, abort_factor_ * inv_p *
               std::log(std::max<double>(2.0, graph_.num_vertices())));

  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (!alive_[v]) continue;
    ++alive_count;
    ccenter_[v] = vcenter_[v];
    p2_[v] = p1_[v];
    horizon_known_[v] = 0;
  }
  call_index_ = 0;
  phase_ = Phase::kRoundStart;
  barrier_pending_ = alive_count;
  phase_rounds_ = 0;
  if (alive_count == 0) phase_ = Phase::kDone;
}

void ClusterProtocol::start_call() {
  // Count acting groups/members for the barrier, reset per-call scratch.
  std::uint64_t acting_members = 0;
  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (!alive_[v]) continue;
    best_[v] = Candidate{};
    winner_child_[v] = graph::kInvalidVertex;
    statuses_read_[v] = 0;
    list_mode_[v] = 0;
    list_done_sending_[v] = 0;
    abort_flag_[v] = 0;
    cand_sent_[v] = 0;
    act_resolved_[v] = 0;
    cand_recheck_[v] = 0;
    if (is_acting(v)) {
      ++acting_members;
      // Count only protocol-alive children: fault-free the two coincide
      // (groups die as whole trees), but a crashed child's teardown may
      // leave dead ids in lists rebuilt later this round.
      const auto live_children = static_cast<std::uint32_t>(std::count_if(
          children_[v].begin(), children_[v].end(),
          [&](VertexId c) { return alive_[c] != 0; }));
      cand_wait_[v] = live_children;
      list_wait_[v] = live_children;
      local_entries_[v].clear();
      list_queue_[v].clear();
      list_head_[v] = 0;
      seen_clusters_[v].clear();
    }
  }
  ++stats_.expand_calls;
  phase_ = Phase::kStatus;
  barrier_pending_ = acting_members;  // consumed by the kAct phase
  phase_rounds_ = 0;
}

void ClusterProtocol::advance_controller() {
  // Loop because several transitions can be immediate (empty barriers).
  for (int guard = 0; guard < 8; ++guard) {
    switch (phase_) {
      case Phase::kRoundStart:
        if (barrier_pending_ == 0) {
          start_call();
          continue;
        }
        ++stats_.broadcast_rounds;
        return;
      case Phase::kStatus:
        if (phase_rounds_ >= 1) {
          // Status sent last round; arrives this round. Move to kAct (the
          // barrier was preloaded by start_call).
          phase_ = Phase::kAct;
          phase_rounds_ = 0;
          continue;
        }
        ++stats_.status_rounds;
        ++phase_rounds_;
        return;
      case Phase::kAct:
        if (barrier_pending_ == 0) {
          ++call_index_;
          if (call_index_ < schedule_.rounds[round_index_].probs.size()) {
            start_call();
            continue;
          }
          phase_ = Phase::kContract;
          phase_rounds_ = 0;
          continue;
        }
        ++stats_.gather_rounds;
        return;
      case Phase::kContract:
        if (phase_rounds_ >= 2) {
          ++round_index_;
          if (round_index_ < schedule_.rounds.size()) {
            start_schedule_round();
            continue;
          }
          phase_ = Phase::kDone;
          continue;
        }
        ++stats_.contraction_rounds;
        ++phase_rounds_;
        return;
      case Phase::kDone:
        return;
    }
  }
}

// The network calls this on the simulator thread once per round that
// activates anyone — the same rounds in which the old lazy trigger ("first
// activated node advances the controller") used to fire, so the phase
// machine steps at identical times, and no node-context code ever mutates
// controller state.
void ClusterProtocol::on_round_begin(sim::Network&) { advance_controller(); }

void ClusterProtocol::on_round(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  if (!alive_[v]) return;  // dead vertices ignore everything
  mb.stay_awake();         // keep the controller ticking

  switch (phase_) {
    case Phase::kRoundStart:
      handle_round_start(mb);
      break;
    case Phase::kStatus:
      handle_status(mb);
      break;
    case Phase::kAct:
      handle_act(mb);
      break;
    case Phase::kContract:
      handle_contract(mb);
      break;
    case Phase::kDone:
      break;
  }
}

bool ClusterProtocol::done(const sim::Network&) const {
  // The schedule ends with a kill-all call, so alive_total_ reaching zero is
  // the normal terminal state (and must terminate the run: dead vertices are
  // silent, so the controller would otherwise never tick again).
  return phase_ == Phase::kDone || alive_total_ == 0;
}

// --- Phase: round-start horizon broadcast --------------------------------

void ClusterProtocol::handle_round_start(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  if (horizon_known_[v]) return;
  if (vcenter_[v] == v) {
    horizon_[v] = first_unsampled_[round_index_][v];
  } else {
    bool got = false;
    for (const sim::MessageView& m : mb.inbox()) {
      if (!m.payload.empty() && m.payload[0] == kTagHorizon &&
          m.from == p1_[v]) {
        ULTRA_CHECK_GE(m.payload.size(), 2u);
        horizon_[v] = static_cast<std::uint32_t>(m.payload[1]);
        got = true;
      }
    }
    if (!got) return;  // wait for the parent's broadcast
  }
  horizon_known_[v] = 1;
  --barrier_pending_;
  for (const VertexId c : children_[v]) {
    mb.send(c, {kTagHorizon, horizon_[v]});
  }
}

// --- Phase: status exchange ----------------------------------------------

void ClusterProtocol::handle_status(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  // One message to every neighbor: {tag, cluster center, horizon}. Dead
  // neighbors simply ignore it.
  mb.send_all({kTagStatus, ccenter_[v], horizon_[v]});
}

// --- Phase: act (convergecast, decide, resolve) ---------------------------

void ClusterProtocol::read_statuses(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  statuses_read_[v] = 1;
  if (!is_acting(v)) return;
  // Extract (a) the best candidate edge into a *sampled* cluster and (b) the
  // deduplicated local list of adjacent clusters for the DIE case.
  for (const sim::MessageView& m : mb.inbox()) {
    if (m.payload.empty() || m.payload[0] != kTagStatus) continue;
    ULTRA_CHECK_GE(m.payload.size(), 3u);
    const auto their_center = static_cast<VertexId>(m.payload[1]);
    const auto their_horizon = static_cast<std::uint32_t>(m.payload[2]);
    if (their_center == ccenter_[v]) continue;  // same cluster
    if (their_horizon > call_index_) {
      // Sampled cluster: candidate for joining.
      Candidate c{true, their_center, their_horizon, v, m.from};
      if (!best_[v].has ||
          std::tie(c.target_center, c.w) <
              std::tie(best_[v].target_center, best_[v].w)) {
        best_[v] = c;
        winner_child_[v] = graph::kInvalidVertex;  // own candidate
      }
    }
    // Adjacent-cluster entry (dedup within this vertex only; the global
    // dedup happens during the convergecast).
    if (mark_seen(v, their_center)) {
      local_entries_[v].push_back(ListEntry{their_center, v, m.from});
    }
  }
}

void ClusterProtocol::send_candidate_up_or_decide(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  if (vcenter_[v] == v) {
    center_decide(mb);
    return;
  }
  const Candidate& b = best_[v];
  cand_sent_[v] = 1;
  mb.send(p1_[v], {kTagCand, b.has ? Word{1} : Word{0}, b.target_center,
                   b.target_horizon, b.v, b.w});
}

void ClusterProtocol::center_decide(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  if (best_[v].has) {
    // JOIN: select the winning edge, reroute p2 along the winning path.
    const Candidate& b = best_[v];
    {
      const std::lock_guard<std::mutex> lock(out_mu_);
      out_->add_edge(b.v, b.w);
    }
    bump(stats_.joins);
    ccenter_[v] = b.target_center;
    horizon_[v] = b.target_horizon;
    p2_[v] = (b.v == v) ? b.w : winner_child_[v];
    for (const VertexId c : children_[v]) {
      const Word on_path = (winner_child_[v] == c && b.v != v) ? 1 : 0;
      mb.send(c, {kTagJoin, b.target_center, b.target_horizon, b.v, b.w,
                  on_path});
    }
    act_resolved_[v] = 1;
    --barrier_pending_;  // center resolved
    return;
  }
  // DIE: command the group to stream its adjacency lists.
  list_mode_[v] = 1;
  for (const VertexId c : children_[v]) {
    mb.send(c, {kTagDieCmd});
  }
  // The center's own entries are already deduplicated in seen_clusters_;
  // record them directly.
  {
    const std::lock_guard<std::mutex> lock(out_mu_);
    for (const ListEntry& e : local_entries_[v]) {
      out_->add_edge(e.v, e.w);
    }
  }
  local_entries_[v].clear();
  if (seen_clusters_[v].size() > abort_threshold_) abort_flag_[v] = 1;
  // The children got DieCmd this round, so a finish (even an immediate
  // abort's) waits for the next activation: one message per arc per round.
  if (children_[v].empty()) center_try_finish(mb);
}

void ClusterProtocol::enqueue_entry(VertexId v, const ListEntry& entry) {
  if (abort_flag_[v]) return;
  if (!mark_seen(v, entry.cluster)) return;
  list_queue_[v].push_back(entry);
  if (seen_clusters_[v].size() > abort_threshold_) abort_flag_[v] = 1;
}

// Inserts `cluster` into v's sorted run of seen clusters; false if it was
// there already. The runs stay short (a vertex's own neighbors, then what
// its subtree forwards up to the abort threshold), so a binary search and a
// shift beat hashing, and the run's storage outlives clear().
bool ClusterProtocol::mark_seen(VertexId v, VertexId cluster) {
  std::vector<VertexId>& seen = seen_clusters_[v];
  const auto at = std::lower_bound(seen.begin(), seen.end(), cluster);
  if (at != seen.end() && *at == cluster) return false;
  seen.insert(at, cluster);
  return true;
}

void ClusterProtocol::pump_list_queue(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  if (list_done_sending_[v] || p1_[v] == graph::kInvalidVertex) return;
  if (abort_flag_[v]) {
    // Propagate the abort toward the center instead of more list traffic.
    mb.send(p1_[v], {kTagAbortUp});
    list_done_sending_[v] = 1;
    return;
  }
  std::vector<ListEntry>& queue = list_queue_[v];
  if (list_head_[v] < queue.size()) {
    std::vector<Word>& payload = t_list_chunk;
    const std::size_t words = 1 + 3 * list_chunk_entries_;
    if (payload.size() < words) payload.resize(words);
    const std::size_t take = std::min<std::size_t>(
        list_chunk_entries_, queue.size() - list_head_[v]);
    payload[0] = kTagList;
    for (std::size_t i = 0; i < take; ++i) {
      const ListEntry& e = queue[list_head_[v] + i];
      payload[1 + 3 * i] = e.cluster;
      payload[2 + 3 * i] = e.v;
      payload[3 + 3 * i] = e.w;
    }
    list_head_[v] += static_cast<std::uint32_t>(take);
    if (list_head_[v] == queue.size()) {  // drained: rewind, keep capacity
      queue.clear();
      list_head_[v] = 0;
    }
    mb.send(p1_[v], std::span<const Word>(payload.data(), 1 + 3 * take));
    return;
  }
  if (list_wait_[v] == 0) {
    mb.send(p1_[v], {kTagListEnd});
    list_done_sending_[v] = 1;
  }
}

void ClusterProtocol::center_try_finish(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  if (!list_mode_[v]) return;
  if (!abort_flag_[v] && list_wait_[v] > 0) return;
  // Either every child's list drained or an abort short-circuits the wait.
  const bool aborted = abort_flag_[v] != 0;
  if (aborted) bump(stats_.aborts);
  for (const VertexId c : children_[v]) {
    mb.send(c, {kTagFinish, aborted ? Word{1} : Word{0}});
  }
  finish_member(mb, aborted);
  bump(stats_.deaths);
}

void ClusterProtocol::finish_member(sim::Mailbox& mb, bool aborted) {
  const VertexId v = mb.self();
  if (aborted) {
    const std::lock_guard<std::mutex> lock(out_mu_);
    for (const VertexId w : graph_.neighbors(v)) out_->add_edge(v, w);
  }
  alive_[v] = 0;
  --alive_total_;
  list_mode_[v] = 0;
  act_resolved_[v] = 1;
  --barrier_pending_;
}

void ClusterProtocol::handle_act(sim::Mailbox& mb) {
  const VertexId v = mb.self();

  // First activation of this phase: the STATUS messages are in the inbox.
  if (!statuses_read_[v]) {
    read_statuses(mb);
    if (is_acting(v) && cand_wait_[v] == 0) {
      send_candidate_up_or_decide(mb);
    }
    return;
  }

  if (!is_acting(v)) return;

  bool fresh_cand = false;
  bool finish_seen = false;
  bool finish_aborted = false;
  for (const sim::MessageView& m : mb.inbox()) {
    if (m.payload.empty()) continue;
    switch (m.payload[0]) {
      case kTagCand: {
        ULTRA_CHECK_GE(m.payload.size(), 6u);
        if (m.payload[1] == 1) {
          Candidate c{true, static_cast<VertexId>(m.payload[2]),
                      static_cast<std::uint32_t>(m.payload[3]),
                      static_cast<VertexId>(m.payload[4]),
                      static_cast<VertexId>(m.payload[5])};
          if (!best_[v].has ||
              std::tie(c.target_center, c.v, c.w) <
                  std::tie(best_[v].target_center, best_[v].v, best_[v].w)) {
            best_[v] = c;
            winner_child_[v] = m.from;
          }
        }
        if (cand_wait_[v] > 0) --cand_wait_[v];
        fresh_cand = true;
        break;
      }
      case kTagJoin: {
        ULTRA_CHECK_GE(m.payload.size(), 6u);
        const auto new_center = static_cast<VertexId>(m.payload[1]);
        const auto new_horizon = static_cast<std::uint32_t>(m.payload[2]);
        const auto vstar = static_cast<VertexId>(m.payload[3]);
        const auto wstar = static_cast<VertexId>(m.payload[4]);
        const bool on_path = m.payload[5] == 1;
        ccenter_[v] = new_center;
        horizon_[v] = new_horizon;
        if (on_path && vstar == v) {
          p2_[v] = wstar;
        } else if (on_path) {
          p2_[v] = winner_child_[v];
        } else {
          p2_[v] = p1_[v];
        }
        for (const VertexId c : children_[v]) {
          const Word child_on_path =
              (on_path && vstar != v && winner_child_[v] == c) ? 1 : 0;
          mb.send(c, {kTagJoin, new_center, new_horizon, vstar, wstar,
                      child_on_path});
        }
        act_resolved_[v] = 1;
        --barrier_pending_;
        return;  // resolved; nothing else matters this call
      }
      case kTagDieCmd: {
        list_mode_[v] = 1;
        for (const VertexId c : children_[v]) {
          mb.send(c, {kTagDieCmd});
        }
        // Local entries already deduplicated into seen_clusters_; queue them.
        for (const ListEntry& e : local_entries_[v]) {
          list_queue_[v].push_back(e);
        }
        local_entries_[v].clear();
        if (seen_clusters_[v].size() > abort_threshold_) abort_flag_[v] = 1;
        break;
      }
      case kTagList: {
        for (std::size_t i = 1; i + 2 < m.payload.size(); i += 3) {
          const ListEntry e{static_cast<VertexId>(m.payload[i]),
                            static_cast<VertexId>(m.payload[i + 1]),
                            static_cast<VertexId>(m.payload[i + 2])};
          if (vcenter_[v] == v) {
            // The center consumes entries directly.
            if (mark_seen(v, e.cluster)) {
              const std::lock_guard<std::mutex> lock(out_mu_);
              out_->add_edge(e.v, e.w);
            }
          } else {
            enqueue_entry(v, e);
          }
        }
        break;
      }
      case kTagListEnd: {
        if (list_wait_[v] > 0) --list_wait_[v];
        break;
      }
      case kTagAbortUp: {
        abort_flag_[v] = 1;  // pump_list_queue below forwards it up
        break;
      }
      case kTagFinish: {
        ULTRA_CHECK_GE(m.payload.size(), 2u);
        finish_seen = true;
        finish_aborted = m.payload[1] == 1;
        break;
      }
      default:
        break;
    }
  }

  if (finish_seen) {
    for (const VertexId c : children_[v]) {
      mb.send(c, {kTagFinish, finish_aborted ? Word{1} : Word{0}});
    }
    finish_member(mb, finish_aborted);
    return;
  }

  if (fresh_cand || cand_recheck_[v]) {
    cand_recheck_[v] = 0;
    // The extra guards only matter after a crash repair: fault-free, a
    // fresh candidate with cand_wait_ == 0 implies neither flag is set.
    if (cand_wait_[v] == 0 && !list_mode_[v] && !cand_sent_[v] &&
        !act_resolved_[v]) {
      send_candidate_up_or_decide(mb);
      return;
    }
  }

  if (list_mode_[v]) {
    if (vcenter_[v] == v) {
      center_try_finish(mb);
    } else {
      pump_list_queue(mb);
    }
  }
}

// --- Phase: contraction ----------------------------------------------------

void ClusterProtocol::handle_contract(sim::Mailbox& mb) {
  const VertexId v = mb.self();
  if (phase_rounds_ == 1) {
    // First contraction round: adopt the cluster tree as the new vertex tree
    // and ping the new parent.
    vcenter_[v] = ccenter_[v];
    p1_[v] = p2_[v];
    children_[v].clear();
    if (p1_[v] != graph::kInvalidVertex) {
      mb.send(p1_[v], {kTagParentPing});
    }
  } else {
    for (const sim::MessageView& m : mb.inbox()) {
      if (!m.payload.empty() && m.payload[0] == kTagParentPing &&
          alive_[m.from]) {
        // The alive_ filter only bites under crash faults: a pinger that
        // crashed after sending must not be adopted as a child. alive_ is
        // stable during kContract (only simulator-thread hooks write it),
        // so the cross-node read is race-free under kParallel.
        children_[v].push_back(m.from);
      }
    }
  }
}

// --- Crash-restart resilience ---------------------------------------------
//
// All of the following runs on the simulator thread (Network fault hooks and
// on_round_begin), so cross-node state is mutated without synchronization,
// exactly like the controller. None of it executes in fault-free runs: the
// hooks only fire from an attached FaultPlan, and the orphan sweep is gated
// on crash_seen_ — the golden digests are unaffected.

// Settle the barrier debt w owes the current phase, so the controller can
// still reach zero after w leaves the protocol mid-phase.
void ClusterProtocol::resolve_barrier_debt(VertexId w) {
  switch (phase_) {
    case Phase::kRoundStart:
      if (!horizon_known_[w]) {
        horizon_known_[w] = 1;
        --barrier_pending_;
      }
      break;
    case Phase::kStatus:
    case Phase::kAct:
      // The kAct barrier (preloaded by start_call) counts acting members;
      // each settles it exactly once (JOIN resolution or death), tracked by
      // act_resolved_.
      if (is_acting(w) && !act_resolved_[w]) {
        act_resolved_[w] = 1;
        --barrier_pending_;
      }
      break;
    case Phase::kContract:
    case Phase::kDone:
      break;  // no barrier in these phases
  }
}

// The abort rule's safety escape: with every incident edge of w in the
// spanner, any stretch argument involving w holds unconditionally, so w can
// drop out of (or re-enter) the clustering at any point.
void ClusterProtocol::keep_all_incident_edges(VertexId w) {
  const std::lock_guard<std::mutex> lock(out_mu_);
  for (const VertexId x : graph_.neighbors(w)) out_->add_edge(w, x);
}

// Reset w to a freshly started singleton cluster (pointers, scratch and
// repair flags); the caller assigns horizon/liveness per context.
void ClusterProtocol::make_singleton(VertexId w) {
  vcenter_[w] = w;
  ccenter_[w] = w;
  p1_[w] = graph::kInvalidVertex;
  p2_[w] = graph::kInvalidVertex;
  children_[w].clear();
  best_[w] = Candidate{};
  winner_child_[w] = graph::kInvalidVertex;
  cand_wait_[w] = 0;
  list_wait_[w] = 0;
  statuses_read_[w] = 1;  // never re-enter the current call's entry branch
  local_entries_[w].clear();
  list_queue_[w].clear();
  list_head_[w] = 0;
  seen_clusters_[w].clear();
  list_mode_[w] = 0;
  list_done_sending_[w] = 0;
  abort_flag_[w] = 0;
  cand_sent_[w] = 0;
  act_resolved_[w] = 0;
  cand_recheck_[w] = 0;
}

// All alive vertices whose p1-chain passes through v (including v itself),
// ascending.
std::vector<VertexId> ClusterProtocol::collect_subtree(VertexId v) {
  const auto n = static_cast<VertexId>(alive_.size());
  std::vector<std::uint8_t> state(n, 0);
  state[v] = kIn;
  walk_p1_chains(p1_, alive_, state, [&](VertexId cur) {
    const VertexId p = p1_[cur];
    return (p == graph::kInvalidVertex || !alive_[p]) ? kOut : std::uint8_t{0};
  });
  std::vector<VertexId> members;
  for (VertexId w = 0; w < n; ++w) {
    if (state[w] == kIn && (w == v || alive_[w])) members.push_back(w);
  }
  return members;
}

void ClusterProtocol::on_crash(sim::Network&, VertexId v) {
  crash_seen_ = true;
  crash_was_alive_[v] = alive_[v];
  if (!alive_[v]) return;  // already protocol-dead: nothing to tear down
  ++stats_.crash_teardowns;

  // The crashed node's parent is the only tree edge leaving the subtree:
  // stop waiting for v's candidate / list end unless it is already up (or in
  // flight — cand_sent_/list_done_sending_ are set at send time, so an
  // in-flight message is never double-counted).
  const VertexId parent = p1_[v];
  if (parent != graph::kInvalidVertex && alive_[parent]) {
    std::erase(children_[parent], v);
    if ((phase_ == Phase::kStatus || phase_ == Phase::kAct) &&
        is_acting(parent) && !act_resolved_[parent]) {
      if (!cand_sent_[v] && cand_wait_[parent] > 0) {
        --cand_wait_[parent];
        cand_recheck_[parent] = 1;
      }
      if (!list_done_sending_[v] && list_wait_[parent] > 0) {
        --list_wait_[parent];
      }
    }
  }

  // Tear the whole p1-subtree down to singletons: members keep all their
  // incident edges, settle their barrier debt, and re-enter as singleton
  // clusters that act no earlier than the next call.
  for (const VertexId w : collect_subtree(v)) {
    resolve_barrier_debt(w);
    keep_all_incident_edges(w);
    make_singleton(w);
    if (phase_ == Phase::kRoundStart) {
      horizon_[w] = first_unsampled_[round_index_][w];
      horizon_known_[w] = 1;
    } else {
      horizon_[w] = std::max<std::uint32_t>(
          first_unsampled_[round_index_][w], call_index_ + 1);
    }
  }
  alive_[v] = 0;
  --alive_total_;
}

void ClusterProtocol::on_restart(sim::Network&, VertexId v) {
  if (!crash_was_alive_[v]) return;  // was protocol-dead before the crash
  crash_was_alive_[v] = 0;
  if (phase_ == Phase::kDone) return;
  ++stats_.crash_rejoins;
  alive_[v] = 1;
  ++alive_total_;
  make_singleton(v);
  if (phase_ == Phase::kRoundStart) {
    // Not counted in this phase's barrier (it was dead when the phase
    // started, or its teardown already settled the debt) — compute the
    // horizon directly, as its own center.
    horizon_[v] = first_unsampled_[round_index_][v];
    horizon_known_[v] = 1;
  } else {
    horizon_[v] = std::max<std::uint32_t>(first_unsampled_[round_index_][v],
                                          call_index_ + 1);
    act_resolved_[v] = 1;  // owes nothing to the call it missed
  }
}

// Schedule-round boundary sweep: singleton-ize every alive vertex whose
// p1-chain no longer reaches an alive center of its own cluster through
// mutually consistent parent/child links — e.g. a group that JOINed toward a
// node that crashed after the status exchange, or whose contraction ping was
// lost to a crashed receiver. Incident-edge safety keeps the stretch
// guarantee intact for every healed vertex.
void ClusterProtocol::heal_orphans() {
  const auto n = static_cast<VertexId>(alive_.size());
  // kIn is rooted, kOut orphaned. The walk's buffers allocate: this
  // fault-recovery sweep runs once per schedule round.
  std::vector<std::uint8_t> state(n, 0);
  walk_p1_chains(p1_, alive_, state, [&](VertexId cur) -> std::uint8_t {
    const VertexId p = p1_[cur];
    if (p == graph::kInvalidVertex) return vcenter_[cur] == cur ? kIn : kOut;
    // A broken link orphans cur and everything below it.
    const bool linked = alive_[p] && vcenter_[p] == vcenter_[cur] &&
                        std::ranges::find(children_[p], cur) !=
                            children_[p].end();
    return linked ? 0 : kOut;
  });
  for (VertexId w = 0; w < n; ++w) {
    if (!alive_[w] || state[w] != kOut) continue;
    ++stats_.orphans_healed;
    const VertexId p = p1_[w];
    if (p != graph::kInvalidVertex && alive_[p]) std::erase(children_[p], w);
    keep_all_incident_edges(w);
    make_singleton(w);
    // horizon_: recomputed by the imminent round-start broadcast (w is now
    // its own center).
  }
}

}  // namespace ultra::core
