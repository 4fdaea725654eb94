#include "core/ball_broadcast.h"

#include <algorithm>
#include <span>
#include <tuple>

namespace ultra::sim {

namespace {

using KnownSource = BallBroadcast::KnownSource;

// A source id new to the node this round, and the neighbor it came from.
struct Arrival {
  VertexId source;
  VertexId from;
};

// Relay buffers, reused by every activation on the same thread: under
// ExecutionMode::kParallel on_round runs concurrently for distinct nodes, so
// they cannot be protocol members.
struct RelayScratch {
  std::vector<std::uint32_t> seen;  // seen[y] == stamp: y already taken
  std::uint32_t stamp = 0;
  std::vector<Arrival> fresh;   // ids new this round, in inbox order
  std::vector<Arrival> sorted;  // the same, by source id
  std::vector<Word> ids;        // fresh[i].source as payload words
  std::vector<Word> message;    // one neighbor's relay payload
};

thread_local RelayScratch t_relay;

// Reads one round's inbox into s.fresh: every id `known` lacks, once, in
// inbox order, with the first neighbor that sent it (inboxes are
// sender-sorted, so the smallest). Then merges those ids into `known`,
// keeping it sorted by source.
void learn(std::span<const MessageView> inbox, std::uint32_t now,
           VertexId n, std::vector<KnownSource>& known, RelayScratch& s) {
  if (s.seen.size() < n) s.seen.resize(n, 0);
  if (++s.stamp == 0) {  // wrapped: forget every old mark
    std::fill(s.seen.begin(), s.seen.end(), 0);
    s.stamp = 1;
  }
  for (const KnownSource& k : known) s.seen[k.source] = s.stamp;
  for (const MessageView& m : inbox) {
    for (const Word y : m.payload) {
      std::uint32_t& mark = s.seen[static_cast<VertexId>(y)];
      if (mark == s.stamp) continue;
      mark = s.stamp;
      s.fresh.push_back({static_cast<VertexId>(y), m.from});
    }
  }

  s.sorted.assign(s.fresh.begin(), s.fresh.end());
  std::sort(s.sorted.begin(), s.sorted.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.source < b.source;
            });
  // Both runs are ascending by source: merge from the back, in place.
  std::size_t old = known.size();
  std::size_t add = s.sorted.size();
  known.resize(old + add);
  for (std::size_t out = known.size(); add > 0;) {
    if (old > 0 && known[old - 1].source > s.sorted[add - 1].source) {
      known[--out] = known[--old];
    } else {
      const Arrival& a = s.sorted[--add];
      known[--out] = {a.source, now, a.from};
    }
  }
}

}  // namespace

void BallBroadcast::begin(Network& net) {
  const VertexId n = net.num_nodes();
  known_.assign(n, {});
  cease_step_.assign(n, kNotCeased);
  for (VertexId v = 0; v < n && v < is_source_.size(); ++v) {
    if (is_source_[v]) known_[v].push_back({v, 0, graph::kInvalidVertex});
  }
}

const BallBroadcast::KnownSource* BallBroadcast::find(VertexId v,
                                                      VertexId source) const {
  const auto& known = known_[v];
  const auto it = std::lower_bound(
      known.begin(), known.end(), source,
      [](const KnownSource& k, VertexId s) { return k.source < s; });
  return it != known.end() && it->source == source ? &*it : nullptr;
}

void BallBroadcast::on_round(Mailbox& mb) {
  const VertexId v = mb.self();
  const auto now = static_cast<std::uint32_t>(mb.round());

  RelayScratch& s = t_relay;
  s.fresh.clear();
  if (now == 0) {
    if (v < is_source_.size() && is_source_[v]) {
      s.fresh.push_back({v, graph::kInvalidVertex});
    }
  } else {
    learn(mb.inbox(), now, mb.topology().num_vertices(), known_[v], s);
  }

  if (cease_step_[v] != kNotCeased || s.fresh.empty() || now >= radius_) return;

  // Each neighbor gets every fresh id except the ones it taught us. Those
  // form one run of `fresh` (grouped by teacher, ascending), so walking the
  // sorted neighbor list advances a single cursor through the runs.
  const std::span<const Arrival> fresh = s.fresh;
  const auto nbrs = mb.neighbors();
  std::size_t lo = 0;
  const auto taught_run = [&](VertexId u) {
    while (lo < fresh.size() && fresh[lo].from < u) ++lo;
    const std::size_t begin = lo;
    while (lo < fresh.size() && fresh[lo].from == u) ++lo;
    return std::pair{begin, lo};
  };

  // If any single message would exceed the cap, cease instead: relay
  // nothing, now or ever.
  const std::uint64_t cap = mb.message_cap();
  for (const VertexId u : nbrs) {
    const auto [begin, end] = taught_run(u);
    if (fresh.size() - (end - begin) > cap) {
      cease_step_[v] = now;
      return;
    }
  }

  s.ids.clear();
  for (const Arrival& a : fresh) s.ids.push_back(Word{a.source});
  lo = 0;
  for (const VertexId u : nbrs) {
    const auto [begin, end] = taught_run(u);
    if (begin == end) {
      mb.send(u, s.ids);
      continue;
    }
    s.message.assign(s.ids.begin(), s.ids.begin() + begin);
    s.message.insert(s.message.end(), s.ids.begin() + end, s.ids.end());
    if (!s.message.empty()) mb.send(u, s.message);
  }
}

bool BallBroadcast::done(const Network& net) const {
  return net.round() > radius_;
}

std::vector<std::pair<VertexId, std::uint32_t>> BallBroadcast::ceased() const {
  std::vector<std::pair<VertexId, std::uint32_t>> out;
  for (VertexId v = 0; v < cease_step_.size(); ++v) {
    if (cease_step_[v] != kNotCeased) out.emplace_back(v, cease_step_[v]);
  }
  // Chronological, then by id — the order sequential execution appended in
  // (ascending id within a round, rounds in order).
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second, a.first) < std::tie(b.second, b.first);
  });
  return out;
}

}  // namespace ultra::sim
