#include "core/ball_broadcast.h"

#include <algorithm>
#include <tuple>

namespace ultra::sim {

// Reads one round's inbox into s.ids and s.from: every id `records` lacks,
// once, in inbox order, with the first neighbor that sent it (inboxes are
// sender-sorted, so the smallest). Then appends them to `records` in that
// order, in one step, so a node's records grow as often as its rounds do.
void BallBroadcast::learn(std::span<const MessageView> inbox,
                          std::uint32_t now, VertexId n,
                          std::vector<KnownSource>& records, RelayScratch& s) {
  if (s.seen.size() < n) s.seen.resize(n, 0);
  if (++s.stamp == 0) {  // wrapped: forget every old mark
    std::fill(s.seen.begin(), s.seen.end(), 0);
    s.stamp = 1;
  }
  for (const KnownSource& k : records) s.seen[k.source] = s.stamp;
  for (const MessageView& m : inbox) {
    for (const Word y : m.payload) {
      std::uint32_t& mark = s.seen[static_cast<VertexId>(y)];
      if (mark == s.stamp) continue;
      mark = s.stamp;
      s.ids.push_back(y);
      s.from.push_back(m.from);
    }
  }
  const std::size_t old = records.size();
  records.resize(old + s.ids.size());
  for (std::size_t i = 0; i < s.ids.size(); ++i) {
    records[old + i] = {static_cast<VertexId>(s.ids[i]), now, s.from[i]};
  }
}

void BallBroadcast::begin(Network& net) {
  const VertexId n = net.num_nodes();
  records_.assign(n, {});
  cease_step_.assign(n, kNotCeased);
  relay_.assign(net.worker_threads(), {});
  head_.clear();
  index_.clear();
  for (VertexId v = 0; v < n && v < is_source_.size(); ++v) {
    if (is_source_[v]) records_[v].push_back({v, 0, graph::kInvalidVertex});
  }
}

const BallBroadcast::KnownSource* BallBroadcast::find(VertexId v,
                                                      VertexId source) const {
  const auto slice = known(v);
  const auto it = std::lower_bound(
      slice.begin(), slice.end(), source,
      [](const KnownSource& k, VertexId s) { return k.source < s; });
  return it != slice.end() && it->source == source ? &*it : nullptr;
}

void BallBroadcast::on_round(Mailbox& mb) {
  const VertexId v = mb.self();
  const auto now = static_cast<std::uint32_t>(mb.round());

  RelayScratch& s = relay_[mb.lane()];
  s.ids.clear();
  s.from.clear();
  if (now == 0) {
    // A source's own record is set up in begin().
    if (v < is_source_.size() && is_source_[v]) {
      s.ids.push_back(v);
      s.from.push_back(graph::kInvalidVertex);
    }
  } else {
    learn(mb.inbox(), now, mb.topology().num_vertices(), records_[v], s);
  }

  if (cease_step_[v] != kNotCeased || s.ids.empty() || now >= radius_) return;

  // Each neighbor gets every fresh id except the ones it taught us. Those
  // form one run of s.from (grouped by teacher, ascending), so walking the
  // sorted neighbor list advances a single cursor through the runs.
  const std::size_t fresh = s.ids.size();
  const auto nbrs = mb.neighbors();
  std::size_t lo = 0;
  const auto taught_run = [&](VertexId u) {
    while (lo < fresh && s.from[lo] < u) ++lo;
    const std::size_t begin = lo;
    while (lo < fresh && s.from[lo] == u) ++lo;
    return std::pair{begin, lo};
  };

  // If any single message would exceed the cap, cease instead: relay
  // nothing, now or ever.
  const std::uint64_t cap = mb.message_cap();
  for (const VertexId u : nbrs) {
    const auto [begin, end] = taught_run(u);
    if (fresh - (end - begin) > cap) {
      cease_step_[v] = now;
      return;
    }
  }

  // Store the fresh ids once. A teacher's run at the front or the back
  // leaves a back or front slice of them to send; one in the middle leaves
  // two pieces, which are joined in a copy.
  const StoredPayload ids = mb.store(s.ids);
  lo = 0;
  for (const VertexId u : nbrs) {
    const auto [begin, end] = taught_run(u);
    if (begin == end) {
      mb.send(u, ids);
    } else if (begin == 0) {
      if (end < fresh) mb.send(u, ids.slice(end, fresh));
    } else if (end == fresh) {
      mb.send(u, ids.slice(0, begin));
    } else {
      s.message.assign(s.ids.begin(), s.ids.begin() + begin);
      s.message.insert(s.message.end(), s.ids.begin() + end, s.ids.end());
      mb.send(u, s.message);
    }
  }
}

bool BallBroadcast::done(const Network& net) const {
  if (net.round() <= radius_) return false;
  if (head_.empty()) build_index();
  return true;
}

// One counting pass by source: bucket every record by its source, nodes
// ascending, then deal the buckets out in source order to their nodes'
// slices, which therefore fill ascending by source.
void BallBroadcast::build_index() const {
  const std::size_t n = records_.size();
  head_.assign(n + 1, 0);
  std::vector<std::uint64_t> bucket(n + 1, 0);  // sources are node ids
  for (std::size_t v = 0; v < n; ++v) {
    head_[v + 1] = head_[v] + records_[v].size();
    for (const KnownSource& k : records_[v]) ++bucket[k.source + 1];
  }
  for (std::size_t s = 0; s < n; ++s) bucket[s + 1] += bucket[s];

  // by_source[bucket[s], bucket[s + 1]): source s's records and the nodes
  // that hold them.
  struct Held {
    VertexId node;
    std::uint32_t dist;
    VertexId parent;
  };
  std::vector<Held> by_source(head_[n]);
  for (VertexId v = 0; v < n; ++v) {
    for (const KnownSource& k : records_[v]) {
      by_source[bucket[k.source]++] = {v, k.dist, k.parent};
    }
  }
  // The scatter advanced bucket[s] to the start of source s + 1's bucket.
  index_.resize(head_[n]);
  std::vector<std::uint64_t> cursor(head_.begin(), head_.end() - 1);
  std::uint64_t pos = 0;
  for (VertexId s = 0; s < n; ++s) {
    for (; pos < bucket[s]; ++pos) {
      const Held& h = by_source[pos];
      index_[cursor[h.node]++] = {s, h.dist, h.parent};
    }
  }
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
