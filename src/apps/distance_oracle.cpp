#include "apps/distance_oracle.h"

#include "check/check.h"
#include "util/fnv.h"

namespace ultra::apps {

using graph::VertexId;

DistanceOracle::DistanceOracle(const graph::Graph& g, std::uint64_t seed)
    : n_(g.num_vertices()), lm_(sample_landmarks(g, seed)) {
  // Landmark rows: one bit-parallel BFS writes every row of the slab, in
  // landmark-list order (ascending landmark id).
  slab_.resize(lm_.ids.size() * static_cast<std::size_t>(n_));
  graph::bfs_distance_rows(g, lm_.ids, slab_);

  // Cross-check the pivot contract: p(v)'s row (the bit-parallel kernel)
  // must report exactly d(v, A) (multi_source_bfs) at v. A mismatch means
  // the two searches disagree on the min-id nearest landmark, and the
  // detour attribution would follow neither.
  for (VertexId v = 0; v < n_; ++v) {
    if (lm_.pivot[v] == graph::kInvalidVertex) {
      ULTRA_CHECK_EQ(lm_.pivot_dist[v], graph::kUnreachable)
          << "vertex " << v << " has no pivot but a finite pivot distance";
      continue;
    }
    ULTRA_CHECK_EQ(
        slab_[static_cast<std::size_t>(lm_.row_of[lm_.pivot[v]]) * n_ + v],
        lm_.pivot_dist[v])
        << "pivot row disagrees with pivot_dist at vertex " << v;
  }

  // Bunches, one CSR row per vertex in vertex order: truncated BFS from v up
  // to d(v,A) - 1. Where v's component has no landmark (limit ==
  // kUnreachable, e.g. every isolated vertex of an R-MAT graph) the bunch is
  // that whole component with exact distances, and the search walks only
  // the component. Each row is appended in BFS order as packed
  // (member << 32 | distance) words while every member is counted.
  const std::size_t n = n_;
  bunch_off_.assign(n + 1, 0);
  std::vector<std::uint64_t> member_off(n + 1, 0);  // counts, then starts
  std::vector<std::uint64_t> bfs_rows;
  {
    std::vector<std::uint32_t> dist(n, graph::kUnreachable);
    std::vector<VertexId> order;
    for (VertexId v = 0; v < n_; ++v) {
      const std::uint32_t limit = lm_.pivot_dist[v];  // strictly closer than A
      if (limit != 0) {
        graph::bfs_visit(g, v, limit - 1, dist, order);
        // order[0] is v itself.
        for (auto it = order.begin() + 1; it != order.end(); ++it) {
          bfs_rows.push_back(std::uint64_t{*it} << 32 | dist[*it]);
          ++member_off[*it + 1];
        }
        graph::bfs_reset(dist, order);
      }
      bunch_off_[v + 1] = bfs_rows.size();
    }
  }
  // Members ascending per row for the binary-search probe, with no sort:
  // one counting pass groups the entries by member as packed
  // (row << 32 | distance) words, then the members, walked in ascending
  // order, each append to their rows' cursors. A member occurs at most once
  // per row, so every row comes out ascending. O(n + E) for E entries.
  for (std::size_t w = 0; w < n; ++w) member_off[w + 1] += member_off[w];
  std::vector<std::uint64_t> by_member(bfs_rows.size());
  for (VertexId v = 0; v < n_; ++v) {
    for (std::uint64_t i = bunch_off_[v]; i < bunch_off_[v + 1]; ++i) {
      const std::uint64_t e = bfs_rows[i];
      by_member[member_off[e >> 32]++] =
          std::uint64_t{v} << 32 | (e & 0xffffffffu);
    }
  }
  // member_off[w] is now where w's group ends. The image's arrays are
  // allocated at their exact size, after the BFS-order rows are freed.
  bfs_rows = {};
  bunch_key_.resize(by_member.size());
  bunch_dist_.resize(by_member.size());
  std::vector<std::uint64_t> cursor(bunch_off_.begin(), bunch_off_.end() - 1);
  std::uint64_t i = 0;
  for (VertexId w = 0; w < n_; ++w) {
    for (; i < member_off[w]; ++i) {
      const std::uint64_t at = cursor[by_member[i] >> 32]++;
      bunch_key_[at] = w;
      bunch_dist_[at] = static_cast<std::uint32_t>(by_member[i]);
    }
  }

  using util::fnv_fold;
  std::uint64_t h = util::kFnvOffset;
  h = fnv_fold(h, n_);
  h = fnv_fold(h, lm_.ids.size());
  for (const std::uint64_t off : bunch_off_) h = fnv_fold(h, off);
  for (const VertexId k : bunch_key_) h = fnv_fold(h, k);
  for (const std::uint32_t d : bunch_dist_) h = fnv_fold(h, d);
  for (const VertexId p : lm_.pivot) h = fnv_fold(h, p);
  for (const std::uint32_t d : lm_.pivot_dist) h = fnv_fold(h, d);
  for (const VertexId a : lm_.ids) h = fnv_fold(h, a);
  for (const std::uint32_t d : slab_) h = fnv_fold(h, d);
  digest_ = h;
}

double DistanceOracle::average_bunch_size() const noexcept {
  if (n_ == 0) return 0.0;
  return static_cast<double>(bunch_key_.size()) / n_;
}

std::uint64_t DistanceOracle::space_words() const noexcept {
  return bunch_off_.size() + bunch_key_.size() + bunch_dist_.size() +
         lm_.pivot.size() + lm_.pivot_dist.size() + lm_.ids.size() +
         lm_.row_of.size() + slab_.size();
}

OracleAnswer DistanceOracle::query_traced(VertexId u, VertexId v) const {
  ULTRA_CHECK_BOUNDS(u < n_ && v < n_)
      << "query (" << u << ", " << v << ") out of range n=" << n_;
  if (u == v) return {0, kViaBunch};
  // The detour legs d(p(u), v) and d(p(v), u); kUnreachable without a pivot.
  const auto leg = [&](VertexId x, VertexId y) -> std::uint32_t {
    const VertexId landmark = lm_.pivot[x];
    if (landmark == graph::kInvalidVertex) return graph::kUnreachable;
    return slab_[static_cast<std::size_t>(lm_.row_of[landmark]) * n_ + y];
  };
  const std::uint32_t leg_u = leg(u, v);
  const std::uint32_t leg_v = leg(v, u);
  // Exact if v lies in u's bunch (or vice versa). y ∈ B(x) means
  // d(x,y) < d(x,A), and d(x,y) >= d(p(x),y) - d(x,A), so x's row can hold y
  // only if leg_x < 2 d(x,A); no other row is searched. The test is in 64
  // bits: an unreachable leg fails it, and a pivot-less x (leg and d(x,A)
  // both kUnreachable) passes, so its row, the whole component, is searched.
  // The search itself is branch-free: each step keeps the upper half when
  // its first key is not above y (a conditional move), ending on the last
  // key <= y, and one compare decides.
  const auto probe = [&](VertexId x, VertexId y,
                         std::uint32_t leg_x) -> const std::uint32_t* {
    if (leg_x >= 2 * std::uint64_t{lm_.pivot_dist[x]}) return nullptr;
    std::uint64_t len = bunch_off_[x + 1] - bunch_off_[x];
    if (len == 0) return nullptr;
    const VertexId* base = bunch_key_.data() + bunch_off_[x];
    while (len > 1) {
      const std::uint64_t half = len / 2;
      base = base[half] <= y ? base + half : base;
      len -= half;
    }
    if (*base != y) return nullptr;
    return &bunch_dist_[base - bunch_key_.data()];
  };
  if (const std::uint32_t* d = probe(u, v, leg_u)) return {*d, kViaBunch};
  if (const std::uint32_t* d = probe(v, u, leg_v)) return {*d, kViaBunch};
  // Route through u's pivot or v's pivot, whichever is shorter. Distance
  // ties break toward the smaller landmark id — NOT toward whichever
  // candidate happens to be evaluated first — so the attribution is stable
  // across rebuilds (kInvalidVertex compares above every real landmark id,
  // so the first reachable candidate always displaces the unreachable
  // initial state).
  OracleAnswer best;
  const auto consider = [&](VertexId x, std::uint32_t leg_x) {
    if (leg_x == graph::kUnreachable) return;
    const VertexId landmark = lm_.pivot[x];
    const std::uint32_t d = lm_.pivot_dist[x] + leg_x;
    if (d < best.dist || (d == best.dist && landmark < best.via)) {
      best = {d, landmark};
    }
  };
  consider(u, leg_u);
  consider(v, leg_v);
  return best;
}

}  // namespace ultra::apps
