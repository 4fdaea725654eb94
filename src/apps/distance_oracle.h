// Approximate distance oracle, Thorup–Zwick style with k = 2 (the paper's
// Section 5 singles out distance oracles/labelings as the main application
// area for spanner techniques and asks whether (alpha,beta)-style tradeoffs
// can beat the girth bound there).
//
// Construction (unweighted): sample A ⊆ V with probability n^{-1/2}; every
// vertex v stores p(v) — its nearest A-vertex (min-id tie-broken, computed
// with the same multi-source-BFS primitive the Fibonacci spanner uses) with
// the exact distance, and its *bunch* B(v) = { w ∈ V : d(v,w) < d(v,A) }
// with exact distances; every a ∈ A stores distances to all of V. Expected
// space O(n^{3/2}) words:
//
//   query(u,v) = min( bunch lookup (exact),
//                     d(u,p(u)) + d(p(u),v) )    <= 3 d(u,v).
//
// The stretch-3 proof: if v ∉ B(u) then d(u,A) <= d(u,v), so
// d(u,p(u)) + d(p(u),v) <= d(u,A) + d(u,A) + d(u,v) <= 3 d(u,v).
//
// A query reads the two detour legs d(p(u),v) and d(p(v),u) first. The same
// triangle inequality, d(u,v) >= d(p(u),v) - d(u,A), shows v ∈ B(u) only if
// d(p(u),v) < 2 d(u,A), so a bunch row is searched (branch-free, O(log |B|))
// only when it passes that test; a query costs two slab reads plus at most
// two row searches, and often none.
//
// The tables are built straight into the read-only layout the query path
// reads (serve::FlatOracleIndex is this class under its serving name):
//
//   bunch_off_   n+1 prefix offsets        \  CSR over all bunches: row v is
//   bunch_key_   members, ascending per row > bunch_key_[off[v], off[v+1])
//   bunch_dist_  exact distances, parallel /  — one binary search per probe
//   pivot / pivot_dist                        p(v), d(v, A)
//   slab_        num_landmarks x n distances, one contiguous landmark-major
//                block (row r serves landmark landmarks()[r])
//
// A query touches at most two bunch rows and two slab cells; everything it
// reads is immutable after construction, so any number of serving threads
// may share one oracle with no synchronization (serve::QueryEngine relies
// on this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/landmarks.h"
#include "graph/bfs.h"
#include "graph/graph.h"

namespace ultra::apps {

// Sentinel for OracleAnswer::via: the answer came from an exact bunch hit
// (or u == v), not from a landmark detour.
inline constexpr graph::VertexId kViaBunch = graph::kInvalidVertex - 1;

// A distance answer plus its provenance: which structure produced the bound.
// `via` is kViaBunch for an exact bunch (or trivial) hit, the id of the
// serving landmark for a pivot detour, and kInvalidVertex when the pair is
// unreachable. Ties between the two pivot candidates break toward the
// smaller landmark id, so the attribution — not just the value — is a pure
// function of (graph, seed) and survives rebuilds bit for bit; the serve
// tests compare it against a reference built from the definitions.
struct OracleAnswer {
  std::uint32_t dist = graph::kUnreachable;
  graph::VertexId via = graph::kInvalidVertex;

  friend bool operator==(const OracleAnswer&, const OracleAnswer&) = default;
};

class DistanceOracle {
 public:
  // Builds the oracle; expected O(m n^{1/2}) preprocessing.
  DistanceOracle(const graph::Graph& g, std::uint64_t seed);

  // Upper bound on d(u,v) with stretch <= 3; graph::kUnreachable if
  // disconnected. Throws std::out_of_range unless u, v < num_vertices().
  [[nodiscard]] std::uint32_t query(graph::VertexId u,
                                    graph::VertexId v) const {
    return query_traced(u, v).dist;
  }

  // As query(), with the serving structure attributed (see OracleAnswer).
  [[nodiscard]] OracleAnswer query_traced(graph::VertexId u,
                                          graph::VertexId v) const;

  // v's bunch row, ascending member order (the scan-op read path).
  [[nodiscard]] std::span<const graph::VertexId> bunch_keys(
      graph::VertexId v) const {
    return {bunch_key_.data() + bunch_off_[v],
            bunch_key_.data() + bunch_off_[v + 1]};
  }
  [[nodiscard]] std::span<const std::uint32_t> bunch_dists(
      graph::VertexId v) const {
    return {bunch_dist_.data() + bunch_off_[v],
            bunch_dist_.data() + bunch_off_[v + 1]};
  }

  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  // A, ascending.
  [[nodiscard]] std::span<const graph::VertexId> landmarks() const noexcept {
    return lm_.ids;
  }
  [[nodiscard]] std::size_t num_landmarks() const noexcept {
    return lm_.ids.size();
  }
  [[nodiscard]] std::uint64_t num_bunch_entries() const noexcept {
    return bunch_key_.size();
  }
  [[nodiscard]] double average_bunch_size() const noexcept;
  // Words held by the layout above, plus the landmark list and the
  // landmark -> slab-row map.
  [[nodiscard]] std::uint64_t space_words() const noexcept;
  // FNV-1a fingerprint over every array, in layout order. Rebuilds from the
  // same (graph, seed) must reproduce it bit for bit (pinned by
  // tests/serve_test.cpp golden constants).
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  graph::VertexId n_;
  Landmarks lm_;
  std::vector<std::uint64_t> bunch_off_;
  std::vector<graph::VertexId> bunch_key_;
  std::vector<std::uint32_t> bunch_dist_;
  std::vector<std::uint32_t> slab_;  // num_landmarks x n, landmark-major
  std::uint64_t digest_ = 0;
};

}  // namespace ultra::apps
