// Undirected, simple, unweighted graphs in compressed sparse row (CSR) form.
// This is the substrate every algorithm in the library operates on: the paper
// studies spanners of undirected unweighted graphs whose topology doubles as
// the communication network.
//
// Design notes (following the C++ Core Guidelines):
//  - Graph is an immutable value type; mutation happens through GraphBuilder.
//  - Neighbor lists are sorted, enabling O(log deg) adjacency queries and
//    deterministic iteration order (important for reproducible randomized
//    algorithms: the only nondeterminism is the seeded Rng).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ultra::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

// Normalized edge: u <= v after construction via make_edge.
struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

[[nodiscard]] constexpr Edge make_edge(VertexId a, VertexId b) noexcept {
  return a <= b ? Edge{a, b} : Edge{b, a};
}

// 64-bit key for hashing/sorting an edge.
[[nodiscard]] constexpr std::uint64_t edge_key(const Edge& e) noexcept {
  return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
}

class Graph {
 public:
  Graph() = default;

  // Build from an edge list in O(n + m). Self-loops are dropped, parallel
  // edges are deduplicated; `n` must be an upper bound on vertex ids + 1.
  static Graph from_edges(VertexId n, std::vector<Edge> edges);

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const noexcept { return edges_.size(); }

  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Returned by find_arc for a non-edge.
  static constexpr EdgeId kNoArc = static_cast<EdgeId>(-1);

  // The arc that names edge {a, b}: an index in [0, 2m) into the
  // concatenated neighbor lists, or kNoArc when {a, b} is not an edge. One
  // O(log deg) search in the shorter list (on a tie, the smaller id's), so
  // both orientations of an edge name the same arc.
  [[nodiscard]] EdgeId find_arc(VertexId a, VertexId b) const;

  // O(log deg) membership test on the sorted neighbor list.
  [[nodiscard]] bool has_edge(VertexId a, VertexId b) const {
    return find_arc(a, b) != kNoArc;
  }

  // Deduplicated, normalized, sorted edge list.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  [[nodiscard]] double average_degree() const noexcept {
    return num_vertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) / num_vertices();
  }

  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  // Human-readable one-line summary, e.g. "Graph(n=100, m=312)".
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<std::uint64_t> offsets_;   // n + 1 entries
  std::vector<VertexId> adjacency_;      // 2m entries, sorted per vertex
  std::vector<Edge> edges_;              // m normalized edges, sorted
};

// Incremental construction with deduplication at build() time.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId n = 0) : n_(n) {}

  // Grows the vertex count if needed.
  void add_edge(VertexId a, VertexId b);
  void ensure_vertex(VertexId v) {
    if (v >= n_) n_ = v + 1;
  }

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_pending_edges() const noexcept {
    return edges_.size();
  }

  [[nodiscard]] Graph build() &&;
  [[nodiscard]] Graph build() const&;

 private:
  VertexId n_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace ultra::graph
