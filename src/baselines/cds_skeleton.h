// A linear-size connected skeleton in the style of Dubhashi, Mei, Panconesi,
// Radhakrishnan and Srinivasan (row [18] of Fig. 1: "linear size subgraph
// (with no distortion guarantee) in O(log n) time").
//
// Construction: (1) a maximal independent set of the graph, computed by
// the real Luby protocol on the synchronous simulator (unit-word rank/join
// messages, O(log n) rounds w.h.p. — the regime [18] works in; an MIS is a
// dominating set); (2) every vertex keeps one edge to a dominator ("star"
// edges), one more local round; (3) the star clusters are connected by one
// representative edge per adjacent cluster pair, thinned to a spanning
// forest of the cluster graph by a global post-processing step (the [18]
// paper sparsifies distributively with machinery out of scope here). Size
// <= n + 3(#clusters - 1) = O(n).
//
// This is a simplification of [18] (their full algorithm sparsifies the
// cluster graph with a distributed Linial–Saks-style decomposition to get
// O(log n) stretch guarantees); it preserves the relevant behaviour for the
// Fig. 1 comparison — a linear-size, connectivity-preserving skeleton with
// no nontrivial distortion guarantee — and is measured as such.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "sim/network.h"
#include "spanner/spanner.h"

namespace ultra::baselines {

struct CdsSkeletonStats {
  std::uint64_t mis_size = 0;
  std::uint64_t mis_rounds = 0;  // Luby rounds until maximality
  std::uint64_t star_edges = 0;
  std::uint64_t connector_edges = 0;
};

struct CdsSkeletonResult {
  spanner::Spanner spanner;
  CdsSkeletonStats stats;
};

// `metrics`, if non-null, receives the MIS protocol's network costs.
[[nodiscard]] CdsSkeletonResult cds_skeleton_distributed(
    const graph::Graph& g, std::uint64_t seed,
    sim::Metrics* metrics = nullptr);

}  // namespace ultra::baselines
