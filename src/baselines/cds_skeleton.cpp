#include "baselines/cds_skeleton.h"

#include <vector>

#include "baselines/mis_protocol.h"
#include "check/check.h"
#include "graph/connectivity.h"
#include "util/saturating.h"

namespace ultra::baselines {

using graph::VertexId;

CdsSkeletonResult cds_skeleton_distributed(const graph::Graph& g,
                                           std::uint64_t seed,
                                           sim::Metrics* metrics) {
  CdsSkeletonResult result{spanner::Spanner(g), CdsSkeletonStats{}};
  sim::Network net(g, 2);  // rank messages are 2 words
  LubyMisProtocol protocol(seed);
  const sim::RunOutcome out = net.run_outcome(
      protocol,
      {.max_rounds = 64ull * (util::ceil_log2(g.num_vertices() + 2) + 4),
       .protocol_name = "LubyMisProtocol"});
  ULTRA_CHECK_RUNTIME(out.completed())
      << "cds_skeleton_distributed: " << out.diagnostic;
  if (metrics != nullptr) *metrics = out.metrics;
  result.stats.mis_rounds = protocol.luby_rounds();

  // --- Stars: every non-MIS vertex keeps one edge to a dominating MIS
  // neighbor (an MIS is a dominating set, so one always exists unless the
  // vertex is isolated).
  const std::vector<std::uint8_t> in_mis = protocol.in_mis();
  const VertexId n = g.num_vertices();
  std::vector<VertexId> dominator(n, graph::kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    if (in_mis[v]) {
      dominator[v] = v;
      ++result.stats.mis_size;
      continue;
    }
    for (const VertexId w : g.neighbors(v)) {
      if (in_mis[w]) {
        dominator[v] = w;
        result.spanner.add_edge(v, w);
        ++result.stats.star_edges;
        break;
      }
    }
  }

  // --- Connectors: one representative edge per adjacent star pair, thinned
  // to a spanning forest of the cluster graph so the total stays linear.
  graph::UnionFind uf(n);
  for (const graph::Edge& e : g.edges()) {
    const VertexId du = dominator[e.u];
    const VertexId dv = dominator[e.v];
    if (du == dv || du == graph::kInvalidVertex ||
        dv == graph::kInvalidVertex) {
      continue;
    }
    if (uf.unite(du, dv)) {
      result.spanner.add_edge(e);
      ++result.stats.connector_edges;
    }
  }
  return result;
}

}  // namespace ultra::baselines
