#include "lowerbound/adversary.h"

#include <algorithm>
#include <vector>

#include "graph/bfs.h"
#include "spanner/evaluate.h"

namespace ultra::lowerbound {

AdversaryOutcome oracle_adversary(const Gadget& gadget, double c,
                                  util::Rng& rng) {
  AdversaryOutcome out;
  out.discard_probability =
      1.0 - 1.0 / c - 1.0 / (c * static_cast<double>(gadget.params.kappa));

  std::vector<Edge> discarded;
  for (const Edge& e : gadget.critical_edges) {
    if (rng.bernoulli(out.discard_probability)) {
      discarded.push_back(e);
      ++out.critical_discarded;
    }
  }
  std::sort(discarded.begin(), discarded.end());

  spanner::Spanner s(gadget.graph);
  for (const Edge& e : gadget.graph.edges()) {
    if (!std::binary_search(discarded.begin(), discarded.end(), e)) {
      s.add_edge(e);
    }
  }
  out.spanner_size = s.size();

  const spanner::PairStretch d = spanner::pair_stretch(
      gadget.graph, s.to_graph(), gadget.extremal_u(), gadget.extremal_v());
  out.dist_g = d.dist_g;
  out.dist_h = d.dist_s;
  out.additive = out.dist_h - out.dist_g;
  return out;
}

spanner::Spanner run_relabeled(
    const Gadget& gadget,
    const std::function<spanner::Spanner(const Graph&)>& build,
    util::Rng& rng) {
  const Graph& g = gadget.graph;
  const VertexId n = g.num_vertices();
  std::vector<VertexId> perm(n);
  for (VertexId v = 0; v < n; ++v) perm[v] = v;
  rng.shuffle(perm);
  std::vector<VertexId> inv(n);
  for (VertexId v = 0; v < n; ++v) inv[perm[v]] = v;

  std::vector<Edge> relabeled_edges;
  relabeled_edges.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    relabeled_edges.push_back(graph::make_edge(perm[e.u], perm[e.v]));
  }
  const Graph relabeled = Graph::from_edges(n, std::move(relabeled_edges));

  const spanner::Spanner built = build(relabeled);
  spanner::Spanner out(g);
  for (const Edge& e : built.edges()) {
    out.add_edge(inv[e.u], inv[e.v]);
  }
  return out;
}

CriticalMeasurement measure_critical(const Gadget& gadget,
                                     const spanner::Spanner& s) {
  CriticalMeasurement out;
  out.critical_total = gadget.critical_edges.size();
  for (const Edge& e : gadget.critical_edges) {
    if (s.contains(e.u, e.v)) ++out.critical_kept;
  }
  out.spanner_size = s.size();
  const spanner::PairStretch d = spanner::pair_stretch(
      gadget.graph, s.to_graph(), gadget.extremal_u(), gadget.extremal_v());
  out.dist_g = d.dist_g;
  out.dist_h = d.dist_s;
  if (out.dist_h != graph::kUnreachable) {
    out.additive = out.dist_h - out.dist_g;
    out.mult = out.dist_g > 0 ? static_cast<double>(out.dist_h) / out.dist_g
                              : 1.0;
  } else {
    out.additive = graph::kUnreachable;
    out.mult = -1.0;
  }
  return out;
}

}  // namespace ultra::lowerbound
