#include "graph/contraction.h"

#include <algorithm>
#include <utility>

#include "check/check.h"

namespace ultra::graph {

Edge ContractedGraph::representative_of(VertexId a, VertexId b) const {
  const Edge target = make_edge(a, b);
  const auto edges = graph.edges();
  const auto it = std::lower_bound(edges.begin(), edges.end(), target);
  ULTRA_CHECK_ARG(it != edges.end() && *it == target)
      << "representative_of: (" << a << "," << b << ") is not a quotient edge";
  return representative[static_cast<std::size_t>(it - edges.begin())];
}

ContractedGraph contract(const Graph& g, std::span<const std::uint32_t> part,
                         std::uint32_t num_parts,
                         std::span<const Edge> base_representative) {
  ULTRA_CHECK_ARG(part.size() == g.num_vertices())
      << "contract: " << part.size() << " part entries for "
      << g.num_vertices() << " vertices";
  ULTRA_CHECK_ARG(base_representative.empty() ||
                  base_representative.size() == g.num_edges())
      << "contract: " << base_representative.size()
      << " representatives for " << g.num_edges() << " edges";

  // One (quotient edge, host-edge index) pair per surviving host edge. After
  // the sort, the first pair of each quotient edge holds its first host edge
  // in g.edges() order: the representative ("a single arbitrary edge"). The
  // quotient edges come out in (u, v) order, which is out.graph.edges().
  std::vector<std::pair<Edge, std::size_t>> keyed;
  keyed.reserve(g.num_edges());
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const std::uint32_t pu = part[e.u];
    const std::uint32_t pv = part[e.v];
    if (pu == kDroppedVertex || pv == kDroppedVertex || pu == pv) continue;
    ULTRA_CHECK_BOUNDS(pu < num_parts && pv < num_parts)
        << "contract: part id out of range for edge (" << e.u << "," << e.v
        << ")";
    keyed.emplace_back(make_edge(pu, pv), i);
  }
  std::sort(keyed.begin(), keyed.end());

  ContractedGraph out;
  std::vector<Edge> quotient_edges;
  for (std::size_t j = 0; j < keyed.size(); ++j) {
    const auto [qe, i] = keyed[j];
    if (j > 0 && keyed[j - 1].first == qe) continue;
    quotient_edges.push_back(qe);
    out.representative.push_back(
        base_representative.empty() ? edges[i] : base_representative[i]);
  }
  out.graph = Graph::from_edges(num_parts, std::move(quotient_edges));
  return out;
}

}  // namespace ultra::graph
