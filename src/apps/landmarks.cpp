#include "apps/landmarks.h"

#include <cmath>
#include <utility>

#include "graph/bfs.h"
#include "util/rng.h"

namespace ultra::apps {

Landmarks sample_landmarks(const graph::Graph& g, std::uint64_t seed) {
  const graph::VertexId n = g.num_vertices();
  util::Rng rng(seed);
  const double p = n > 1 ? 1.0 / std::sqrt(static_cast<double>(n)) : 1.0;
  Landmarks lm;
  lm.row_of.assign(n, graph::kUnreachable);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (rng.bernoulli(p)) {
      lm.row_of[v] = static_cast<std::uint32_t>(lm.ids.size());
      lm.ids.push_back(v);
    }
  }
  if (lm.ids.empty() && n > 0) {
    lm.row_of[0] = 0;
    lm.ids.push_back(0);
  }
  graph::MultiSourceBfsResult ms = graph::multi_source_bfs(g, lm.ids);
  lm.pivot = std::move(ms.nearest);
  lm.pivot_dist = std::move(ms.dist);
  return lm;
}

}  // namespace ultra::apps
