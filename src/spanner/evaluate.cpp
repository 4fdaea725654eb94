#include "spanner/evaluate.h"

#include <algorithm>

#include "graph/bfs.h"

namespace ultra::spanner {

namespace {

// Accumulates every measured pair of one source from its distance rows in
// g (dg) and in the spanner (ds). Pairs go in v ascending and sources in
// list order: the floating-point sums depend on that order.
void accumulate_source(std::span<const std::uint32_t> dg,
                       std::span<const std::uint32_t> ds, VertexId source,
                       DistortionReport& report) {
  for (VertexId v = 0; v < dg.size(); ++v) {
    if (v == source || dg[v] == graph::kUnreachable) continue;
    if (ds[v] == graph::kUnreachable) {
      report.connectivity_preserved = false;
      continue;
    }
    const auto d = dg[v];
    const auto dsv = ds[v];
    const double mult = static_cast<double>(dsv) / d;
    const std::uint32_t add = dsv - d;  // dsv >= d since S is a subgraph
    ++report.pairs;
    report.max_mult = std::max(report.max_mult, mult);
    report.mean_mult += mult;  // running sum; normalized at the end
    report.max_add = std::max(report.max_add, add);
    report.mean_add += add;
    if (d >= report.by_distance.size()) {
      report.by_distance.resize(d + 1);
    }
    DistanceBucket& bucket = report.by_distance[d];
    ++bucket.pairs;
    bucket.sum_mult += mult;
    bucket.max_mult = std::max(bucket.max_mult, mult);
    bucket.sum_add += add;
    bucket.max_add = std::max(bucket.max_add, add);
  }
}

void finalize(DistortionReport& report) {
  if (report.pairs > 0) {
    report.mean_mult /= static_cast<double>(report.pairs);
    report.mean_add /= static_cast<double>(report.pairs);
  } else {
    report.mean_mult = 1.0;
    report.mean_add = 0.0;
  }
}

}  // namespace

double DistortionReport::beta_for_alpha(double alpha) const {
  double beta = 0.0;
  for (std::size_t d = 1; d < by_distance.size(); ++d) {
    const DistanceBucket& bucket = by_distance[d];
    if (bucket.pairs == 0) continue;
    const double worst_ds = static_cast<double>(d) + bucket.max_add;
    beta = std::max(beta, worst_ds - alpha * static_cast<double>(d));
  }
  return beta;
}

DistortionReport evaluate_exact(const Graph& g, const Spanner& s) {
  std::vector<VertexId> sources(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) sources[v] = v;
  return evaluate_from_sources(g, s, sources);
}

DistortionReport evaluate_sampled(const Graph& g, const Spanner& s,
                                  std::uint32_t num_sources, util::Rng& rng) {
  return evaluate_from_sources(
      g, s, rng.sample_indices(g.num_vertices(), num_sources));
}

DistortionReport evaluate_from_sources(const Graph& g, const Spanner& s,
                                       std::span<const VertexId> sources) {
  DistortionReport report;
  report.mean_mult = 0.0;
  graph::for_each_distance_row_pair(
      g, s.to_graph(), sources,
      [&](std::size_t r, std::span<const std::uint32_t> dg,
          std::span<const std::uint32_t> ds) {
        accumulate_source(dg, ds, sources[r], report);
        return true;
      });
  finalize(report);
  return report;
}

PairStretch pair_stretch(const Graph& g, const Graph& s_graph, VertexId u,
                         VertexId v) {
  const auto dg = graph::bfs_distances(g, u);
  const auto ds = graph::bfs_distances(s_graph, u);
  return PairStretch{dg[v], ds[v]};
}

}  // namespace ultra::spanner
