#include "core/skeleton_distributed.h"

#include <algorithm>
#include <cmath>

namespace ultra::core {

DistributedSkeletonResult build_skeleton_distributed(
    const graph::Graph& g, const SkeletonParams& params) {
  DistributedSkeletonResult result{spanner::Spanner(g), {}, {}, {}, 0};
  result.schedule = plan_schedule(g.num_vertices(), params);
  const double cap = std::pow(
      std::log2(std::max<double>(4.0, g.num_vertices())), params.eps);
  result.message_cap_words =
      std::max<std::uint64_t>(8, static_cast<std::uint64_t>(std::ceil(cap)));
  const ClusterRun run =
      run_cluster_protocol(g, result.schedule, params, result.message_cap_words,
                           result.spanner, "build_skeleton_distributed");
  result.protocol = run.protocol;
  result.network = run.network;
  return result;
}

}  // namespace ultra::core
