#include "baselines/baswana_sen_distributed.h"

#include <algorithm>
#include <cmath>

#include "check/check.h"

namespace ultra::baselines {

DistributedBaswanaSenResult baswana_sen_distributed(
    const graph::Graph& g, unsigned k, std::uint64_t seed,
    std::uint64_t message_cap_words, sim::AuditMode audit,
    sim::ExecutionMode exec, unsigned exec_threads,
    const sim::FaultPlan* faults) {
  ULTRA_CHECK_ARG(k >= 1) << "baswana_sen_distributed: k must be >= 1";
  DistributedBaswanaSenResult result{spanner::Spanner(g), {}, {}, 0};
  result.message_cap_words = std::max<std::uint64_t>(8, message_cap_words);

  const double n = std::max<double>(2.0, g.num_vertices());
  const double p = std::pow(n, -1.0 / static_cast<double>(k));

  core::SkeletonSchedule schedule;
  core::RoundPlan round;
  round.s = 0;
  for (unsigned phase = 1; phase < k; ++phase) round.probs.push_back(p);
  round.probs.push_back(0.0);
  schedule.total_expand_calls = static_cast<std::uint32_t>(round.probs.size());
  schedule.rounds.push_back(std::move(round));

  const core::ClusterRun run = core::run_cluster_protocol(
      g, schedule,
      {.seed = seed,
       .audit = audit,
       .exec = exec,
       .exec_threads = exec_threads,
       .faults = faults},
      result.message_cap_words, result.spanner, "baswana_sen_distributed");
  result.protocol = run.protocol;
  result.network = run.network;
  return result;
}

}  // namespace ultra::baselines
