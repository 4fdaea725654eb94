#include "sim/supervisor.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "baselines/baswana_sen_distributed.h"
#include "baselines/bfs_forest.h"
#include "check/check.h"
#include "core/fib_distortion.h"
#include "core/fibonacci_distributed.h"
#include "core/skeleton_distributed.h"
#include "util/saturating.h"

namespace ultra::sim {
namespace {

// The tightest single (alpha, 0) line dominating the per-distance Theorem 7
// bound: max_d fib_pair_bound(ell, o, d) / d over every host distance. Any
// connectivity-preserving subgraph of an n-vertex graph is trivially an
// n-spanner, so a saturated/degenerate bound falls back to alpha = n rather
// than rejecting everything.
double fib_stretch_bound(std::uint32_t ell, unsigned order, std::uint64_t n) {
  const double vacuous = static_cast<double>(std::max<std::uint64_t>(2, n));
  if (order == 0 || ell <= 2) return vacuous;
  double alpha = 1.0;
  const std::uint64_t dmax = n > 1 ? n - 1 : 1;
  for (std::uint64_t d = 1; d <= dmax; ++d) {
    const std::uint64_t b = core::fib_pair_bound(ell, order, d);
    if (b == util::kSaturated) return vacuous;
    alpha = std::max(alpha, static_cast<double>(b) / static_cast<double>(d));
  }
  return std::min(alpha, vacuous);
}

struct BuiltAttempt {
  std::optional<spanner::Spanner> spanner;  // empty iff the builder threw
  double alpha = 0;
  Metrics network;
  std::string error;
};

BuiltAttempt build_tier(const graph::Graph& g, FallbackTier tier,
                        const SupervisorOptions& opt, const FaultPlan& plan) {
  BuiltAttempt a;
  const FaultPlan* faults = plan.empty() ? nullptr : &plan;
  try {
    switch (tier) {
      case FallbackTier::kFibonacci: {
        core::FibonacciParams params = opt.fibonacci;
        params.faults = faults;
        auto result = core::build_fibonacci_distributed(g, params);
        a.alpha = fib_stretch_bound(result.levels.ell, result.levels.order,
                                    g.num_vertices());
        a.network = result.network;
        a.spanner.emplace(std::move(result.spanner));
        break;
      }
      case FallbackTier::kSkeleton: {
        core::SkeletonParams params = opt.skeleton;
        params.faults = faults;
        auto result = core::build_skeleton_distributed(g, params);
        a.alpha = static_cast<double>(result.schedule.distortion_bound);
        a.network = result.network;
        a.spanner.emplace(std::move(result.spanner));
        break;
      }
      case FallbackTier::kBaswanaSen: {
        auto result = baselines::baswana_sen_distributed(
            g, opt.baswana_sen_k, opt.skeleton.seed, /*message_cap_words=*/8,
            opt.skeleton.audit, opt.skeleton.exec, opt.skeleton.exec_threads,
            faults);
        a.alpha = 2.0 * static_cast<double>(opt.baswana_sen_k) - 1.0;
        a.network = result.network;
        a.spanner.emplace(std::move(result.spanner));
        break;
      }
      case FallbackTier::kBfsForest: {
        // Sequential, no network: fault-immune. A spanning forest preserves
        // connectivity and any path in it has < n edges, so alpha = n holds.
        a.alpha =
            static_cast<double>(std::max<std::uint64_t>(2, g.num_vertices()));
        a.spanner.emplace(baselines::bfs_forest(g));
        break;
      }
    }
  } catch (const std::exception& e) {
    // A faulty run may legally die anywhere: round-budget exhaustion
    // (runtime_error), a protocol invariant tripped by lost state
    // (CheckError), a malformed tier parameterization (invalid_argument).
    // All of them are attempt failures, not supervisor failures.
    a.spanner.reset();
    a.error = e.what();
  }
  return a;
}

}  // namespace

const char* tier_name(FallbackTier tier) {
  switch (tier) {
    case FallbackTier::kFibonacci:
      return "fibonacci";
    case FallbackTier::kSkeleton:
      return "skeleton";
    case FallbackTier::kBaswanaSen:
      return "baswana_sen";
    case FallbackTier::kBfsForest:
      return "bfs_forest";
  }
  return "unknown";
}

SupervisedResult supervised_spanner(const graph::Graph& g,
                                    const SupervisorOptions& options) {
  ULTRA_CHECK_ARG(options.max_attempts_per_tier >= 1)
      << "supervised_spanner: max_attempts_per_tier must be >= 1";
  // Validate the rates once up front (the FaultPlan constructor enforces
  // them); malformed options must throw instead of degrading to BFS.
  if (options.rates.any()) {
    (void)FaultPlan(options.fault_seed, options.rates);
  }

  SupervisedResult result{.spanner = spanner::Spanner(g)};
  for (unsigned t = static_cast<unsigned>(options.start_tier);
       t <= static_cast<unsigned>(FallbackTier::kBfsForest); ++t) {
    const FallbackTier tier = static_cast<FallbackTier>(t);
    const bool terminal = tier == FallbackTier::kBfsForest;
    const unsigned attempts = terminal ? 1 : options.max_attempts_per_tier;
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
      // Exponential backoff in seed space: strides 0, 1, 3, 7, ... keep the
      // ladder deterministic and collision-free across attempts.
      const std::uint64_t seed =
          options.fault_seed + ((1ull << std::min(attempt, 63u)) - 1);
      const FaultPlan plan = (terminal || !options.rates.any())
                                 ? FaultPlan()
                                 : FaultPlan(seed, options.rates);
      AttemptRecord rec;
      rec.tier = tier;
      rec.fault_seed = plan.empty() ? 0 : seed;

      BuiltAttempt built = build_tier(g, tier, options, plan);
      rec.network = built.network;
      if (!built.spanner.has_value()) {
        rec.error = std::move(built.error);
        result.attempts.push_back(std::move(rec));
        if (plan.empty()) break;  // deterministic repeat; go degrade instead
        continue;
      }
      rec.construction_ok = true;

      check::SpannerCertifyOptions copts;
      copts.alpha = built.alpha;
      copts.beta = 0.0;
      copts.sample_sources = options.certify_sample_sources;
      copts.seed = options.certify_seed;
      copts.require_connectivity = true;
      check::Certificate cert =
          check::certify_spanner(g, *built.spanner, copts);
      if (!cert.ok) {
        rec.violation = cert.violation;
        result.attempts.push_back(std::move(rec));
        if (plan.empty()) break;  // retrying an identical run cannot help
        continue;
      }

      rec.certified = true;
      result.fault_seed = rec.fault_seed;
      result.attempts.push_back(std::move(rec));
      result.spanner = std::move(*built.spanner);
      result.tier = tier;
      result.certified_alpha = built.alpha;
      result.certificate = std::move(cert);
      return result;
    }
  }
  // Unreachable: the BFS forest tier is fault-immune and its certificate
  // (alpha = n, connectivity) accepts every spanning forest. A raw throw,
  // since this is the terminal raise of the check taxonomy's own type.
  throw check::CheckError(
      "supervised_spanner: fallback chain exhausted without a certificate");
}

}  // namespace ultra::sim
