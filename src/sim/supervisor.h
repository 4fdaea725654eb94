// Certificate-driven self-healing construction runs. SupervisedRun executes a
// spanner construction under a deterministic FaultPlan, validates the output
// with the independent certificates of check/certify.h, retries with an
// exponential-backoff reseeding ladder on the *fault schedule* seed (the
// construction's own randomness stays fixed, so retries differ only in which
// faults fire), and finally degrades along a fallback chain
//
//   Fibonacci spanner -> skeleton (Theorem 2) -> Baswana-Sen -> BFS forest
//
// so callers always receive a certified structure plus a provenance record of
// the producing tier and every attempt made along the way. The terminal BFS
// forest tier is sequential (no network), hence fault-immune, and is
// certified with the vacuous stretch bound alpha = n plus connectivity — it
// cannot fail, which makes the chain total.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/certify.h"
#include "core/fib_params.h"
#include "core/schedule.h"
#include "graph/graph.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "spanner/spanner.h"

namespace ultra::sim {

// Degradation order; each tier trades stretch quality for robustness and
// cost. kBfsForest never fails.
enum class FallbackTier : std::uint8_t {
  kFibonacci = 0,
  kSkeleton = 1,
  kBaswanaSen = 2,
  kBfsForest = 3,
};

[[nodiscard]] const char* tier_name(FallbackTier tier);

struct SupervisorOptions {
  // Fault classes injected into every distributed attempt. All-zero rates run
  // every attempt fault-free (the plan is empty, the golden traces hold).
  FaultRates rates;
  // Base of the fault-schedule reseeding ladder: attempt a (0-based, counted
  // per tier) runs under seed fault_seed + 2^a - 1 — exponential backoff in
  // seed space, deterministic and disjoint across attempts.
  std::uint64_t fault_seed = 1;
  // Distributed attempts per tier before degrading (>= 1). The BFS forest
  // tier always runs exactly once.
  unsigned max_attempts_per_tier = 3;
  // First tier to try; lower-quality tiers remain reachable as fallbacks.
  FallbackTier start_tier = FallbackTier::kFibonacci;

  // Construction knobs per tier (seeds here are *algorithm* randomness and
  // are never touched by the backoff ladder).
  core::FibonacciParams fibonacci{.order = 2, .eps = 1.0, .message_t = 3.0};
  core::SkeletonParams skeleton{.D = 4, .eps = 1.0};
  // The Baswana-Sen tier reuses skeleton's seed/audit/exec knobs.
  unsigned baswana_sen_k = 3;

  // Certificate sampling (0 sources = the exact all-pairs certificate).
  std::uint32_t certify_sample_sources = 16;
  std::uint64_t certify_seed = 1;
};

// One construction attempt, successful or not — the provenance trail.
struct AttemptRecord {
  FallbackTier tier = FallbackTier::kFibonacci;
  std::uint64_t fault_seed = 0;  // schedule seed this attempt ran under
  bool construction_ok = false;  // builder returned (vs. threw)
  bool certified = false;        // certificate accepted the artifact
  std::string error;             // builder exception message ("" if none)
  std::string violation;         // certificate violation ("" if certified)
  // Transport metrics (fault counters included) of a builder that returned.
  // Empty when construction_ok is false: the builder throws before its
  // metrics are copied out, so a failed attempt's rounds are counted
  // neither here nor in sums over attempts (maintain's repair_rounds).
  Metrics network;
};

struct SupervisedResult {
  spanner::Spanner spanner;      // the certified structure
  FallbackTier tier = FallbackTier::kBfsForest;  // producing tier
  std::uint64_t fault_seed = 0;  // schedule seed of the winning attempt
  double certified_alpha = 0;    // stretch bound the certificate enforced
  check::Certificate certificate{};
  std::vector<AttemptRecord> attempts{};  // full trail, winning attempt last
};

// Run the fallback chain until a tier produces a certified spanner. Always
// returns (the BFS forest tier cannot fail); never lets a faulty run's
// exception escape. Throws std::invalid_argument only on malformed options.
[[nodiscard]] SupervisedResult supervised_spanner(
    const graph::Graph& g, const SupervisorOptions& options);

}  // namespace ultra::sim
