// Distributed construction of Fibonacci spanners (Section 4.4).
//
// Stage 1 (per level i): truncated min-id floods compute p_i(v) and
// d(v, V_i) with unit messages in ell^{i-1}+1 rounds; the parent paths
// P(v, p_i(v)) enter the spanner along the flood's own tree pointers.
//
// Stage 2 (per level i): BallBroadcast floods V_i ids to radius ell^i with
// messages capped at ceil(n^{1/t}) words; overloaded nodes cease. Each
// x ∈ V_{i-1} then connects to every known y ∈ B_{i+1,ell}(x) along the
// recorded next-hop pointers (the reverse path-marking pass; its rounds are
// charged explicitly — one extra radius' worth — since the marking tokens
// retrace the broadcast at the same rate).
//
// Las Vegas repair: every ceased node z broadcasts its cessation step k to
// radius ell^i (unit messages, charged); any x ∈ V_{i-1} with
// d(x,z) + k < d(x, V_{i+1}) declares failure and commands all vertices
// within ell^i to keep all incident edges (the paper's error recovery, which
// inflates the spanner by < 1 edge in expectation at the analyzed cap).
//
// The repair is charged in rounds but executed centrally, and that execution
// prunes work that cannot change the outcome (DESIGN.md §7): floods stop at
// the depth where no x can still detect, a ceased z is skipped when the
// limiter is 1-Lipschitz and k >= its own limit, and a kept ball skips
// vertices an earlier ball already saturated. The spanner edge sequence, the
// stats, the charged rounds and the trace digest are those of the unpruned
// repair, byte for byte.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fib_params.h"
#include "graph/graph.h"
#include "sim/network.h"
#include "spanner/spanner.h"

namespace ultra::core {

struct DistributedFibonacciStats {
  std::uint64_t stage1_rounds = 0;
  std::uint64_t stage2_rounds = 0;
  std::uint64_t marking_rounds = 0;  // charged for reverse path marking
  std::uint64_t repair_rounds = 0;   // charged for cessation floods
  std::uint64_t ceased_nodes = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t repair_edges = 0;
  std::vector<std::uint64_t> level_sizes;
};

struct DistributedFibonacciResult {
  spanner::Spanner spanner;
  FibonacciLevels levels;
  DistributedFibonacciStats stats;
  sim::Metrics network;  // accumulated over all protocol executions
  std::uint64_t message_cap_words = 0;
};

// params.message_t > 0 selects the cap ceil(n^{1/t}); message_t == 0 runs
// with unbounded messages (the LOCAL-model variant).
[[nodiscard]] DistributedFibonacciResult build_fibonacci_distributed(
    const graph::Graph& g, const FibonacciParams& params);

}  // namespace ultra::core
