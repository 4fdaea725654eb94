#include "core/fibonacci_distributed.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "check/check.h"
#include "core/ball_broadcast.h"
#include "graph/bfs.h"
#include "graph/connectivity.h"
#include "sim/faults.h"
#include "sim/flood.h"
#include "util/rng.h"

namespace ultra::core {

using graph::VertexId;

namespace {

// Executes the §4.4 Las Vegas repair centrally, reproducing exactly what the
// charged protocol would do — every detected (z, x) failure and every kept
// edge, in order — while skipping work that provably changes nothing.
class LasVegasRepair {
 public:
  explicit LasVegasRepair(const graph::Graph& g)
      : g_(g),
        dist_(g.num_vertices(), graph::kUnreachable),
        saturated_(g.num_vertices(), 0) {}

  // One level: each ceased (z, step) floods step to radius; x ∈ V_{i-1}
  // (in_prev) detects a failure iff d(x,z) + step < lim(x), where lim(x) is
  // limiter[x], or radius + 1 where the limiter is unreachable.
  void run_level(std::span<const std::uint32_t> limiter,
                 std::span<const std::uint8_t> in_prev, std::uint32_t radius,
                 std::span<const std::pair<VertexId, std::uint32_t>> ceased,
                 DistributedFibonacciResult& result) {
    const auto lim = [&](VertexId x) {
      return limiter[x] == graph::kUnreachable ? radius + 1 : limiter[x];
    };
    // Detection needs d(x,z) < lim(x) - step <= max_lim - step, which bounds
    // every flood's useful depth.
    std::uint32_t max_lim = 0;
    for (VertexId x = 0; x < g_.num_vertices(); ++x) {
      if (in_prev[x]) max_lim = std::max(max_lim, lim(x));
    }
    // If lim changes by at most 1 across every edge, then along a shortest
    // path lim(x) <= lim(z) + d(x,z), so detection implies step < lim(z). A
    // fault-free stage 1 yields exact truncated distances, which pass; a
    // faulty one may not, and then no z is skipped on this ground.
    const auto edges = g_.edges();
    const bool lipschitz =
        std::all_of(edges.begin(), edges.end(), [&](const graph::Edge& e) {
          const std::uint32_t a = lim(e.u);
          const std::uint32_t b = lim(e.v);
          return a <= b + 1 && b <= a + 1;
        });

    for (const auto& [z, step] : ceased) {
      if (step >= max_lim || (lipschitz && step >= lim(z))) continue;
      graph::bfs_visit(g_, z, std::min(radius, max_lim - 1 - step), dist_,
                       order_);
      hits_.clear();
      for (const VertexId x : order_) {
        if (in_prev[x] && dist_[x] + step < lim(x)) hits_.push_back(x);
      }
      graph::bfs_reset(dist_, order_);
      std::sort(hits_.begin(), hits_.end());
      for (const VertexId x : hits_) {
        ++result.stats.failures_detected;
        // x commands all vertices within ell^i to keep all edges.
        result.network.rounds += radius;
        result.stats.repair_rounds += radius;
        keep_ball(x, radius, result);
      }
    }
  }

 private:
  // Adds every edge incident to the ball of `radius` around x. Edges are
  // never removed, so a vertex whose edges one ball kept is saturated and
  // adds nothing to any later ball: it is skipped, and so is a ball whose
  // component has no unsaturated vertex left.
  void keep_ball(VertexId x, std::uint32_t radius,
                 DistributedFibonacciResult& result) {
    if (component_of_.empty()) {
      const graph::Components c = graph::connected_components(g_);
      component_of_ = c.component_of;
      unsaturated_ = c.sizes();
    }
    std::uint32_t& open = unsaturated_[component_of_[x]];
    if (open == 0) return;
    graph::bfs_visit(g_, x, radius, dist_, order_);
    for (const VertexId u : order_) {
      if (saturated_[u]) continue;
      saturated_[u] = 1;
      for (const VertexId w : g_.neighbors(u)) {
        if (result.spanner.add_edge(u, w)) ++result.stats.repair_edges;
      }
      if (--open == 0) break;
    }
    graph::bfs_reset(dist_, order_);
  }

  const graph::Graph& g_;
  std::vector<std::uint32_t> dist_;  // kUnreachable between searches
  std::vector<VertexId> order_;
  std::vector<VertexId> hits_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::uint32_t> component_of_;  // filled at the first ball
  std::vector<std::uint32_t> unsaturated_;   // per component
};

}  // namespace

DistributedFibonacciResult build_fibonacci_distributed(
    const graph::Graph& g, const FibonacciParams& params) {
  const VertexId n = g.num_vertices();
  DistributedFibonacciResult result{spanner::Spanner(g), {}, {}, {}, 0};
  result.levels = FibonacciLevels::plan(n, params);
  const FibonacciLevels& lv = result.levels;
  const unsigned o = lv.order;

  if (params.message_cap_override > 0) {
    result.message_cap_words = params.message_cap_override;
  } else if (params.message_t > 0) {
    result.message_cap_words = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(std::pow(
               static_cast<double>(std::max<VertexId>(n, 2)),
               1.0 / params.message_t))));
  } else {
    result.message_cap_words = sim::kUnboundedMessages;
  }

  util::Rng rng(params.seed);
  const auto level_of = lv.sample_levels(n, rng);
  std::vector<std::vector<std::uint8_t>> level_mask(o + 2);
  result.stats.level_sizes.assign(o + 1, 0);
  for (unsigned i = 0; i <= o + 1; ++i) level_mask[i].assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (unsigned i = 0; i <= std::min(level_of[v], o); ++i) {
      level_mask[i][v] = 1;
      ++result.stats.level_sizes[i];
    }
  }

  // --- Stage 1: per-level truncated min-id floods (unit messages).
  // level_dist[i] = d(v, V_i) truncated at ell^{i-1} (kUnreachable beyond),
  // which also serves as the B_{i+1} limiter when building S_{i-1}.
  std::vector<std::vector<std::uint32_t>> level_dist(o + 2);
  level_dist[o + 1].assign(n, graph::kUnreachable);
  for (unsigned i = 1; i <= o; ++i) {
    const std::uint32_t radius = lv.radius(i - 1);
    // Unit messages suffice for stage 1.
    sim::Network net(g, 1, params.audit, params.exec, params.exec_threads);
    net.set_fault_plan(params.faults);
    sim::TruncatedMinIdFlood flood(level_mask[i], radius);
    const sim::RunOutcome out = net.run_outcome(
        flood, {.max_rounds = static_cast<std::uint64_t>(radius) + 4,
                .protocol_name = "TruncatedMinIdFlood"});
    ULTRA_CHECK_RUNTIME(out.completed())
        << "build_fibonacci_distributed: stage 1 level " << i << ": "
        << out.diagnostic;
    const sim::Metrics& m = out.metrics;
    result.network.merge(m);
    result.stats.stage1_rounds += m.rounds;
    for (VertexId v = 0; v < n; ++v) {
      if (flood.dist()[v] != graph::kUnreachable && flood.dist()[v] >= 1) {
        result.spanner.add_edge(v, flood.parent()[v]);
      }
    }
    level_dist[i] = flood.dist();
  }

  // --- S_0: all edges of vertices with d(v, V_1) > 1 (local decision).
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t d1 = o >= 1 ? level_dist[1][v] : graph::kUnreachable;
    if (d1 == graph::kUnreachable || d1 > 1) {
      result.spanner.add_all_incident(v);
    }
  }

  // --- Stage 2 per level: capped ball broadcast + path marking + repair.
  LasVegasRepair repair(g);
  for (unsigned i = 1; i <= o; ++i) {
    const std::uint32_t radius = lv.radius(i);
    sim::Network net(g, result.message_cap_words, params.audit, params.exec,
                     params.exec_threads);
    net.set_fault_plan(params.faults);
    sim::BallBroadcast bc(level_mask[i], radius);
    const sim::RunOutcome out = net.run_outcome(
        bc, {.max_rounds = static_cast<std::uint64_t>(radius) + 4,
             .protocol_name = "BallBroadcast"});
    ULTRA_CHECK_RUNTIME(out.completed())
        << "build_fibonacci_distributed: stage 2 level " << i << ": "
        << out.diagnostic;
    const sim::Metrics& m = out.metrics;
    result.network.merge(m);
    result.stats.stage2_rounds += m.rounds;
    const auto ceased = bc.ceased();
    result.stats.ceased_nodes += ceased.size();

    // Reverse path marking: walk next-hop pointers from each x ∈ V_{i-1} to
    // each ball member. Tokens would retrace the broadcast; charge one
    // radius' worth of rounds for the pipelined marking pass.
    result.network.rounds += radius;
    result.stats.marking_rounds += radius;

    const auto& limiter = level_dist[i + 1];
    for (VertexId x = 0; x < n; ++x) {
      if (!level_mask[i - 1][x]) continue;
      std::uint32_t r_x = radius;
      if (limiter[x] != graph::kUnreachable) {
        if (limiter[x] == 0) continue;
        r_x = std::min(r_x, limiter[x] - 1);
      }
      for (const auto& known : bc.known(x)) {
        if (known.dist == 0 || known.dist > r_x) continue;
        // Walk toward y through per-node pointers.
        const VertexId y = known.source;
        VertexId cur = x;
        std::uint32_t steps = 0;
        while (cur != y && steps <= radius) {
          const auto* hop = bc.find(cur, y);
          if (hop == nullptr) break;  // interrupted by cessation
          const VertexId next = hop->parent;
          if (next == graph::kInvalidVertex) break;
          result.spanner.add_edge(cur, next);
          cur = next;
          ++steps;
        }
      }
    }

    // Las Vegas repair: cessation floods + failure reaction.
    if (!ceased.empty()) {
      result.network.rounds += radius + ceased.size();
      result.stats.repair_rounds += radius + ceased.size();
      repair.run_level(limiter, level_mask[i - 1], radius, ceased, result);
    }
  }

  return result;
}

}  // namespace ultra::core
