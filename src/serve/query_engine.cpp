#include "serve/query_engine.h"

#include <algorithm>
#include <atomic>

#include "check/check.h"

namespace ultra::serve {

using graph::VertexId;
using util::fnv_fold;
using util::kFnvOffset;

QueryEngine::QueryEngine(const FlatOracleIndex& index,
                         const apps::CompactRouting* routing,
                         const EngineOptions& opt)
    : index_(index), routing_(routing), opt_(opt), pool_(opt.threads) {
  ULTRA_CHECK_ARG(opt_.batch_ops > 0) << "batch_ops must be positive";
  ULTRA_CHECK_ARG(opt_.sample_every > 0) << "sample_every must be positive";
  ULTRA_CHECK_ARG(routing_ == nullptr ||
                  routing_->num_vertices() == index_.num_vertices())
      << "routing tables over " << routing_->num_vertices()
      << " vertices != index vertex count " << index_.num_vertices();
}

ServeResult QueryEngine::run(const WorkloadGen& wl, std::uint64_t ops,
                             TickSource* ticks) {
  ULTRA_CHECK_ARG(wl.num_keys() == index_.num_vertices())
      << "workload key universe " << wl.num_keys()
      << " != index vertex count " << index_.num_vertices();
  ULTRA_CHECK_ARG(wl.spec().route_pct == 0 || routing_ != nullptr)
      << "route ops in the mix but no routing tables attached";

  // The job: every worker claims batches until none is left, writes each
  // batch's result into its own slot and its samples into its own lane.
  const std::uint64_t batches = (ops + opt_.batch_ops - 1) / opt_.batch_ops;
  std::vector<BatchOut> batch_out(batches);
  std::vector<std::vector<std::uint64_t>> lanes(pool_.size());
  std::atomic<std::uint64_t> next_batch{0};
  const auto drain = [&](unsigned worker) {
    for (;;) {
      const std::uint64_t b =
          next_batch.fetch_add(1, std::memory_order_relaxed);
      if (b >= batches) return;
      run_batch(wl, ops, b, ticks, lanes[worker], batch_out[b]);
    }
  };
  if (batches > 1) {
    pool_.run(drain);
  } else {
    drain(0);
  }

  // Sequential reduction in batch order: this chain — not the racy claiming
  // order — defines the checksum, so it is thread-count-invariant.
  ServeResult result;
  result.ops = ops;
  std::uint64_t h = fnv_fold(kFnvOffset, ops);
  for (const BatchOut& b : batch_out) {
    h = fnv_fold(h, 0x6d65726765ull);  // separator, as Metrics::merge folds
    h = fnv_fold(h, b.digest);
    result.point_ops += b.point;
    result.route_ops += b.route;
    result.scan_ops += b.scan;
    result.unreachable += b.unreachable;
    result.scanned_entries += b.scanned;
    result.route_hops += b.hops;
  }
  result.checksum = h;
  for (const auto& lane : lanes) {
    result.latencies_ns.insert(result.latencies_ns.end(), lane.begin(),
                               lane.end());
  }
  return result;
}

void QueryEngine::run_batch(const WorkloadGen& wl, std::uint64_t ops,
                            std::uint64_t b, TickSource* ticks,
                            std::vector<std::uint64_t>& latencies,
                            BatchOut& slot) const {
  const std::uint64_t first = b * opt_.batch_ops;
  const std::uint64_t end =
      std::min<std::uint64_t>(first + opt_.batch_ops, ops);
  // Every sample_every-th op index is timed; the first at or after `first`.
  const std::uint64_t every = opt_.sample_every;
  std::uint64_t next_sample =
      ticks == nullptr ? end : (first + every - 1) / every * every;

  // Each op is generated, served and folded in op order.
  BatchOut out;
  out.digest = kFnvOffset;
  for (std::uint64_t i = first; i < end; ++i) {
    const WorkloadGen::Op op = wl.op(i);
    const bool sampled = i == next_sample;
    const std::uint64_t t0 = sampled ? ticks->now_ns() : 0;
    std::uint64_t word = 0;
    switch (op.type) {
      case OpType::kPoint: {
        const apps::OracleAnswer a = index_.query_traced(op.u, op.v);
        word = (static_cast<std::uint64_t>(a.via) << 32) | a.dist;
        ++out.point;
        out.unreachable += a.dist == graph::kUnreachable;
        break;
      }
      case OpType::kRoute: {
        const auto route = routing_->route(op.u, op.v);
        std::uint64_t h = kFnvOffset;
        for (const VertexId hop : route.path) h = fnv_fold(h, hop);
        word = fnv_fold(h, route.delivered ? route.path.size() : 0);
        ++out.route;
        out.unreachable += !route.delivered;
        out.hops += route.path.size() - 1;
        break;
      }
      case OpType::kScan: {
        const auto keys = index_.bunch_keys(op.u);
        const auto dists = index_.bunch_dists(op.u);
        std::uint64_t h = kFnvOffset;
        for (std::size_t k = 0; k < keys.size(); ++k) {
          h = fnv_fold(h,
                       (static_cast<std::uint64_t>(keys[k]) << 32) | dists[k]);
        }
        word = fnv_fold(h, keys.size());
        ++out.scan;
        out.scanned += keys.size();
        break;
      }
    }
    out.digest = fnv_fold(fnv_fold(out.digest, i), word);
    if (sampled) {
      latencies.push_back(ticks->now_ns() - t0);
      next_sample += every;
    }
  }
  slot = out;
}

}  // namespace ultra::serve
