#include "serve/query_engine.h"

#include <algorithm>

#include "check/check.h"

namespace ultra::serve {

using graph::VertexId;

namespace {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

inline std::uint64_t fold(std::uint64_t h, std::uint64_t w) noexcept {
  return (h ^ w) * 1099511628211ull;
}

unsigned resolve_threads(unsigned requested) {
  unsigned t = requested;
  if (t == 0) t = std::thread::hardware_concurrency();
  if (t == 0) t = 1;
  return std::min(t, 64u);
}

}  // namespace

QueryEngine::QueryEngine(const FlatOracleIndex& index,
                         const apps::CompactRouting* routing,
                         const EngineOptions& opt)
    : index_(index),
      routing_(routing),
      opt_(opt),
      threads_(resolve_threads(opt.threads)) {
  ULTRA_CHECK_ARG(opt_.batch_ops > 0) << "batch_ops must be positive";
  ULTRA_CHECK_ARG(opt_.sample_every > 0) << "sample_every must be positive";
  ULTRA_CHECK_ARG(routing_ == nullptr ||
                  routing_->num_vertices() == index_.num_vertices())
      << "routing tables over " << routing_->num_vertices()
      << " vertices != index vertex count " << index_.num_vertices();
}

QueryEngine::~QueryEngine() { stop_pool(); }

ServeResult QueryEngine::run(const WorkloadGen& wl, std::uint64_t ops,
                             TickSource* ticks) {
  ULTRA_CHECK_ARG(wl.num_keys() == index_.num_vertices())
      << "workload key universe " << wl.num_keys()
      << " != index vertex count " << index_.num_vertices();
  ULTRA_CHECK_ARG(wl.spec().route_pct == 0 || routing_ != nullptr)
      << "route ops in the mix but no routing tables attached";

  job_wl_ = &wl;
  job_ops_ = ops;
  job_batches_ = (ops + opt_.batch_ops - 1) / opt_.batch_ops;
  job_ticks_ = ticks;
  next_batch_.store(0, std::memory_order_relaxed);
  batch_out_.assign(job_batches_, BatchOut{});
  lane_latencies_.assign(threads_, {});

  if (threads_ > 1 && job_batches_ > 1) {
    ensure_pool();
    {
      std::unique_lock lock(pool_mu_);
      ++job_id_;
      job_unfinished_ = static_cast<unsigned>(workers_.size());
      work_cv_.notify_all();
    }
    drain_batches(&lane_latencies_[0]);
    std::unique_lock lock(pool_mu_);
    idle_cv_.wait(lock, [&] { return job_unfinished_ == 0; });
  } else {
    drain_batches(&lane_latencies_[0]);
  }

  // Sequential reduction in batch order: this chain — not the racy claiming
  // order — defines the checksum, so it is thread-count-invariant.
  ServeResult result;
  result.ops = ops;
  std::uint64_t h = kFnvOffset;
  h = fold(h, ops);
  for (const BatchOut& b : batch_out_) {
    h = fold(h, 0x6d65726765ull);  // separator, as Metrics::merge folds
    h = fold(h, b.digest);
    result.point_ops += b.point;
    result.route_ops += b.route;
    result.scan_ops += b.scan;
    result.unreachable += b.unreachable;
    result.scanned_entries += b.scanned;
    result.route_hops += b.hops;
  }
  result.checksum = h;
  for (auto& lane : lane_latencies_) {
    result.latencies_ns.insert(result.latencies_ns.end(), lane.begin(),
                               lane.end());
    lane.clear();
  }
  job_wl_ = nullptr;
  job_ticks_ = nullptr;
  return result;
}

void QueryEngine::drain_batches(std::vector<std::uint64_t>* latencies) {
  while (true) {
    const std::uint64_t b =
        next_batch_.fetch_add(1, std::memory_order_relaxed);
    if (b >= job_batches_) return;
    run_batch(b, latencies);
  }
}

void QueryEngine::run_batch(std::uint64_t b,
                            std::vector<std::uint64_t>* latencies) {
  const WorkloadGen& wl = *job_wl_;
  const std::uint64_t first = b * opt_.batch_ops;
  const std::uint64_t end =
      std::min<std::uint64_t>(first + opt_.batch_ops, job_ops_);
  // Every sample_every-th op index is timed; the first at or after `first`.
  const std::uint64_t every = opt_.sample_every;
  std::uint64_t next_sample =
      job_ticks_ == nullptr ? end : (first + every - 1) / every * every;

  // Each op is generated, served and folded in op order.
  BatchOut out;
  out.digest = kFnvOffset;
  for (std::uint64_t i = first; i < end; ++i) {
    const WorkloadGen::Op op = wl.op(i);
    const bool sampled = i == next_sample;
    const std::uint64_t t0 = sampled ? job_ticks_->now_ns() : 0;
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
        for (const VertexId hop : route.path) h = fold(h, hop);
        word = fold(h, route.delivered ? route.path.size() : 0);
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
          h = fold(h, (static_cast<std::uint64_t>(keys[k]) << 32) | dists[k]);
        }
        word = fold(h, keys.size());
        ++out.scan;
        out.scanned += keys.size();
        break;
      }
    }
    out.digest = fold(fold(out.digest, i), word);
    if (sampled) {
      latencies->push_back(job_ticks_->now_ns() - t0);
      next_sample += every;
    }
  }
  batch_out_[b] = out;
}

void QueryEngine::ensure_pool() {
  if (!workers_.empty()) return;
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void QueryEngine::stop_pool() noexcept {
  {
    std::unique_lock lock(pool_mu_);
    pool_stop_ = true;
    work_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void QueryEngine::worker_main(unsigned index) {
  std::uint64_t seen_job = 0;
  while (true) {
    {
      std::unique_lock lock(pool_mu_);
      work_cv_.wait(lock,
                    [&] { return pool_stop_ || job_id_ != seen_job; });
      if (pool_stop_) return;
      seen_job = job_id_;
    }
    drain_batches(&lane_latencies_[index]);
    std::unique_lock lock(pool_mu_);
    if (--job_unfinished_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace ultra::serve
