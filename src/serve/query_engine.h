// Concurrent query-serving engine over a FlatOracleIndex.
//
// Execution model: the op stream [0, ops) is cut into fixed-size batches;
// a persistent worker pool claims batches dynamically (one atomic fetch-add
// per batch — claiming order is a race and is allowed to be). Inside a
// batch, ops are regrouped by destination shard of the probed vertex (the
// same 2^kDestShardBits geometry the round executor shards receivers by) so
// consecutive probes land in the same slice of the index — batching for
// locality, as a disk-backed store would group gets by page.
//
// Determinism contract (the serve-layer analogue of the round executor's
// trace-digest discipline): every per-op result is a pure function of
// (index, workload seed, op index), each batch folds its results in op-index
// order into a batch digest stored in the batch's own slot, and the final
// checksum chains the batch digests in batch order on the calling thread.
// Claiming order, worker count, shard regrouping and latency sampling are
// therefore invisible: ServeResult::checksum is byte-identical at 1, 2, 4, n
// threads (pinned by tests/serve_parallel_test.cpp) and equals an op-order
// fold (pinned by tests/serve_test.cpp).
//
// Time never enters src/: latency is observed through the injectable
// TickSource (perfbench/ supplies a steady_clock-backed one, tests a fake), so
// the library itself stays clock-free and ultra-lint-clean, and a null
// source makes serving a pure function outright.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/compact_routing.h"
#include "serve/flat_index.h"
#include "serve/workload.h"

namespace ultra::serve {

// Monotonic time injected from outside src/ (see file comment). now_ns must
// be safe to call concurrently from the worker threads.
class TickSource {
 public:
  virtual ~TickSource() = default;
  virtual std::uint64_t now_ns() = 0;
};

struct EngineOptions {
  // Worker count: 0 = hardware concurrency; clamped to [1, 64]. One thread
  // serves inline on the caller — the sequential reference path.
  unsigned threads = 1;
  // Ops per claimed batch (the locality and scheduling quantum).
  std::uint32_t batch_ops = 1024;
  // With a TickSource attached, record every k-th op's service time.
  std::uint64_t sample_every = 1;
};

struct ServeResult {
  std::uint64_t ops = 0;
  // Order-sensitive FNV chain over every op result (see file comment).
  std::uint64_t checksum = 14695981039346656037ull;
  std::uint64_t point_ops = 0;
  std::uint64_t route_ops = 0;
  std::uint64_t scan_ops = 0;
  std::uint64_t unreachable = 0;       // point/route ops across components
  std::uint64_t scanned_entries = 0;   // bunch entries read by scan ops
  std::uint64_t route_hops = 0;        // total hops walked by route ops
  // Sampled per-op service times, nanoseconds; empty without a TickSource.
  // Which ops are sampled is deterministic; the values are wall time.
  std::vector<std::uint64_t> latencies_ns;
};

class QueryEngine {
 public:
  // `routing` may be null when the workload contains no route ops (enforced
  // at run()); when given, it must span the index's vertex set
  // (std::invalid_argument otherwise). The index and routing tables are
  // borrowed and must outlive the engine. Workers start lazily at the first
  // multi-threaded run.
  QueryEngine(const FlatOracleIndex& index,
              const apps::CompactRouting* routing,
              const EngineOptions& opt = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // The resolved worker count (>= 1).
  [[nodiscard]] unsigned worker_threads() const noexcept { return threads_; }

  // Serve ops [0, ops) of `wl`. Safe to call repeatedly; each run is
  // independent. `ticks` enables latency sampling (nullptr: none).
  ServeResult run(const WorkloadGen& wl, std::uint64_t ops,
                  TickSource* ticks = nullptr);

 private:
  // Per-batch fold + counters, written once into the batch's slot.
  struct BatchOut {
    std::uint64_t digest = 0;
    std::uint64_t point = 0, route = 0, scan = 0;
    std::uint64_t unreachable = 0, scanned = 0, hops = 0;
  };

  void run_batch(std::uint64_t b, std::vector<std::uint64_t>* latencies);
  void drain_batches(std::vector<std::uint64_t>* latencies);
  void ensure_pool();
  void stop_pool() noexcept;
  void worker_main(unsigned index);

  const FlatOracleIndex& index_;
  const apps::CompactRouting* routing_;
  EngineOptions opt_;
  unsigned threads_;

  // --- job state (valid between run()'s publish and drain) ----------------
  const WorkloadGen* job_wl_ = nullptr;
  std::uint64_t job_ops_ = 0;
  std::uint64_t job_batches_ = 0;
  TickSource* job_ticks_ = nullptr;
  std::atomic<std::uint64_t> next_batch_{0};
  std::vector<BatchOut> batch_out_;
  // Per-worker latency buffers (slot 0 = caller); merged after the join.
  std::vector<std::vector<std::uint64_t>> lane_latencies_;

  // --- persistent pool (threads_ > 1 only; lazily started) ----------------
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable work_cv_;  // caller -> workers: job published
  std::condition_variable idle_cv_;  // workers -> caller: job drained
  std::uint64_t job_id_ = 0;
  unsigned job_unfinished_ = 0;
  bool pool_stop_ = false;
};

}  // namespace ultra::serve
