// Concurrent query-serving engine over a FlatOracleIndex.
//
// Execution model: the op stream [0, ops) is cut into fixed-size batches;
// every worker of a util::WorkerPool claims batches dynamically (one atomic
// fetch-add per batch — claiming order is a race and is allowed to be). A
// batch is one straight loop over its op indices: generate op i, serve it,
// fold (i, result) into the batch digest. Nothing is copied, sorted or
// buffered. run() returns only after every worker has stopped serving; an
// exception thrown on any of them (a TickSource's, say) is rethrown there,
// the lowest worker index's first.
//
// Determinism contract (the serve-layer analogue of the round executor's
// trace-digest discipline): every per-op result is a pure function of
// (index, workload seed, op index), each batch folds its results in op-index
// order into a batch digest stored in the batch's own slot, and the final
// checksum chains the batch digests in batch order on the calling thread.
// Claiming order, worker count and latency sampling are therefore
// invisible: ServeResult::checksum is byte-identical at 1, 2, 4, n threads
// (pinned by tests/serve_parallel_test.cpp) and equals an op-order fold
// (pinned by tests/serve_test.cpp).
//
// Time never enters src/: latency is observed through the injectable
// TickSource (perfbench/ supplies a steady_clock-backed one, tests a fake), so
// the library itself stays clock-free, as ultra_lint_test and src_symbol_test
// check, and a null source makes serving a pure function outright.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/compact_routing.h"
#include "serve/flat_index.h"
#include "serve/workload.h"
#include "util/fnv.h"
#include "util/worker_pool.h"

namespace ultra::serve {

// Monotonic time injected from outside src/ (see file comment). now_ns must
// be safe to call concurrently from the worker threads.
class TickSource {
 public:
  virtual ~TickSource() = default;
  virtual std::uint64_t now_ns() = 0;
};

struct EngineOptions {
  // Worker count, resolved by util::WorkerPool (0 = hardware concurrency).
  // One thread serves inline on the caller — the sequential reference path.
  unsigned threads = 1;
  // Ops per claimed batch: the scheduling quantum, and part of the
  // checksum's identity (the batch digests chain in batch order).
  std::uint32_t batch_ops = 1024;
  // With a TickSource attached, record every k-th op's service time.
  std::uint64_t sample_every = 1;
};

struct ServeResult {
  std::uint64_t ops = 0;
  // Order-sensitive FNV chain over every op result (see file comment).
  std::uint64_t checksum = util::kFnvOffset;
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

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // The resolved worker count (>= 1).
  [[nodiscard]] unsigned worker_threads() const noexcept {
    return pool_.size();
  }

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

  // Serves batch b of ops [0, ops) into `slot`, appending sampled
  // latencies. It folds into a local and writes `slot` once: a returned
  // result is built in memory the compiler treats as escaped, so the loop
  // would store and reload the digest around every op.
  void run_batch(const WorkloadGen& wl, std::uint64_t ops, std::uint64_t b,
                 TickSource* ticks, std::vector<std::uint64_t>& latencies,
                 BatchOut& slot) const;

  const FlatOracleIndex& index_;
  const apps::CompactRouting* routing_;
  EngineOptions opt_;
  util::WorkerPool pool_;
};

}  // namespace ultra::serve
