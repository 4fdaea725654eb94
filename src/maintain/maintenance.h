// Epoch-driven overlay maintenance: certified self-healing under churn and
// injected faults, with uptime / repair-latency SLOs and degraded serving.
//
// The paper constructs its spanners once, on a static graph. This layer asks
// the operational question instead: given a live overlay that must keep
// answering queries, how cheaply can the (2k-1)-stretch contract be *kept*
// true as the graph churns and the fault layer damages the structure — and
// how do we know it is true? An epoch is the unit of maintenance:
//
//   1. churn    — a deterministic batch of edge inserts/deletes is applied
//                 through baselines::DynamicSpanner (exact incremental
//                 repair, invalidated regions reported);
//   2. damage   — a per-epoch FaultPlan window fires: crashed nodes lose all
//                 incident spanner edges, link outages knock out individual
//                 spanner edges (the underlying graph is untouched — faults
//                 damage the overlay, churn changes the graph);
//   3. patch    — incremental-repair-first: the union of invalidated regions
//                 is re-swept through the greedy filter, skipping vertices
//                 still crashed at epoch end (a dead node cannot ack a
//                 promotion);
//   4. certify  — check::certify_spanner independently audits the patched
//                 overlay at alpha = 2k-1 (BFS from 16 sampled sources +
//                 connectivity);
//   5. escalate — only if the certificate rejects: sim::supervised_spanner
//                 runs the rebuild chain from the skeleton tier (skeleton ->
//                 Baswana-Sen -> BFS forest, two attempts per tier,
//                 fault-seed backoff ladder) under this epoch's fault
//                 rates, the winning structure is re-seated into the
//                 dynamic overlay (reseed_spanner), and the result is
//                 re-certified. Escalation cost is the sum of network
//                 rounds across every supervised attempt;
//   6. publish  — when a SnapshotStore is attached, a freshly certified
//                 epoch republishes its serving image (the distance oracle
//                 over the certified spanner, built once, directly in its
//                 FlatOracleIndex layout); until then readers stay on the
//                 previous image, explicitly stale (degraded-read mode,
//                 serve/snapshot.h).
//
// Every decision — which edges churn, which nodes crash, which links fail,
// every retry seed — is a pure splitmix64 hash (util::mix64) of (seed, epoch,
// coordinate). Nothing reads a clock, thread id or container order, so an
// epoch trace is byte-identical across ExecutionMode, thread count and
// AuditMode. tests/maintain_test.cpp pins the chained trace digest, and
// MaintenanceEngine.TraceDigestInvariantAcrossExecutionModes there holds it
// equal across the sequential and parallel executors.
//
// SLO definitions (DESIGN.md section 12): an epoch nominally lasts
// `epoch_rounds` network rounds. A patch repair is local (zero rounds of
// global coordination); an escalation consumes its attempts' simulated
// rounds, capped at the epoch length for accounting. Certified uptime is
//
//   1 - sum_e min(repair_rounds_e, epoch_rounds) / (epochs * epoch_rounds)
//
// and repair latency p50/p99 are nearest-rank percentiles (util::percentile:
// the ceil(p N / 100)-th smallest) over the per-epoch repair_rounds_e
// (patches contribute 0).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/dynamic_spanner.h"
#include "check/certify.h"
#include "graph/graph.h"
#include "serve/snapshot.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/supervisor.h"
#include "util/fnv.h"

namespace ultra::maintain {

using graph::VertexId;

// How an epoch's repair concluded.
enum class RepairTier : std::uint8_t {
  kClean = 0,     // nothing was damaged; certificate accepted as-is
  kPatch = 1,     // incremental patch sufficed
  kEscalate = 2,  // patch rejected; supervised rebuild chain ran
};

[[nodiscard]] const char* repair_tier_name(RepairTier tier);

struct MaintenanceOptions {
  unsigned k = 3;           // overlay stretch contract: 2k-1
  std::uint64_t seed = 1;   // master seed for every churn/fault/retry draw
  std::uint64_t epoch_rounds = 32;  // nominal epoch length (SLO denominator)

  // Churn batch per epoch. Inserts draw endpoint pairs by hash (skipping
  // self-loops and present edges, bounded retries); deletes pick live edges
  // by hashed index. Both are applied through the dynamic spanner.
  std::uint64_t inserts_per_epoch = 8;
  std::uint64_t deletes_per_epoch = 4;

  // Fault window fired each epoch (crash/link rates damage the overlay;
  // message rates afflict escalation attempts). All-zero = churn only.
  sim::FaultRates fault_rates;

  // Round executor for escalation attempts. The epoch trace digest must be
  // identical for kSequential and kParallel at any thread count.
  sim::ExecutionMode exec = sim::ExecutionMode::kSequential;
  unsigned exec_threads = 0;

  // Degraded serving: when set, each certified epoch builds one
  // FlatOracleIndex over the certified spanner and publishes it into the
  // store (epoch 0 = the initial certified build). Null = maintenance only.
  serve::SnapshotStore* store = nullptr;
  std::uint64_t oracle_seed = 7;  // FlatOracleIndex landmark seed (fixed)
};

// Full provenance of one epoch.
struct EpochRecord {
  std::uint64_t epoch = 0;

  // Churn actually applied (inserts skips exhausted draws).
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t churn_promoted = 0;  // promotions during delete repair

  // Fault damage dealt to the overlay.
  std::uint64_t crashed_nodes = 0;    // nodes whose crash window hit the epoch
  std::uint64_t unavailable_nodes = 0;  // still down at patch time
  std::uint64_t dropped_spanner_edges = 0;  // crash + outage victims
  std::uint64_t link_outages = 0;           // spanner edges lost to outages

  // Repair.
  RepairTier tier = RepairTier::kClean;
  std::uint64_t patch_promoted = 0;
  unsigned escalation_attempts = 0;                 // 0 unless escalated
  sim::FallbackTier winning_tier = sim::FallbackTier::kFibonacci;
  std::uint64_t repair_rounds = 0;  // summed network rounds of all attempts
  sim::Metrics::FaultCounters escalation_faults;    // summed over attempts
  // FNV fold of every escalation attempt's network trace digest (0 unless
  // escalated) — ties the epoch digest to the actual simulated traffic.
  std::uint64_t escalation_digest = 0;

  // Outcome.
  bool certified = false;       // final certificate verdict (true by design)
  std::uint64_t certify_checks = 0;
  std::uint64_t graph_edges = 0;
  std::uint64_t spanner_edges = 0;
  bool published = false;       // snapshot store republished this epoch
  std::uint64_t trace_digest = 0;  // fold of everything above (see .cpp)
};

// Aggregated service-level objectives over a run.
struct SloSummary {
  std::uint64_t epochs = 0;
  double certified_uptime = 1.0;     // see file comment
  std::uint64_t repair_p50_rounds = 0;
  std::uint64_t repair_p99_rounds = 0;
  std::uint64_t clean_epochs = 0;
  std::uint64_t patch_epochs = 0;
  std::uint64_t escalations = 0;
  std::uint64_t total_churn = 0;     // inserts + deletes applied
  std::uint64_t total_damage = 0;    // spanner edges lost to faults
  sim::Metrics::FaultCounters escalation_faults;  // summed over all epochs
};

class MaintenanceEngine {
 public:
  // Adopts `g` as the initial graph, seats the initial spanner (greedy sweep
  // in deterministic edge order), certifies it, and — with a store attached —
  // publishes the epoch-0 image. Throws check::CheckError if the initial
  // build cannot be certified (it always can: the greedy sweep satisfies the
  // invariant on any graph).
  MaintenanceEngine(const graph::Graph& g, const MaintenanceOptions& opt);

  // Run the next epoch (1-based; epoch 0 is the initial build) and return
  // its record. Repair always runs to a certified state before returning.
  const EpochRecord& run_epoch();

  // run_epoch() `count` times; returns the full history.
  const std::vector<EpochRecord>& run(std::uint64_t count);

  [[nodiscard]] const std::vector<EpochRecord>& history() const noexcept {
    return history_;
  }
  // Chained FNV-1a digest over every epoch record (including epoch 0's
  // certified build). Byte-identical across ExecutionMode / thread count.
  [[nodiscard]] std::uint64_t trace_digest() const noexcept { return digest_; }

  [[nodiscard]] SloSummary summary() const;

  [[nodiscard]] const baselines::DynamicSpanner& overlay() const noexcept {
    return overlay_;
  }
  [[nodiscard]] const MaintenanceOptions& options() const noexcept {
    return opt_;
  }

 private:
  struct DamageReport;

  void apply_churn(EpochRecord& rec);
  [[nodiscard]] DamageReport apply_damage(EpochRecord& rec,
                                          std::vector<VertexId>& region);
  [[nodiscard]] check::Certificate certify(std::uint64_t epoch) const;
  void escalate(EpochRecord& rec);
  void publish(EpochRecord& rec);
  void fold_record(EpochRecord& rec);

  MaintenanceOptions opt_;
  baselines::DynamicSpanner overlay_;
  // Live edge list in mutation order: inserts append, deletes swap-remove.
  // Gives O(1) deterministic "pick the j-th live edge" for churn deletes.
  std::vector<graph::Edge> live_edges_;
  std::vector<EpochRecord> history_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t digest_ = util::kFnvOffset;
};

}  // namespace ultra::maintain
