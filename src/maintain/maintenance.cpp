#include "maintain/maintenance.h"

#include <algorithm>
#include <utility>

#include "check/check.h"
#include "serve/flat_index.h"
#include "spanner/spanner.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ultra::maintain {

namespace {

// The same mixing discipline as sim/faults.cpp: every maintenance decision
// hashes (seed, salt, coordinates) with util::mix64 and nothing else.
std::uint64_t mix(std::uint64_t a) { return util::mix64(a); }

template <typename... Ts>
std::uint64_t mix(std::uint64_t a, Ts... rest) {
  return util::mix64(a ^ mix(static_cast<std::uint64_t>(rest)...));
}

// Domain-separation salts for the per-epoch draws.
constexpr std::uint64_t kSaltInsert = 0x6d6e742d696e7372ull;    // "mnt-insr"
constexpr std::uint64_t kSaltDelete = 0x6d6e742d64656c65ull;    // "mnt-dele"
constexpr std::uint64_t kSaltFault = 0x6d6e742d666c7421ull;     // "mnt-flt!"
constexpr std::uint64_t kSaltEscalate = 0x6d6e742d65736361ull;  // "mnt-esca"
constexpr std::uint64_t kSaltCertify = 0x6d6e742d63657274ull;   // "mnt-cert"

// The certificate's BFS sample and the escalation ladder: 16 sampled
// sources under a fixed base seed (salted per epoch), and a supervised
// rebuild from the skeleton tier with two attempts per tier.
constexpr std::uint32_t kCertifySampleSources = 16;
constexpr std::uint64_t kCertifySeed = 1;
constexpr unsigned kMaxAttemptsPerTier = 2;
constexpr sim::FallbackTier kStartTier = sim::FallbackTier::kSkeleton;

// Byte-wise FNV-1a fold (util/fnv.h folds whole words; these digests fold
// each word's eight bytes, low byte first).
void fold(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= util::kFnvPrime;
  }
}

// Bounded retries per insert draw before the slot is forfeited (dense or
// tiny graphs can exhaust fresh pairs).
constexpr std::uint64_t kInsertTries = 32;

}  // namespace

const char* repair_tier_name(RepairTier tier) {
  switch (tier) {
    case RepairTier::kClean:
      return "clean";
    case RepairTier::kPatch:
      return "patch";
    case RepairTier::kEscalate:
      return "escalate";
  }
  return "unknown";
}

struct MaintenanceEngine::DamageReport {
  std::vector<bool> unavailable;  // crashed and still down at patch time
};

MaintenanceEngine::MaintenanceEngine(const graph::Graph& g,
                                     const MaintenanceOptions& opt)
    : opt_(opt), overlay_(g.num_vertices(), opt.k) {
  ULTRA_CHECK_ARG(opt.epoch_rounds >= 1)
      << "MaintenanceEngine: epoch_rounds must be >= 1";
  live_edges_.assign(g.edges().begin(), g.edges().end());
  for (const graph::Edge& e : live_edges_) overlay_.insert(e.u, e.v);

  // Epoch 0: the initial certified build. The greedy sweep satisfies the
  // 2k-1 invariant on any graph, so this certificate cannot reject.
  EpochRecord rec;
  rec.epoch = 0;
  const check::Certificate cert = certify(0);
  check::require(cert);
  rec.certified = true;
  rec.certify_checks = cert.checks;
  rec.graph_edges = overlay_.graph_size();
  rec.spanner_edges = overlay_.spanner_size();
  publish(rec);
  fold_record(rec);
  history_.push_back(std::move(rec));
}

void MaintenanceEngine::apply_churn(EpochRecord& rec) {
  const VertexId n = overlay_.vertex_count();
  if (n < 2) return;
  for (std::uint64_t i = 0; i < opt_.inserts_per_epoch; ++i) {
    for (std::uint64_t t = 0; t < kInsertTries; ++t) {
      const auto u = static_cast<VertexId>(
          mix(opt_.seed, kSaltInsert, rec.epoch, i, 2 * t) % n);
      const auto v = static_cast<VertexId>(
          mix(opt_.seed, kSaltInsert, rec.epoch, i, 2 * t + 1) % n);
      if (u == v || overlay_.has_edge(u, v)) continue;
      overlay_.insert(u, v);
      live_edges_.push_back(graph::make_edge(u, v));
      ++rec.inserts;
      break;
    }
  }
  for (std::uint64_t i = 0; i < opt_.deletes_per_epoch; ++i) {
    if (live_edges_.empty()) break;
    const std::uint64_t j =
        mix(opt_.seed, kSaltDelete, rec.epoch, i) % live_edges_.size();
    const graph::Edge e = live_edges_[j];
    live_edges_[j] = live_edges_.back();
    live_edges_.pop_back();
    const baselines::RepairReport rep = overlay_.erase_reported(e.u, e.v);
    ++rec.deletes;
    rec.churn_promoted += rep.promoted;
  }
}

MaintenanceEngine::DamageReport MaintenanceEngine::apply_damage(
    EpochRecord& rec, std::vector<VertexId>& region) {
  const VertexId n = overlay_.vertex_count();
  DamageReport dmg;
  dmg.unavailable.assign(n, false);
  if (!opt_.fault_rates.any()) return dmg;
  const sim::FaultPlan plan(mix(opt_.seed, kSaltFault, rec.epoch),
                            opt_.fault_rates);

  // Crash damage, ascending node id: a crashed node loses every incident
  // spanner edge; if it has not restarted by the end of the epoch window it
  // also cannot take part in the patch.
  for (VertexId v = 0; v < n; ++v) {
    const sim::CrashInterval iv = plan.crash_interval(v);
    if (!iv.crashes() || iv.begin > opt_.epoch_rounds) continue;
    ++rec.crashed_nodes;
    if (!(iv.restarts() && iv.end <= opt_.epoch_rounds)) {
      dmg.unavailable[v] = true;
      ++rec.unavailable_nodes;
    }
    const std::vector<VertexId> victims(overlay_.spanner_neighbors(v).begin(),
                                        overlay_.spanner_neighbors(v).end());
    for (const VertexId w : victims) {
      const auto invalidated = overlay_.drop_spanner_edge(v, w);
      region.insert(region.end(), invalidated.begin(), invalidated.end());
      ++rec.dropped_spanner_edges;
    }
  }

  // Link outages over the surviving spanner edges (list snapshotted before
  // any outage drop so the iteration order is well-defined).
  std::vector<graph::Edge> survivors;
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId w : overlay_.spanner_neighbors(u)) {
      if (u < w) survivors.push_back(graph::Edge{u, w});
    }
  }
  for (const graph::Edge& e : survivors) {
    const sim::CrashInterval iv = plan.link_interval(e.u, e.v);
    if (!iv.crashes() || iv.begin > opt_.epoch_rounds) continue;
    const auto invalidated = overlay_.drop_spanner_edge(e.u, e.v);
    region.insert(region.end(), invalidated.begin(), invalidated.end());
    ++rec.link_outages;
    ++rec.dropped_spanner_edges;
  }

  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());
  return dmg;
}

check::Certificate MaintenanceEngine::certify(std::uint64_t epoch) const {
  const graph::Graph host = overlay_.graph_snapshot();
  spanner::Spanner h(host);
  for (VertexId u = 0; u < overlay_.vertex_count(); ++u) {
    for (const VertexId w : overlay_.spanner_neighbors(u)) {
      if (u < w) h.add_edge(u, w);
    }
  }
  check::SpannerCertifyOptions o;
  o.alpha = 2.0 * opt_.k - 1.0;
  o.beta = 0.0;
  o.sample_sources = kCertifySampleSources;
  o.seed = mix(kCertifySeed, kSaltCertify, epoch);
  o.require_connectivity = true;
  return check::certify_spanner(host, h, o);
}

void MaintenanceEngine::escalate(EpochRecord& rec) {
  sim::SupervisorOptions sup;
  sup.rates = opt_.fault_rates;
  sup.fault_seed = mix(opt_.seed, kSaltEscalate, rec.epoch);
  sup.max_attempts_per_tier = kMaxAttemptsPerTier;
  sup.start_tier = kStartTier;
  sup.fibonacci.seed = mix(opt_.seed, kSaltEscalate, rec.epoch, 1);
  sup.fibonacci.exec = opt_.exec;
  sup.fibonacci.exec_threads = opt_.exec_threads;
  sup.skeleton.seed = mix(opt_.seed, kSaltEscalate, rec.epoch, 2);
  sup.skeleton.exec = opt_.exec;
  sup.skeleton.exec_threads = opt_.exec_threads;
  sup.baswana_sen_k = opt_.k;
  sup.certify_sample_sources = kCertifySampleSources;
  sup.certify_seed = mix(kCertifySeed, kSaltEscalate, rec.epoch);

  const graph::Graph host = overlay_.graph_snapshot();
  const sim::SupervisedResult result = sim::supervised_spanner(host, sup);
  rec.escalation_attempts = static_cast<unsigned>(result.attempts.size());
  rec.winning_tier = result.tier;
  std::uint64_t digest = util::kFnvOffset;
  for (const sim::AttemptRecord& a : result.attempts) {
    rec.repair_rounds += a.network.rounds;
    rec.escalation_faults += a.network.faults;
    fold(digest, a.network.trace_digest);
  }
  rec.escalation_digest = digest;

  // Re-seat the supervised structure under the exact 2k-1 contract: adopt
  // its edges as the new base, then greedy-sweep the rest of the graph.
  const std::vector<graph::Edge> base(result.spanner.edges().begin(),
                                      result.spanner.edges().end());
  overlay_.reseed_spanner(base);
}

void MaintenanceEngine::publish(EpochRecord& rec) {
  if (opt_.store == nullptr) return;
  const graph::Graph certified = overlay_.spanner_snapshot();
  opt_.store->publish(rec.epoch, std::make_shared<serve::FlatOracleIndex>(
                                     certified, opt_.oracle_seed));
  rec.published = true;
}

void MaintenanceEngine::fold_record(EpochRecord& rec) {
  std::uint64_t h = util::kFnvOffset;
  fold(h, rec.epoch);
  fold(h, rec.inserts);
  fold(h, rec.deletes);
  fold(h, rec.churn_promoted);
  fold(h, rec.crashed_nodes);
  fold(h, rec.unavailable_nodes);
  fold(h, rec.dropped_spanner_edges);
  fold(h, rec.link_outages);
  fold(h, static_cast<std::uint64_t>(rec.tier));
  fold(h, rec.patch_promoted);
  fold(h, rec.escalation_attempts);
  fold(h, static_cast<std::uint64_t>(rec.winning_tier));
  fold(h, rec.repair_rounds);
  fold(h, rec.escalation_faults.dropped);
  fold(h, rec.escalation_faults.duplicated);
  fold(h, rec.escalation_faults.delayed);
  fold(h, rec.escalation_faults.crashed);
  fold(h, rec.escalation_faults.restarted);
  fold(h, rec.escalation_digest);
  fold(h, rec.certified ? 1u : 0u);
  fold(h, rec.certify_checks);
  fold(h, rec.graph_edges);
  fold(h, rec.spanner_edges);
  rec.trace_digest = h;
  fold(digest_, h);
}

const EpochRecord& MaintenanceEngine::run_epoch() {
  EpochRecord rec;
  rec.epoch = next_epoch_++;
  if (opt_.store != nullptr) opt_.store->begin_epoch(rec.epoch);

  apply_churn(rec);
  std::vector<VertexId> region;
  const DamageReport dmg = apply_damage(rec, region);
  if (!region.empty()) {
    rec.tier = RepairTier::kPatch;
    rec.patch_promoted = overlay_.patch(region, dmg.unavailable);
  }

  check::Certificate cert = certify(rec.epoch);
  if (!cert.ok) {
    rec.tier = RepairTier::kEscalate;
    escalate(rec);
    cert = certify(rec.epoch);  // audit the re-seated overlay independently
  }
  rec.certified = cert.ok;
  rec.certify_checks = cert.checks;
  rec.graph_edges = overlay_.graph_size();
  rec.spanner_edges = overlay_.spanner_size();
  if (rec.certified) publish(rec);

  fold_record(rec);
  history_.push_back(std::move(rec));
  return history_.back();
}

const std::vector<EpochRecord>& MaintenanceEngine::run(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) run_epoch();
  return history_;
}

SloSummary MaintenanceEngine::summary() const {
  SloSummary s;
  std::vector<double> latencies;
  std::uint64_t downtime = 0;
  for (const EpochRecord& rec : history_) {
    if (rec.epoch == 0) continue;  // the initial build is not an epoch
    ++s.epochs;
    latencies.push_back(static_cast<double>(rec.repair_rounds));
    downtime += std::min(rec.repair_rounds, opt_.epoch_rounds);
    switch (rec.tier) {
      case RepairTier::kClean:
        ++s.clean_epochs;
        break;
      case RepairTier::kPatch:
        ++s.patch_epochs;
        break;
      case RepairTier::kEscalate:
        ++s.escalations;
        break;
    }
    s.total_churn += rec.inserts + rec.deletes;
    s.total_damage += rec.dropped_spanner_edges;
    s.escalation_faults += rec.escalation_faults;
  }
  if (s.epochs == 0) return s;
  s.certified_uptime = 1.0 - static_cast<double>(downtime) /
                                 (static_cast<double>(s.epochs) *
                                  static_cast<double>(opt_.epoch_rounds));
  s.repair_p50_rounds =
      static_cast<std::uint64_t>(util::percentile(latencies, 50));
  s.repair_p99_rounds =
      static_cast<std::uint64_t>(util::percentile(std::move(latencies), 99));
  return s;
}

}  // namespace ultra::maintain
