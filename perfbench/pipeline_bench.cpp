// End-to-end spanner-pipeline benchmark: graph -> distributed build ->
// certificate -> oracle index -> queries served, plus overlay maintenance
// under churn and faults. One process runs one workload:
//
//   pipeline_bench --workload skeleton_er|fib_rmat_serve|maintain_churn_faults
//                  --seed N --seconds S --trace 0|1 [--size full|tiny]
//                  [--out DIR]
//
// Every call into a library layer is timed here, from outside src/, and the
// deterministic counts are read from the structs those calls return. A run
// sweeps whole pipeline passes over several seeded instances (see Sizes) and
// reports each instance's fastest pass, scaled to a reference host speed and
// averaged over instances, and the median count over instances. --trace 0
// prints the end-to-end metrics; --trace 1 runs each instance traced, then
// untraced, adds the single-layer probes, and prints the per-layer metrics.
// The last stdout line is the result object; the line before it is the full
// report (identity block, thread counts, error rate), also written to --out.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/distance_oracle.h"
#include "check/certify.h"
#include "core/fib_distortion.h"
#include "core/fibonacci_distributed.h"
#include "core/skeleton.h"
#include "core/skeleton_distributed.h"
#include "graph/generators.h"
#include "harness.h"
#include "maintain/maintenance.h"
#include "serve/flat_index.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/workload.h"
#include "sim/faults.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "sim/supervisor.h"
#include "spanner/evaluate.h"
#include "spanner/spanner.h"
#include "util/rng.h"
#include "util/saturating.h"

namespace perfbench {
namespace {

using ultra::graph::Graph;
using ultra::graph::VertexId;
namespace sim = ultra::sim;
namespace core = ultra::core;
namespace serve = ultra::serve;
namespace check = ultra::check;
namespace spanner = ultra::spanner;
namespace maintain = ultra::maintain;

constexpr std::uint32_t kCertifySources = 16;
constexpr std::uint32_t kStretchSources = 16;
constexpr std::uint64_t kSampleEvery = 16;  // latency sampling period (ops)
constexpr std::uint64_t kOracleSeed = 7;    // MaintenanceOptions' default

// Host speed. A shared host runs this process up to a quarter slower in one
// run than in the next, and slower or faster for seconds at a time within a
// run, and every phase slows alike. So each pass starts with
// calibration_loop_s(), and its times are scaled by kReferenceCalibrationS /
// (the median loop time of the passes within kCalibrationWindow of it), its
// rates by the inverse. Times not taken per pass (latency percentiles, the
// traced probes) are scaled by the run's median loop time instead. A result
// then reads in seconds at the speed of the quiet 4-core Xeon host the
// benchmark was tuned on, where the loop's median was this long. The report
// carries the run's calibration and scale.
constexpr double kReferenceCalibrationS = 1.6e-3;
constexpr std::size_t kCalibrationWindow = 5;
constexpr double kSlowInstanceFactor = 4.0;  // see run_benchmark

// Every workload reports every metric; BENCHMARK.json lists the same names
// and units (perfbench/run.py refuses a result whose set differs). A
// per-layer metric of a layer the workload does not run stays 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"pipeline_s", "s"},
    {"build_s", "s"},          {"certify_s", "s"},
    {"index_s", "s"},          {"qps", "ops/s"},
    {"query_p50_us", "us"},    {"query_p99_us", "us"},
    {"peak_rss_mb", "MiB"},    {"sim_rounds", "rounds"},
    {"sim_words", "words"},    {"spanner_edges_per_n", "edges/n"},
    {"stretch_max", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.bytes_computed", "bytes"},
    {"mem.rss_after_graph_mb", "MiB"},
    {"mem.rss_after_build_mb", "MiB"},
    {"mem.rss_after_certify_mb", "MiB"},
    {"mem.rss_after_index_mb", "MiB"},
    {"sim.rounds", "rounds"},
    {"sim.messages", "count"},
    {"sim.words", "words"},
    {"sim.max_msg_words", "words"},
    {"sim.msgs_per_s", "1/s"},
    {"sim.flood_s", "s"},
    {"sim.barrier_msgs_per_s", "1/s"},
    {"sim.build_seq_s", "s"},
    {"sim.build_par_s", "s"},
    {"sim.parallel_speedup", "ratio"},
    {"sim.fault.dropped", "count"},
    {"sim.fault.duplicated", "count"},
    {"sim.fault.delayed", "count"},
    {"sim.fault.crashed", "count"},
    {"sim.fault.restarted", "count"},
    {"core.skeleton.expand_calls", "count"},
    {"core.skeleton.broadcast_rounds", "rounds"},
    {"core.skeleton.status_rounds", "rounds"},
    {"core.skeleton.gather_rounds", "rounds"},
    {"core.skeleton.resolve_rounds", "rounds"},
    {"core.skeleton.contraction_rounds", "rounds"},
    {"core.skeleton.joins", "count"},
    {"core.skeleton.deaths", "count"},
    {"core.skeleton.aborts", "count"},
    {"core.skeleton.cap_words", "words"},
    {"core.skeleton.distortion_bound", "ratio"},
    {"core.fib.order", "count"},
    {"core.fib.ell", "hops"},
    {"core.fib.cap_words", "words"},
    {"core.fib.stage1_rounds", "rounds"},
    {"core.fib.stage2_rounds", "rounds"},
    {"core.fib.marking_rounds", "rounds"},
    {"core.fib.repair_rounds", "rounds"},
    {"core.fib.ceased_nodes", "count"},
    {"core.fib.failures_detected", "count"},
    {"core.fib.repair_edges", "edges"},
    {"spanner.edges", "edges"},
    {"spanner.size_over_lemma6", "ratio"},
    {"check.certify_s", "s"},
    {"check.checks", "count"},
    {"check.sources", "count"},
    {"check.coverage", "share"},
    {"apps.oracle_build_s", "s"},
    {"apps.landmarks", "count"},
    {"apps.space_words", "words"},
    {"apps.avg_bunch", "entries"},
    {"serve.flatten_s", "s"},
    {"serve.index_space_words", "words"},
    {"serve.bunch_entries", "entries"},
    {"serve.index_digest", "digest53"},
    {"serve.qps_1t", "ops/s"},
    {"serve.thread_speedup", "ratio"},
    {"serve.latency_samples", "count"},
    {"serve.scanned_entries", "entries"},
    {"serve.unreachable", "count"},
    {"serve.acquire_us", "us"},
    {"maintain.rebuild_s", "s"},
    {"maintain.epoch_p50_ms", "ms"},
    {"maintain.epoch_max_ms", "ms"},
    {"maintain.epochs_per_s", "1/s"},
    {"maintain.clean_epochs", "count"},
    {"maintain.patch_epochs", "count"},
    {"maintain.escalate_epochs", "count"},
    {"maintain.escalation_attempts", "count"},
    {"maintain.repair_p50_rounds", "rounds"},
    {"maintain.repair_p99_rounds", "rounds"},
    {"maintain.certified_uptime", "share"},
    {"maintain.published_snapshots", "count"},
    {"maintain.damage_edges", "edges"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

// ---- workload definitions --------------------------------------------------

// One run measures `instances` seeded inputs derived from --seed (instance p
// uses seed * instances + p, so no two seeds share an input) and sweeps over
// all of them again and again. A single input swings build time and the
// round and word counts by tens of percent from seed to seed (the Fibonacci
// build's round count is heavy-tailed, and a few Fibonacci spanners and
// maintained overlays come out far sparser than the rest), so counts are
// medians over the instances. On a shared host the same pass over the same
// input takes up to a third longer in one second than in the next, and
// memory-bound work swings more, so the inputs are small enough that each
// call's working set stays in a core's private L2 (about 2 MiB), every timed
// call runs on one thread, and a time is each instance's fastest sweep (see
// run_benchmark). A sweep takes a few seconds, so a run makes several. That
// also bounds the Fibonacci build's rare slow input: its centralized repair
// step costs failures x ball size, and on R-MAT graphs with 16 draws per
// vertex single builds took tens of seconds instead of a tenth of one.
struct Sizes {
  VertexId n = 0;
  std::uint64_t m = 0;          // edges (ER) or edge draws (R-MAT)
  std::uint64_t ops = 0;        // served ops per pass (per epoch on maintain)
  std::uint64_t epochs = 0;     // maintain only
  std::uint64_t instances = 0;  // seeded inputs per run
};

Sizes sizes_for(const std::string& workload, bool tiny) {
  if (workload == "skeleton_er") {
    return tiny ? Sizes{1u << 10, 1u << 13, 20000, 0, 2}
                : Sizes{1u << 11, 1u << 14, 250000, 0, 32};
  }
  if (workload == "fib_rmat_serve") {
    return tiny ? Sizes{1u << 10, 1u << 13, 20000, 0, 2}
                : Sizes{1u << 11, 1u << 14, 100000, 0, 24};
  }
  return tiny ? Sizes{256, 1024, 5000, 4, 2} : Sizes{256, 1024, 20000, 8, 16};
}

sim::FaultRates maintain_fault_rates() {
  sim::FaultRates r;
  r.crash = 0.004;
  r.restart = 0.7;
  r.link_down = 0.002;
  r.drop = 0.01;
  r.delay = 0.01;
  r.duplicate = 0.005;
  return r;
}

serve::WorkloadSpec query_spec(const std::string& workload, std::uint64_t seed) {
  serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.point_pct = 90;
  spec.route_pct = 0;  // routing tables are quadratic; routes stay off
  spec.scan_pct = 10;
  spec.dist = workload == "skeleton_er" ? serve::KeyDist::kUniform
                                        : serve::KeyDist::kZipfian;
  spec.theta = 0.99;
  return spec;
}

// The tightest single (alpha, 0) line over Theorem 7's per-distance bound,
// computed the way the supervisor certifies its Fibonacci tier.
double fib_alpha(std::uint32_t ell, unsigned order, std::uint64_t n) {
  const double vacuous = static_cast<double>(std::max<std::uint64_t>(2, n));
  if (order == 0 || ell <= 2) return vacuous;
  double alpha = 1.0;
  for (std::uint64_t d = 1; d <= (n > 1 ? n - 1 : 1); ++d) {
    const std::uint64_t b = core::fib_pair_bound(ell, order, d);
    if (b == ultra::util::kSaturated) return vacuous;
    alpha = std::max(alpha, static_cast<double>(b) / static_cast<double>(d));
  }
  return std::min(alpha, vacuous);
}

// ---- run state -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir;
};

// One pass's timings over one instance (see run_benchmark for how they
// become the reported times).
struct Pass {
  std::size_t instance = 0;
  bool traced = false;
  double setup_s = 0, generate_s = 0, build_s = 0, certify_s = 0;
  double index_s = 0, oracle_s = 0, flatten_s = 0, acquire_us = 0;
  double rebuild_s = 0;  // maintain: the supervised rebuild
  double pipeline_s = 0;
  double cal_s = 0;       // calibration loop run just before the pass
  double time_scale = 1;  // see kReferenceCalibrationS
  int cpu = -1;           // the CPU the pass was pinned to, -1 if none
  std::vector<double> qps;      // one per serve run
  std::vector<double> cycle_s;  // maintain: one per epoch
};

// What must repeat exactly whenever an instance is run again.
struct Identity {
  std::uint64_t build_digest = 0;
  std::uint64_t index_digest = 0;
  std::uint64_t query_checksum = 0;
  std::uint64_t maintain_digest = 0;
  bool operator==(const Identity&) const = default;
};

// One seeded input and the deterministic results of its first pass.
struct Instance {
  std::uint64_t seed = 0;
  Identity id;
  Metrics layer{kPerLayer};
  double sim_rounds = 0, sim_words = 0, edges_per_n = 0, stretch_max = 0;
};

struct Run {
  Args args;
  Sizes sz;
  unsigned cores = 1;
  unsigned build_threads = 1;       // parallel-executor workers, probe only
  unsigned serve_threads = 1;       // QueryEngine workers of timed serves
  unsigned serve_threads_used = 0;  // as resolved by QueryEngine
  unsigned probe_serve_threads = 1; // QueryEngine workers of the probe
  double calibration_s = 0;         // median calibration loop of the run
  double time_scale = 1;            // kReferenceCalibrationS / calibration_s
  Tracer tracer;
  Ledger ledger;
  std::vector<Instance> instances;
  std::vector<Pass> passes;
  LatencyHistogram latencies;

  // The last pass's inputs, kept for the traced single-layer probes.
  std::unique_ptr<Graph> probe_graph;
  std::shared_ptr<const serve::FlatOracleIndex> probe_index;
  const Instance* probe_instance = nullptr;
  std::uint64_t probe_checksum = 0;
  std::function<std::uint64_t(sim::ExecutionMode, unsigned)> rebuild;
};

template <class F>
double timed(Run& run, const char* span, F&& f) {
  const Tracer::Scope scope(run.tracer, span);
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

void record_identity(Run& run, Instance& inst, const Identity& id,
                     bool first) {
  if (first) {
    inst.id = id;
    return;
  }
  run.ledger.check(inst.id == id, "instance seed " + std::to_string(inst.seed) +
                                      ": identity repeats across passes");
}

// Certify `h` against (alpha, 0) and measure its sampled stretch.
void certify_and_evaluate(Run& run, Pass& pass, Instance& inst, bool first,
                          const Graph& g, const spanner::Spanner& h,
                          double alpha) {
  check::SpannerCertifyOptions copt;
  copt.alpha = alpha;
  copt.beta = 0.0;
  copt.sample_sources = kCertifySources;
  copt.seed = inst.seed;
  copt.require_connectivity = true;
  check::Certificate cert;
  pass.certify_s = timed(run, "check.certify_spanner",
                         [&] { cert = check::certify_spanner(g, h, copt); });
  run.ledger.check(cert.ok, "certify_spanner accepts (alpha=" +
                                std::to_string(alpha) + ") " + cert.violation);

  spanner::DistortionReport rep;
  timed(run, "spanner.evaluate_sampled", [&] {
    ultra::util::Rng rng(inst.seed);
    rep = spanner::evaluate_sampled(g, h, kStretchSources, rng);
  });
  run.ledger.check(rep.max_mult <= alpha && rep.connectivity_preserved,
                   "sampled stretch " + std::to_string(rep.max_mult) +
                       " within certified alpha " + std::to_string(alpha));
  if (!first) return;
  inst.stretch_max = rep.max_mult;
  inst.layer.set("check.checks", static_cast<double>(cert.checks));
  inst.layer.set("check.sources", kCertifySources);
  inst.layer.set("check.coverage",
                 static_cast<double>(kCertifySources) / g.num_vertices());
  inst.layer.set("spanner.edges", static_cast<double>(h.size()));
  inst.layer.set("spanner.size_over_lemma6",
                 static_cast<double>(h.size()) /
                     core::predicted_skeleton_size(g.num_vertices(), 4));
}

// spanner -> graph -> oracle -> flat index, published into `store`, then
// acquired the way a reader does. Sets pass.index_s and pass.acquire_us.
std::shared_ptr<const serve::FlatOracleIndex> build_index(
    Run& run, Pass& pass, Instance& inst, bool first,
    const spanner::Spanner& h, serve::SnapshotStore& store) {
  std::optional<ultra::apps::DistanceOracle> oracle;
  std::shared_ptr<const serve::FlatOracleIndex> flat;
  {
    Graph sg;
    const double to_graph_s =
        timed(run, "spanner.to_graph", [&] { sg = h.to_graph(); });
    pass.oracle_s = timed(run, "apps.DistanceOracle",
                          [&] { oracle.emplace(sg, kOracleSeed); });
    pass.flatten_s = timed(run, "serve.FlatOracleIndex", [&] {
      flat = std::make_shared<const serve::FlatOracleIndex>(*oracle);
    });
    pass.index_s = to_graph_s + pass.oracle_s + pass.flatten_s;
  }
  if (first) {
    inst.layer.set("apps.landmarks",
                   static_cast<double>(oracle->num_landmarks()));
    inst.layer.set("apps.space_words",
                   static_cast<double>(oracle->space_words()));
    inst.layer.set("apps.avg_bunch", oracle->average_bunch_size());
    inst.layer.set("serve.index_space_words",
                   static_cast<double>(flat->space_words()));
    inst.layer.set("serve.bunch_entries",
                   static_cast<double>(flat->num_bunch_entries()));
    // Top 53 bits, so the value is exact as a JSON double.
    inst.layer.set("serve.index_digest",
                   static_cast<double>(flat->digest() >> 11));
  }
  oracle.reset();
  store.publish(1, flat);
  serve::SnapshotStore::View view;
  pass.acquire_us = 1e6 * timed(run, "serve.SnapshotStore.acquire",
                                [&] { view = store.acquire(); });
  run.ledger.check(view.index == flat && !view.stale(),
                   "snapshot store serves the published index");
  return view.index;
}

// Closed-loop serve: `threads` workers, each claiming its next 1024-op batch
// after finishing the last. A small untimed warm-up starts the pool and
// warms the index first.
serve::ServeResult serve_ops(Run& run, const serve::FlatOracleIndex& index,
                             std::uint64_t seed, unsigned threads,
                             LatencyHistogram* latencies,
                             double* wall_s) {
  const serve::WorkloadGen wl(query_spec(run.args.workload, seed),
                              index.num_vertices());
  serve::EngineOptions eopt;
  eopt.threads = threads;
  eopt.batch_ops = 1024;
  eopt.sample_every = kSampleEvery;
  serve::QueryEngine engine(index, nullptr, eopt);
  if (threads == run.serve_threads) {
    run.serve_threads_used = engine.worker_threads();
  }
  (void)engine.run(wl, std::min<std::uint64_t>(run.sz.ops, 4096ull * threads));
  SteadyTicks ticks;
  serve::ServeResult res;
  *wall_s = timed(run, "serve.QueryEngine.run",
                  [&] { res = engine.run(wl, run.sz.ops, &ticks); });
  run.ledger.check(res.ops == run.sz.ops, "serve run completes every op");
  if (latencies) latencies->add(res.latencies_ns);
  return res;
}

void note_serve_layer(Instance& inst, const serve::ServeResult& res) {
  inst.layer.set("serve.scanned_entries",
                 static_cast<double>(res.scanned_entries));
  inst.layer.set("serve.unreachable", static_cast<double>(res.unreachable));
}

void note_sim_layer(Instance& inst, const sim::Metrics& m, double build_s) {
  inst.layer.set("sim.rounds", static_cast<double>(m.rounds));
  inst.layer.set("sim.messages", static_cast<double>(m.messages));
  inst.layer.set("sim.words", static_cast<double>(m.total_words));
  inst.layer.set("sim.max_msg_words", static_cast<double>(m.max_message_words));
  inst.layer.set("sim.msgs_per_s", static_cast<double>(m.messages) / build_s);
  inst.layer.set("mem.rss_after_build_mb", peak_rss_mb());
}

void note_graph_layer(Instance& inst, const Graph& g) {
  const double n = g.num_vertices();
  const double m = static_cast<double>(g.num_edges());
  // offsets_ (n+1 x u64) + adjacency_ (2m x u32) + edges_ (m x 2 u32).
  inst.layer.set("graph.bytes_computed", 8 * (n + 1) + 4 * 2 * m + 8 * m);
  inst.layer.set("mem.rss_after_graph_mb", peak_rss_mb());
}

// ---- skeleton_er / fib_rmat_serve: one static pipeline pass ----------------

struct Built {
  std::optional<spanner::Spanner> spanner;
  double alpha = 0;
  sim::Metrics network;
  std::uint64_t cap_words = 0;
};

// `inst` receives the protocol's per-phase counts; null for probe rebuilds.
Built build_skeleton(const Graph& g, std::uint64_t seed,
                     sim::ExecutionMode exec, unsigned threads,
                     Instance* inst) {
  core::SkeletonParams p;
  p.D = 4;
  p.eps = 1.0;
  p.seed = seed;
  p.audit = sim::AuditMode::kStrict;
  p.exec = exec;
  p.exec_threads = threads;
  core::DistributedSkeletonResult res = core::build_skeleton_distributed(g, p);
  Built b;
  b.alpha = static_cast<double>(res.schedule.distortion_bound);
  b.network = res.network;
  b.cap_words = res.message_cap_words;
  if (inst) {
    const core::ClusterProtocolStats& s = res.protocol;
    Metrics& l = inst->layer;
    l.set("core.skeleton.expand_calls", s.expand_calls);
    l.set("core.skeleton.broadcast_rounds", s.broadcast_rounds);
    l.set("core.skeleton.status_rounds", s.status_rounds);
    l.set("core.skeleton.gather_rounds", s.gather_rounds);
    l.set("core.skeleton.resolve_rounds", s.resolve_rounds);
    l.set("core.skeleton.contraction_rounds", s.contraction_rounds);
    l.set("core.skeleton.joins", s.joins);
    l.set("core.skeleton.deaths", s.deaths);
    l.set("core.skeleton.aborts", s.aborts);
    l.set("core.skeleton.cap_words", res.message_cap_words);
    l.set("core.skeleton.distortion_bound", b.alpha);
  }
  b.spanner.emplace(std::move(res.spanner));
  return b;
}

Built build_fibonacci(const Graph& g, std::uint64_t seed,
                      sim::ExecutionMode exec, unsigned threads,
                      Instance* inst) {
  core::FibonacciParams p;
  p.order = 2;
  p.eps = 1.0;
  p.message_t = 3.0;
  p.seed = seed;
  p.audit = sim::AuditMode::kStrict;
  p.exec = exec;
  p.exec_threads = threads;
  core::DistributedFibonacciResult res = core::build_fibonacci_distributed(g, p);
  Built b;
  b.alpha = fib_alpha(res.levels.ell, res.levels.order, g.num_vertices());
  b.network = res.network;
  b.cap_words = res.message_cap_words;
  if (inst) {
    const core::DistributedFibonacciStats& s = res.stats;
    Metrics& l = inst->layer;
    l.set("core.fib.order", res.levels.order);
    l.set("core.fib.ell", res.levels.ell);
    l.set("core.fib.cap_words", res.message_cap_words);
    l.set("core.fib.stage1_rounds", s.stage1_rounds);
    l.set("core.fib.stage2_rounds", s.stage2_rounds);
    l.set("core.fib.marking_rounds", s.marking_rounds);
    l.set("core.fib.repair_rounds", s.repair_rounds);
    l.set("core.fib.ceased_nodes", s.ceased_nodes);
    l.set("core.fib.failures_detected", s.failures_detected);
    l.set("core.fib.repair_edges", s.repair_edges);
  }
  b.spanner.emplace(std::move(res.spanner));
  return b;
}

void static_pass(Run& run, Pass& pass, Instance& inst, bool first) {
  const bool skeleton = run.args.workload == "skeleton_er";
  const auto t_pass = Clock::now();
  auto g = std::make_unique<Graph>();
  pass.setup_s = timed(run, "graph.generate", [&] {
    ultra::util::Rng rng(inst.seed);
    *g = skeleton ? ultra::graph::connected_gnm(run.sz.n, run.sz.m, rng)
                  : ultra::graph::rmat_graph(run.sz.n, run.sz.m, rng);
  });
  pass.generate_s = pass.setup_s;
  if (first) note_graph_layer(inst, *g);

  // Timed builds run on the sequential executor: a round of the parallel one
  // waits for its slowest lane, which on a shared host measures the
  // scheduler. The traced probes time the parallel executor.
  const sim::ExecutionMode exec = sim::ExecutionMode::kSequential;
  Instance* counts = first ? &inst : nullptr;
  Built b;
  pass.build_s = timed(run,
                       skeleton ? "core.build_skeleton_distributed"
                                : "core.build_fibonacci_distributed",
                       [&] {
                         b = skeleton ? build_skeleton(*g, inst.seed, exec, 1,
                                                       counts)
                                      : build_fibonacci(*g, inst.seed, exec, 1,
                                                        counts);
                       });
  run.ledger.check(b.network.max_message_words <= b.cap_words,
                   "build messages within the word cap");
  if (first) {
    note_sim_layer(inst, b.network, pass.build_s);
    inst.sim_rounds = static_cast<double>(b.network.rounds);
    inst.sim_words = static_cast<double>(b.network.total_words);
    inst.edges_per_n =
        static_cast<double>(b.spanner->size()) / g->num_vertices();
  }

  certify_and_evaluate(run, pass, inst, first, *g, *b.spanner, b.alpha);
  if (first) inst.layer.set("mem.rss_after_certify_mb", peak_rss_mb());

  serve::SnapshotStore store;
  const std::shared_ptr<const serve::FlatOracleIndex> index =
      build_index(run, pass, inst, first, *b.spanner, store);
  if (first) inst.layer.set("mem.rss_after_index_mb", peak_rss_mb());

  double wall = 0;
  const serve::ServeResult res = serve_ops(run, *index, inst.seed,
                                           run.serve_threads,
                                           &run.latencies, &wall);
  pass.qps.push_back(static_cast<double>(res.ops) / wall);
  if (first) note_serve_layer(inst, res);
  pass.pipeline_s = seconds_since(t_pass);

  record_identity(run, inst,
                  {b.network.trace_digest, index->digest(), res.checksum, 0},
                  first);

  run.probe_graph = std::move(g);
  run.probe_index = index;
  run.probe_instance = &inst;
  run.probe_checksum = res.checksum;
  run.rebuild = [&run, skeleton, seed = inst.seed](sim::ExecutionMode mode,
                                                   unsigned t) {
    const Graph& pg = *run.probe_graph;
    const Built r = skeleton ? build_skeleton(pg, seed, mode, t, nullptr)
                             : build_fibonacci(pg, seed, mode, t, nullptr);
    return r.network.trace_digest;
  };
}

// ---- maintain_churn_faults: one engine lifetime ----------------------------

// The from-scratch rebuild an escalation runs: the supervisor's retry ladder
// over the faulty barrier, starting at the skeleton tier.
sim::SupervisorOptions supervisor_options(std::uint64_t seed,
                                          sim::ExecutionMode exec,
                                          unsigned threads) {
  sim::SupervisorOptions sup;
  sup.rates = maintain_fault_rates();
  sup.fault_seed = seed;
  sup.max_attempts_per_tier = 2;
  sup.start_tier = sim::FallbackTier::kSkeleton;
  sup.skeleton.seed = seed;
  sup.skeleton.exec = exec;
  sup.skeleton.exec_threads = threads;
  sup.fibonacci.exec = exec;
  sup.fibonacci.exec_threads = threads;
  sup.baswana_sen_k = 3;
  sup.certify_sample_sources = kCertifySources;
  sup.certify_seed = seed;
  return sup;
}

std::uint64_t attempts_digest(const sim::SupervisedResult& r) {
  std::uint64_t d = 14695981039346656037ull;
  for (const sim::AttemptRecord& a : r.attempts) {
    d = (d ^ a.network.trace_digest) * 1099511628211ull;
  }
  return d;
}

void note_maintain_layer(Instance& inst, const maintain::MaintenanceEngine& e,
                         std::uint64_t published) {
  const maintain::SloSummary slo = e.summary();
  const sim::Metrics::FaultCounters& f = slo.escalation_faults;
  std::uint64_t attempts = 0;
  for (const maintain::EpochRecord& r : e.history()) {
    attempts += r.escalation_attempts;
  }
  Metrics& l = inst.layer;
  l.set("sim.fault.dropped", f.dropped);
  l.set("sim.fault.duplicated", f.duplicated);
  l.set("sim.fault.delayed", f.delayed);
  l.set("sim.fault.crashed", f.crashed);
  l.set("sim.fault.restarted", f.restarted);
  l.set("maintain.clean_epochs", slo.clean_epochs);
  l.set("maintain.patch_epochs", slo.patch_epochs);
  l.set("maintain.escalate_epochs", slo.escalations);
  l.set("maintain.escalation_attempts", attempts);
  l.set("maintain.repair_p50_rounds", slo.repair_p50_rounds);
  l.set("maintain.repair_p99_rounds", slo.repair_p99_rounds);
  l.set("maintain.certified_uptime", slo.certified_uptime);
  l.set("maintain.published_snapshots", published);
  l.set("maintain.damage_edges", slo.total_damage);
}

void maintain_pass(Run& run, Pass& pass, Instance& inst, bool first) {
  const auto t_pass = Clock::now();
  auto g = std::make_unique<Graph>();
  serve::SnapshotStore store;
  maintain::MaintenanceOptions mopt;
  mopt.k = 3;
  mopt.seed = inst.seed;
  mopt.epoch_rounds = 32;
  mopt.inserts_per_epoch = 32;
  mopt.deletes_per_epoch = 16;
  mopt.fault_rates = maintain_fault_rates();
  mopt.exec = sim::ExecutionMode::kSequential;
  mopt.exec_threads = 1;
  mopt.store = &store;
  mopt.oracle_seed = kOracleSeed;
  std::optional<maintain::MaintenanceEngine> engine;
  pass.setup_s = timed(run, "graph.generate", [&] {
    ultra::util::Rng rng(inst.seed);
    *g = ultra::graph::connected_gnm(run.sz.n, run.sz.m, rng);
  });
  pass.generate_s = pass.setup_s;
  if (first) note_graph_layer(inst, *g);
  // The engine's constructor is the build a user of it waits for: initial
  // spanner, certificate and epoch-0 publish.
  pass.build_s = timed(run, "maintain.MaintenanceEngine",
                       [&] { engine.emplace(*g, mopt); });

  // The escalation path on its own: the supervised rebuild under the epoch
  // faults. Its time is per-layer only: whenever the host was busy it slowed
  // about twice as much as the other phases, past what the host-speed scale
  // corrects.
  std::optional<sim::SupervisedResult> built;
  pass.rebuild_s = timed(run, "sim.supervised_spanner", [&] {
    built.emplace(sim::supervised_spanner(
        *g, supervisor_options(inst.seed, sim::ExecutionMode::kSequential, 1)));
  });
  sim::Metrics net;
  for (const sim::AttemptRecord& a : built->attempts) net.merge(a.network);
  if (first) note_sim_layer(inst, net, pass.rebuild_s);
  certify_and_evaluate(run, pass, inst, first, *g, built->spanner,
                       built->certified_alpha);
  if (first) inst.layer.set("mem.rss_after_certify_mb", peak_rss_mb());
  {
    serve::SnapshotStore scratch;
    (void)build_index(run, pass, inst, first, built->spanner, scratch);
  }
  if (first) inst.layer.set("mem.rss_after_index_mb", peak_rss_mb());

  // Epoch loop: churn + damage + repair + certify + publish, then serve the
  // freshly acquired view.
  std::uint64_t checksum_chain = 14695981039346656037ull;
  std::uint64_t published = 0;
  serve::ServeResult last;
  std::shared_ptr<const serve::FlatOracleIndex> last_index;
  for (std::uint64_t e = 0; e < run.sz.epochs; ++e) {
    const Tracer::Scope epoch_scope(run.tracer, "maintain.epoch");
    const auto t_epoch = Clock::now();
    const maintain::EpochRecord* rec = nullptr;
    timed(run, "maintain.run_epoch", [&] { rec = &engine->run_epoch(); });
    run.ledger.check(rec->certified,
                     "epoch " + std::to_string(rec->epoch) + " certified");
    if (rec->published) ++published;
    serve::SnapshotStore::View view;
    timed(run, "serve.SnapshotStore.acquire", [&] { view = store.acquire(); });
    run.ledger.check(view.index != nullptr && !view.stale(),
                     "certified epoch serves a fresh snapshot");
    double wall = 0;
    last = serve_ops(run, *view.index, inst.seed + e, run.serve_threads,
                     &run.latencies, &wall);
    pass.qps.push_back(static_cast<double>(last.ops) / wall);
    checksum_chain = (checksum_chain ^ last.checksum) * 1099511628211ull;
    last_index = view.index;
    pass.cycle_s.push_back(seconds_since(t_epoch));
  }
  pass.pipeline_s = seconds_since(t_pass);

  if (first) {
    // The rebuild's rounds, not the epochs' escalation rounds: a run sees
    // only about a hundred escalations, too few for their sum to repeat
    // from seed to seed (maintain.repair_p50/p99_rounds report them).
    inst.sim_rounds = static_cast<double>(net.rounds);
    inst.sim_words = static_cast<double>(net.total_words);
    inst.edges_per_n = static_cast<double>(engine->overlay().spanner_size()) /
                       g->num_vertices();
    // The maintained contract is the final overlay's stretch (2k - 1).
    const Graph host = engine->overlay().graph_snapshot();
    const Graph kept = engine->overlay().spanner_snapshot();
    spanner::Spanner overlay(host);
    for (const auto& edge : kept.edges()) overlay.add_edge(edge);
    ultra::util::Rng rng(inst.seed);
    const spanner::DistortionReport rep =
        spanner::evaluate_sampled(host, overlay, kStretchSources, rng);
    run.ledger.check(rep.max_mult <= 2.0 * mopt.k - 1.0,
                     "final overlay stretch within 2k-1");
    inst.stretch_max = rep.max_mult;
    inst.layer.set("spanner.edges", static_cast<double>(overlay.size()));
    inst.layer.set("spanner.size_over_lemma6",
                   static_cast<double>(overlay.size()) /
                       core::predicted_skeleton_size(host.num_vertices(), 4));
    note_maintain_layer(inst, *engine, published);
    note_serve_layer(inst, last);
  }

  record_identity(run, inst,
                  {attempts_digest(*built), last_index->digest(),
                   checksum_chain, engine->trace_digest()},
                  first);

  run.probe_graph = std::move(g);
  run.probe_index = last_index;
  run.probe_instance = &inst;
  run.probe_checksum = last.checksum;
  run.rebuild = [&run, seed = inst.seed](sim::ExecutionMode mode, unsigned t) {
    return attempts_digest(sim::supervised_spanner(
        *run.probe_graph, supervisor_options(seed, mode, t)));
  };
}

// ---- single-layer probes (traced runs only) --------------------------------

// One all-broadcast round through the fault-free barrier: 2m messages.
double barrier_msgs_per_s(const Graph& g) {
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Network net(g, 1, sim::AuditMode::kStrict,
                     sim::ExecutionMode::kSequential, 1);
    sim::detail::BarrierBench::begin_round(net);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      sim::Mailbox mb(net, v);
      mb.send_all({sim::Word{v}});
    }
    const auto t0 = Clock::now();
    sim::detail::BarrierBench::deliver(net);
    rates.push_back(2.0 * static_cast<double>(g.num_edges()) /
                    seconds_since(t0));
  }
  return median(rates);
}

void layer_probes(Run& run, Metrics& l, double qps_1t) {
  const Graph& g = *run.probe_graph;

  // Transport-only probe: BFS flood over the same graph and executor.
  {
    sim::Network net(g, 1, sim::AuditMode::kStrict,
                     sim::ExecutionMode::kSequential, 1);
    sim::BfsFlood flood(0);
    sim::RunOutcome out;
    const double s = timed(run, "sim.BfsFlood", [&] {
      out = net.run_outcome(flood, {.max_rounds = 8ull * g.num_vertices() + 64,
                                    .protocol_name = "bfs_flood"});
    });
    run.ledger.check(out.completed(), "bfs flood probe completes");
    l.set("sim.flood_s", s);
  }
  {
    const Tracer::Scope scope(run.tracer, "sim.BarrierBench");
    l.set("sim.barrier_msgs_per_s", barrier_msgs_per_s(g));
  }

  // The same build on both executors; the trace must not depend on it.
  std::uint64_t seq_digest = 0, par_digest = 0;
  const double seq_s = timed(run, "sim.build_sequential", [&] {
    seq_digest = run.rebuild(sim::ExecutionMode::kSequential, 1);
  });
  const double par_s = timed(run, "sim.build_parallel", [&] {
    par_digest = run.rebuild(sim::ExecutionMode::kParallel, run.build_threads);
  });
  run.ledger.check(seq_digest == par_digest &&
                       seq_digest == run.probe_instance->id.build_digest,
                   "build trace identical on sequential and parallel executors");
  l.set("sim.build_seq_s", seq_s);
  l.set("sim.build_par_s", par_s);
  l.set("sim.parallel_speedup", seq_s / par_s);

  // nproc-thread serve of the last serve run's ops and index.
  const std::uint64_t seed =
      run.probe_instance->seed + (run.sz.epochs == 0 ? 0 : run.sz.epochs - 1);
  double wall = 0;
  const serve::ServeResult many = serve_ops(
      run, *run.probe_index, seed, run.probe_serve_threads, nullptr, &wall);
  run.ledger.check(many.checksum == run.probe_checksum,
                   "multi-thread checksum equals the 1-thread checksum");
  l.set("serve.qps_1t", qps_1t);
  l.set("serve.thread_speedup", static_cast<double>(many.ops) / wall / qps_1t);
}

// ---- driver ---------------------------------------------------------------

int usage() {
  std::cerr << "usage: pipeline_bench --workload skeleton_er|fib_rmat_serve|"
               "maintain_churn_faults --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--out DIR]\n";
  return 2;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") return false;
      a->tiny = v == "tiny";
    } else if (k == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return a->workload == "skeleton_er" || a->workload == "fib_rmat_serve" ||
         a->workload == "maintain_churn_faults";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Untraced: whole sweeps over the instances (each repeat checks its
// identity), at least two, and no further sweep once the next one would end
// past --seconds. Each sweep starts pinned to the CPU that runs the
// calibration loop fastest at that moment. From the third sweep on, an
// instance whose fastest pass so far took over kSlowInstanceFactor times the
// median instance's is skipped: its time sits in the top quarter the
// interquartile mean trims anyway, and one Fibonacci input could take 5 s a
// pass, which left a run two sweeps instead of six. Traced: instances in
// order, round and round, each twice in a row, traced then untraced, until
// --seconds have passed (at least two instances); the pair's time ratio is
// the tracing overhead.
Metrics run_benchmark(Run& run) {
  const bool maintain_wl = run.args.workload == "maintain_churn_faults";
  const std::size_t count = run.sz.instances;
  run.instances.resize(count);
  for (std::size_t p = 0; p < count; ++p) {
    run.instances[p].seed = run.args.seed * count + p;
  }
  std::vector<bool> seen(count, false);
  int cpu = -1;
  auto run_pass = [&](std::size_t p, bool traced) -> const Pass& {
    Pass pass;
    pass.cal_s = calibration_loop_s();
    pass.cpu = cpu;
    pass.instance = p;
    pass.traced = traced;
    run.tracer.set_enabled(traced);
    const bool first = !seen[p];
    seen[p] = true;
    if (maintain_wl) {
      maintain_pass(run, pass, run.instances[p], first);
    } else {
      static_pass(run, pass, run.instances[p], first);
    }
    run.passes.push_back(std::move(pass));
    return run.passes.back();
  };
  const auto t0 = Clock::now();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool can_pin = sched_getaffinity(0, sizeof(allowed), &allowed) == 0;
  if (run.args.trace) {
    for (std::size_t i = 0;; ++i) {
      if (i % 2 == 0 && i >= 4 &&
          (seconds_since(t0) >= run.args.seconds || i >= 128 * count)) {
        // The counts average over the instances the run visited.
        run.instances.resize(std::min(count, i / 2));
        break;
      }
      run_pass(i / 2 % count, i % 2 == 0);
    }
  } else {
    std::vector<double> fastest_pass(count, 0);
    double sweep_s = 0;  // the last sweep's wall time
    for (std::size_t sweep = 0;; ++sweep) {
      if (sweep >= 2 && (seconds_since(t0) + sweep_s > run.args.seconds ||
                         sweep >= 64)) {
        break;
      }
      if (can_pin) cpu = pin_to_fastest_cpu(allowed);
      const double typical = median(fastest_pass);
      const auto sweep_t0 = Clock::now();
      for (std::size_t p = 0; p < count; ++p) {
        if (sweep >= 2 && fastest_pass[p] > kSlowInstanceFactor * typical) {
          continue;
        }
        const double t = run_pass(p, false).pipeline_s;
        fastest_pass[p] = sweep == 0 ? t : std::min(fastest_pass[p], t);
      }
      sweep_s = seconds_since(sweep_t0);
    }
  }
  if (can_pin) sched_setaffinity(0, sizeof(allowed), &allowed);
  run.tracer.set_enabled(run.args.trace);
  run.ledger.check(run.latencies.count() >= 1000,
                   "at least 10 latency samples beyond p99");
  std::vector<double> calibrations;
  for (const Pass& p : run.passes) calibrations.push_back(p.cal_s);
  run.calibration_s = median(calibrations);
  run.time_scale = kReferenceCalibrationS / run.calibration_s;
  for (std::size_t i = 0; i < run.passes.size(); ++i) {
    const std::size_t lo = i > kCalibrationWindow ? i - kCalibrationWindow : 0;
    const std::size_t hi = std::min(i + kCalibrationWindow + 1, calibrations.size());
    run.passes[i].time_scale =
        kReferenceCalibrationS /
        median({calibrations.begin() + static_cast<std::ptrdiff_t>(lo),
                calibrations.begin() + static_cast<std::ptrdiff_t>(hi)});
  }

  // A time is each instance's fastest pass (a rate, its highest), then the
  // interquartile mean over instances. The host only ever adds time to a
  // pass, and the sweeps spread each instance's passes over the whole run,
  // so the fastest is the steadiest reading of the work; the trimmed mean
  // keeps one slow input from moving the result by more than its share.
  // setup_s is each instance's median pass instead. Within a maintain pass,
  // the per-epoch cycle and qps are first reduced to their median epoch.
  // Each pass's value is scaled by the pass's time_scale first.
  enum class Pick { kMedian, kLowest, kHighest };
  auto times = [&](auto value_of, Pick pick, bool traced_only) {
    std::vector<std::vector<double>> by_instance(run.instances.size());
    for (const Pass& p : run.passes) {
      if (!traced_only || p.traced) by_instance[p.instance].push_back(value_of(p));
    }
    std::vector<double> picked;
    for (const std::vector<double>& v : by_instance) {
      if (v.empty()) continue;
      picked.push_back(pick == Pick::kMedian   ? median(v)
                       : pick == Pick::kLowest ? *std::min_element(v.begin(), v.end())
                                               : *std::max_element(v.begin(), v.end()));
    }
    return interquartile_mean(picked);
  };
  auto fastest = [&](double Pass::*field, bool traced_only) {
    return times([field](const Pass& p) { return p.*field * p.time_scale; },
                 Pick::kLowest, traced_only);
  };
  auto qps = [&] {
    return times([](const Pass& p) { return median(p.qps) / p.time_scale; },
                 Pick::kHighest, false);
  };
  auto counts = [&](double Instance::*field) {
    std::vector<double> v;
    for (const Instance& inst : run.instances) v.push_back(inst.*field);
    return median(v);
  };
  std::vector<double> cycles, overhead;
  for (std::size_t i = 0; i < run.passes.size(); ++i) {
    const Pass& p = run.passes[i];
    cycles.insert(cycles.end(), p.cycle_s.begin(), p.cycle_s.end());
    if (p.traced && i + 1 < run.passes.size()) {
      overhead.push_back(p.pipeline_s / run.passes[i + 1].pipeline_s - 1.0);
    }
  }

  if (!run.args.trace) {
    Metrics e2e(kEndToEnd);
    e2e.set("setup_s",
            times([](const Pass& p) { return p.setup_s * p.time_scale; },
                  Pick::kMedian, false));
    // maintain's pipeline unit is one epoch cycle; the others' one pass.
    e2e.set("pipeline_s",
            maintain_wl
                ? times([](const Pass& p) { return median(p.cycle_s) * p.time_scale; },
                        Pick::kLowest, false)
                : fastest(&Pass::pipeline_s, false));
    e2e.set("build_s", fastest(&Pass::build_s, false));
    e2e.set("certify_s", fastest(&Pass::certify_s, false));
    e2e.set("index_s", fastest(&Pass::index_s, false));
    e2e.set("qps", qps());
    e2e.set("query_p50_us",
            run.latencies.percentile(50.0) / 1000.0 * run.time_scale);
    e2e.set("query_p99_us",
            run.latencies.percentile(99.0) / 1000.0 * run.time_scale);
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("sim_rounds", counts(&Instance::sim_rounds));
    e2e.set("sim_words", counts(&Instance::sim_words));
    e2e.set("spanner_edges_per_n", counts(&Instance::edges_per_n));
    e2e.set("stretch_max", counts(&Instance::stretch_max));
    return e2e;
  }

  // Per-layer counts are medians over instances; the memory
  // high-water marks and the digest describe the first instance; times are
  // taken over the traced passes only. Times and rates not taken per pass
  // are scaled by the run's time_scale.
  Metrics l(kPerLayer);
  for (const MetricDef& def : kPerLayer) {
    std::vector<double> v;
    for (const Instance& inst : run.instances) v.push_back(inst.layer.get(def.name));
    l.set(def.name, median(v));
  }
  for (const char* name :
       {"mem.rss_after_graph_mb", "mem.rss_after_build_mb",
        "mem.rss_after_certify_mb", "mem.rss_after_index_mb",
        "serve.index_digest"}) {
    l.set(name, run.instances[0].layer.get(name));
  }
  layer_probes(run, l, qps() * run.time_scale);
  l.set("serve.latency_samples", static_cast<double>(run.latencies.count()));
  if (maintain_wl) {
    std::vector<double> ms;
    for (const double c : cycles) ms.push_back(1e3 * c);
    l.set("maintain.epoch_p50_ms", median(ms));
    l.set("maintain.epoch_max_ms", *std::max_element(ms.begin(), ms.end()));
    l.set("maintain.epochs_per_s", 1.0 / median(cycles));
  }
  l.set("trace.overhead_pct", 100.0 * median(overhead));
  l.set("trace.spans", static_cast<double>(run.tracer.size()));
  l.scale_times(run.time_scale);
  l.set("graph.generate_s", fastest(&Pass::generate_s, true));
  l.set("check.certify_s", fastest(&Pass::certify_s, true));
  l.set("apps.oracle_build_s", fastest(&Pass::oracle_s, true));
  l.set("serve.flatten_s", fastest(&Pass::flatten_s, true));
  l.set("serve.acquire_us", fastest(&Pass::acquire_us, true));
  if (maintain_wl) l.set("maintain.rebuild_s", fastest(&Pass::rebuild_s, true));
  return l;
}

std::string report_json(const Run& run, const std::string& metrics_json) {
  const Identity id = run.instances.empty() ? Identity{} : run.instances[0].id;
  const std::uint64_t attempted = run.ledger.attempted();
  const std::uint64_t failed = run.ledger.failed();
  std::string r = "{\"report\": {";
  r += "\"workload\": " + json_string(run.args.workload);
  r += ", \"seed\": " + std::to_string(run.args.seed);
  r += ", \"size\": " + json_string(run.args.tiny ? "tiny" : "full");
  r += ", \"trace\": " + std::to_string(run.args.trace ? 1 : 0);
  r += ", \"cpu_cores\": " + std::to_string(run.cores);
  r += ", \"threads\": {\"build\": 1, \"build_parallel_probe\": " +
       std::to_string(run.build_threads) +
       ", \"serve\": " + std::to_string(run.serve_threads_used) +
       ", \"serve_probe\": " + std::to_string(run.probe_serve_threads) + "}";
  r += ", \"inputs\": {\"n\": " + std::to_string(run.sz.n) +
       ", \"m\": " + std::to_string(run.sz.m) +
       ", \"ops\": " + std::to_string(run.sz.ops) +
       ", \"epochs\": " + std::to_string(run.sz.epochs) +
       ", \"instances\": " + std::to_string(run.sz.instances) + "}";
  r += ", \"passes\": " + std::to_string(run.passes.size());
  r += ", \"host_speed\": {\"calibration_s\": " +
       json_number(run.calibration_s) +
       ", \"reference_s\": " + json_number(kReferenceCalibrationS) +
       ", \"time_scale\": " + json_number(run.time_scale) + "}";
  r += ", \"identity\": {\"instance_seed\": " +
       std::to_string(run.instances.empty() ? 0 : run.instances[0].seed) +
       ", \"build_trace_digest\": " + json_string(hex(id.build_digest)) +
       ", \"index_digest\": " + json_string(hex(id.index_digest)) +
       ", \"query_checksum\": " + json_string(hex(id.query_checksum)) +
       ", \"maintain_trace_digest\": " + json_string(hex(id.maintain_digest)) +
       "}";
  r += ", \"latency_samples\": " + std::to_string(run.latencies.count());
  r += ", \"attempted\": " + std::to_string(attempted);
  r += ", \"failed\": " + std::to_string(failed);
  r += ", \"error_rate\": " +
       json_number(attempted ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 1.0);
  r += ", \"metrics\": " + metrics_json;
  return r + "}}";
}

// Every pass's timings, one JSON object per line, in the order run.
void write_passes(const Run& run, const std::string& path) {
  std::ofstream out(path);
  for (const Pass& p : run.passes) {
    out << "{\"instance\": " << p.instance
        << ", \"traced\": " << (p.traced ? "true" : "false")
        << ", \"setup_s\": " << json_number(p.setup_s)
        << ", \"build_s\": " << json_number(p.build_s)
        << ", \"certify_s\": " << json_number(p.certify_s)
        << ", \"index_s\": " << json_number(p.index_s)
        << ", \"rebuild_s\": " << json_number(p.rebuild_s)
        << ", \"pipeline_s\": " << json_number(p.pipeline_s)
        << ", \"qps\": " << json_number(median(p.qps))
        << ", \"cycle_s\": " << json_number(median(p.cycle_s))
        << ", \"cal_s\": " << json_number(p.cal_s)
        << ", \"cpu\": " << p.cpu << "}\n";
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  if (!parse(argc, argv, &run.args)) return usage();
  run.sz = sizes_for(run.args.workload, run.args.tiny);
  run.cores = usable_cores();
  run.build_threads = std::min(4u, run.cores);
  run.serve_threads = 1;
  run.probe_serve_threads = run.cores;

  std::string metrics = "{}";
  bool aborted = false;
  try {
    metrics = run_benchmark(run).json();
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: aborted: " << e.what() << "\n";
    aborted = true;
  }
  const std::uint64_t attempted = run.ledger.attempted() + (aborted ? 1 : 0);
  const std::uint64_t failed = run.ledger.failed() + (aborted ? 1 : 0);
  const std::string report = report_json(run, metrics);
  if (!run.args.out_dir.empty()) {
    const std::string stem = run.args.out_dir + "/" + run.args.workload +
                             "-seed" + std::to_string(run.args.seed) +
                             "-trace" + (run.args.trace ? "1" : "0");
    std::ofstream(stem + ".report.json") << report << "\n";
    write_passes(run, stem + ".passes.jsonl");
    if (run.args.trace) run.tracer.write(stem + ".spans.jsonl");
  }
  std::cout << report << "\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}
