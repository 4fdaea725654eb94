// Shared helpers for the benchmark harnesses. Each bench regenerates one of
// the paper's tables/figures (see DESIGN.md's per-experiment index) as an
// aligned text table on stdout; EXPERIMENTS.md records representative output
// next to the paper's claim.
//
// The --json layer (JsonObject + run_sim_transport_json) emits one
// machine-readable record per workload — graph parameters, protocol costs,
// wall-clock and peak RSS — so tools/run_bench.sh can accumulate the perf
// trajectory in BENCH_sim.json across PRs.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/compact_routing.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "serve/flat_index.h"
#include "serve/query_engine.h"
#include "serve/workload.h"
#include "sim/faults.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "spanner/evaluate.h"
#include "util/rng.h"
#include "util/table.h"

namespace ultra::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

// Connected Erdős–Rényi workload (the default random graph in every bench).
inline graph::Graph er_workload(graph::VertexId n, std::uint64_t m,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(n, m, rng);
}

class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// CPU cores visible to this process (0 from the runtime is reported as 1).
// Recorded in every BENCH record so trend tooling can tell a slow run from a
// run on a smaller machine, and so the parallel sweep can be skipped when
// there is nothing to parallelize over.
inline unsigned detected_cpu_cores() {
  const unsigned c = std::thread::hardware_concurrency();
  return c == 0 ? 1u : c;
}

// Peak resident set size of this process, in bytes (Linux reports KiB).
inline std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

// Minimal ordered JSON object writer — enough for flat benchmark records
// (numbers, strings, and raw nested values) without external dependencies.
class JsonObject {
 public:
  JsonObject& field(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& field(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(9);
    os << v;
    return raw(key, os.str());
  }
  JsonObject& field(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  // `value` must already be valid JSON (a nested object, array, ...).
  JsonObject& raw(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, value);
    return *this;
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + entries_[i].first + "\": " + entries_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Transport stress protocol: every node broadcasts its id every round for a
// fixed number of rounds — 2m messages per round, the densest load the model
// allows, isolating pure simulator overhead from algorithmic behavior.
class PingAllProtocol : public sim::Protocol {
 public:
  explicit PingAllProtocol(std::uint64_t rounds) : rounds_(rounds) {}
  void begin(sim::Network&) override {}
  void on_round(sim::Mailbox& mb) override {
    if (mb.round() < rounds_) {
      mb.send_all({sim::Word{mb.self()}});
      mb.stay_awake();
    }
  }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return net.round() > rounds_;
  }

 private:
  std::uint64_t rounds_;
};

struct SimTransportOptions {
  graph::VertexId n = 100000;
  std::uint64_t m = 1000000;
  std::uint64_t seed = 1;
  std::uint64_t cap = 1;
  int repeats = 3;
  std::string protocol = "bfs_flood";  // or "ping_all"
  sim::AuditMode audit = sim::AuditMode::kStrict;
  sim::ExecutionMode exec = sim::ExecutionMode::kSequential;
  unsigned threads = 0;  // kParallel worker count; 0 = hardware concurrency
  std::uint64_t ping_rounds = 8;
  // Deterministic fault injection (all-zero rates = fault-free, the default).
  sim::FaultRates faults;
  std::uint64_t fault_seed = 1;
};

// Parse a `--faults` spec: comma-separated key=value probabilities, e.g.
// "drop=0.01,duplicate=0.005,delay=0.01,crash=0.002,restart=0.5,link=0.001".
// Returns false (leaving *out* partially updated) on an unknown key or a
// malformed number.
inline bool parse_fault_rates(const std::string& spec, sim::FaultRates* out) {
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    char* end = nullptr;
    const double value = std::strtod(item.c_str() + eq + 1, &end);
    if (end == item.c_str() + eq + 1) return false;
    if (key == "drop") {
      out->drop = value;
    } else if (key == "duplicate" || key == "dup") {
      out->duplicate = value;
    } else if (key == "delay") {
      out->delay = value;
    } else if (key == "crash") {
      out->crash = value;
    } else if (key == "restart") {
      out->restart = value;
    } else if (key == "link" || key == "link_down") {
      out->link_down = value;
    } else {
      return false;
    }
  }
  return true;
}

// Run the simulator-transport benchmark and return the JSON record. The
// workload is er_workload(n, m); rounds-per-second aggregates `repeats`
// fresh Network runs over one shared graph.
inline std::string sim_transport_json(const SimTransportOptions& opt) {
  const graph::Graph g = er_workload(opt.n, opt.m, opt.seed);
  const sim::FaultPlan plan = opt.faults.any()
                                  ? sim::FaultPlan(opt.fault_seed, opt.faults)
                                  : sim::FaultPlan();
  sim::Metrics total{};
  sim::Metrics::FaultCounters fault_total{};
  std::uint64_t digest = 0;
  std::string run_status = "completed";
  const WallClock clock;
  unsigned resolved_threads = 1;
  for (int r = 0; r < opt.repeats; ++r) {
    sim::Network net(g, opt.cap, opt.audit, opt.exec, opt.threads);
    if (!plan.empty()) net.set_fault_plan(&plan);
    resolved_threads = net.worker_threads();
    sim::RunOutcome out;
    if (opt.protocol == "ping_all") {
      PingAllProtocol p(opt.ping_rounds);
      out = net.run_outcome(p, {.max_rounds = opt.ping_rounds + 4,
                                .protocol_name = "ping_all"});
    } else {
      sim::BfsFlood p(0);
      out = net.run_outcome(
          p, {.max_rounds = 8 * static_cast<std::uint64_t>(opt.n) + 64,
              .protocol_name = "bfs_flood"});
    }
    const sim::Metrics& met = out.metrics;
    switch (out.status) {
      case sim::RunStatus::kCompleted:
        break;
      case sim::RunStatus::kRoundBudgetExhausted:
        run_status = "budget_exhausted";
        break;
      case sim::RunStatus::kDeadlocked:
        run_status = "deadlocked";
        break;
    }
    total.rounds += met.rounds;
    total.messages += met.messages;
    total.total_words += met.total_words;
    fault_total.dropped += met.faults.dropped;
    fault_total.duplicated += met.faults.duplicated;
    fault_total.delayed += met.faults.delayed;
    fault_total.crashed += met.faults.crashed;
    fault_total.restarted += met.faults.restarted;
    digest = met.trace_digest;  // identical across repeats (deterministic)
  }
  const double wall = clock.seconds();

  JsonObject workload;
  workload.field("generator", std::string("er_workload"))
      .field("n", std::uint64_t{opt.n})
      .field("m", opt.m)
      .field("seed", opt.seed);
  // Transport aggregation parameters: how sends are coalesced before the
  // barrier. Recorded so perf trends can be matched to the shard geometry
  // that produced them (ultra.bench_sim.v3 addition).
  JsonObject aggregation;
  aggregation.field("mode", std::string("dest_sharded_soa"))
      .field("dest_shard_bits", std::uint64_t{sim::kDestShardBits})
      .field("shard_size", std::uint64_t{sim::kDestShardSize});
  JsonObject record;
  record.field("schema", std::string("ultra.bench_sim.v3"))
      .field("bench", std::string("sim_transport"))
      .field("cpu_cores", std::uint64_t{detected_cpu_cores()})
      .raw("workload", workload.str())
      .field("protocol", opt.protocol)
      .field("audit", std::string(opt.audit == sim::AuditMode::kStrict
                                      ? "strict"
                                      : "fast"))
      .field("execution",
             std::string(opt.exec == sim::ExecutionMode::kParallel
                             ? "parallel"
                             : "sequential"))
      .field("threads", std::uint64_t{resolved_threads})
      .field("message_cap", opt.cap)
      .raw("aggregation", aggregation.str())
      .field("repeats", std::uint64_t(opt.repeats))
      .field("rounds", total.rounds)
      .field("messages", total.messages)
      .field("total_words", total.total_words)
      .field("trace_digest", digest)
      .field("wall_seconds", wall)
      .field("rounds_per_second", wall > 0 ? total.rounds / wall : 0.0)
      .field("messages_per_second", wall > 0 ? total.messages / wall : 0.0)
      .field("peak_rss_bytes", peak_rss_bytes())
      .field("run_status", run_status);
  if (!plan.empty()) {
    JsonObject faults;
    faults.field("seed", opt.fault_seed)
        .field("dropped", fault_total.dropped)
        .field("duplicated", fault_total.duplicated)
        .field("delayed", fault_total.delayed)
        .field("crashed", fault_total.crashed)
        .field("restarted", fault_total.restarted);
    record.raw("faults", faults.str());
  }
  return record.str();
}

// ---- query-serving bench (ultra.bench_query.v1) ---------------------------

// steady_clock-backed tick source for the serve engine's latency sampling.
// Clocks are banned inside src/ (ultra-nondet); bench code is where they
// live, injected through the serve::TickSource seam.
class SteadyTicks : public serve::TickSource {
 public:
  std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

// Nearest-rank percentile over an unsorted sample set (copied; the caller's
// vector is left untouched). p in [0, 100].
inline double percentile_ns(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(samples[lo]) +
         frac * (static_cast<double>(samples[hi]) -
                 static_cast<double>(samples[lo]));
}

struct ServeBenchOptions {
  graph::VertexId n = 100000;
  std::uint64_t m = 1000000;
  std::uint64_t seed = 1;
  std::uint64_t ops = 1000000;
  std::uint32_t point_pct = 90;
  std::uint32_t route_pct = 0;
  std::uint32_t scan_pct = 10;
  serve::KeyDist dist = serve::KeyDist::kUniform;
  double theta = 0.99;
  unsigned threads = 1;
  std::uint32_t batch_ops = 1024;
  std::uint64_t sample_every = 16;  // latency sampling period
};

// Parse "--mix point,route,scan" (e.g. "90,5,5"). Returns false on
// malformed input; the sum is validated later by WorkloadGen.
inline bool parse_mix(const std::string& spec, ServeBenchOptions* out) {
  unsigned point = 0, route = 0, scan = 0;
  char extra = 0;
  if (std::sscanf(spec.c_str(), "%u,%u,%u%c", &point, &route, &scan, &extra) !=
      3) {
    return false;
  }
  out->point_pct = point;
  out->route_pct = route;
  out->scan_pct = scan;
  return true;
}

// Build the oracle + flat index (+ routing tables when the mix routes),
// serve the workload, and return one ultra.bench_query.v1 record. qps and
// the latency percentiles cover the serving phase only; the preprocessing
// cost is reported separately as build_seconds.
inline std::string serve_query_json(const ServeBenchOptions& opt) {
  const graph::Graph g = er_workload(opt.n, opt.m, opt.seed);

  const WallClock build_clock;
  const serve::FlatOracleIndex index(g, opt.seed);
  std::unique_ptr<apps::CompactRouting> routing;
  if (opt.route_pct > 0) {
    routing = std::make_unique<apps::CompactRouting>(g, opt.seed);
  }
  const double build_seconds = build_clock.seconds();

  serve::WorkloadSpec spec;
  spec.seed = opt.seed;
  spec.point_pct = opt.point_pct;
  spec.route_pct = opt.route_pct;
  spec.scan_pct = opt.scan_pct;
  spec.dist = opt.dist;
  spec.theta = opt.theta;
  const serve::WorkloadGen wl(spec, g.num_vertices());

  serve::EngineOptions eopt;
  eopt.threads = opt.threads;
  eopt.batch_ops = opt.batch_ops;
  eopt.sample_every = opt.sample_every;
  serve::QueryEngine engine(index, routing.get(), eopt);

  SteadyTicks ticks;
  const WallClock serve_clock;
  const serve::ServeResult res = engine.run(wl, opt.ops, &ticks);
  const double wall = serve_clock.seconds();

  JsonObject workload;
  workload.field("generator", std::string("er_workload"))
      .field("n", std::uint64_t{opt.n})
      .field("m", opt.m)
      .field("seed", opt.seed)
      .field("ops", opt.ops);
  JsonObject mix;
  mix.field("point", std::uint64_t{opt.point_pct})
      .field("route", std::uint64_t{opt.route_pct})
      .field("scan", std::uint64_t{opt.scan_pct});
  JsonObject latency;
  latency.field("samples", std::uint64_t{res.latencies_ns.size()})
      .field("p50_us", percentile_ns(res.latencies_ns, 50.0) / 1000.0)
      .field("p99_us", percentile_ns(res.latencies_ns, 99.0) / 1000.0)
      .field("max_us", percentile_ns(res.latencies_ns, 100.0) / 1000.0);
  JsonObject idx;
  idx.field("space_words", index.space_words())
      .field("landmarks", std::uint64_t{index.num_landmarks()})
      .field("bunch_entries", index.num_bunch_entries())
      .field("digest", index.digest());
  JsonObject record;
  record.field("schema", std::string("ultra.bench_query.v1"))
      .field("bench", std::string("query_serve"))
      .field("cpu_cores", std::uint64_t{detected_cpu_cores()})
      .raw("workload", workload.str())
      .raw("mix", mix.str())
      .field("distribution", std::string(opt.dist == serve::KeyDist::kZipfian
                                             ? "zipfian"
                                             : "uniform"))
      .field("theta",
             opt.dist == serve::KeyDist::kZipfian ? opt.theta : 0.0)
      .field("threads", std::uint64_t{engine.worker_threads()})
      .field("batch_ops", std::uint64_t{opt.batch_ops})
      .field("sample_every", opt.sample_every)
      .field("build_seconds", build_seconds)
      .field("wall_seconds", wall)
      .field("qps", wall > 0 ? static_cast<double>(res.ops) / wall : 0.0)
      .raw("latency", latency.str())
      .field("result_checksum", res.checksum)
      .field("point_ops", res.point_ops)
      .field("route_ops", res.route_ops)
      .field("scan_ops", res.scan_ops)
      .field("unreachable", res.unreachable)
      .raw("index", idx.str())
      .field("peak_rss_bytes", peak_rss_bytes());
  return record.str();
}

// `argv`-style driver for micro_core --serve: parses --n/--m/--seed/--ops/
// --mix P,R,S/--dist uniform|zipfian/--theta T/--threads T/--batch B/
// --sample K and prints one ultra.bench_query.v1 record to stdout.
inline int run_serve_bench_json(int argc, char** argv) {
  ServeBenchOptions opt;
  auto next_u64 = [&](int& i) -> std::uint64_t {
    return i + 1 < argc ? std::strtoull(argv[++i], nullptr, 10) : 0;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve" || arg == "--json") continue;
    if (arg == "--n") {
      opt.n = static_cast<graph::VertexId>(next_u64(i));
    } else if (arg == "--m") {
      opt.m = next_u64(i);
    } else if (arg == "--seed") {
      opt.seed = next_u64(i);
    } else if (arg == "--ops") {
      opt.ops = next_u64(i);
    } else if (arg == "--mix" && i + 1 < argc) {
      if (!parse_mix(argv[++i], &opt)) {
        std::cerr << "malformed --mix spec (want P,R,S): " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--dist" && i + 1 < argc) {
      opt.dist = std::string(argv[++i]) == "zipfian"
                     ? serve::KeyDist::kZipfian
                     : serve::KeyDist::kUniform;
    } else if (arg == "--theta" && i + 1 < argc) {
      opt.theta = std::strtod(argv[++i], nullptr);
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(next_u64(i));
    } else if (arg == "--batch") {
      opt.batch_ops = static_cast<std::uint32_t>(next_u64(i));
    } else if (arg == "--sample") {
      opt.sample_every = next_u64(i);
    } else {
      std::cerr << "unknown --serve option: " << arg << "\n";
      return 2;
    }
  }
  std::cout << serve_query_json(opt) << "\n";
  return 0;
}

// `argv`-style driver for the --json mode of micro_core: parses
// --n/--m/--seed/--cap/--repeats/--protocol/--audit/--exec/--threads plus
// the fault knobs --faults <spec>/--fault-seed <s>, and prints one JSON
// record to stdout. Returns a process exit code.
inline int run_sim_transport_json(int argc, char** argv) {
  SimTransportOptions opt;
  auto next_u64 = [&](int& i) -> std::uint64_t {
    return i + 1 < argc ? std::strtoull(argv[++i], nullptr, 10) : 0;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") continue;
    if (arg == "--n") {
      opt.n = static_cast<graph::VertexId>(next_u64(i));
    } else if (arg == "--m") {
      opt.m = next_u64(i);
    } else if (arg == "--seed") {
      opt.seed = next_u64(i);
    } else if (arg == "--cap") {
      opt.cap = next_u64(i);
    } else if (arg == "--repeats") {
      opt.repeats = static_cast<int>(next_u64(i));
    } else if (arg == "--ping-rounds") {
      opt.ping_rounds = next_u64(i);
    } else if (arg == "--protocol" && i + 1 < argc) {
      opt.protocol = argv[++i];
    } else if (arg == "--audit" && i + 1 < argc) {
      opt.audit = std::string(argv[++i]) == "fast" ? sim::AuditMode::kFast
                                                   : sim::AuditMode::kStrict;
    } else if (arg == "--exec" && i + 1 < argc) {
      opt.exec = std::string(argv[++i]) == "parallel"
                     ? sim::ExecutionMode::kParallel
                     : sim::ExecutionMode::kSequential;
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(next_u64(i));
    } else if (arg == "--faults" && i + 1 < argc) {
      if (!parse_fault_rates(argv[++i], &opt.faults)) {
        std::cerr << "malformed --faults spec: " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--fault-seed") {
      opt.fault_seed = next_u64(i);
    } else {
      std::cerr << "unknown --json option: " << arg << "\n";
      return 2;
    }
  }
  std::cout << sim_transport_json(opt) << "\n";
  return 0;
}

}  // namespace ultra::bench
