// E13 — sequential construction cost (google-benchmark). Section 2 remarks
// the skeleton is sequentially constructible in O(m log n / log log n);
// these microbenchmarks measure the real per-edge cost of the skeleton, the
// Expand primitive, Baswana–Sen, BFS, contraction, Fibonacci ball growing
// and the network transport's round loop, across sizes — the library's
// inner loops.
//
// `micro_core --json [--n N --m M --repeats R --protocol bfs_flood|ping_all
// --audit strict|fast --exec sequential|parallel --threads T --cap C
// --faults SPEC --fault-seed S]` instead runs the simulator-transport
// workload once and prints one BENCH JSON record (see bench/common.h);
// tools/run_bench.sh drives this mode — per execution mode and thread
// count — to maintain BENCH_sim.json.
//
// `micro_core --serve [--n N --m M --seed S --ops K --mix P,R,S
// --dist uniform|zipfian --theta T --threads T --batch B --sample K]` runs
// the query-serving workload (oracle index + sharded engine) and
// prints one ultra.bench_query.v1 record; run_bench.sh drives this mode per
// distribution and thread count.
//
// `micro_core --supervise [--n N --m M --seed S --faults SPEC
// --fault-seed F --attempts A --start-tier T]` runs the certificate-driven
// supervisor (sim::supervised_spanner) over the same workload and prints one
// JSON provenance record: the producing tier, the certified stretch bound and
// the full attempt trail.
//
// `micro_core --maintain [--gen er|rmat --n N --m M --seed S --k K
// --epochs E --epoch-rounds R --inserts I --deletes D --faults SPEC
// --exec sequential|parallel --threads T --publish]` runs the epoch-driven
// overlay-maintenance loop (churn + fault damage + certified repair) and
// prints one ultra.bench_maintain.v1 record (see bench/maintain_bench.h).

#include <benchmark/benchmark.h>

#include <cstring>

#include "baselines/baswana_sen.h"
#include "common.h"
#include "core/expand.h"
#include "core/fibonacci.h"
#include "core/skeleton.h"
#include "graph/bfs.h"
#include "graph/contraction.h"
#include "graph/generators.h"
#include "maintain_bench.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "sim/supervisor.h"
#include "util/rng.h"

namespace {

using namespace ultra;

graph::Graph make_graph(std::int64_t n) {
  util::Rng rng(static_cast<std::uint64_t>(n));
  return graph::connected_gnm(static_cast<graph::VertexId>(n),
                              static_cast<std::uint64_t>(6 * n), rng);
}

void BM_SkeletonSequential(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto res = core::build_skeleton(g, {.D = 4, .eps = 1.0, .seed = seed++});
    benchmark::DoNotOptimize(res.stats.spanner_size);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SkeletonSequential)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ExpandCall(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  util::Rng rng(3);
  for (auto _ : state) {
    core::ClusterState s = core::ClusterState::trivial(g);
    std::uint64_t count = 0;
    core::expand(s, 0.25, rng,
                 [&](graph::VertexId, graph::VertexId) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ExpandCall)->Arg(10000)->Arg(100000);

void BM_BaswanaSen(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto res = baselines::baswana_sen(g, 3, seed++);
    benchmark::DoNotOptimize(res.stats.spanner_size);
  }
}
BENCHMARK(BM_BaswanaSen)->Arg(10000)->Arg(100000);

void BM_Bfs(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  graph::VertexId s = 0;
  for (auto _ : state) {
    auto d = graph::bfs_distances(g, s);
    benchmark::DoNotOptimize(d.data());
    s = (s + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_Bfs)->Arg(10000)->Arg(100000);

void BM_Contract(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  util::Rng rng(5);
  std::vector<std::uint32_t> part(g.num_vertices());
  const std::uint32_t parts =
      std::max<std::uint32_t>(2, g.num_vertices() / 16);
  for (auto& x : part) x = static_cast<std::uint32_t>(rng.next_below(parts));
  for (auto _ : state) {
    auto q = graph::contract(g, part, parts);
    benchmark::DoNotOptimize(q.graph.num_edges());
  }
}
BENCHMARK(BM_Contract)->Arg(10000)->Arg(100000);

void BM_FibonacciBuild(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto res = core::build_fibonacci(
        g, {.order = 2, .eps = 1.0, .ell = 6, .message_t = 0.0,
            .seed = seed++});
    benchmark::DoNotOptimize(res.stats.spanner_size);
  }
}
BENCHMARK(BM_FibonacciBuild)->Arg(1000)->Arg(10000);

// The transport round loop itself: a full BFS flood (CONGEST, strict audit)
// per iteration — every message crosses the arena, the CSR scatter and the
// worklist merge.
void BM_NetworkBfsFlood(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    sim::Network net(g, 1);
    sim::BfsFlood flood(0);
    const auto m = net.run(flood, 100000);
    rounds += m.rounds;
    benchmark::DoNotOptimize(m.trace_digest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_NetworkBfsFlood)->Arg(10000)->Arg(100000);

// The same flood under the parallel round executor, across worker counts —
// the scaling curve of the sharded worklist (trace-identical to the
// sequential run by construction; see parallel_equivalence_test).
void BM_NetworkBfsFloodParallel(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    sim::Network net(g, 1, sim::AuditMode::kStrict,
                     sim::ExecutionMode::kParallel, threads);
    sim::BfsFlood flood(0);
    const auto m = net.run(flood, 100000);
    rounds += m.rounds;
    benchmark::DoNotOptimize(m.trace_digest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_NetworkBfsFloodParallel)
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({100000, 2})
    ->Args({100000, 4});

// Densest legal load: every node broadcasts every round (2m messages/round).
void BM_NetworkPingAll(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    sim::Network net(g, 1);
    bench::PingAllProtocol p(4);
    const auto m = net.run(p, 16);
    msgs += m.messages;
    benchmark::DoNotOptimize(m.trace_digest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
}
BENCHMARK(BM_NetworkPingAll)->Arg(10000)->Arg(100000);

// The round barrier in isolation: every node broadcasts its id (2m pending
// messages), then the timed region runs only the destination-shard merge,
// counting scatter, digest fold, strict audit and worklist rebuild — the
// kernel BM_NetworkBfsFlood amortizes over a whole protocol run. The fill
// phase is untimed (PauseTiming), so items/s is barrier messages/s.
void BM_DeliverOutboxes(benchmark::State& state) {
  const auto g = make_graph(state.range(0));
  sim::Network net(g, 1);
  const graph::VertexId n = g.num_vertices();
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::detail::BarrierBench::begin_round(net);
    for (graph::VertexId v = 0; v < n; ++v) {
      sim::Mailbox mb(net, v);
      mb.send_all({sim::Word{v}});
    }
    state.ResumeTiming();
    sim::detail::BarrierBench::deliver(net);
    msgs += 2 * g.num_edges();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
}
BENCHMARK(BM_DeliverOutboxes)->Arg(10000)->Arg(100000);

// Supervised-construction driver: build a certified spanner of the workload
// under a fault plan, degrading along the fallback chain, and print one JSON
// provenance record.
int run_supervise_json(int argc, char** argv) {
  graph::VertexId n = 500;
  std::uint64_t m = 2000;
  std::uint64_t seed = 1;
  sim::SupervisorOptions opt;
  auto next_u64 = [&](int& i) -> std::uint64_t {
    return i + 1 < argc ? std::strtoull(argv[++i], nullptr, 10) : 0;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--supervise") continue;
    if (arg == "--n") {
      n = static_cast<graph::VertexId>(next_u64(i));
    } else if (arg == "--m") {
      m = next_u64(i);
    } else if (arg == "--seed") {
      seed = next_u64(i);
      opt.fibonacci.seed = seed;
      opt.skeleton.seed = seed;
    } else if (arg == "--faults" && i + 1 < argc) {
      if (!bench::parse_fault_rates(argv[++i], &opt.rates)) {
        std::cerr << "malformed --faults spec: " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--fault-seed") {
      opt.fault_seed = next_u64(i);
    } else if (arg == "--attempts") {
      opt.max_attempts_per_tier = static_cast<unsigned>(next_u64(i));
    } else if (arg == "--start-tier" && i + 1 < argc) {
      const std::string tier = argv[++i];
      if (tier == "fibonacci") {
        opt.start_tier = sim::FallbackTier::kFibonacci;
      } else if (tier == "skeleton") {
        opt.start_tier = sim::FallbackTier::kSkeleton;
      } else if (tier == "baswana_sen") {
        opt.start_tier = sim::FallbackTier::kBaswanaSen;
      } else if (tier == "bfs_forest") {
        opt.start_tier = sim::FallbackTier::kBfsForest;
      } else {
        std::cerr << "unknown --start-tier: " << tier << "\n";
        return 2;
      }
    } else {
      std::cerr << "unknown --supervise option: " << arg << "\n";
      return 2;
    }
  }

  const graph::Graph g = bench::er_workload(n, m, seed);
  const auto result = sim::supervised_spanner(g, opt);

  std::string attempts = "[";
  for (std::size_t i = 0; i < result.attempts.size(); ++i) {
    const auto& a = result.attempts[i];
    bench::JsonObject rec;
    rec.field("tier", std::string(sim::tier_name(a.tier)))
        .field("fault_seed", a.fault_seed)
        .raw("construction_ok", a.construction_ok ? "true" : "false")
        .raw("certified", a.certified ? "true" : "false")
        .field("error", a.error)
        .field("violation", a.violation);
    if (i != 0) attempts += ", ";
    attempts += rec.str();
  }
  attempts += "]";

  bench::JsonObject record;
  record.field("schema", std::string("ultra.supervised_run.v1"))
      .raw("workload", bench::JsonObject{}
                           .field("generator", std::string("er_workload"))
                           .field("n", std::uint64_t{n})
                           .field("m", m)
                           .field("seed", seed)
                           .str())
      .field("tier", std::string(sim::tier_name(result.tier)))
      .field("fault_seed", result.fault_seed)
      .field("certified_alpha", result.certified_alpha)
      .field("certificate_checks", result.certificate.checks)
      .field("spanner_edges", std::uint64_t{result.spanner.size()})
      .raw("attempts", attempts);
  std::cout << record.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--supervise") == 0) {
      return run_supervise_json(argc, argv);
    }
    if (std::strcmp(argv[i], "--serve") == 0) {
      return ultra::bench::run_serve_bench_json(argc, argv);
    }
    if (std::strcmp(argv[i], "--maintain") == 0) {
      return ultra::bench::run_maintain_bench_json(argc, argv);
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      return ultra::bench::run_sim_transport_json(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
