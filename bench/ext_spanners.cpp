// Extensions bench (paper Sections 1.4 and 5 related work): fully dynamic
// maintenance under churn, the stretch-3 distance oracle and compact
// routing. Each block reports the published envelope next to the
// measurement.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "apps/compact_routing.h"
#include "apps/distance_oracle.h"
#include "baselines/dynamic_spanner.h"
#include "baselines/greedy.h"
#include "common.h"
#include "graph/bfs.h"

int main() {
  using namespace ultra;
  bench::print_header(
      "Extensions / Sections 1.4 + 5",
      "Fully dynamic spanner, distance oracle, compact routing.");

  {
    std::cout << "--- dynamic maintenance under churn (n = 1000, k = 2) "
                 "---\n";
    util::Rng rng(11);
    const graph::VertexId n = 1000;
    baselines::DynamicSpanner dyn(n, 2);
    util::Table t({"operations", "graph edges", "spanner edges",
                   "promotions so far", "spanner/static-greedy"});
    std::vector<graph::Edge> present;
    std::uint64_t promotions = 0;
    bench::WallClock timer;
    for (int step = 1; step <= 30000; ++step) {
      const bool do_insert = present.size() < 4000 &&
                             (present.empty() || rng.bernoulli(0.55));
      if (do_insert) {
        const auto u = static_cast<graph::VertexId>(rng.next_below(n));
        const auto v = static_cast<graph::VertexId>(rng.next_below(n));
        if (u == v || dyn.has_edge(u, v)) continue;
        dyn.insert(u, v);
        present.push_back(graph::make_edge(u, v));
      } else {
        const std::size_t i = rng.next_below(present.size());
        promotions += dyn.erase(present[i].u, present[i].v);
        present[i] = present.back();
        present.pop_back();
      }
      if (step % 10000 == 0) {
        const auto snap = dyn.graph_snapshot();
        const auto greedy = baselines::greedy_spanner(snap, 2);
        t.row()
            .cell(step)
            .cell(dyn.graph_size())
            .cell(dyn.spanner_size())
            .cell(promotions)
            .cell(static_cast<double>(dyn.spanner_size()) /
                      static_cast<double>(greedy.size()),
                  3);
      }
    }
    t.print(std::cout);
    std::cout << "(30k operations in " << util::format_double(timer.seconds(), 2)
              << "s; the maintained spanner tracks the from-scratch greedy "
                 "within the shown factor.)\n";
  }

  {
    std::cout << "\n--- stretch-3 distance oracle (Thorup-Zwick k = 2) "
                 "---\n";
    util::Table t({"n", "m", "space words", "space/n^{3/2}", "landmarks",
                   "avg bunch", "measured max stretch", "mean stretch"});
    for (const graph::VertexId n : {1000u, 4000u, 16000u}) {
      const auto g = bench::er_workload(n, 10ull * n, n + 9);
      const apps::DistanceOracle oracle(g, 21);
      util::Rng rng(n);
      double worst = 1.0, sum = 0.0;
      int count = 0;
      for (int i = 0; i < 40; ++i) {
        const auto u = static_cast<graph::VertexId>(rng.next_below(n));
        const auto d = graph::bfs_distances(g, u);
        for (graph::VertexId v = 0; v < n; v += 97) {
          if (u == v || d[v] == graph::kUnreachable) continue;
          const double stretch =
              static_cast<double>(oracle.query(u, v)) / d[v];
          worst = std::max(worst, stretch);
          sum += stretch;
          ++count;
        }
      }
      t.row()
          .cell(static_cast<std::uint64_t>(n))
          .cell(g.num_edges())
          .cell(oracle.space_words())
          .cell(oracle.space_words() / std::pow(n, 1.5), 3)
          .cell(static_cast<std::uint64_t>(oracle.num_landmarks()))
          .cell(oracle.average_bunch_size(), 2)
          .cell(worst, 3)
          .cell(sum / count, 3);
    }
    t.print(std::cout);
    std::cout << "\nSection 5 context: the oracle's space-stretch point\n"
                 "(n^{3/2}, 3) is the girth-bound baseline the paper's open\n"
                 "problem asks to beat with (alpha,beta)-style tradeoffs.\n";
  }

  {
    std::cout << "\n--- compact routing (stretch 3, ~sqrt(n) state/node; "
                 "the Section 5 open-problem regime) ---\n";
    util::Table t({"n", "landmarks", "avg table words", "words/sqrt(n)",
                   "mean route stretch", "max route stretch",
                   "landmark-routed fraction"});
    for (const graph::VertexId n : {1000u, 4000u, 16000u}) {
      const auto g = bench::er_workload(n, 8ull * n, n + 31);
      const apps::CompactRouting scheme(g, 33);
      util::Rng rng(n + 1);
      double worst = 1.0, sum = 0.0;
      std::uint64_t via_landmark = 0, count = 0;
      for (int i = 0; i < 25; ++i) {
        const auto u = static_cast<graph::VertexId>(rng.next_below(n));
        const auto dist = graph::bfs_distances(g, u);
        for (graph::VertexId v = 0; v < n; v += 131) {
          if (u == v || dist[v] == graph::kUnreachable) continue;
          const auto route = scheme.route(u, v);
          if (!route.delivered) continue;
          const double stretch =
              static_cast<double>(route.path.size() - 1) / dist[v];
          worst = std::max(worst, stretch);
          sum += stretch;
          via_landmark += route.used_landmark;
          ++count;
        }
      }
      t.row()
          .cell(static_cast<std::uint64_t>(n))
          .cell(static_cast<std::uint64_t>(scheme.num_landmarks()))
          .cell(scheme.average_table_words(), 1)
          .cell(scheme.average_table_words() / std::sqrt(n), 2)
          .cell(sum / static_cast<double>(count), 3)
          .cell(worst, 3)
          .cell(static_cast<double>(via_landmark) /
                    static_cast<double>(count),
                3);
    }
    t.print(std::cout);
    std::cout << "\nThe open problem asks for (3-eps)d + polylog at\n"
                 "O(n^{1-eps}) state: this scheme realizes the (3, sqrt n)\n"
                 "corner the question wants to improve on.\n";
  }
  return 0;
}
