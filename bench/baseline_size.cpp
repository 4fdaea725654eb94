// E14 — Fig. 1 baseline sanity: the implemented baselines hit their
// published size/quality envelopes. Baswana–Sen size follows the paper's
// corrected O(kn + n^{1+1/k} log k) (Lemma 6's fix to [10]); the greedy
// (2k-1)-spanner obeys the girth > 2k Moore bound; the additive-2 spanner
// sits at ~ n^{3/2}; the CDS skeleton is strictly linear.

#include <cmath>
#include <iostream>

#include "baselines/additive2.h"
#include "baselines/baswana_sen.h"
#include "baselines/cds_skeleton.h"
#include "baselines/greedy.h"
#include "common.h"
#include "graph/girth.h"
#include "spanner/evaluate.h"

int main() {
  using namespace ultra;
  bench::print_header("E14 / Fig. 1 baselines",
                      "Baseline sizes vs their published envelopes.");

  {
    std::cout << "--- Baswana-Sen size vs k (n = 8000, m = 96000; mean of 5 "
                 "seeds) ---\n";
    util::Table t({"k", "mean |S|", "kn", "n^{1+1/k}", "n^{1+1/k} ln k",
                   "|S| / (kn + n^{1+1/k} ln k)"});
    const auto g = bench::er_workload(8000, 96000, 41);
    const double n = g.num_vertices();
    for (const unsigned k : {2u, 3u, 4u, 5u, 6u}) {
      double total = 0;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        total += static_cast<double>(
            baselines::baswana_sen(g, k, seed).stats.spanner_size);
      }
      const double mean = total / 5.0;
      const double nk = std::pow(n, 1.0 + 1.0 / k);
      const double lnk = std::max(1.0, std::log(static_cast<double>(k)));
      t.row()
          .cell(k)
          .cell(mean, 0)
          .cell(static_cast<double>(k) * n, 0)
          .cell(nk, 0)
          .cell(nk * lnk, 0)
          .cell(mean / (k * n + nk * lnk), 3);
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n--- greedy (2k-1)-spanner: size and girth vs k "
                 "(n = 2000, m = 40000) ---\n";
    util::Table t({"k", "|S|", "n^{1+1/k} + n", "girth(S)", "2k",
                   "max stretch (exact bound 2k-1)"});
    const auto g = bench::er_workload(2000, 40000, 43);
    for (const unsigned k : {2u, 3u, 4u, 6u}) {
      const auto s = baselines::greedy_spanner(g, k);
      util::Rng rng(k);
      const auto rep = spanner::evaluate_sampled(g, s, 10, rng);
      t.row()
          .cell(k)
          .cell(static_cast<std::uint64_t>(s.size()))
          .cell(std::pow(2000.0, 1.0 + 1.0 / k) + 2000.0, 0)
          .cell(static_cast<std::uint64_t>(graph::girth(s.to_graph())))
          .cell(2 * k)
          .cell(rep.max_mult, 2);
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n--- additive-2 spanner: size vs n (m = n^{3/2}-dense) "
                 "---\n";
    util::Table t({"n", "m", "|S|", "n^{3/2}", "|S|/n^{3/2}",
                   "max additive (exact)"});
    for (const std::uint32_t n : {500u, 1000u, 2000u, 4000u}) {
      const auto m =
          static_cast<std::uint64_t>(2.0 * std::pow(n, 1.5));
      const auto g = bench::er_workload(n, m, n);
      const auto res = baselines::additive2_spanner(g, 3);
      const auto rep = spanner::evaluate_exact(g, res.spanner);
      t.row()
          .cell(static_cast<std::uint64_t>(n))
          .cell(g.num_edges())
          .cell(static_cast<std::uint64_t>(res.spanner.size()))
          .cell(std::pow(n, 1.5), 0)
          .cell(res.spanner.size() / std::pow(n, 1.5), 3)
          .cell(static_cast<std::uint64_t>(rep.max_add));
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n--- CDS skeleton: strictly linear across densities "
                 "(n = 6000) ---\n";
    util::Table t({"m", "|S|", "|S|/n", "MIS size", "Luby rounds"});
    for (const std::uint64_t m : {12000ull, 48000ull, 192000ull}) {
      const auto g = bench::er_workload(6000, m, m);
      const auto res = baselines::cds_skeleton_distributed(g, 5);
      t.row()
          .cell(g.num_edges())
          .cell(static_cast<std::uint64_t>(res.spanner.size()))
          .cell(res.spanner.edges_per_vertex(), 3)
          .cell(res.stats.mis_size)
          .cell(res.stats.mis_rounds);
    }
    t.print(std::cout);
  }
  return 0;
}
