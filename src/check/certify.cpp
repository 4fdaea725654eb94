#include "check/certify.h"

#include <algorithm>
#include <queue>
#include <sstream>
#include <vector>

#include "check/check.h"
#include "graph/bfs.h"
#include "util/rng.h"

namespace ultra::check {

namespace {

using graph::Graph;
using graph::VertexId;

// Record the first violation only; later ones add no information and the
// formatting cost would dominate on a badly broken artifact.
void record(Certificate& cert, const std::string& text) {
  if (cert.ok) {
    cert.ok = false;
    cert.violation = text;
  }
}

}  // namespace

void require(const Certificate& cert) {
  ULTRA_CHECK(cert.ok) << "certificate violated after " << cert.checks
                       << " checks: " << cert.violation;
}

Certificate certify_spanner(const Graph& g, const spanner::Spanner& h,
                            const SpannerCertifyOptions& options) {
  Certificate cert;
  const VertexId n = g.num_vertices();

  // (1) Subgraph: every spanner edge exists in the host. Independent of the
  // Spanner's own add_edge validation. The fast path merges each row of the
  // spanner's CSR against the host's sorted row; only when an endpoint is
  // out of range or the merge misses does the scan below run, one search
  // per edge in insertion order, to name the first foreign edge and count
  // the checks up to it.
  const auto first_foreign_edge = [&] {
    for (const auto& e : h.edges()) {
      ++cert.checks;
      if (e.u >= n || e.v >= n || !g.has_edge(e.u, e.v)) {
        std::ostringstream os;
        os << "spanner edge (" << e.u << "," << e.v << ") is not a host edge";
        record(cert, os.str());
        return cert;
      }
    }
    ULTRA_CHECK(false) << "the row merge saw a foreign edge the scan missed";
    return cert;
  };
  const auto edges = h.edges();
  if (!std::all_of(edges.begin(), edges.end(),
                   [n](const graph::Edge& e) { return e.u < n && e.v < n; })) {
    return first_foreign_edge();  // the spanner graph would be malformed
  }
  const Graph s_graph =
      Graph::from_edges(n, std::vector<graph::Edge>(edges.begin(), edges.end()));
  for (VertexId v = 0; v < n; ++v) {
    const auto kept = s_graph.neighbors(v);
    const auto host = g.neighbors(v);
    if (!std::includes(host.begin(), host.end(), kept.begin(), kept.end())) {
      return first_foreign_edge();
    }
  }
  cert.checks += edges.size();

  // (2) Pick BFS sources: all vertices for the exact certificate, otherwise a
  // seeded sample (deterministic, like every other randomized piece here).
  std::vector<VertexId> sources;
  if (options.sample_sources == 0 || options.sample_sources >= n) {
    sources.resize(n);
    for (VertexId v = 0; v < n; ++v) sources[v] = v;
  } else {
    util::Rng rng(options.seed);
    sources = rng.sample_indices(n, options.sample_sources);
  }

  // (3) Per-source distortion audit, in source order with v ascending; the
  // rows come from the bit-parallel kernel, a chunk of sources at a time.
  graph::for_each_distance_row_pair(
      g, s_graph, sources,
      [&](std::size_t r, std::span<const std::uint32_t> dist_g,
          std::span<const std::uint32_t> dist_s) {
        const VertexId s = sources[r];
        for (VertexId v = 0; v < n; ++v) {
          if (v == s || dist_g[v] == graph::kUnreachable) continue;
          ++cert.checks;
          if (dist_s[v] == graph::kUnreachable) {
            if (options.require_connectivity) {
              std::ostringstream os;
              os << "pair (" << s << "," << v << ") connected in host (dist "
                 << dist_g[v] << ") but disconnected in spanner";
              record(cert, os.str());
            }
            continue;
          }
          const double bound =
              options.alpha * static_cast<double>(dist_g[v]) + options.beta;
          if (static_cast<double>(dist_s[v]) > bound) {
            std::ostringstream os;
            os << "pair (" << s << "," << v << "): dist_S " << dist_s[v]
               << " > alpha " << options.alpha << " * dist_G " << dist_g[v]
               << " + beta " << options.beta;
            record(cert, os.str());
          }
        }
        return cert.ok;  // one bad source is enough
      });
  return cert;
}

Certificate certify_spanner(const Graph& g, const spanner::Spanner& h,
                            double stretch) {
  SpannerCertifyOptions options;
  options.alpha = stretch;
  return certify_spanner(g, h, options);
}

Certificate certify_clustering(const Graph& g,
                               std::span<const std::uint8_t> alive,
                               std::span<const VertexId> cluster_of,
                               std::span<const std::uint32_t> radius) {
  Certificate cert;
  const VertexId n = g.num_vertices();

  ++cert.checks;
  if (alive.size() != n || cluster_of.size() != n || radius.size() != n) {
    std::ostringstream os;
    os << "state arrays sized (" << alive.size() << "," << cluster_of.size()
       << "," << radius.size() << ") for an n=" << n << " working graph";
    record(cert, os.str());
    return cert;
  }

  // (1) Partition structure: alive members name alive, self-owning centers.
  for (VertexId v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    ++cert.checks;
    const VertexId c = cluster_of[v];
    if (c >= n || !alive[c] || cluster_of[c] != c) {
      std::ostringstream os;
      os << "alive vertex " << v << " has invalid cluster " << c;
      record(cert, os.str());
      return cert;
    }
  }

  // (2) Radius / connectivity audit: BFS from each live center, restricted to
  // the cluster's own members, must reach *every* member (connected cluster)
  // and reach it within the recorded radius. O(n + m) over all clusters.
  std::vector<std::uint64_t> claimed(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) ++claimed[cluster_of[v]];
  }
  std::vector<std::uint32_t> depth(n, graph::kUnreachable);
  std::vector<VertexId> members;
  std::queue<VertexId> frontier;
  for (VertexId c = 0; c < n; ++c) {
    if (!alive[c] || cluster_of[c] != c) continue;
    members.assign(1, c);
    depth[c] = 0;
    frontier.push(c);
    while (!frontier.empty()) {
      const VertexId u = frontier.front();
      frontier.pop();
      for (const VertexId w : g.neighbors(u)) {
        if (!alive[w] || cluster_of[w] != c) continue;
        if (depth[w] != graph::kUnreachable) continue;
        depth[w] = depth[u] + 1;
        members.push_back(w);
        frontier.push(w);
      }
    }
    for (const VertexId w : members) {
      ++cert.checks;
      if (depth[w] > radius[c]) {
        std::ostringstream os;
        os << "vertex " << w << " is " << depth[w] << " hops from its center "
           << c << " inside the cluster; recorded radius is " << radius[c];
        record(cert, os.str());
      }
    }
    ++cert.checks;
    if (members.size() != claimed[c]) {
      std::ostringstream os;
      os << "cluster " << c << " claims " << claimed[c] << " members but only "
         << members.size()
         << " are reachable from the center inside the cluster";
      record(cert, os.str());
    }
    for (const VertexId w : members) depth[w] = graph::kUnreachable;
    if (!cert.ok) return cert;
  }
  return cert;
}

}  // namespace ultra::check
