// Graph generators for workloads: random models (Erdős–Rényi, configuration-
// model random regular, preferential attachment, random trees), structured
// families (grids, tori, hypercubes, rings of cliques), and classical
// building blocks (paths, cycles, complete and complete bipartite graphs).
// The lower-bound gadget G(tau, beta, kappa) from Section 3 lives in
// src/lowerbound (it is an experiment artifact, not a generic workload).
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace ultra::graph {

// G(n, m): n vertices, m distinct uniform random edges (m clamped to C(n,2)).
[[nodiscard]] Graph erdos_renyi_gnm(VertexId n, std::uint64_t m,
                                    util::Rng& rng);

// Connected Erdős–Rényi-style graph: G(n, m) plus a uniform random spanning
// tree to guarantee connectivity (total edges <= m + n - 1).
[[nodiscard]] Graph connected_gnm(VertexId n, std::uint64_t m, util::Rng& rng);

// Random d-regular-ish multigraph via the configuration model, with loops and
// parallel edges dropped (so degrees are <= d; for d << n almost all vertices
// get exactly d).
[[nodiscard]] Graph random_regular(VertexId n, std::uint32_t d,
                                   util::Rng& rng);

// Uniform random labelled tree (Prüfer-free: random attachment ordering —
// not the uniform spanning tree distribution, but a simple random tree).
[[nodiscard]] Graph random_tree(VertexId n, util::Rng& rng);

// Barabási–Albert preferential attachment; each new vertex attaches `k`
// edges to existing vertices chosen proportionally to degree.
[[nodiscard]] Graph preferential_attachment(VertexId n, std::uint32_t k,
                                            util::Rng& rng);

// R-MAT / stochastic-Kronecker graph (Chakrabarti–Zhan–Faloutsos; the
// Graph500 generator): n must be a power of two; each of `m` edge draws
// descends log2(n) levels of the adjacency-matrix quadtree, picking the
// quadrant with probabilities (a, b, c, 1-a-b-c) perturbed ±10% per level
// (the standard noise that smooths the fractal staircase). Self-loops are
// dropped and duplicate draws collapse in Graph::from_edges, so the
// resulting edge count is <= m — substantially so under heavy skew, exactly
// like the reference implementations. Edges are generated in draw order
// from the seeded Rng only (deterministic; no container-order dependence).
// Defaults are the Graph500 parameters a=0.57, b=0.19, c=0.19.
[[nodiscard]] Graph rmat_graph(VertexId n, std::uint64_t m, util::Rng& rng,
                               double a = 0.57, double b = 0.19,
                               double c = 0.19);

[[nodiscard]] Graph path_graph(VertexId n);
[[nodiscard]] Graph cycle_graph(VertexId n);
[[nodiscard]] Graph complete_graph(VertexId n);
[[nodiscard]] Graph complete_bipartite(VertexId a, VertexId b);

// width x height grid; torus wraps both dimensions.
[[nodiscard]] Graph grid_graph(VertexId width, VertexId height);
[[nodiscard]] Graph torus_graph(VertexId width, VertexId height);

// d-dimensional hypercube: 2^d vertices.
[[nodiscard]] Graph hypercube(std::uint32_t dims);

// `count` cliques of size `clique_size` arranged in a ring, consecutive
// cliques joined by a single edge. Dense locally, sparse globally — a good
// stress test for clustering-based spanners.
[[nodiscard]] Graph ring_of_cliques(VertexId count, VertexId clique_size);

// Caterpillar-of-cliques "dumbbell" chain: `count` cliques joined by paths
// of length `path_len`. Exercises distance-sensitive distortion.
[[nodiscard]] Graph clique_chain(VertexId count, VertexId clique_size,
                                 std::uint32_t path_len);

}  // namespace ultra::graph
