// Seeded YCSB-style workload for the query-serving layer.
//
// A workload is an infinite op sequence; op(i) is a pure function of
// (spec.seed, i) — no generator state advances — so any partition of the
// index range across batches, shards or threads replays exactly the same
// ops. That statelessness is what makes the engine's result checksum
// thread-count-invariant by construction (the same discipline the round
// executor uses for its trace digest).
//
// Op mix (percentages summing to 100, YCSB workload-file style):
//   point  distance query(u, v)          — YCSB READ
//   route  compact-routing route(u, v)   — the "transaction": multi-hop
//   scan   read all of u's bunch row     — YCSB SCAN (range read)
//
// Key skew: kUniform draws vertices uniformly; kZipfian draws a Zipf(theta)
// rank by the Gray et al. quick method YCSB uses (one uniform draw u, rank
// n (eta u - eta + 1)^alpha past the two hottest ranks) and scatters ranks
// over the id space with a seeded FNV + SplitMix64 scramble, YCSB
// ScrambledZipfian style, so the hot set is independent of graph structure.
// The constructor inverts the rank formula exactly, once: it tabulates the
// first 53-bit draw of every rank, a guide table over the draw's top
// ceil(log2 n) bits and every rank's scrambled id (about 16 bytes per key),
// so a zipfian key is a guide lookup and a scan of about one table entry
// (Chen and Asau's indexed search), with no pow per key.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ultra::serve {

enum class OpType : std::uint8_t { kPoint = 0, kRoute = 1, kScan = 2 };

enum class KeyDist : std::uint8_t { kUniform, kZipfian };

struct WorkloadSpec {
  std::uint64_t seed = 1;
  // Op mix; must sum to 100.
  std::uint32_t point_pct = 90;
  std::uint32_t route_pct = 0;
  std::uint32_t scan_pct = 10;
  KeyDist dist = KeyDist::kUniform;
  double theta = 0.99;  // zipfian skew, in (0, 1); ignored for kUniform
};

class WorkloadGen {
 public:
  // `n` is the key universe (vertex count of the served graph).
  WorkloadGen(const WorkloadSpec& spec, graph::VertexId n);

  struct Op {
    OpType type = OpType::kPoint;
    graph::VertexId u = 0;
    graph::VertexId v = 0;  // unused for kScan
  };

  // The i-th op. Pure in (spec.seed, i): two WorkloadGen instances built
  // from the same spec and n agree on every index, in any call order.
  [[nodiscard]] Op op(std::uint64_t i) const noexcept;

  // The key one 64-bit draw maps to (its top 53 bits for a zipfian key);
  // op() draws each of its keys through this.
  [[nodiscard]] graph::VertexId key(std::uint64_t bits) const noexcept;

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] graph::VertexId num_keys() const noexcept { return n_; }

 private:
  WorkloadSpec spec_;
  graph::VertexId n_;
  // Zipfian tables, built for n >= 3 only (fewer keys draw uniformly):
  // cut_[r] is the first 53-bit draw whose rank is r or more, and cut_[n]
  // = 2^53 stops the scan; guide_[j] is the rank of draw j << guide_shift_;
  // id_[r] is rank r's scrambled key.
  std::vector<std::uint64_t> cut_;
  std::vector<graph::VertexId> guide_;
  std::vector<graph::VertexId> id_;
  int guide_shift_ = 0;
};

}  // namespace ultra::serve
