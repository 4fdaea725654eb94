#include "serve/workload.h"

#include <cmath>

#include "check/check.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace ultra::serve {

using graph::VertexId;

WorkloadGen::WorkloadGen(const WorkloadSpec& spec, VertexId n)
    : spec_(spec), n_(n) {
  ULTRA_CHECK_ARG(n > 0) << "workload over an empty key universe";
  ULTRA_CHECK_ARG(spec.point_pct + spec.route_pct + spec.scan_pct == 100)
      << "op mix " << spec.point_pct << "/" << spec.route_pct << "/"
      << spec.scan_pct << " does not sum to 100";
  if (spec_.dist == KeyDist::kZipfian) {
    ULTRA_CHECK_ARG(spec.theta > 0.0 && spec.theta < 1.0)
        << "zipfian theta " << spec.theta << " outside (0, 1)";
    // zeta(n, theta) by direct summation: construction-time only, O(n) once.
    double zetan = 0.0;
    for (VertexId i = 0; i < n_; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i) + 1.0, spec_.theta);
    }
    zetan_ = zetan;
    zeta2theta_ = 1.0 + std::pow(0.5, spec_.theta);
    alpha_ = 1.0 / (1.0 - spec_.theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - spec_.theta)) /
           (1.0 - zeta2theta_ / zetan_);
  }
}

VertexId WorkloadGen::key(std::uint64_t bits) const noexcept {
  if (spec_.dist == KeyDist::kUniform || n_ < 3) {
    // Lemire multiply-shift: unbiased enough for workload purposes and
    // branch-free (the engine consumes billions of keys).
    return static_cast<VertexId>(
        (static_cast<unsigned __int128>(bits) * n_) >> 64);
  }
  // YCSB ZipfianGenerator::nextValue with u drawn from `bits`.
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  const double uz = u * zetan_;
  std::uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < zeta2theta_) {
    rank = 1;
  } else {
    rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  // ScrambledZipfian: spread the hot ranks over the id space so key heat is
  // independent of vertex numbering (landmarks are id-sampled). The FNV fold
  // alone leaves the top bits of the word nearly rank-independent (the prime
  // is ~2^40, so a small rank only perturbs bits below ~50) and the Lemire
  // map reads exactly those top bits — a SplitMix64 finalizer pass gives the
  // full-width avalanche the map needs.
  util::SplitMix64 scramble(
      util::fnv_fold(util::fnv_fold(util::kFnvOffset, spec_.seed), rank));
  return static_cast<VertexId>(
      (static_cast<unsigned __int128>(scramble.next()) * n_) >> 64);
}

WorkloadGen::Op WorkloadGen::op(std::uint64_t i) const noexcept {
  // A private SplitMix64 stream per op index: statelessness is the whole
  // contract (see header). The xor-multiply pre-mix decorrelates adjacent
  // indices before the sequential stream draws.
  util::SplitMix64 sm(spec_.seed ^ (i + 1) * 0x9e3779b97f4a7c15ull);
  Op out;
  const std::uint64_t mix = sm.next() % 100;
  if (mix < spec_.point_pct) {
    out.type = OpType::kPoint;
  } else if (mix < spec_.point_pct + spec_.route_pct) {
    out.type = OpType::kRoute;
  } else {
    out.type = OpType::kScan;
  }
  out.u = key(sm.next());
  out.v = out.type == OpType::kScan ? out.u : key(sm.next());
  return out;
}

}  // namespace ultra::serve
