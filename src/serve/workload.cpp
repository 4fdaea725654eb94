#include "serve/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "check/check.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace ultra::serve {

using graph::VertexId;

namespace {

// A zipfian key reads the top 53 bits of its draw as u = draw * 2^-53, which
// is exact.
constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;

double unit(std::uint64_t draw) {
  return static_cast<double>(draw) * 0x1.0p-53;
}

// The draw at u, clamped to [0, 1] first so the conversion cannot overflow.
std::uint64_t draw_at(double u) {
  return static_cast<std::uint64_t>(std::clamp(u, 0.0, 1.0) * 0x1.0p53);
}

// Lemire multiply-shift: unbiased enough for workload purposes and
// branch-free (the engine consumes billions of keys).
VertexId scale(std::uint64_t bits, VertexId n) {
  return static_cast<VertexId>(
      (static_cast<unsigned __int128>(bits) * n) >> 64);
}

// The smallest d in [lo, hi] with at(d), for an `at` that is false and then
// true over [lo, hi); hi stands for "none" and is never passed to `at`.
// Gallops out from `guess` in doubling steps, then bisects, so a guess k off
// costs about 2 log2 k calls.
template <class At>
std::uint64_t first_true(std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t guess, At at) {
  guess = std::clamp(guess, lo, hi);
  if (guess == hi || at(guess)) {
    hi = guess;
    for (std::uint64_t step = 1; hi - lo > step; step *= 2) {
      if (!at(hi - step)) {
        lo = hi - step + 1;
        break;
      }
      hi -= step;
    }
  } else {
    lo = guess + 1;
    for (std::uint64_t step = 1; hi - lo > step; step *= 2) {
      if (at(lo + step - 1)) {
        hi = lo + step - 1;
        break;
      }
      lo += step;
    }
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (at(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// YCSB's ZipfianGenerator (Gray et al., SIGMOD 1994), its constants
// computed exactly as the per-draw form computed them. Draw u has rank 0
// when u * zetan < 1, rank 1 when u * zetan < zeta2theta, and otherwise
// floor(n * base(u)^alpha), capped at n - 1. Every rounded step is monotone
// in u, and so is pow where one ulp of its base moves the result by more
// than pow's error (at theta = 0.99, about 50 ulps); so each rank is one run
// of draws, fixed by its first draw. serve_test's differential test carries
// the claim where the slope does not (theta below about 0.75).
struct GrayZipfian {
  GrayZipfian(double theta, VertexId keys) : n(keys) {
    // zeta(n, theta) by direct summation: construction-time only, O(n) once.
    for (VertexId i = 0; i < keys; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i) + 1.0, theta);
    }
    zeta2theta = 1.0 + std::pow(0.5, theta);
    alpha = 1.0 / (1.0 - theta);
    eta = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2theta / zetan);
  }

  [[nodiscard]] double base(std::uint64_t draw) const {
    return eta * unit(draw) - eta + 1.0;
  }
  [[nodiscard]] bool reaches(double x, VertexId rank) const {
    return n * std::pow(x, alpha) >= rank;
  }

  double n;
  double zetan = 0.0;
  double zeta2theta = 0.0;
  double alpha = 0.0;
  double eta = 0.0;
};

}  // namespace

WorkloadGen::WorkloadGen(const WorkloadSpec& spec, VertexId n)
    : spec_(spec), n_(n) {
  ULTRA_CHECK_ARG(n > 0) << "workload over an empty key universe";
  ULTRA_CHECK_ARG(spec.point_pct + spec.route_pct + spec.scan_pct == 100)
      << "op mix " << spec.point_pct << "/" << spec.route_pct << "/"
      << spec.scan_pct << " does not sum to 100";
  if (spec_.dist != KeyDist::kZipfian) return;
  ULTRA_CHECK_ARG(spec.theta > 0.0 && spec.theta < 1.0)
      << "zipfian theta " << spec.theta << " outside (0, 1)";
  // Below three keys eta is 0/0; those generators draw uniformly.
  if (n_ < 3) return;

  const GrayZipfian z(spec_.theta, n_);
  cut_.resize(std::size_t{n_} + 1);
  cut_[0] = 0;
  const auto first_reaching = [&](double level) {
    return first_true(0, kDraws, draw_at(level / z.zetan),
                      [&](std::uint64_t d) {
                        return unit(d) * z.zetan >= level;
                      });
  };
  cut_[1] = first_reaching(1.0);
  const std::uint64_t formula_from = first_reaching(z.zeta2theta);
  constexpr std::uint64_t kOne = std::bit_cast<std::uint64_t>(1.0);
  for (VertexId r = 2; r < n_; ++r) {
    // The least base x with n x^alpha >= r, searched over the bit patterns
    // of the doubles in [0, 1], which order as their values, from
    // (r/n)^(1-theta): that lands within an ulp, so the search costs 2
    // pows (3 with the seed's, 4 with the zeta term's, per rank).
    const double seed = std::pow(r / z.n, 1.0 - spec_.theta);
    const double x = std::bit_cast<double>(
        first_true(0, kOne, std::bit_cast<std::uint64_t>(seed),
                   [&](std::uint64_t b) {
                     return z.reaches(std::bit_cast<double>(b), r);
                   }));
    // The first draw past the two hottest ranks whose base reaches x.
    cut_[r] = first_true(formula_from, kDraws, draw_at(1.0 + (x - 1.0) / z.eta),
                         [&](std::uint64_t d) { return z.base(d) >= x; });
  }
  cut_[n_] = kDraws;

  guide_shift_ = 53 - static_cast<int>(std::bit_width(n_ - 1));
  guide_.resize(std::size_t{1} << (53 - guide_shift_));
  VertexId rank = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    while (cut_[rank + 1] <= (std::uint64_t{j} << guide_shift_)) ++rank;
    guide_[j] = rank;
  }

  // ScrambledZipfian: spread the hot ranks over the id space so key heat is
  // independent of vertex numbering (landmarks are id-sampled). The FNV fold
  // alone leaves the top bits of the word nearly rank-independent (the prime
  // is ~2^40, so a small rank only perturbs bits below ~50) and the Lemire
  // map reads exactly those top bits — a SplitMix64 finalizer pass gives the
  // full-width avalanche the map needs.
  id_.resize(n_);
  const std::uint64_t salt = util::fnv_fold(util::kFnvOffset, spec_.seed);
  for (VertexId r = 0; r < n_; ++r) {
    util::SplitMix64 scramble(util::fnv_fold(salt, r));
    id_[r] = scale(scramble.next(), n_);
  }
}

VertexId WorkloadGen::key(std::uint64_t bits) const noexcept {
  if (id_.empty()) return scale(bits, n_);  // uniform, or fewer than 3 keys
  const std::uint64_t draw = bits >> 11;
  VertexId rank = guide_[draw >> guide_shift_];
  // A quarter to a half of all draws pass a cut of their guide bucket
  // (theta 0.99 and 0.5 at n = 2048), too many for a branch to predict, so
  // the first step is a compare and add; about one in ten takes the loop.
  rank += cut_[rank + 1] <= draw;
  while (cut_[rank + 1] <= draw) ++rank;
  return id_[rank];
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
