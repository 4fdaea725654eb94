// Deterministic pseudo-random number generation for all algorithms in this
// library. Every randomized component takes an explicit Rng (or a seed) so
// that runs are reproducible; there is no global random state.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace ultra::util {

// The splitmix64 step: a strong stateless mixer, the standard choice for
// hashing coordinates into uniform 64-bit values. The fault plan and the
// maintenance loop draw every decision as mix64 of (seed, salt,
// coordinates); SplitMix64 below applies it to a counter.
// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
// generators" (OOPSLA 2014).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// SplitMix64: used to seed the main generator from a single 64-bit value.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t z = mix64(state_);
    state_ += 0x9e3779b97f4a7c15ULL;
    return z;
  }

 private:
  std::uint64_t state_;
};

// Xoshiro256**: the workhorse generator. Fast, high quality, 256-bit state.
// Satisfies the UniformRandomBitGenerator named requirement so it can also be
// plugged into <random> distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound == 0 returns 0. Uses Lemire's unbiased
  // multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  // Derive an independent child generator; useful for giving each simulated
  // node (or each phase) its own stream without correlated draws.
  Rng fork() noexcept { return Rng(next() ^ 0x9e3779b97f4a7c15ULL); }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  // Sample k distinct indices from [0, n) (k >= n returns all of them),
  // in no particular order.
  std::vector<std::uint32_t> sample_indices(std::uint32_t n, std::uint32_t k) {
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    if (k >= n) return all;
    // Partial Fisher-Yates: settle the first k slots only.
    for (std::uint32_t i = 0; i < k; ++i) {
      const auto j =
          i + static_cast<std::uint32_t>(next_below(n - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace ultra::util
