// FNV-1a (Fowler–Noll–Vo) over whole 64-bit words: the fold behind the
// network's trace digest, the oracle's image digest, the serve checksums and
// the workload's zipfian scramble. Each step xors one word into the state and
// multiplies by the 64-bit FNV prime. Code that folds bytes (the maintenance
// digests) runs its own byte loop over the same two constants.
#pragma once

#include <cstdint>

namespace ultra::util {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t w) noexcept {
  return (h ^ w) * kFnvPrime;
}

}  // namespace ultra::util
