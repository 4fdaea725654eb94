#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace ultra::util {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // The ceil(p N / 100)-th smallest, clamped to [1, N]. p N is exact for an
  // integer percent, so dividing by 100 last keeps the rank exact: a rank
  // p/100 * N can land just above an integer and round up one too far.
  const auto n = static_cast<double>(values.size());
  const double rank = std::clamp(std::ceil(p * n / 100.0), 1.0, n);
  const auto idx = static_cast<std::size_t>(rank) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

}  // namespace ultra::util
