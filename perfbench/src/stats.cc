#include "stats.h"

#include <algorithm>
#include <cmath>

namespace sudowoodo::perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double WindowedPercentile(const std::vector<double>& samples, int windows,
                          double p) {
  const size_t n = samples.size();
  const size_t w = std::max<size_t>(1, std::min<size_t>(windows, n));
  std::vector<double> per_window;
  for (size_t i = 0; i < w; ++i) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + i * n / w,
                            samples.begin() + (i + 1) * n / w),
        p));
  }
  return Median(per_window);
}

}  // namespace sudowoodo::perfbench
