// Order statistics for the benchmark's latency samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace sudowoodo::perfbench {

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// the two closest ranks: rank = p/100 * (n - 1) over the sorted samples,
/// the "inclusive" definition of Python's statistics.quantiles. 0 for an
/// empty sample.
double Percentile(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// The median over `windows` consecutive equal slices of `samples` (in
/// arrival order) of each slice's p-th percentile. A stall that hits a
/// minority of the slices leaves it unchanged; a change that slows every
/// op moves it as much as the plain percentile.
double WindowedPercentile(const std::vector<double>& samples, int windows,
                          double p);

}  // namespace sudowoodo::perfbench

#endif  // PERFBENCH_STATS_H_
