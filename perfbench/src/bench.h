// Shared types of the end-to-end benchmark: the run configuration, the
// report every workload fills (op counts, output-check failures, metrics),
// and small helpers the workloads share.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sudowoodo::perfbench {

using Clock = std::chrono::steady_clock;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Independent set-ups per run; setup_s is their median. Three left a
  /// quarter's drift between the medians of two sets of ten runs.
  int setup_reps = 5;
  /// The moment the process started; the first set-up is timed from it.
  Clock::time_point process_start = Clock::now();
};

/// Requests of one kind (kQuery, kMatch, kUpsert, kDelete, or a job).
struct KindCounts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
};

/// A reported metric; its unit is fixed by the metric table in main.cc.
struct Metric {
  std::string name;
  double value = 0.0;
  /// How many measurements the value summarizes (1 for a single reading).
  size_t samples = 1;
};

struct Report {
  /// Timed ops (resolutions, ingest requests, pipeline jobs) and how many
  /// of them failed: a non-OK response, an expired deadline, or an output
  /// check that did not hold.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, KindCounts> kinds;
  /// Output checks that did not hold, one line each.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, size_t samples = 1) {
    metrics.push_back(Metric{name, value, samples});
  }
  void CountRequest(const std::string& kind, bool ok) {
    KindCounts& c = kinds[kind];
    ++c.attempted;
    ++(ok ? c.succeeded : c.failed);
  }
  void CheckFailed(const std::string& what) { check_failures.push_back(what); }
  bool correct() const { return failed == 0 && check_failures.empty(); }
};

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Peak resident set of the process so far, in MB.
double PeakRssMb();

/// Runs `make()` `config.setup_reps` times, each set-up built after the
/// previous one is destroyed, and keeps the last. Appends each set-up's
/// duration to `*seconds`; the first is timed from process start.
template <typename Ptr, typename Make>
Ptr SetUpRepeatedly(const Config& config, const Make& make,
                    std::vector<double>* seconds) {
  Ptr state;
  for (int r = 0; r < config.setup_reps; ++r) {
    state.reset();
    const Clock::time_point t0 =
        r == 0 ? config.process_start : Clock::now();
    state = make(r == config.setup_reps - 1);
    seconds->push_back(Seconds(Clock::now() - t0));
  }
  return state;
}

}  // namespace sudowoodo::perfbench

#endif  // PERFBENCH_BENCH_H_
