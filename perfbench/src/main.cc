// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload resolve|ingest|em_pipeline --seed N --seconds S
//             --trace 0|1 [--trace-out spans.jsonl]
//
// Runs one workload and prints its metrics, one per line with unit and
// sample count, then, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones of a separate traced run, and the spans it recorded are
// written to --trace-out.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "workloads.h"

namespace sudowoodo::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every one of these; BENCHMARK.json lists the
// same names and units.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"throughput_rps", "1/s"},
    {"latency_p50_ms", "ms"}, {"quality", "ratio"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not call reads 0 with 0 samples.
constexpr MetricSpec kPerLayer[] = {
    {"serving.latency_p90_ms", "ms"},
    {"serving.flush_size", "requests"},
    {"serving.submit_us", "us"},
    {"serving.overhead_ms", "ms"},
    {"serving.expired", "count"},
    {"nn.encode_us_per_row", "us"},
    {"nn.embed_s", "s"},
    {"index.query_us", "us"},
    {"index.upsert_us", "us"},
    {"index.remove_us", "us"},
    {"index.retrains", "count"},
    {"index.using_ivf", "bool"},
    {"index.live_items", "count"},
    {"index.bytes_resident", "bytes"},
    {"index.cache_hit_ratio", "ratio"},
    {"index.cache_erasures", "count"},
    {"index.build_s", "s"},
    {"index.query_batch_s", "s"},
    {"matcher.predict_us", "us"},
    {"matcher.train_s", "s"},
    {"matcher.pseudo_label_s", "s"},
    {"contrastive.pretrain_s", "s"},
    {"contrastive.step_ms", "ms"},
    {"pipeline.unattributed_s", "s"},
    {"data.generate_s", "s"},
    {"text.vocab_s", "s"},
    {"loadgen.late_p90_ms", "ms"},
    {"loadgen.backlog", "count"},
    {"trace.overhead", "ratio"},
    {"trace.replay_exact", "bool"},
};

std::string JsonNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "resolve|ingest|em_pipeline --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

int Main(int argc, char** argv, Clock::time_point process_start) {
  Config config;
  config.process_start = process_start;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (!(config.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number " + value).c_str());
  }

  Report (*run)(const Config&, Tracer*) = nullptr;
  if (config.workload == "resolve") run = RunResolve;
  if (config.workload == "ingest") run = RunIngest;
  if (config.workload == "em_pipeline") run = RunEmPipeline;
  if (run == nullptr) Usage("unknown --workload");

  Tracer tracer;
  Report report = run(config, config.trace ? &tracer : nullptr);

  std::map<std::string, Metric> by_name;
  for (const Metric& m : report.metrics) by_name[m.name] = m;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("  %-26s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  std::string json_metrics;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      if (required) {
        report.CheckFailed(std::string("metric not measured: ") + spec.name);
      }
      it = by_name.emplace(spec.name, Metric{spec.name, 0.0, 0}).first;
    }
    double value = it->second.value;
    if (!std::isfinite(value)) {
      report.CheckFailed(std::string("metric not finite: ") + spec.name);
      value = 0.0;
    }
    std::printf("  %-26s %16.6g %-9s %zu\n", spec.name, value, spec.unit,
                it->second.samples);
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += std::string("\"") + spec.name + "\": {\"value\": " +
                    JsonNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
    std::printf("  layer split (self time per span name):\n");
    std::printf("  %-26s %10s %12s %12s\n", "span", "calls", "total_s",
                "self_s");
    for (const auto& [name, t] : tracer.ByName()) {
      std::printf("  %-26s %10llu %12.6f %12.6f\n", name.c_str(),
                  static_cast<unsigned long long>(t.calls), t.total_s,
                  t.self_s);
    }
    if (!trace_out.empty() && !tracer.WriteJsonLines(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   trace_out.c_str());
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  for (const auto& [kind, c] : report.kinds) {
    std::printf("  %-8s attempted %llu succeeded %llu failed %llu\n",
                kind.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.succeeded),
                static_cast<unsigned long long>(c.failed));
  }
  for (const std::string& why : report.check_failures) {
    std::printf("  CHECK FAILED: %s\n", why.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), json_metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace sudowoodo::perfbench

int main(int argc, char** argv) {
  const auto process_start = sudowoodo::perfbench::Clock::now();
  try {
    return sudowoodo::perfbench::Main(argc, argv, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
