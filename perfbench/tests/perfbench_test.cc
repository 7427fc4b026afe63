// Determinism and statistics tests of the benchmark itself:
//
//   python3 perfbench/run.py --self-test
//
// The same seed must give the same op schedules and the same quality, the
// percentile helpers must match hand-computed cases, and em_pipeline must
// report no tail percentile.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "model.h"
#include "stats.h"
#include "workloads.h"

namespace sudowoodo::perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentile() {
  EXPECT(Percentile({}, 50) == 0.0);
  EXPECT(Percentile({7}, 90) == 7.0);
  EXPECT(Near(Percentile({4, 1, 3, 2}, 50), 2.5));
  // rank 0.9 * 9 = 8.1: 9 + 0.1 * (10 - 9).
  EXPECT(Near(Percentile({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 90), 9.1));
  EXPECT(Near(Percentile({1, 2, 3, 4, 5}, 25), 2.0));
  EXPECT(Percentile({3, 1, 2}, 0) == 1.0);
  EXPECT(Percentile({3, 1, 2}, 100) == 3.0);
  EXPECT(Near(Median({1, 2, 3, 4, 100}), 3.0));
}

void TestWindowedPercentile() {
  // Ten windows of 1..10; a stall in one window does not move the result.
  std::vector<double> calm, stalled;
  for (int w = 0; w < 10; ++w) {
    for (int i = 1; i <= 10; ++i) {
      calm.push_back(i);
      stalled.push_back(w == 3 ? 1000.0 : i);
    }
  }
  EXPECT(Near(WindowedPercentile(calm, 10, 90), 9.1));
  EXPECT(Near(WindowedPercentile(stalled, 10, 90), 9.1));
  EXPECT(Near(WindowedPercentile(calm, 10, 50), 5.5));
  // A slowdown of every op moves it fully.
  std::vector<double> slower;
  for (double v : calm) slower.push_back(2 * v);
  EXPECT(Near(WindowedPercentile(slower, 10, 90), 18.2));
  // One window is the plain percentile.
  EXPECT(Near(WindowedPercentile(stalled, 1, 90), Percentile(stalled, 90)));
}

void TestResolveSchedule() {
  const auto a = MakeResolveSchedule(5, 4.0, 1000);
  const auto b = MakeResolveSchedule(5, 4.0, 1000);
  const auto c = MakeResolveSchedule(6, 4.0, 1000);
  EXPECT(a.size() == 2000);  // 500 arrivals per second
  bool same = a.size() == b.size();
  bool differs = false;
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].record == b[i].record;
    differs = differs || a[i].record != c[i].record;
  }
  EXPECT(same);
  EXPECT(differs);
  // A constant offered rate: evenly spaced arrivals.
  EXPECT(a[0].due_s == 0.0);
  EXPECT(Near(a[1000].due_s - a[999].due_s, a[1].due_s - a[0].due_s));
  // Skewed popularity: records repeat.
  std::set<int> distinct;
  for (const Arrival& x : a) distinct.insert(x.record);
  EXPECT(distinct.size() < a.size() / 2);
}

void TestIngestSchedule() {
  const data::EmDataset ds = GenerateEmDataset("AB", 400, 3, nullptr);
  std::vector<Tokens> pool = SerializeTable(ds.table_a);
  const text::Vocab vocab = BuildVocab(pool, nullptr);
  const std::vector<std::vector<int>> queries = EncodeIds(
      vocab, std::vector<Tokens>(pool.begin(), pool.begin() + 20));
  const auto a = MakeIngestSchedule(9, 500, pool, 200, queries, vocab);
  const auto b = MakeIngestSchedule(9, 500, pool, 200, queries, vocab);
  const auto c = MakeIngestSchedule(10, 500, pool, 200, queries, vocab);
  bool same = a.ops.size() == b.ops.size() && a.final_ids == b.final_ids &&
              a.final_content == b.final_content;
  for (size_t i = 0; same && i < a.ops.size(); ++i) {
    same = a.ops[i].kind == b.ops[i].kind &&
           a.ops[i].item_id == b.ops[i].item_id && a.ops[i].ids == b.ops[i].ids;
  }
  EXPECT(same);
  EXPECT(a.final_ids != c.final_ids);
  // The final ids are what applying the ops to the initial ids gives.
  std::set<int> live;
  for (int i = 0; i < 200; ++i) live.insert(i);
  bool valid = true;
  for (const IngestOp& op : a.ops) {
    if (op.kind == IngestKind::kInsert) valid &= live.insert(op.item_id).second;
    if (op.kind == IngestKind::kReplace) valid &= live.count(op.item_id) == 1;
    if (op.kind == IngestKind::kDelete) valid &= live.erase(op.item_id) == 1;
  }
  EXPECT(valid);
  EXPECT(std::vector<int>(live.begin(), live.end()) == a.final_ids);
}

double Quality(const Report& r) {
  for (const Metric& m : r.metrics) {
    if (m.name == "quality") return m.value;
  }
  return -1.0;
}

bool HasTail(const Report& r) {
  for (const Metric& m : r.metrics) {
    if (m.name.find("_p90") != std::string::npos) return true;
  }
  return false;
}

void TestSameSeedSameQuality() {
  Config config;
  config.seed = 3;
  config.seconds = 1.0;
  config.setup_reps = 1;
  for (auto run : {RunResolve, RunIngest, RunEmPipeline}) {
    const Report first = run(config, nullptr);
    const Report second = run(config, nullptr);
    EXPECT(first.correct());
    EXPECT(second.correct());
    EXPECT(Quality(first) > 0.0);
    EXPECT(Quality(first) == Quality(second));
    EXPECT(first.attempted == second.attempted);
  }
  // em_pipeline's 20 jobs a run are too few for any tail, traced or not.
  Tracer tracer;
  EXPECT(!HasTail(RunEmPipeline(config, nullptr)));
  EXPECT(!HasTail(RunEmPipeline(config, &tracer)));
}

}  // namespace
}  // namespace sudowoodo::perfbench

int main() {
  using namespace sudowoodo::perfbench;
  TestPercentile();
  TestWindowedPercentile();
  TestResolveSchedule();
  TestIngestSchedule();
  TestSameSeedSameQuality();
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
