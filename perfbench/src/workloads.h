// The benchmark's three workloads, each one process, one server worker at
// most, and no more threads than the box has cores:
//
//   resolve      online entity resolution against a live IVF corpus, open
//                loop at a constant offered rate (the read path);
//   ingest       upserts, replacements, deletes and a few queries against
//                the live corpus through a Transformer encoder, closed loop
//                (the write path);
//   em_pipeline  the paper's offline job (Fig. 2), one job per op.
//
// The op schedules are exposed for the determinism tests.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "model.h"
#include "trace.h"

namespace sudowoodo::perfbench {

/// Each runs one workload and reports its end-to-end metrics, or, given a
/// tracer, records spans into it and reports the per-layer metrics.
Report RunResolve(const Config& config, Tracer* trace);
Report RunIngest(const Config& config, Tracer* trace);
Report RunEmPipeline(const Config& config, Tracer* trace);

/// One resolve arrival: when it is due (seconds after the schedule
/// starts) and which table-A record it resolves.
struct Arrival {
  double due_s = 0.0;
  int record = 0;
};

/// Arrivals at the workload's constant offered rate for `seconds`, records
/// drawn from `n_records` with Zipf-skewed popularity. A pure function of
/// its arguments.
std::vector<Arrival> MakeResolveSchedule(uint64_t seed, double seconds,
                                         int n_records);

enum class IngestKind { kInsert, kReplace, kDelete, kQuery };

struct IngestOp {
  IngestKind kind = IngestKind::kInsert;
  /// The item inserted, replaced or deleted (unused by queries).
  int item_id = -1;
  /// Token ids to embed (inserts, replacements, queries).
  std::vector<int> ids;
};

struct IngestSchedule {
  std::vector<IngestOp> ops;
  /// The live item ids after every op has applied, and each one's
  /// final token ids.
  std::vector<int> final_ids;
  std::vector<std::vector<int>> final_content;
};

/// A seeded op schedule over a corpus whose items 0..n_initial-1 start
/// live with content `pool[0..n_initial)`. New items take the next unused
/// pool rows; replacements perturb an item's current content through the
/// dataset's noise channel; queries draw from `queries`. A pure function
/// of its arguments.
IngestSchedule MakeIngestSchedule(uint64_t seed, int n_ops,
                                  const std::vector<Tokens>& pool,
                                  int n_initial,
                                  const std::vector<std::vector<int>>& queries,
                                  const text::Vocab& vocab);

}  // namespace sudowoodo::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
