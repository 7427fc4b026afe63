// Recall-vs-speed series for the blocking index's IVF cells
// (index/ivf_index.h): at N in {2.5k, 25k, 100k} items, sweep nprobe and
// report QueryBatch wall-clock, speedup over its exact scan, and
// recall@k against the exact top-k; at 25k and 100k also the cost of
// batch and single-row inserts into a live index. The 2.5k point is
// paper scale (where the pipelines default to the exact path); the 100k
// point is where the sub-linear flop count pays. A single-query series
// at N in {10k, 25k, 100k} times one BlockingIndex::Query at a time - the
// serving shape - with its heap allocations per call.
// scripts/bench_compare.py treats recall_at_k as a correctness metric: a
// drop beyond tolerance FAILs the comparison, and so does any allocation
// in a series whose baseline allocates nothing.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/json_out.h"
#include "common/alloc_count.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "index/ivf_index.h"

namespace sudowoodo {
namespace {

// Clustered unit vectors (cluster direction + Gaussian noise,
// re-normalized): the workload IVF exists for - contrastively trained
// embeddings cluster by entity; uniform random directions would make every
// cell equidistant and nprobe meaningless. Items and queries must share
// `centers` (queries retrieve the items clustered around the same
// entities), so the directions are drawn once and passed in.
std::vector<float> SharedClusterCenters(int n_clusters, int dim,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<float> centers(static_cast<size_t>(n_clusters) * dim);
  for (auto& v : centers) v = static_cast<float>(rng.Gaussian());
  return centers;
}

std::vector<float> ClusteredUnitRows(const std::vector<float>& centers, int n,
                                     int dim, float noise, uint64_t seed) {
  Rng rng(seed);
  const int n_clusters = static_cast<int>(centers.size()) / dim;
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    const float* c = centers.data() + static_cast<size_t>(i % n_clusters) * dim;
    float* r = rows.data() + static_cast<size_t>(i) * dim;
    double norm = 0.0;
    for (int j = 0; j < dim; ++j) {
      r[j] = c[j] + noise * static_cast<float>(rng.Gaussian());
      norm += static_cast<double>(r[j]) * r[j];
    }
    norm = std::sqrt(std::max(norm, 1e-20));
    for (int j = 0; j < dim; ++j) {
      r[j] = static_cast<float>(r[j] / norm);
    }
  }
  return rows;
}

double RecallAtK(const std::vector<std::vector<index::Neighbor>>& exact,
                 const std::vector<std::vector<index::Neighbor>>& approx) {
  double hit = 0.0, total = 0.0;
  for (size_t q = 0; q < exact.size(); ++q) {
    std::set<int> found;
    for (const auto& nb : approx[q]) found.insert(nb.id);
    for (const auto& nb : exact[q]) {
      total += 1.0;
      hit += found.count(nb.id) ? 1.0 : 0.0;
    }
  }
  return total > 0 ? hit / total : 1.0;
}

/// The exact scan (kExact: never partitions) or IVF cells from the first
/// row (kIvf), with the given storage.
index::BlockingIndexOptions Kind(index::BlockingIndexKind kind,
                                 const index::StorageOptions& storage = {}) {
  index::BlockingIndexOptions o;
  o.kind = kind;
  o.storage = storage;
  return o;
}

constexpr index::BlockingIndexKind kExact = index::BlockingIndexKind::kExact;
constexpr index::BlockingIndexKind kIvf = index::BlockingIndexKind::kIvf;

/// Top-k of every query at the index's default nprobe.
std::vector<std::vector<index::Neighbor>> TopK(const index::BlockingIndex& idx,
                                               const std::vector<float>& q,
                                               int n_queries, int dim,
                                               int k) {
  std::vector<std::vector<index::Neighbor>> out;
  SUDO_CHECK_OK(idx.QueryBatch(q.data(), n_queries, dim, k, &out));
  return out;
}

/// IVF top-k of every query, probing `nprobe` cells.
std::vector<std::vector<index::Neighbor>> ProbeTopK(
    const index::BlockingIndex& ivf, const std::vector<float>& q, int n_queries,
    int dim, int k, int nprobe) {
  std::vector<std::vector<index::Neighbor>> out;
  SUDO_CHECK_OK(ivf.QueryBatch(q.data(), n_queries, dim, k, nprobe, &out));
  return out;
}

/// One single-query record: every query once through BlockingIndex::Query
/// into one retained output vector (warm-up, and the results the recall
/// is computed from), then the same queries again, timed and with heap
/// allocations counted. `seconds` is the mean per call.
void SingleQueryRecord(const char* bench_name, const char* storage,
                       const index::BlockingIndex& idx,
                       const std::vector<float>& queries, int n_queries,
                       int dim, int k,
                       const std::vector<std::vector<index::Neighbor>>& truth,
                       TablePrinter* table, bench::JsonRecords* records) {
  std::vector<std::vector<index::Neighbor>> got(
      static_cast<size_t>(n_queries));
  std::vector<index::Neighbor> out;
  for (int q = 0; q < n_queries; ++q) {
    SUDO_CHECK_OK(
        idx.Query(queries.data() + static_cast<size_t>(q) * dim, dim, k, &out));
    got[static_cast<size_t>(q)] = out;
  }
  AllocCounterStart();
  WallTimer timer;
  for (int q = 0; q < n_queries; ++q) {
    SUDO_CHECK_OK(
        idx.Query(queries.data() + static_cast<size_t>(q) * dim, dim, k, &out));
  }
  const double seconds = timer.ElapsedSeconds() / n_queries;
  const AllocCounts allocs = AllocCounterStop();
  const double allocs_per_call =
      static_cast<double>(allocs.count) / n_queries;
  const double recall = RecallAtK(truth, got);
  table->AddRow({bench_name, storage, StrFormat("%.2f", seconds * 1e6),
                 StrFormat("%.4f", recall), StrFormat("%.2f", allocs_per_call),
                 StrFormat("%zu", idx.bytes_resident())});
  auto& r = records->Add();
  r.Str("bench", bench_name);
  r.Str("storage", storage);
  r.Int("n_items", idx.size());
  r.Int("n_queries", n_queries);
  r.Int("dim", dim);
  r.Int("k", k);
  r.Num("seconds", seconds);
  r.Num("recall_at_k", recall);
  r.Int("bytes_resident", static_cast<int64_t>(idx.bytes_resident()));
  r.Num("allocs_per_call", allocs_per_call);
}

void Run(const std::string& json_path) {
  bench::JsonRecords records;
  const int dim = 64, n_queries = 1000, k = 10;

  // Single-query series: the serving shape, one query per call. Recall
  // is against the fp32 exact truth; the IVF index probes its default
  // nprobe (16).
  for (int n_items : {10000, 25000, 100000}) {
    const int n_clusters = std::max(20, n_items / 100);
    const auto centers = SharedClusterCenters(n_clusters, dim, 7);
    const auto items = ClusteredUnitRows(centers, n_items, dim, 0.25f, 9);
    const auto queries = ClusteredUnitRows(centers, n_queries, dim, 0.25f, 11);
    const auto truth =
        TopK(index::BlockingIndex(items.data(), n_items, dim, Kind(kExact)),
             queries, n_queries, dim, k);
    TablePrinter table(StrFormat(
        "Single queries: N=%d, dim=%d, Q=%d, k=%d, one Query call each",
        n_items, dim, n_queries, k));
    table.SetHeader({"series", "storage", "us/query", "recall@10",
                     "allocs/call", "bytes"});
    for (index::IndexStorage storage :
         {index::IndexStorage::kFp32, index::IndexStorage::kInt8}) {
      index::StorageOptions so;
      so.storage = storage;
      const char* name =
          storage == index::IndexStorage::kFp32 ? "fp32" : "int8";
      const index::BlockingIndex exact(items.data(), n_items, dim,
                                       Kind(kExact, so));
      SingleQueryRecord("ann_exact_query_single", name, exact, queries,
                        n_queries, dim, k, truth, &table, &records);
      const index::BlockingIndex ivf(items.data(), n_items, dim,
                                     Kind(kIvf, so));
      SingleQueryRecord("ann_ivf_query_single", name, ivf, queries, n_queries,
                        dim, k, truth, &table, &records);
    }
    table.Print();
  }

  for (int n_items : {2500, 25000, 100000}) {
    // Cluster count scales with N so cells stay meaningfully populated.
    const int n_clusters = std::max(20, n_items / 100);
    const auto centers = SharedClusterCenters(n_clusters, dim, 7);
    const auto items = ClusteredUnitRows(centers, n_items, dim, 0.25f, 9);
    const auto queries = ClusteredUnitRows(centers, n_queries, dim, 0.25f, 11);

    index::BlockingIndex exact(items.data(), n_items, dim, Kind(kExact));
    WallTimer exact_timer;
    const auto truth = TopK(exact, queries, n_queries, dim, k);
    const double exact_seconds = exact_timer.ElapsedSeconds();
    {
      auto& r = records.Add();
      r.Str("bench", "ann_exact_query_batch");
      r.Int("n_items", n_items);
      r.Int("n_queries", n_queries);
      r.Int("dim", dim);
      r.Int("k", k);
      r.Num("seconds", exact_seconds);
      r.Int("bytes_resident", static_cast<int64_t>(exact.bytes_resident()));
    }

    // Int8 storage series: the same rows quantized to per-row
    // symmetric int8 (storage ~0.28x of fp32 at dim 64), scored through
    // the int8 panel kernel with an exact fp32 re-rank of the top
    // QuantRerankDepth candidates. recall_at_k is against the fp32 exact
    // truth and is machine-independent (int8 scoring is bitwise across
    // tiers), so bench_compare.py gates it with the recall epsilon; the
    // representation-limited level (dense synthetic clusters shuffle
    // near-ties) is the committed baseline, not 1.0. Skipped at 2.5k
    // where the fp32 exact scan is already sub-50ms.
    if (n_items >= 25000) {
      index::StorageOptions i8so;
      i8so.storage = index::IndexStorage::kInt8;
      index::BlockingIndex exact_i8(items.data(), n_items, dim,
                                    Kind(kExact, i8so));
      WallTimer i8_timer;
      const auto i8_res = TopK(exact_i8, queries, n_queries, dim, k);
      const double i8_seconds = i8_timer.ElapsedSeconds();
      const double i8_recall = RecallAtK(truth, i8_res);
      const double bytes_ratio =
          static_cast<double>(exact_i8.bytes_resident()) /
          static_cast<double>(exact.bytes_resident());
      TablePrinter i8_table(StrFormat(
          "Int8 exact scan: N=%d (fp32 exact: %.3fs, %zu bytes)", n_items,
          exact_seconds, exact.bytes_resident()));
      i8_table.SetHeader(
          {"seconds", "speedup_vs_exact", "recall@10", "bytes", "ratio"});
      i8_table.AddRow(
          {StrFormat("%.4f", i8_seconds),
           StrFormat("%.2fx", i8_seconds > 0 ? exact_seconds / i8_seconds
                                             : 0.0),
           StrFormat("%.4f", i8_recall),
           StrFormat("%zu", exact_i8.bytes_resident()),
           StrFormat("%.3f", bytes_ratio)});
      i8_table.Print();
      auto& r = records.Add();
      r.Str("bench", "ann_exact_int8_query_batch");
      r.Int("n_items", n_items);
      r.Int("n_queries", n_queries);
      r.Int("dim", dim);
      r.Int("k", k);
      r.Num("seconds", i8_seconds);
      r.Num("speedup_vs_exact",
            i8_seconds > 0 ? exact_seconds / i8_seconds : 0.0);
      r.Num("recall_at_k", i8_recall);
      r.Int("bytes_resident",
            static_cast<int64_t>(exact_i8.bytes_resident()));
      r.Num("bytes_ratio", bytes_ratio);
    }

    WallTimer build_timer;
    index::BlockingIndex ivf(items.data(), n_items, dim, Kind(kIvf));
    const double build_seconds = build_timer.ElapsedSeconds();
    {
      auto& r = records.Add();
      r.Str("bench", "ann_ivf_build");
      r.Int("n_items", n_items);
      r.Int("dim", dim);
      r.Int("num_cells", ivf.num_cells());
      r.Num("seconds", build_seconds);
      r.Int("bytes_resident", static_cast<int64_t>(ivf.bytes_resident()));
    }

    // Int8 IVF: quantized cells probed in int8, same fp32 re-rank tail.
    // One point at the default probe budget; the fp32 sweep below covers
    // the probe/recall trade-off shape.
    if (n_items >= 25000) {
      index::StorageOptions i8so;
      i8so.storage = index::IndexStorage::kInt8;
      index::BlockingIndex ivf_i8(items.data(), n_items, dim,
                                  Kind(kIvf, i8so));
      const int nprobe = 16;
      WallTimer timer;
      const auto approx =
          ProbeTopK(ivf_i8, queries, n_queries, dim, k, nprobe);
      const double seconds = timer.ElapsedSeconds();
      auto& r = records.Add();
      r.Str("bench", "ann_ivf_int8_query_batch");
      r.Int("n_items", n_items);
      r.Int("n_queries", n_queries);
      r.Int("dim", dim);
      r.Int("k", k);
      r.Int("nprobe", nprobe);
      r.Int("num_cells", ivf_i8.num_cells());
      r.Num("seconds", seconds);
      r.Num("speedup_vs_exact", seconds > 0 ? exact_seconds / seconds : 0.0);
      r.Num("recall_at_k", RecallAtK(truth, approx));
      r.Int("bytes_resident",
            static_cast<int64_t>(ivf_i8.bytes_resident()));
      r.Num("bytes_ratio", static_cast<double>(ivf_i8.bytes_resident()) /
                               static_cast<double>(ivf.bytes_resident()));
    }

    TablePrinter table(StrFormat(
        "IVF recall-vs-speed: N=%d, dim=%d, Q=%d, k=%d, %d cells "
        "(exact: %.3fs, build: %.3fs)",
        n_items, dim, n_queries, k, ivf.num_cells(), exact_seconds,
        build_seconds));
    table.SetHeader({"nprobe", "seconds", "speedup_vs_exact", "recall@10"});
    for (int nprobe : {1, 2, 4, 8, 16}) {
      WallTimer timer;
      const auto approx = ProbeTopK(ivf, queries, n_queries, dim, k, nprobe);
      const double seconds = timer.ElapsedSeconds();
      const double recall = RecallAtK(truth, approx);
      const double speedup = seconds > 0 ? exact_seconds / seconds : 0.0;
      table.AddRow({std::to_string(nprobe), StrFormat("%.4f", seconds),
                    StrFormat("%.2fx", speedup), StrFormat("%.4f", recall)});
      auto& r = records.Add();
      r.Str("bench", "ann_query_batch");
      r.Int("n_items", n_items);
      r.Int("n_queries", n_queries);
      r.Int("dim", dim);
      r.Int("k", k);
      r.Int("nprobe", nprobe);
      r.Int("num_cells", ivf.num_cells());
      r.Num("seconds", seconds);
      r.Num("speedup_vs_exact", speedup);
      r.Num("recall_at_k", recall);
    }
    table.Print();

    // Incremental series: a live corpus growing from N/2 to N in
    // ten arriving batches through BlockingIndex::Insert (default mutation
    // knobs, so the mid-series re-train is included in the amortized
    // cost), versus re-building the index from scratch per arriving
    // batch - the only alternative before in-place mutation. `speedup`
    // is rebuild-cost / mean-per-batch-insert-cost; recall@10 of the
    // grown index is gated against its committed baseline by
    // bench_compare.py's recall rule, so insert-path cell decay beyond
    // the budget fails the bench. Skipped at paper scale (2.5k), where
    // the pipelines default to the exact path anyway.
    if (n_items >= 25000) {
      const int n_batches = 10;
      const int batch = n_items / (2 * n_batches);
      const int start = n_items - n_batches * batch;
      index::BlockingIndex inc(items.data(), start, dim, Kind(kIvf));
      double insert_seconds = 0.0;
      for (int b = 0; b < n_batches; ++b) {
        WallTimer timer;
        SUDO_CHECK_OK(inc.Insert(
            items.data() + static_cast<size_t>(start + b * batch) * dim,
            batch, dim));
        insert_seconds += timer.ElapsedSeconds();
      }
      const double mean_batch_seconds = insert_seconds / n_batches;
      const int nprobe = 16;
      const auto approx = ProbeTopK(inc, queries, n_queries, dim, k, nprobe);
      const double recall = RecallAtK(truth, approx);
      const double speedup =
          mean_batch_seconds > 0 ? build_seconds / mean_batch_seconds : 0.0;
      TablePrinter inc_table(StrFormat(
          "Live IVF growth %d -> %d in %d batches (%d retrains; full "
          "rebuild at N: %.3fs)",
          start, n_items, n_batches, inc.retrain_count(), build_seconds));
      inc_table.SetHeader(
          {"mean s/batch", "rebuild/insert", "recall@10 (nprobe=16)"});
      inc_table.AddRow({StrFormat("%.4f", mean_batch_seconds),
                        StrFormat("%.2fx", speedup),
                        StrFormat("%.4f", recall)});
      inc_table.Print();
      auto& r = records.Add();
      r.Str("bench", "ann_incremental_insert");
      r.Int("n_items", n_items);
      r.Int("n_queries", n_queries);
      r.Int("dim", dim);
      r.Int("k", k);
      r.Int("nprobe", nprobe);
      r.Int("n_batches", n_batches);
      r.Int("batch_size", batch);
      r.Num("seconds", mean_batch_seconds);
      r.Num("speedup", speedup);
      r.Num("recall_at_k", recall);
    }

    // Single-row arrival series: the serving upsert shape. Each index is
    // built over the first N - 1,000 items and the last 1,000 arrive one
    // Insert call each, so a per-call cost that grows with N shows
    // undiluted - the batch series above spreads it over 1,250+ rows.
    // `seconds` is the mean per single-row Insert; the IVF record's
    // recall@10 (nprobe 16, against the exact truth over all N items)
    // rides the same bench_compare gate as the other ann_* records.
    if (n_items >= 25000) {
      const int arrivals = 1000;
      const int start = n_items - arrivals;
      const int nprobe = 16;
      index::BlockingIndex ivf_single(items.data(), start, dim, Kind(kIvf));
      WallTimer ivf_timer;
      for (int i = start; i < n_items; ++i) {
        SUDO_CHECK_OK(ivf_single.Insert(
            items.data() + static_cast<size_t>(i) * dim, 1, dim));
      }
      const double ivf_per_insert = ivf_timer.ElapsedSeconds() / arrivals;
      const double recall = RecallAtK(
          truth, ProbeTopK(ivf_single, queries, n_queries, dim, k, nprobe));
      index::BlockingIndex exact_single(items.data(), start, dim,
                                        Kind(kExact));
      WallTimer exact_insert_timer;
      for (int i = start; i < n_items; ++i) {
        SUDO_CHECK_OK(exact_single.Insert(
            items.data() + static_cast<size_t>(i) * dim, 1, dim));
      }
      const double exact_per_insert =
          exact_insert_timer.ElapsedSeconds() / arrivals;
      TablePrinter single_table(StrFormat(
          "Single-row arrivals %d -> %d, one Insert call each", start,
          n_items));
      single_table.SetHeader({"index", "us/insert", "recall@10 (nprobe=16)",
                              "bytes"});
      single_table.AddRow({"IVF", StrFormat("%.2f", ivf_per_insert * 1e6),
                           StrFormat("%.4f", recall),
                           StrFormat("%zu", ivf_single.bytes_resident())});
      single_table.AddRow({"exact", StrFormat("%.2f", exact_per_insert * 1e6),
                           "-",
                           StrFormat("%zu", exact_single.bytes_resident())});
      single_table.Print();
      auto& ri = records.Add();
      ri.Str("bench", "ann_ivf_insert_single");
      ri.Int("n_items", n_items);
      ri.Int("n_queries", n_queries);
      ri.Int("dim", dim);
      ri.Int("k", k);
      ri.Int("nprobe", nprobe);
      ri.Int("arrivals", arrivals);
      ri.Num("seconds", ivf_per_insert);
      ri.Num("recall_at_k", recall);
      ri.Int("bytes_resident",
             static_cast<int64_t>(ivf_single.bytes_resident()));
      auto& re = records.Add();
      re.Str("bench", "ann_exact_insert_single");
      re.Int("n_items", n_items);
      re.Int("dim", dim);
      re.Int("arrivals", arrivals);
      re.Num("seconds", exact_per_insert);
      re.Int("bytes_resident",
             static_cast<int64_t>(exact_single.bytes_resident()));
    }
  }

  bench::WriteOrReport(records, json_path);
}

}  // namespace
}  // namespace sudowoodo

int main(int argc, char** argv) {
  sudowoodo::Run(sudowoodo::bench::JsonPathFromArgs(argc, argv));
  return 0;
}
