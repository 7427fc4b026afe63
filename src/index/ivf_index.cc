#include "index/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "cluster/dense_kmeans.h"
#include "common/parallel.h"
#include "index/top_k.h"
#include "tensor/kernels.h"

namespace sudowoodo::index {

namespace ks = sudowoodo::tensor::kernels;

namespace {

/// Queries are scored in fixed blocks of kQueryBlock rows, and each table
/// in chunks of kRowChunk stored rows (a whole number of panels).
/// Boundaries depend only on the shapes, never on the thread count; each
/// score is one fixed k-increasing accumulation chain whichever block,
/// chunk or query group computes it, and the selector's order is total,
/// so none of them is visible in the results. Together they bound the
/// per-thread score buffer at kQueryBlock x kRowChunk floats (128 KiB)
/// whatever the table size, and keep it in cache while the selectors
/// read it.
constexpr int kQueryBlock = 32;
constexpr int kRowChunk = 1024;
static_assert(kRowChunk % ks::kPackedPanelRows == 0,
              "chunks start on a panel boundary");

/// Per-thread query scratch. Retained across calls, so once a thread has
/// served the largest block shape it queries without allocating.
struct QueryScratch {
  std::vector<float> cell_scores;           // IVF: [m, cells]
  TopKSelector probe;                       // IVF: one query's probed cells
  std::vector<std::pair<int, int>> probes;  // (table, local query)
  std::vector<float> gpanel;                // fp32: gathered queries
  std::vector<int8_t> qcodes, gcodes;       // int8: block / gathered codes
  std::vector<float> qscales, gscales;
  std::vector<float> scores;                // [group, chunk rows]
  std::vector<TopKSelector> sel;            // per local query
  std::vector<float> row;                   // int8: one dequantized row
  TopKSelector rerank;                      // int8: the final top-k
};

QueryScratch& ThreadScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

/// Scores the block's queries listed in s->probes[g, h) - all probing
/// one table of `rows`, in ascending local order - against every stored
/// row of that table, tombstones included (each score is an independent
/// chain; the selectors skip the tombstones), and offers each query's
/// scores to its selector. `qb` is the block's fp32 queries; under int8
/// they score through their codes in s->qcodes. A run of consecutive
/// queries scores straight from the block, any other group from one
/// gathered copy.
void ScoreTable(const RowSet& rows, const float* qb, bool int8, size_t g,
                size_t h, QueryScratch* s) {
  const int t = s->probes[g].first;
  const RowSet::Table& table = rows.table(t);
  const int nr = static_cast<int>(table.ids.size());
  if (nr == 0) return;
  const int dim = rows.dim();
  const int gq = static_cast<int>(h - g);
  const int lq0 = s->probes[g].second;
  const bool run = s->probes[h - 1].second - lq0 == gq - 1;
  const float* panel = qb + static_cast<size_t>(lq0) * dim;
  const int8_t* codes = nullptr;
  const float* scales = nullptr;
  if (int8 && run) {
    codes = s->qcodes.data() + static_cast<size_t>(lq0) * dim;
    scales = s->qscales.data() + lq0;
  } else if (int8) {
    s->gcodes.resize(static_cast<size_t>(gq) * dim);
    s->gscales.resize(static_cast<size_t>(gq));
    for (int j = 0; j < gq; ++j) {
      const int lq = s->probes[g + static_cast<size_t>(j)].second;
      std::copy_n(s->qcodes.begin() + static_cast<size_t>(lq) * dim, dim,
                  s->gcodes.begin() + static_cast<size_t>(j) * dim);
      s->gscales[static_cast<size_t>(j)] = s->qscales[static_cast<size_t>(lq)];
    }
    codes = s->gcodes.data();
    scales = s->gscales.data();
  } else if (!run) {
    s->gpanel.resize(static_cast<size_t>(gq) * dim);
    for (int j = 0; j < gq; ++j) {
      const int lq = s->probes[g + static_cast<size_t>(j)].second;
      std::copy_n(qb + static_cast<size_t>(lq) * dim, dim,
                  s->gpanel.begin() + static_cast<size_t>(j) * dim);
    }
    panel = s->gpanel.data();
  }
  for (int c0 = 0; c0 < nr; c0 += kRowChunk) {
    const int nc = std::min(kRowChunk, nr - c0);
    s->scores.assign(static_cast<size_t>(gq) * nc, 0.0f);
    if (int8) {
      ks::GemmBTI8(gq, nc, dim, codes, scales,
                   table.store.q_data() + static_cast<size_t>(c0) * dim,
                   table.store.scales() + c0, s->scores.data());
    } else {
      ks::GemmBTPacked(gq, nc, dim, panel,
                       table.store.panels() + ks::PackedRowOffset(c0, dim),
                       s->scores.data());
    }
    for (int j = 0; j < gq; ++j) {
      const int lq = s->probes[g + static_cast<size_t>(j)].second;
      s->sel[static_cast<size_t>(lq)].PushScores(
          s->scores.data() + static_cast<size_t>(j) * nc,
          table.ids.data() + c0, nc, t, c0);
    }
  }
}

/// The exact fp32 re-rank behind every int8 query: dequantizes each
/// candidate's stored row into `row` ([rows.dim()] scratch), scores it
/// against the fp32 query with the fixed 4-lane kernels::Dot chain
/// (tier-independent - Dot is not dispatched), and selects the final
/// top-k through `*selector` into `*out`. The candidates are the entries
/// of an int8 top-r selection, in any order: the selector's order is
/// total, so the result does not depend on it.
void RerankQuantCandidates(const float* query, const RowSet& rows,
                           const std::vector<TopKSelector::Entry>& cand,
                           int k, float* row, TopKSelector* selector,
                           std::vector<Neighbor>* out) {
  selector->Reset(k);
  for (const TopKSelector::Entry& c : cand) {
    rows.table(c.table).store.DequantizeRowInto(c.pos, row);
    selector->Push(ks::Dot(query, row, rows.dim()), c.id);
  }
  selector->SortedInto(out);
}

/// The int8 candidate depth for a top-k query; the selector keeps fewer
/// when fewer rows are live.
int QuantRerankDepth(const StorageOptions& s, int k) {
  return std::max(s.rerank_min, s.rerank_multiple * k);
}

/// Every construction-time check: Create returns it, the constructors
/// abort on it.
Status Validate(const float* rows, int n, int dim,
                const BlockingIndexOptions& options) {
  if (n < 0 || dim < 0) {
    return Status::InvalidArgument("negative index shape");
  }
  if (n > 0 && rows == nullptr) {
    return Status::InvalidArgument("null rows with n > 0");
  }
  if (n > 0 && dim == 0) {
    return Status::InvalidArgument("zero-width rows with n > 0");
  }
  if (options.exact_threshold < 0) {
    return Status::InvalidArgument("exact_threshold must be >= 0");
  }
  if (options.ivf.num_cells < 0) {
    return Status::InvalidArgument("num_cells must be >= 0");
  }
  if (options.ivf.train_iters < 0) {
    return Status::InvalidArgument("train_iters must be >= 0");
  }
  if (options.ivf.nprobe <= 0) {
    return Status::InvalidArgument("nprobe must be > 0");
  }
  const MutationOptions& m = options.mutation;
  if (m.compact_tombstone_fraction < 0.0f) {
    return Status::InvalidArgument(
        "compact_tombstone_fraction must be >= 0");
  }
  if (m.retrain_insert_fraction < 0.0f) {
    return Status::InvalidArgument("retrain_insert_fraction must be >= 0");
  }
  if (m.retrain_imbalance < 1.0f) {
    return Status::InvalidArgument("retrain_imbalance must be >= 1");
  }
  if (options.storage.rerank_multiple < 1) {
    return Status::InvalidArgument("rerank_multiple must be >= 1");
  }
  if (options.storage.rerank_min < 1) {
    return Status::InvalidArgument("rerank_min must be >= 1");
  }
  return Status::OK();
}

/// Per-item vectors (all the same width) as one row-major buffer.
std::vector<float> FlattenRows(const std::vector<std::vector<float>>& items) {
  std::vector<float> rows;
  // One allocation of the final size: growing by insert would allocate
  // and free every intermediate capacity on each index build.
  if (!items.empty()) rows.reserve(items.size() * items[0].size());
  for (const auto& item : items) {
    SUDO_CHECK(item.size() == items[0].size());
    rows.insert(rows.end(), item.begin(), item.end());
  }
  return rows;
}

}  // namespace

BlockingIndex::BlockingIndex(const float* rows, int n, int dim,
                             const BlockingIndexOptions& options)
    : BlockingIndex(rows, nullptr, n, dim, options) {}

BlockingIndex::BlockingIndex(const float* rows, const int* ids, int n,
                             int dim, const BlockingIndexOptions& options)
    : options_(options) {
  SUDO_CHECK_OK(Validate(rows, n, dim, options));
  // fp32 rows are packed into GemmBT panels here, once, and int8 rows
  // quantize on this ingest. Strictly ascending ids keep live storage
  // order == id order, the invariant behind the rebuild-bitwise contract.
  rows_ = RowSet(dim, options.storage.storage, 1);
  rows_.Append(0, rows, n, ids);
  PartitionIfDue();
}

BlockingIndex::BlockingIndex(const std::vector<std::vector<float>>& items,
                             const BlockingIndexOptions& options)
    : BlockingIndex(FlattenRows(items).data(), static_cast<int>(items.size()),
                    items.empty() ? 0 : static_cast<int>(items[0].size()),
                    options) {}

Result<std::unique_ptr<BlockingIndex>> BlockingIndex::Create(
    const float* rows, int n, int dim, const BlockingIndexOptions& options) {
  SUDO_RETURN_IF_ERROR(Validate(rows, n, dim, options));
  return std::make_unique<BlockingIndex>(rows, n, dim, options);
}

void BlockingIndex::PartitionIfDue() {
  if (using_ivf() || size() == 0) return;
  // Growth only: a kAuto corpus that shrinks back keeps its cells.
  if (options_.kind == BlockingIndexKind::kIvf ||
      (options_.kind == BlockingIndexKind::kAuto &&
       size() >= options_.exact_threshold)) {
    Partition();
  }
}

void BlockingIndex::Partition() {
  const int n = size();
  const int dim = this->dim();
  SUDO_CHECK(n > 0 && dim > 0);
  n_at_last_train_ = n;
  inserts_since_train_ = 0;

  const IvfOptions& o = options_.ivf;
  int cells = o.num_cells > 0
                  ? o.num_cells
                  : static_cast<int>(
                        std::ceil(std::sqrt(static_cast<double>(n))));
  cells = std::max(1, std::min(cells, n));
  cluster::DenseKMeansOptions ko;
  ko.k = cells;
  ko.max_iters = o.train_iters;
  ko.seed = o.seed;
  ko.num_threads = o.num_threads;
  ko.pool = o.pool;
  cluster::DenseKMeansResult km;
  {
    // Cell training input: the live rows as fp32 in ascending-id order.
    // Under int8 this is the DEQUANTIZED image - a pure function of the
    // stored (codes, scale) pairs - so a retrain after mutations trains
    // exactly the cells a from-scratch int8 rebuild on the same surviving
    // rows would. Centroids themselves stay fp32 (they are k-means means,
    // not stored rows; centroid scoring keeps the fp32 GemmBT path). The
    // image is released before the layout below copies the stored rows,
    // so at most two copies of the corpus are resident at once.
    std::vector<float> train;
    std::vector<int> ids;
    rows_.ExportLive(&train, &ids);
    km = cluster::DenseKMeans(train.data(), n, dim, ko);
  }

  // Drop empty cells (keeping relative centroid order); each row then
  // moves to its cell in ascending-id order, so every cell holds its rows
  // in ascending id. The kept centroids are packed as GemmBT panels.
  std::vector<int> counts(static_cast<size_t>(km.num_centroids), 0);
  for (int a : km.assignments) ++counts[static_cast<size_t>(a)];
  std::vector<int> new_cell(static_cast<size_t>(km.num_centroids), -1);
  int kept = 0;
  for (int c = 0; c < km.num_centroids; ++c) {
    if (counts[static_cast<size_t>(c)] > 0) {
      new_cell[static_cast<size_t>(c)] = kept++;
    }
  }
  centroids_.assign(ks::PackedFloats(kept, dim), 0.0f);
  for (int c = 0; c < km.num_centroids; ++c) {
    const int cell = new_cell[static_cast<size_t>(c)];
    if (cell < 0) continue;
    ks::PackRows(1, dim, km.centroids.data() + static_cast<size_t>(c) * dim,
                 cell, centroids_.data());
  }
  std::vector<int> cell_of(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    cell_of[static_cast<size_t>(i)] = new_cell[static_cast<size_t>(
        km.assignments[static_cast<size_t>(i)])];
  }
  rows_ = rows_.Repartition(cell_of, kept);
}

size_t BlockingIndex::bytes_resident() const {
  return centroids_.size() * sizeof(float) +
         static_cast<size_t>(num_cells()) * sizeof(int) +
         rows_.bytes_resident();
}

Status BlockingIndex::Insert(const float* rows, int n, int dim) {
  if (n < 0) return Status::InvalidArgument("negative insert count");
  if (n == 0) return Status::OK();
  if (rows == nullptr) return Status::InvalidArgument("null insert rows");
  if (this->dim() == 0) {
    return Status::FailedPrecondition(
        "insert into a dimensionless empty index (construct with an "
        "explicit dim to make it insertable)");
  }
  if (dim != this->dim()) {
    return Status::InvalidArgument(
        "insert dim " + std::to_string(dim) + " != index dim " +
        std::to_string(this->dim()));
  }
  if (!using_ivf()) {
    rows_.Append(0, rows, n);
    PartitionIfDue();
    return Status::OK();
  }

  // Nearest-cell assignment: one (n x cells) panel against the packed
  // centroids, argmax through the shared selector (score desc, cell asc,
  // NaN -> the lowest cell id).
  const int cells = num_cells();
  std::vector<float> cell_scores(static_cast<size_t>(n) * cells, 0.0f);
  ks::GemmBTPacked(n, cells, dim, rows, centroids_.data(),
                   cell_scores.data());
  TopKSelector nearest;
  for (int i = 0; i < n; ++i) {
    nearest.Reset(1);
    nearest.PushScores(cell_scores.data() + static_cast<size_t>(i) * cells,
                       nullptr, cells);
    // Append to the nearest cell: ids are monotone, so the cell stays in
    // ascending-id order. The arriving row is packed (or quantized) here,
    // its one ingest point.
    rows_.Append(nearest.entries()[0].id, rows + static_cast<size_t>(i) * dim,
                 1);
  }
  inserts_since_train_ += n;
  MaybeRetrain();
  return Status::OK();
}

Status BlockingIndex::Remove(const int* ids, int n) {
  // Tables compact individually: centroids are untouched (this is storage
  // hygiene, not re-training).
  return rows_.Remove(ids, n, options_.mutation.compact_tombstone_fraction);
}

void BlockingIndex::MaybeRetrain() {
  const int live = size();
  const int cells = num_cells();
  if (live <= 0 || cells <= 0) return;
  const MutationOptions& m = options_.mutation;
  const bool volume =
      static_cast<float>(inserts_since_train_) >
      m.retrain_insert_fraction *
          static_cast<float>(std::max(1, n_at_last_train_));
  bool imbalance = false;
  if (live >= cells) {  // mean >= 1: below that the ratio is noise
    int max_live = 0;
    for (int c = 0; c < cells; ++c) {
      max_live = std::max(max_live, rows_.table(c).live);
    }
    imbalance = static_cast<float>(max_live) * static_cast<float>(cells) >
                m.retrain_imbalance * static_cast<float>(live);
  }
  if (!volume && !imbalance) return;
  Partition();
  ++retrains_;
}

Status BlockingIndex::QueryBatch(const float* queries, int n_queries, int dim,
                                 int k,
                                 std::vector<std::vector<Neighbor>>* out,
                                 int num_threads) const {
  return QueryBatch(queries, n_queries, dim, k, options_.ivf.nprobe, out,
                    num_threads);
}

Status BlockingIndex::QueryBatch(
    const std::vector<std::vector<float>>& queries, int k,
    std::vector<std::vector<Neighbor>>* out, int num_threads) const {
  if (queries.empty()) {
    out->clear();
    return Status::OK();
  }
  for (const auto& q : queries) {
    if (q.size() != queries[0].size()) {
      return Status::InvalidArgument("ragged query rows");
    }
  }
  const std::vector<float> flat = FlattenRows(queries);
  return QueryBatch(flat.data(), static_cast<int>(queries.size()),
                    static_cast<int>(queries[0].size()), k, out, num_threads);
}

Status BlockingIndex::Query(const float* query, int dim, int k,
                            std::vector<Neighbor>* out) const {
  thread_local std::vector<std::vector<Neighbor>> rows;
  SUDO_RETURN_IF_ERROR(QueryBatch(query, 1, dim, k, &rows, 1));
  out->assign(rows[0].begin(), rows[0].end());
  return Status::OK();
}

Status BlockingIndex::QueryBatch(const float* queries, int n_queries, int dim,
                                 int k, int nprobe,
                                 std::vector<std::vector<Neighbor>>* out,
                                 int num_threads) const {
  if (n_queries < 0) return Status::InvalidArgument("negative query count");
  if (k < 0) return Status::InvalidArgument("k must be >= 0");
  if (nprobe <= 0) return Status::InvalidArgument("nprobe must be > 0");
  if (n_queries > 0 && queries == nullptr) {
    return Status::InvalidArgument("null query buffer");
  }
  if (n_queries > 0 && this->dim() > 0 && dim != this->dim()) {
    return Status::InvalidArgument("query dim " + std::to_string(dim) +
                                   " != index dim " +
                                   std::to_string(this->dim()));
  }
  out->resize(static_cast<size_t>(n_queries));
  k = std::min(k, size());
  if (k <= 0) {
    for (auto& row : *out) row.clear();
    return Status::OK();
  }

  // Per query, the selector keeps the top-k (fp32) or the top
  // QuantRerankDepth int8-scored candidates, re-ranked exactly in fp32
  // at the end, so exactness costs O(r * dim), not O(n * dim).
  const bool int8 = options_.storage.storage == IndexStorage::kInt8;
  const int depth = int8 ? QuantRerankDepth(options_.storage, k) : k;
  const int n_cells = num_cells();
  const int p = std::min(nprobe, n_cells);
  const int64_t n_blocks =
      (static_cast<int64_t>(n_queries) + kQueryBlock - 1) / kQueryBlock;
  ParallelFor(
      n_blocks, num_threads, [&](int64_t begin, int64_t end, int /*shard*/) {
        QueryScratch& s = ThreadScratch();
        if (s.sel.size() < kQueryBlock) s.sel.resize(kQueryBlock);
        for (int64_t b = begin; b < end; ++b) {
          const int q0 = static_cast<int>(b * kQueryBlock);
          const int m = std::min(n_queries, q0 + kQueryBlock) - q0;
          const float* qb = queries + static_cast<size_t>(q0) * dim;
          if (int8) {
            // Quantize the query block once; every scored table reuses
            // the codes (the per-query scale rides along to rescale).
            s.qcodes.resize(static_cast<size_t>(m) * dim);
            s.qscales.resize(static_cast<size_t>(m));
            ks::QuantizeRowsI8(m, dim, qb, s.qcodes.data(), s.qscales.data());
          }
          for (int i = 0; i < m; ++i) {
            s.sel[static_cast<size_t>(i)].Reset(depth);
          }

          // The tables each query scores, as (table, local query) pairs
          // grouped by table: the one table for every query, or each
          // query's top-p cells by centroid score (one (m x cells)
          // panel; score desc, cell id asc, NaN last).
          s.probes.clear();
          if (n_cells == 0) {
            for (int i = 0; i < m; ++i) s.probes.emplace_back(0, i);
          } else {
            s.cell_scores.assign(static_cast<size_t>(m) * n_cells, 0.0f);
            ks::GemmBTPacked(m, n_cells, dim, qb, centroids_.data(),
                             s.cell_scores.data());
            for (int i = 0; i < m; ++i) {
              s.probe.Reset(p);
              s.probe.PushScores(
                  s.cell_scores.data() + static_cast<size_t>(i) * n_cells,
                  nullptr, n_cells);
              for (const TopKSelector::Entry& e : s.probe.entries()) {
                s.probes.emplace_back(e.id, i);
              }
            }
            std::sort(s.probes.begin(), s.probes.end());
          }
          // The block's queries scoring the same table share its panels.
          for (size_t g = 0, h = 0; g < s.probes.size(); g = h) {
            while (h < s.probes.size() &&
                   s.probes[h].first == s.probes[g].first) {
              ++h;
            }
            ScoreTable(rows_, qb, int8, g, h, &s);
          }

          // Results: the selected top-k, or the int8 candidates
          // re-ranked exactly on their dequantized rows.
          if (int8) s.row.resize(static_cast<size_t>(dim));
          for (int i = 0; i < m; ++i) {
            std::vector<Neighbor>* dst = &(*out)[static_cast<size_t>(q0 + i)];
            TopKSelector& sel = s.sel[static_cast<size_t>(i)];
            if (!int8) {
              sel.SortedInto(dst);
              continue;
            }
            RerankQuantCandidates(qb + static_cast<size_t>(i) * dim, rows_,
                                  sel.entries(), k, s.row.data(), &s.rerank,
                                  dst);
          }
        }
      });
  return Status::OK();
}

}  // namespace sudowoodo::index
