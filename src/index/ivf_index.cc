#include "index/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/dense_kmeans.h"
#include "common/parallel.h"
#include "tensor/kernels.h"

namespace sudowoodo::index {

namespace ks = sudowoodo::tensor::kernels;

namespace {

/// Queries are processed in fixed blocks: one (block x cells) panel
/// scores the centroids, and the block's queries probing the same cell
/// share one (sub-block x cell-rows) candidate panel. Boundaries depend
/// only on the query count, never on the thread count, and every score
/// is a fixed accumulation chain regardless of panel grouping, so
/// blocking is invisible in the results.
constexpr int kQueryBlock = 32;

/// Per-thread query scratch. Retained across calls, so once a thread has
/// served the largest block shape it queries without allocating.
struct QueryScratch {
  std::vector<float> cell_scores;           // [m, cells]
  TopKSelector probe;                       // one query's probed cells
  std::vector<std::pair<int, int>> probes;  // (cell, local query)
  std::vector<float> gpanel;                // fp32: gathered queries
  std::vector<int8_t> qcodes, gcodes;       // int8: block / gathered codes
  std::vector<float> qscales, gscales;
  std::vector<float> gscores;               // [sub-block, cell rows]
  std::vector<TopKSelector> sel;            // per local query
  std::vector<float> row;                   // int8: one dequantized row
  TopKSelector rerank;                      // int8: the final top-k
};

QueryScratch& ThreadScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace

void IvfIndex::Partition(const RowSet& src) {
  const int n = src.size();
  const int dim = src.dim();
  n_at_last_train_ = n;
  inserts_since_train_ = 0;
  centroids_.clear();
  if (n == 0) {
    rows_ = src.Repartition({}, 0);
    return;
  }
  SUDO_CHECK(dim > 0);

  int cells = options_.num_cells > 0
                  ? options_.num_cells
                  : static_cast<int>(
                        std::ceil(std::sqrt(static_cast<double>(n))));
  cells = std::max(1, std::min(cells, n));
  cluster::DenseKMeansOptions ko;
  ko.k = cells;
  ko.max_iters = options_.train_iters;
  ko.seed = options_.seed;
  ko.num_threads = options_.num_threads;
  ko.pool = options_.pool;
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
    src.ExportLive(&train, &ids);
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
  rows_ = src.Repartition(cell_of, kept);
}

IvfIndex::IvfIndex(const float* rows, int n, int dim,
                   const IvfOptions& options, const MutationOptions& mutation,
                   const StorageOptions& storage)
    : IvfIndex(rows, nullptr, n, dim, options, mutation, storage) {}

IvfIndex::IvfIndex(const float* rows, const int* ids, int n, int dim,
                   const IvfOptions& options, const MutationOptions& mutation,
                   const StorageOptions& storage)
    : options_(options), mutation_(mutation), storage_(storage) {
  SUDO_CHECK(n >= 0 && dim >= 0 && (n == 0 || rows != nullptr));
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  // The quantize-once point for fp32 row input; strictly ascending ids
  // keep within-cell storage order == id order.
  RowSet staging(dim, storage.storage, 1);
  staging.Append(0, rows, n, ids);
  Partition(staging);
}

IvfIndex::IvfIndex(const RowSet& rows, const IvfOptions& options,
                   const MutationOptions& mutation,
                   const StorageOptions& storage)
    : options_(options), mutation_(mutation), storage_(storage) {
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  SUDO_CHECK(rows.mode() == storage.storage);
  Partition(rows);
}

Result<std::unique_ptr<IvfIndex>> IvfIndex::Create(
    const float* rows, int n, int dim, const IvfOptions& options,
    const MutationOptions& mutation, const StorageOptions& storage) {
  if (n < 0 || dim < 0) {
    return Status::InvalidArgument("negative index shape");
  }
  if (n > 0 && rows == nullptr) {
    return Status::InvalidArgument("null rows with n > 0");
  }
  if (n > 0 && dim == 0) {
    return Status::InvalidArgument("zero-width rows with n > 0");
  }
  if (options.num_cells < 0) {
    return Status::InvalidArgument("num_cells must be >= 0");
  }
  if (options.train_iters < 0) {
    return Status::InvalidArgument("train_iters must be >= 0");
  }
  if (options.nprobe <= 0) {
    return Status::InvalidArgument("nprobe must be > 0");
  }
  SUDO_RETURN_IF_ERROR(ValidateMutationOptions(mutation));
  SUDO_RETURN_IF_ERROR(ValidateStorageOptions(storage));
  return std::make_unique<IvfIndex>(rows, n, dim, options, mutation,
                                    storage);
}

size_t IvfIndex::bytes_resident() const {
  return centroids_.size() * sizeof(float) +
         static_cast<size_t>(num_cells()) * sizeof(int) +
         rows_.bytes_resident();
}

Status IvfIndex::Insert(const float* rows, int n, int dim) {
  if (n < 0) return Status::InvalidArgument("negative insert count");
  if (n == 0) return Status::OK();
  if (rows == nullptr) return Status::InvalidArgument("null insert rows");
  if (num_cells() == 0) {
    return Status::FailedPrecondition(
        "insert into an untrained IVF index (no cells; build it over an "
        "initial corpus, or grow a kAuto BlockingIndex instead)");
  }
  if (dim != this->dim()) {
    return Status::InvalidArgument(
        "insert dim " + std::to_string(dim) + " != index dim " +
        std::to_string(this->dim()));
  }
  const int cells = num_cells();

  // Nearest-cell assignment: one (n x cells) panel against the packed
  // centroids, argmax through the shared selector (score desc, cell asc,
  // NaN -> the lowest cell id).
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

Status IvfIndex::Remove(const int* ids, int n) {
  // Cells compact individually: centroids are untouched (this is storage
  // hygiene, not re-training).
  return rows_.Remove(ids, n, mutation_.compact_tombstone_fraction);
}

void IvfIndex::MaybeRetrain() {
  const int live = size();
  const int cells = num_cells();
  if (live <= 0 || cells <= 0) return;
  const bool volume =
      static_cast<float>(inserts_since_train_) >
      mutation_.retrain_insert_fraction *
          static_cast<float>(std::max(1, n_at_last_train_));
  bool imbalance = false;
  if (live >= cells) {  // mean >= 1: below that the ratio is noise
    int max_live = 0;
    for (int c = 0; c < cells; ++c) {
      max_live = std::max(max_live, rows_.table(c).live);
    }
    imbalance = static_cast<float>(max_live) * static_cast<float>(cells) >
                mutation_.retrain_imbalance * static_cast<float>(live);
  }
  if (!volume && !imbalance) return;
  Partition(rows_);
  ++retrains_;
}

Status IvfIndex::QueryBatch(const float* queries, int n_queries, int dim,
                            int k, std::vector<std::vector<Neighbor>>* out,
                            int num_threads) const {
  return QueryBatch(queries, n_queries, dim, k, options_.nprobe, out,
                    num_threads);
}

Status IvfIndex::QueryBatch(const float* queries, int n_queries, int dim,
                            int k, int nprobe,
                            std::vector<std::vector<Neighbor>>* out,
                            int num_threads) const {
  if (nprobe <= 0) return Status::InvalidArgument("nprobe must be > 0");
  SUDO_RETURN_IF_ERROR(
      ValidateQueryArgs(queries, n_queries, dim, k, this->dim()));
  out->resize(static_cast<size_t>(n_queries));
  k = std::min(k, size());
  if (k <= 0 || this->dim() == 0) {
    for (auto& row : *out) row.clear();
    return Status::OK();
  }
  const int n_cells = num_cells();
  const int p = std::min(nprobe, n_cells);
  const bool int8 = storage_.storage == IndexStorage::kInt8;
  // Per query, the selector keeps the top-k (fp32) or the top
  // QuantRerankDepth int8-scored candidates, re-ranked exactly in fp32
  // at the end (deterministic top-r set under the selector's total
  // order).
  const int depth = int8 ? QuantRerankDepth(storage_, k) : k;

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
            // Quantize the query block once; every probed cell reuses
            // the codes (the per-query scale rides along to rescale).
            s.qcodes.resize(static_cast<size_t>(m) * dim);
            s.qscales.resize(static_cast<size_t>(m));
            ks::QuantizeRowsI8(m, dim, qb, s.qcodes.data(), s.qscales.data());
          }

          // 1) Centroid scoring: one (m x cells) panel.
          s.cell_scores.assign(static_cast<size_t>(m) * n_cells, 0.0f);
          ks::GemmBTPacked(m, n_cells, dim, qb, centroids_.data(),
                           s.cell_scores.data());

          // 2) Probe selection per query: top-p cells, deterministic
          // (score desc, cell id asc, NaN last).
          s.probes.clear();
          for (int i = 0; i < m; ++i) {
            s.probe.Reset(p);
            s.probe.PushScores(
                s.cell_scores.data() + static_cast<size_t>(i) * n_cells,
                nullptr, n_cells);
            for (const TopKSelector::Entry& e : s.probe.entries()) {
              s.probes.emplace_back(e.id, i);
            }
            s.sel[static_cast<size_t>(i)].Reset(depth);
          }
          // Group by cell so the block's queries probing the same cell
          // share one candidate panel.
          std::sort(s.probes.begin(), s.probes.end());

          // 3) Candidate scoring: one (sub-block x cell-rows) panel per
          // probed cell; exact full-dimension similarities. The panel
          // spans the cell's stored rows (tombstones included - each
          // score is an independent chain); the selector skips the
          // tombstones. A lone query scores straight from its own row.
          size_t g = 0;
          while (g < s.probes.size()) {
            const int c = s.probes[g].first;
            size_t h = g;
            while (h < s.probes.size() && s.probes[h].first == c) ++h;
            const RowSet::Table& cell = rows_.table(c);
            const int nr = static_cast<int>(cell.ids.size());
            const int gq = static_cast<int>(h - g);
            if (nr == 0) {
              g = h;
              continue;
            }
            s.gscores.assign(static_cast<size_t>(gq) * nr, 0.0f);
            const int lq0 = s.probes[g].second;
            if (int8) {
              const int8_t* codes =
                  s.qcodes.data() + static_cast<size_t>(lq0) * dim;
              const float* scales = s.qscales.data() + lq0;
              if (gq > 1) {
                s.gcodes.resize(static_cast<size_t>(gq) * dim);
                s.gscales.resize(static_cast<size_t>(gq));
                for (int j = 0; j < gq; ++j) {
                  const int lq = s.probes[g + static_cast<size_t>(j)].second;
                  std::copy_n(s.qcodes.begin() + static_cast<size_t>(lq) * dim,
                              dim,
                              s.gcodes.begin() + static_cast<size_t>(j) * dim);
                  s.gscales[static_cast<size_t>(j)] =
                      s.qscales[static_cast<size_t>(lq)];
                }
                codes = s.gcodes.data();
                scales = s.gscales.data();
              }
              ks::GemmBTI8(gq, nr, dim, codes, scales, cell.store.q_data(),
                           cell.store.scales(), s.gscores.data());
            } else {
              const float* panel = qb + static_cast<size_t>(lq0) * dim;
              if (gq > 1) {
                s.gpanel.resize(static_cast<size_t>(gq) * dim);
                for (int j = 0; j < gq; ++j) {
                  const int lq = s.probes[g + static_cast<size_t>(j)].second;
                  std::copy_n(qb + static_cast<size_t>(lq) * dim, dim,
                              s.gpanel.begin() + static_cast<size_t>(j) * dim);
                }
                panel = s.gpanel.data();
              }
              ks::GemmBTPacked(gq, nr, dim, panel, cell.store.panels(),
                               s.gscores.data());
            }
            for (int j = 0; j < gq; ++j) {
              const int lq = s.probes[g + static_cast<size_t>(j)].second;
              s.sel[static_cast<size_t>(lq)].PushScores(
                  s.gscores.data() + static_cast<size_t>(j) * nr,
                  cell.ids.data(), nr, c);
            }
            g = h;
          }

          // 4) Results: the selected top-k, or the int8 candidates
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

namespace {

bool UseIvf(const BlockingIndexOptions& options, int n) {
  return options.kind == BlockingIndexKind::kIvf ||
         (options.kind == BlockingIndexKind::kAuto &&
          n >= options.exact_threshold);
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
    : options_(options) {
  if (UseIvf(options, n)) {
    ivf_ = std::make_unique<IvfIndex>(rows, n, dim, options.ivf,
                                      options.mutation, options.storage);
  } else {
    exact_ = std::make_unique<KnnIndex>(rows, n, dim, options.mutation,
                                        options.storage);
  }
}

BlockingIndex::BlockingIndex(const std::vector<std::vector<float>>& items,
                             const BlockingIndexOptions& options)
    : BlockingIndex(FlattenRows(items).data(), static_cast<int>(items.size()),
                    items.empty() ? 0 : static_cast<int>(items[0].size()),
                    options) {}

Result<std::unique_ptr<BlockingIndex>> BlockingIndex::Create(
    const float* rows, int n, int dim, const BlockingIndexOptions& options) {
  if (n < 0 || dim < 0) {
    return Status::InvalidArgument("negative index shape");
  }
  if (n > 0 && rows == nullptr) {
    return Status::InvalidArgument("null rows with n > 0");
  }
  if (options.exact_threshold < 0) {
    return Status::InvalidArgument("exact_threshold must be >= 0");
  }
  if (options.ivf.nprobe <= 0) {
    return Status::InvalidArgument("nprobe must be > 0");
  }
  if (options.ivf.num_cells < 0 || options.ivf.train_iters < 0) {
    return Status::InvalidArgument("invalid IVF training options");
  }
  SUDO_RETURN_IF_ERROR(ValidateMutationOptions(options.mutation));
  SUDO_RETURN_IF_ERROR(ValidateStorageOptions(options.storage));
  return std::make_unique<BlockingIndex>(rows, n, dim, options);
}

Status BlockingIndex::Insert(const float* rows, int n, int dim) {
  if (ivf_ != nullptr) return ivf_->Insert(rows, n, dim);
  SUDO_RETURN_IF_ERROR(exact_->Insert(rows, n, dim));
  // kAuto re-evaluates on growth: once the live corpus crosses the
  // threshold the exact oracle's O(N) sweep stops being the right
  // default, so its rows are partitioned (ids preserved, (codes, scale)
  // pairs moved verbatim) into a freshly trained IVF index. Growth only -
  // a corpus that shrinks back keeps its trained cells.
  if (options_.kind == BlockingIndexKind::kAuto &&
      exact_->size() >= options_.exact_threshold) {
    ivf_ = std::make_unique<IvfIndex>(exact_->rows(),
                                      options_.ivf,
                                      options_.mutation, exact_->storage());
    exact_.reset();
  }
  return Status::OK();
}

Status BlockingIndex::Remove(const int* ids, int n) {
  return ivf_ != nullptr ? ivf_->Remove(ids, n) : exact_->Remove(ids, n);
}

Status BlockingIndex::QueryBatch(const float* queries, int n_queries, int dim,
                                 int k,
                                 std::vector<std::vector<Neighbor>>* out,
                                 int num_threads) const {
  return ivf_ != nullptr
             ? ivf_->QueryBatch(queries, n_queries, dim, k, out, num_threads)
             : exact_->QueryBatch(queries, n_queries, dim, k, out,
                                  num_threads);
}

int BlockingIndex::size() const {
  return ivf_ != nullptr ? ivf_->size() : exact_->size();
}

int BlockingIndex::dim() const {
  return ivf_ != nullptr ? ivf_->dim() : exact_->dim();
}

int BlockingIndex::next_id() const {
  return ivf_ != nullptr ? ivf_->next_id() : exact_->next_id();
}

size_t BlockingIndex::bytes_resident() const {
  return ivf_ != nullptr ? ivf_->bytes_resident() : exact_->bytes_resident();
}

}  // namespace sudowoodo::index
