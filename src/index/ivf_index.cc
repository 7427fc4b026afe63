#include "index/ivf_index.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <utility>

#include "cluster/dense_kmeans.h"
#include "common/parallel.h"
#include "tensor/kernels.h"

namespace sudowoodo::index {

namespace ks = sudowoodo::tensor::kernels;

namespace {

/// Queries are processed in fixed blocks: one (block x cells) GemmBT
/// panel scores the centroids, and the block's queries probing the same
/// cell share one (sub-block x cell-rows) candidate panel. Boundaries
/// depend only on the query count, never on the thread count, and every
/// score is a fixed accumulation chain regardless of panel grouping, so
/// blocking is invisible in the results.
constexpr int kQueryBlock = 32;

}  // namespace

void IvfIndex::BuildFromStore(const QuantRowStore& staging, const int* ids,
                              int n, int dim) {
  n_ = n;
  dim_ = dim;
  n_tombstones_ = 0;
  n_at_last_train_ = n;
  inserts_since_train_ = 0;
  cells_.clear();
  centroids_.clear();
  pos_by_id_.clear();
  if (n <= 0) {
    next_id_ = std::max(next_id_, 0);
    return;
  }
  SUDO_CHECK(staging.size() == n && staging.dim() == dim && dim > 0);
  SUDO_CHECK(staging.mode() == storage_.storage);

  int cells = options_.num_cells > 0
                  ? options_.num_cells
                  : static_cast<int>(
                        std::ceil(std::sqrt(static_cast<double>(n))));
  cells = std::max(1, std::min(cells, n));

  // Cell training input: the staged rows as fp32. Under int8 this is
  // the DEQUANTIZED image - a pure function of the stored (codes,
  // scale) pairs - so a retrain after mutations trains exactly the
  // cells a from-scratch int8 rebuild on the same surviving rows would.
  // Centroids themselves stay fp32 (they are k-means means, not stored
  // rows; centroid scoring keeps the fp32 GemmBT path).
  std::vector<float> dequant;
  const float* train_rows;
  if (staging.int8_mode()) {
    dequant.resize(static_cast<size_t>(n) * dim);
    staging.DequantizeAllInto(dequant.data());
    train_rows = dequant.data();
  } else {
    train_rows = staging.fp32_data();
  }

  cluster::DenseKMeansOptions ko;
  ko.k = cells;
  ko.max_iters = options_.train_iters;
  ko.seed = options_.seed;
  ko.num_threads = options_.num_threads;
  ko.pool = options_.pool;
  const cluster::DenseKMeansResult km =
      cluster::DenseKMeans(train_rows, n, dim, ko);

  // Drop empty cells (keeping relative centroid order) and append each
  // row to its cell in staging (ascending-id) order, so every cell holds
  // one contiguous stride-1 panel in ascending id.
  std::vector<int> counts(static_cast<size_t>(km.num_centroids), 0);
  for (int a : km.assignments) ++counts[static_cast<size_t>(a)];
  std::vector<int> new_cell(static_cast<size_t>(km.num_centroids), -1);
  for (int c = 0; c < km.num_centroids; ++c) {
    if (counts[static_cast<size_t>(c)] == 0) continue;
    new_cell[static_cast<size_t>(c)] = num_cells();
    Cell& cell = cells_.emplace_back();
    cell.store.Reset(dim, storage_.storage);
    cell.store.Reserve(counts[static_cast<size_t>(c)]);
    cell.ids.reserve(static_cast<size_t>(counts[static_cast<size_t>(c)]));
    centroids_.insert(centroids_.end(),
                      km.centroids.begin() + static_cast<size_t>(c) * dim,
                      km.centroids.begin() + static_cast<size_t>(c + 1) * dim);
  }
  pos_by_id_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int c = new_cell[static_cast<size_t>(
        km.assignments[static_cast<size_t>(i)])];
    const int id = ids != nullptr ? ids[static_cast<size_t>(i)] : i;
    SUDO_CHECK(id >= 0);
    Cell& cell = cells_[static_cast<size_t>(c)];
    pos_by_id_.emplace(id, RowRef{c, static_cast<int>(cell.ids.size())});
    cell.ids.push_back(id);
    ++cell.live;
    // Verbatim (codes, scale) move - cell layout never re-quantizes.
    cell.store.AppendFrom(staging, i);
  }
  const int derived =
      ids != nullptr ? ids[static_cast<size_t>(n - 1)] + 1 : n;
  next_id_ = std::max(next_id_, derived);
}

void IvfIndex::Build(const float* rows, const int* ids, int n, int dim) {
  // Quantize-once point for fp32 row input (construction, nested-vector
  // convenience); re-training goes through BuildFromStore directly.
  QuantRowStore staging;
  staging.Reset(dim, storage_.storage);
  if (n > 0) staging.Append(rows, n);
  BuildFromStore(staging, ids, n, dim);
}

IvfIndex::IvfIndex(const float* rows, int n, int dim,
                   const IvfOptions& options, const MutationOptions& mutation,
                   const StorageOptions& storage)
    : options_(options), mutation_(mutation), storage_(storage) {
  SUDO_CHECK(n >= 0 && dim >= 0 && (n == 0 || rows != nullptr));
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  Build(rows, nullptr, n, dim);
}

IvfIndex::IvfIndex(const float* rows, const int* ids, int n, int dim,
                   const IvfOptions& options, const MutationOptions& mutation,
                   const StorageOptions& storage, int next_id_hint)
    : options_(options), mutation_(mutation), storage_(storage) {
  SUDO_CHECK(n >= 0 && dim >= 0 && (n == 0 || rows != nullptr));
  SUDO_CHECK(n == 0 || ids != nullptr);
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  for (int i = 1; i < n; ++i) {
    // Strictly ascending ids keep within-cell storage order == id order.
    SUDO_CHECK(ids[static_cast<size_t>(i)] > ids[static_cast<size_t>(i - 1)]);
  }
  next_id_ = std::max(0, next_id_hint);
  Build(rows, ids, n, dim);
}

IvfIndex::IvfIndex(const QuantRowStore& staging, const int* ids, int n,
                   const IvfOptions& options, const MutationOptions& mutation,
                   const StorageOptions& storage, int next_id_hint)
    : options_(options), mutation_(mutation), storage_(storage) {
  SUDO_CHECK(n >= 0 && staging.size() == n);
  SUDO_CHECK(n == 0 || ids != nullptr);
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  SUDO_CHECK(staging.mode() == storage.storage);
  for (int i = 1; i < n; ++i) {
    SUDO_CHECK(ids[static_cast<size_t>(i)] > ids[static_cast<size_t>(i - 1)]);
  }
  next_id_ = std::max(0, next_id_hint);
  BuildFromStore(staging, ids, n, staging.dim());
}

IvfIndex::IvfIndex(const std::vector<std::vector<float>>& items,
                   const IvfOptions& options)
    : options_(options) {
  const int n = static_cast<int>(items.size());
  const int dim = n > 0 ? static_cast<int>(items[0].size()) : 0;
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    SUDO_CHECK(static_cast<int>(items[static_cast<size_t>(i)].size()) == dim);
    std::copy(items[static_cast<size_t>(i)].begin(),
              items[static_cast<size_t>(i)].end(),
              rows.begin() + static_cast<size_t>(i) * dim);
  }
  Build(rows.data(), nullptr, n, dim);
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

void IvfIndex::GatherLiveStore(QuantRowStore* staging,
                               std::vector<int>* ids) const {
  // Ascending-id order (not storage order): re-training feeds k-means a
  // buffer that depends only on the live (row, id) set, never on the cell
  // layout history, so a retrain is reproducible from the surviving rows.
  // Rows move as (codes, scale) pairs - gathering never re-quantizes.
  std::vector<std::pair<int, RowRef>> live;
  live.reserve(static_cast<size_t>(size()));
  for (int c = 0; c < num_cells(); ++c) {
    const Cell& cell = cells_[static_cast<size_t>(c)];
    for (int pos = 0; pos < static_cast<int>(cell.ids.size()); ++pos) {
      const int id = cell.ids[static_cast<size_t>(pos)];
      if (id >= 0) live.push_back({id, RowRef{c, pos}});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  staging->Reset(dim_, storage_.storage);
  staging->Reserve(size());
  ids->clear();
  ids->reserve(live.size());
  for (const auto& [id, ref] : live) {
    staging->AppendFrom(cells_[static_cast<size_t>(ref.cell)].store, ref.pos);
    ids->push_back(id);
  }
}

size_t IvfIndex::bytes_resident() const {
  size_t bytes =
      centroids_.size() * sizeof(float) + cells_.size() * sizeof(int);
  for (const Cell& cell : cells_) {
    bytes += cell.store.bytes_resident() + cell.ids.size() * sizeof(int);
  }
  return bytes;
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
  if (dim != dim_) {
    return Status::InvalidArgument(
        "insert dim " + std::to_string(dim) + " != index dim " +
        std::to_string(dim_));
  }
  const int cells = num_cells();

  // Nearest-cell assignment: one (n x cells) GemmBT panel, argmax with
  // the shared deterministic tie-break (score desc, cell asc, NaN -> the
  // lowest cell id).
  std::vector<float> cell_scores(static_cast<size_t>(n) * cells, 0.0f);
  ks::GemmBT(n, cells, dim_, rows, centroids_.data(), cell_scores.data());
  std::vector<int> sel_idx;
  std::vector<Neighbor> best;
  for (int i = 0; i < n; ++i) {
    SelectTopKNeighbors(cell_scores.data() + static_cast<size_t>(i) * cells,
                        nullptr, cells, 1, &sel_idx, &best);
    // Append to the nearest cell: ids are monotone, so the cell stays in
    // ascending-id order. The arriving row is quantized here, its one
    // ingest point.
    const int c = best[0].id;
    const int id = next_id_ + i;
    Cell& cell = cells_[static_cast<size_t>(c)];
    pos_by_id_.emplace(id, RowRef{c, static_cast<int>(cell.ids.size())});
    cell.ids.push_back(id);
    ++cell.live;
    cell.store.Append(rows + static_cast<size_t>(i) * dim_, 1);
  }
  n_ += n;
  next_id_ += n;
  inserts_since_train_ += n;
  MaybeRetrain();
  return Status::OK();
}

Status IvfIndex::Remove(const int* ids, int n) {
  if (n < 0) return Status::InvalidArgument("negative remove count");
  if (n == 0) return Status::OK();
  if (ids == nullptr) return Status::InvalidArgument("null remove ids");
  // Validate the whole batch first so a NotFound removes nothing
  // (duplicates within one call count as unknown on the second hit).
  for (int i = 0; i < n; ++i) {
    if (pos_by_id_.find(ids[i]) == pos_by_id_.end()) {
      return Status::NotFound("id " + std::to_string(ids[i]) +
                              " not in index");
    }
    for (int j = 0; j < i; ++j) {
      if (ids[j] == ids[i]) {
        return Status::NotFound("id " + std::to_string(ids[i]) +
                                " removed twice in one call");
      }
    }
  }
  std::vector<int> touched(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto it = pos_by_id_.find(ids[i]);
    const RowRef ref = it->second;
    Cell& cell = cells_[static_cast<size_t>(ref.cell)];
    cell.ids[static_cast<size_t>(ref.pos)] = -1;
    --cell.live;
    pos_by_id_.erase(it);
    ++n_tombstones_;
    touched[static_cast<size_t>(i)] = ref.cell;
  }
  for (int c : touched) CompactCellIfNeeded(c);
  return Status::OK();
}

void IvfIndex::CompactCellIfNeeded(int c) {
  Cell& cell = cells_[static_cast<size_t>(c)];
  const int stored = static_cast<int>(cell.ids.size());
  const int dead = stored - cell.live;
  if (dead == 0 || static_cast<float>(dead) <=
                       mutation_.compact_tombstone_fraction *
                           static_cast<float>(stored)) {
    return;
  }
  // Stable erase: live rows keep their relative (ascending-id) order
  // inside the cell; the centroid is untouched (this is storage hygiene,
  // not re-training).
  int w = 0;
  for (int pos = 0; pos < stored; ++pos) {
    const int id = cell.ids[static_cast<size_t>(pos)];
    if (id < 0) continue;
    if (w != pos) {
      cell.store.MoveRow(pos, w);
      cell.ids[static_cast<size_t>(w)] = id;
    }
    pos_by_id_[id].pos = w;
    ++w;
  }
  cell.store.Truncate(w);
  cell.ids.resize(static_cast<size_t>(w));
  n_ -= dead;
  n_tombstones_ -= dead;
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
    for (const Cell& cell : cells_) max_live = std::max(max_live, cell.live);
    imbalance = static_cast<float>(max_live) * static_cast<float>(cells) >
                mutation_.retrain_imbalance * static_cast<float>(live);
  }
  if (!volume && !imbalance) return;
  QuantRowStore staging;
  std::vector<int> ids;
  GatherLiveStore(&staging, &ids);
  BuildFromStore(staging, ids.data(), live, dim_);
  ++retrains_;
}

void IvfIndex::QueryBatchImpl(
    const float* queries, int n_queries, int k, int nprobe, int num_threads,
    std::vector<std::vector<Neighbor>>* out) const {
  const int n_cells = num_cells();
  const int p = std::max(1, std::min(nprobe, n_cells));

  const int64_t n_blocks =
      (static_cast<int64_t>(n_queries) + kQueryBlock - 1) / kQueryBlock;
  ParallelFor(
      n_blocks, num_threads, [&](int64_t begin, int64_t end, int /*shard*/) {
        // Per-shard scratch, reused across the shard's blocks.
        std::vector<float> cell_scores;               // [m, cells]
        std::vector<int> sel_idx;                     // selection scratch
        std::vector<Neighbor> probe_sel;              // one query's cells
        std::vector<std::pair<int, int>> probes;      // (cell, local q)
        std::vector<float> gpanel;                    // gathered queries
        std::vector<float> gscores;                   // [sub-block, rows]
        std::vector<std::vector<int>> cand_ids(kQueryBlock);
        std::vector<std::vector<float>> cand_scores(kQueryBlock);
        // int8-mode scratch: quantized query block, gathered quantized
        // queries, per-query candidate positions within their cells and
        // the (first candidate, cell) start of each probed cell's run,
        // and the fp32 re-rank buffers.
        const bool int8 = storage_.storage == IndexStorage::kInt8;
        std::vector<int8_t> qcodes;
        std::vector<float> qscales;
        std::vector<int8_t> gq_codes;
        std::vector<float> gq_scales;
        std::vector<std::vector<int>> cand_pos(int8 ? kQueryBlock : 0);
        std::vector<std::vector<std::pair<int, int>>> cand_runs(
            int8 ? kQueryBlock : 0);
        std::vector<int> sel_pos;
        std::vector<QuantCandidate> sel_rows;
        std::vector<float> rr_row;
        std::vector<float> rr_scores;
        std::vector<int> rr_ids;
        for (int64_t b = begin; b < end; ++b) {
          const int q0 = static_cast<int>(b * kQueryBlock);
          const int q1 = std::min(n_queries, q0 + kQueryBlock);
          const int m = q1 - q0;

          if (int8) {
            // Quantize the query block once; every probed cell reuses
            // the codes (the per-query scale rides along to rescale).
            qcodes.resize(static_cast<size_t>(m) * dim_);
            qscales.resize(static_cast<size_t>(m));
            ks::QuantizeRowsI8(m, dim_, queries + static_cast<size_t>(q0) * dim_,
                               qcodes.data(), qscales.data());
          }

          // 1) Centroid scoring: one (m x cells) panel.
          cell_scores.assign(static_cast<size_t>(m) * n_cells, 0.0f);
          ks::GemmBT(m, n_cells, dim_,
                     queries + static_cast<size_t>(q0) * dim_,
                     centroids_.data(), cell_scores.data());

          // 2) Probe selection per query: top-p cells, deterministic
          // (score desc, cell id asc, NaN last via the shared selector).
          probes.clear();
          for (int i = 0; i < m; ++i) {
            SelectTopKNeighbors(
                cell_scores.data() + static_cast<size_t>(i) * n_cells,
                nullptr, n_cells, p, &sel_idx, &probe_sel);
            for (const Neighbor& nb : probe_sel) {
              probes.emplace_back(nb.id, i);
            }
            cand_ids[static_cast<size_t>(i)].clear();
            cand_scores[static_cast<size_t>(i)].clear();
            if (int8) {
              cand_pos[static_cast<size_t>(i)].clear();
              cand_runs[static_cast<size_t>(i)].clear();
            }
          }
          // Group by cell so the block's queries probing the same cell
          // share one candidate panel; ascending (cell, query) order
          // makes each query's candidate list a concatenation of its
          // probed cells in ascending cell id - grouping-invariant.
          std::sort(probes.begin(), probes.end());

          // 3) Candidate scoring: one (sub-block x cell-rows) panel per
          // probed cell; exact full-dimension similarities. The panel
          // spans the cell's stored rows (tombstones included - each
          // score is an independent chain), but only live rows are
          // gathered as candidates.
          size_t g = 0;
          while (g < probes.size()) {
            const int c = probes[g].first;
            size_t h = g;
            while (h < probes.size() && probes[h].first == c) ++h;
            const Cell& cell = cells_[static_cast<size_t>(c)];
            const int nr = static_cast<int>(cell.ids.size());
            const int gq = static_cast<int>(h - g);
            if (nr == 0) {
              g = h;
              continue;
            }
            gscores.assign(static_cast<size_t>(gq) * nr, 0.0f);
            if (int8) {
              // Gather the already-quantized query codes for this cell's
              // sub-block and score against the cell's quantized rows.
              gq_codes.resize(static_cast<size_t>(gq) * dim_);
              gq_scales.resize(static_cast<size_t>(gq));
              for (int j = 0; j < gq; ++j) {
                const int lq = probes[g + static_cast<size_t>(j)].second;
                std::copy(qcodes.begin() + static_cast<size_t>(lq) * dim_,
                          qcodes.begin() + static_cast<size_t>(lq + 1) * dim_,
                          gq_codes.begin() + static_cast<size_t>(j) * dim_);
                gq_scales[static_cast<size_t>(j)] =
                    qscales[static_cast<size_t>(lq)];
              }
              ks::GemmBTI8(gq, nr, dim_, gq_codes.data(), gq_scales.data(),
                           cell.store.q_data(), cell.store.scales(),
                           gscores.data());
            } else {
              gpanel.resize(static_cast<size_t>(gq) * dim_);
              for (int j = 0; j < gq; ++j) {
                const int lq = probes[g + static_cast<size_t>(j)].second;
                std::copy(queries + static_cast<size_t>(q0 + lq) * dim_,
                          queries + static_cast<size_t>(q0 + lq + 1) * dim_,
                          gpanel.begin() + static_cast<size_t>(j) * dim_);
              }
              ks::GemmBT(gq, nr, dim_, gpanel.data(), cell.store.fp32_data(),
                         gscores.data());
            }
            for (int j = 0; j < gq; ++j) {
              const int lq = probes[g + static_cast<size_t>(j)].second;
              const float* row =
                  gscores.data() + static_cast<size_t>(j) * nr;
              auto& ci = cand_ids[static_cast<size_t>(lq)];
              auto& cs = cand_scores[static_cast<size_t>(lq)];
              if (int8) {
                cand_runs[static_cast<size_t>(lq)].emplace_back(
                    static_cast<int>(ci.size()), c);
              }
              for (int pos = 0; pos < nr; ++pos) {
                const int id = cell.ids[static_cast<size_t>(pos)];
                if (id < 0) continue;
                ci.push_back(id);
                cs.push_back(row[pos]);
                if (int8) cand_pos[static_cast<size_t>(lq)].push_back(pos);
              }
            }
            g = h;
          }

          // 4) Exact re-rank: top-k over the gathered candidates with the
          // exact index's NaN-safe low-id tie-break on item ids. Under
          // int8, first keep the top QuantRerankDepth candidates by int8
          // score (deterministic top-r set; int8 scores never tie across
          // distinct rows without the id tie-break resolving it), then
          // re-rank those exactly on dequantized fp32 rows.
          for (int i = 0; i < m; ++i) {
            auto& ci = cand_ids[static_cast<size_t>(i)];
            auto& cs = cand_scores[static_cast<size_t>(i)];
            if (!int8) {
              SelectTopKNeighbors(cs.data(), ci.data(),
                                  static_cast<int>(ci.size()), k, &sel_idx,
                                  &(*out)[static_cast<size_t>(q0 + i)]);
              continue;
            }
            const int r = QuantRerankDepth(storage_, k);
            SelectTopRLivePositions(cs.data(), ci.data(),
                                    static_cast<int>(ci.size()), r, &sel_pos);
            // sel_pos indexes the candidate list; the last run starting
            // at or before a candidate names its cell.
            const auto& runs = cand_runs[static_cast<size_t>(i)];
            sel_rows.clear();
            for (int v : sel_pos) {
              const int c = (std::upper_bound(runs.begin(), runs.end(),
                                              std::make_pair(v, INT_MAX)) -
                             1)->second;
              sel_rows.push_back(
                  {&cells_[static_cast<size_t>(c)].store,
                   cand_pos[static_cast<size_t>(i)][static_cast<size_t>(v)],
                   ci[static_cast<size_t>(v)]});
            }
            RerankQuantCandidates(queries + static_cast<size_t>(q0 + i) * dim_,
                                  sel_rows, k, &rr_row, &rr_scores, &rr_ids,
                                  &sel_idx,
                                  &(*out)[static_cast<size_t>(q0 + i)]);
          }
        }
      });
}

Status IvfIndex::QueryBatch(const float* queries, int n_queries, int dim,
                            int k, std::vector<std::vector<Neighbor>>* out,
                            int num_threads) const {
  if (n_queries < 0) return Status::InvalidArgument("negative query count");
  if (k < 0) return Status::InvalidArgument("k must be >= 0");
  if (n_queries > 0 && queries == nullptr) {
    return Status::InvalidArgument("null query buffer");
  }
  if (n_queries > 0 && size() > 0 && dim != dim_) {
    return Status::InvalidArgument(
        "query dim " + std::to_string(dim) + " != index dim " +
        std::to_string(dim_));
  }
  out->assign(static_cast<size_t>(n_queries), {});
  k = std::min(k, size());
  if (k <= 0 || n_queries == 0) return Status::OK();
  QueryBatchImpl(queries, n_queries, k, options_.nprobe, num_threads, out);
  return Status::OK();
}

std::vector<std::vector<Neighbor>> IvfIndex::QueryBatch(
    const float* queries, int n_queries, int dim, int k, int nprobe,
    int num_threads) const {
  // Historical clamp semantics: k <= 0, empty batches, and an empty
  // index yield empty results; a width mismatch aborts.
  std::vector<std::vector<Neighbor>> out(
      static_cast<size_t>(std::max(0, n_queries)));
  if (size() == 0 || n_queries <= 0 || k <= 0) return out;
  SUDO_CHECK(dim == dim_ && queries != nullptr);
  QueryBatchImpl(queries, n_queries, std::min(k, size()), nprobe,
                 num_threads, &out);
  return out;
}

std::vector<std::vector<Neighbor>> IvfIndex::QueryBatch(
    const std::vector<std::vector<float>>& queries, int k, int nprobe,
    int num_threads) const {
  const int nq = static_cast<int>(queries.size());
  if (nq == 0) return {};
  if (size() == 0) {
    return std::vector<std::vector<Neighbor>>(static_cast<size_t>(nq));
  }
  std::vector<float> qflat(static_cast<size_t>(nq) * dim_);
  for (int i = 0; i < nq; ++i) {
    SUDO_CHECK(static_cast<int>(queries[static_cast<size_t>(i)].size()) ==
               dim_);
    std::copy(queries[static_cast<size_t>(i)].begin(),
              queries[static_cast<size_t>(i)].end(),
              qflat.begin() + static_cast<size_t>(i) * dim_);
  }
  return QueryBatch(qflat.data(), nq, dim_, k, nprobe, num_threads);
}

std::vector<Neighbor> IvfIndex::Query(const std::vector<float>& query, int k,
                                      int nprobe) const {
  if (size() == 0) return {};
  SUDO_CHECK(static_cast<int>(query.size()) == dim_);
  auto batch = QueryBatch(query.data(), 1, dim_, k, nprobe, 1);
  return std::move(batch[0]);
}

namespace {

/// IVF construction options as the facade resolves them: the facade's
/// per-query nprobe becomes the IVF index's interface-level default.
IvfOptions ResolveIvfOptions(const BlockingIndexOptions& options) {
  IvfOptions io = options.ivf;
  io.nprobe = options.nprobe;
  return io;
}

bool UseIvf(const BlockingIndexOptions& options, int n) {
  return options.kind == BlockingIndexKind::kIvf ||
         (options.kind == BlockingIndexKind::kAuto &&
          n >= options.exact_threshold);
}

}  // namespace

BlockingIndex::BlockingIndex(const float* rows, int n, int dim,
                             const BlockingIndexOptions& options)
    : options_(options) {
  if (UseIvf(options, n)) {
    ivf_ = std::make_unique<IvfIndex>(rows, n, dim, ResolveIvfOptions(options),
                                      options.mutation, options.storage);
  } else {
    exact_ = std::make_unique<KnnIndex>(rows, n, dim, options.mutation,
                                        options.storage);
  }
}

BlockingIndex::BlockingIndex(const std::vector<std::vector<float>>& items,
                             const BlockingIndexOptions& options)
    : options_(options) {
  const int n = static_cast<int>(items.size());
  const int dim = n > 0 ? static_cast<int>(items[0].size()) : 0;
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    SUDO_CHECK(static_cast<int>(items[static_cast<size_t>(i)].size()) == dim);
    std::copy(items[static_cast<size_t>(i)].begin(),
              items[static_cast<size_t>(i)].end(),
              rows.begin() + static_cast<size_t>(i) * dim);
  }
  if (UseIvf(options, n)) {
    ivf_ = std::make_unique<IvfIndex>(rows.data(), n, dim,
                                      ResolveIvfOptions(options),
                                      options.mutation, options.storage);
  } else {
    exact_ = std::make_unique<KnnIndex>(rows.data(), n, dim,
                                        options.mutation, options.storage);
  }
}

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
  if (options.nprobe <= 0) {
    return Status::InvalidArgument("nprobe must be > 0");
  }
  if (options.ivf.num_cells < 0 || options.ivf.train_iters < 0) {
    return Status::InvalidArgument("invalid IVF training options");
  }
  SUDO_RETURN_IF_ERROR(ValidateMutationOptions(options.mutation));
  SUDO_RETURN_IF_ERROR(ValidateStorageOptions(options.storage));
  return std::make_unique<BlockingIndex>(rows, n, dim, options);
}

void BlockingIndex::MigrateToIvf() {
  // Migration moves the row store verbatim - under int8 storage the
  // (codes, scale) pairs cross as-is, never re-quantized, so post-
  // migration queries match an IVF index built from the same rows.
  QuantRowStore staging;
  std::vector<int> ids;
  exact_->ExportLiveStore(&staging, &ids);
  ivf_ = std::make_unique<IvfIndex>(
      staging, ids.data(), static_cast<int>(ids.size()),
      ResolveIvfOptions(options_), options_.mutation, exact_->storage(),
      exact_->next_id());
  exact_.reset();
}

Status BlockingIndex::Insert(const float* rows, int n, int dim) {
  if (ivf_ != nullptr) return ivf_->Insert(rows, n, dim);
  SUDO_RETURN_IF_ERROR(exact_->Insert(rows, n, dim));
  // kAuto re-evaluates on growth: once the live corpus crosses the
  // threshold the exact oracle's O(N) sweep stops being the right
  // default, so the live rows migrate (ids preserved) into a freshly
  // trained IVF index. Growth only - a corpus that shrinks back keeps
  // its trained cells.
  if (options_.kind == BlockingIndexKind::kAuto &&
      exact_->size() >= options_.exact_threshold) {
    MigrateToIvf();
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

std::vector<std::vector<Neighbor>> BlockingIndex::QueryBatch(
    const std::vector<std::vector<float>>& queries, int k,
    int num_threads) const {
  return ivf_ != nullptr
             ? ivf_->QueryBatch(queries, k, options_.nprobe, num_threads)
             : exact_->QueryBatch(queries, k, num_threads);
}

std::vector<std::vector<Neighbor>> BlockingIndex::QueryBatch(
    const float* queries, int n_queries, int dim, int k,
    int num_threads) const {
  return ivf_ != nullptr
             ? ivf_->QueryBatch(queries, n_queries, dim, k, options_.nprobe,
                                num_threads)
             : exact_->QueryBatch(queries, n_queries, dim, k, num_threads);
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
