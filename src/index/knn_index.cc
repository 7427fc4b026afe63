#include "index/knn_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "tensor/kernels.h"

namespace sudowoodo::index {

namespace ks = sudowoodo::tensor::kernels;

namespace {

/// Queries are scored in fixed blocks of this many rows so the GemmBT
/// panel amortizes its B packing across the block; block boundaries
/// depend only on the query count, never on the thread count, and each
/// score is one fixed k-increasing accumulation chain regardless of which
/// block computes it - so blocking is invisible in the results.
constexpr int kQueryBlock = 32;

/// Compacts the (scores, ids) pair down to live entries. Each score is an
/// independent per-row accumulation chain, so dropping tombstoned rows
/// after scoring leaves the surviving scores bitwise equal to what a
/// tombstone-free index would have computed.
void GatherLiveScores(const float* scores, const int* ids, int n,
                      std::vector<float>* live_scores,
                      std::vector<int>* live_ids) {
  live_scores->clear();
  live_ids->clear();
  for (int pos = 0; pos < n; ++pos) {
    if (ids[pos] < 0) continue;
    live_scores->push_back(scores[pos]);
    live_ids->push_back(ids[pos]);
  }
}

}  // namespace

void SelectTopKNeighbors(const float* scores, const int* ids, int n, int k,
                         std::vector<int>* idx_scratch,
                         std::vector<Neighbor>* out) {
  k = std::min(k, n);
  out->clear();
  if (k <= 0) return;
  std::vector<int>& idx = *idx_scratch;
  idx.resize(static_cast<size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  // Ties break toward the lower item id, which makes the result a
  // deterministic function of (scores, ids, k). NaN scores (degenerate
  // embeddings) rank last as one id-ordered equivalence class - a
  // NaN-oblivious float comparator would break strict weak ordering and
  // make nth_element/sort undefined behavior.
  auto better = [scores, ids](int a, int b) {
    const float sa = scores[static_cast<size_t>(a)];
    const float sb = scores[static_cast<size_t>(b)];
    const bool nan_a = std::isnan(sa), nan_b = std::isnan(sb);
    if (nan_a != nan_b) return nan_b;
    if (!nan_a && sa != sb) return sa > sb;
    const int ia = ids != nullptr ? ids[static_cast<size_t>(a)] : a;
    const int ib = ids != nullptr ? ids[static_cast<size_t>(b)] : b;
    return ia < ib;
  };
  if (k < n) {
    std::nth_element(idx.begin(), idx.begin() + k, idx.end(), better);
    idx.resize(static_cast<size_t>(k));
  }
  std::sort(idx.begin(), idx.end(), better);

  out->resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int pos = idx[static_cast<size_t>(i)];
    (*out)[static_cast<size_t>(i)] = {
        ids != nullptr ? ids[static_cast<size_t>(pos)] : pos,
        scores[static_cast<size_t>(pos)]};
  }
}

void SelectTopRLivePositions(const float* scores, const int* ids, int n,
                             int r, std::vector<int>* out) {
  out->clear();
  if (r <= 0) return;
  // "less" == better, so the heap front is the WORST kept candidate: a
  // new position evicts it only by beating it. The kept set is the
  // unique top-r under this strict total order, so the pass is
  // deterministic; only the internal order of `*out` is heap-shaped.
  auto better = [scores, ids](int a, int b) {
    const float sa = scores[static_cast<size_t>(a)];
    const float sb = scores[static_cast<size_t>(b)];
    if (sa != sb) return sa > sb;
    return ids[static_cast<size_t>(a)] < ids[static_cast<size_t>(b)];
  };
  for (int pos = 0; pos < n; ++pos) {
    if (ids[static_cast<size_t>(pos)] < 0) continue;
    if (static_cast<int>(out->size()) < r) {
      out->push_back(pos);
      std::push_heap(out->begin(), out->end(), better);
    } else if (better(pos, (*out)[0])) {
      std::pop_heap(out->begin(), out->end(), better);
      out->back() = pos;
      std::push_heap(out->begin(), out->end(), better);
    }
  }
}

void RerankQuantCandidates(const float* query,
                           const std::vector<QuantCandidate>& cand, int k,
                           std::vector<float>* row_scratch,
                           std::vector<float>* score_scratch,
                           std::vector<int>* cand_ids_scratch,
                           std::vector<int>* idx_scratch,
                           std::vector<Neighbor>* out) {
  const int n_cand = static_cast<int>(cand.size());
  score_scratch->resize(static_cast<size_t>(n_cand));
  cand_ids_scratch->resize(static_cast<size_t>(n_cand));
  for (int t = 0; t < n_cand; ++t) {
    const QuantCandidate& c = cand[static_cast<size_t>(t)];
    const int dim = c.store->dim();
    row_scratch->resize(static_cast<size_t>(dim));
    c.store->DequantizeRowInto(c.pos, row_scratch->data());
    (*score_scratch)[static_cast<size_t>(t)] =
        ks::Dot(query, row_scratch->data(), dim);
    (*cand_ids_scratch)[static_cast<size_t>(t)] = c.id;
  }
  SelectTopKNeighbors(score_scratch->data(), cand_ids_scratch->data(),
                      n_cand, k, idx_scratch, out);
}

void KnnIndex::BuildFrom(const float* rows, const int* ids, int n, int dim) {
  n_ = n;
  dim_ = dim;
  // Pack the item vectors into one contiguous row-major buffer so scoring
  // runs stride-1 panels (SIMD-friendly, no pointer chasing through
  // per-item allocations); int8 mode quantizes on this ingest.
  store_.Reset(dim, storage_.storage);
  store_.Append(rows, n);
  ids_.resize(static_cast<size_t>(n));
  pos_by_id_.clear();
  pos_by_id_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int id = ids != nullptr ? ids[static_cast<size_t>(i)] : i;
    SUDO_CHECK(id >= 0);
    // Strictly ascending ids keep live storage order == id order, the
    // invariant behind the rebuild-bitwise contract.
    SUDO_CHECK(i == 0 || id > ids_[static_cast<size_t>(i - 1)]);
    ids_[static_cast<size_t>(i)] = id;
    pos_by_id_.emplace(id, i);
  }
  next_id_ = n > 0 ? ids_[static_cast<size_t>(n - 1)] + 1 : 0;
}

KnnIndex::KnnIndex(const std::vector<std::vector<float>>& items) {
  const int n = static_cast<int>(items.size());
  const int dim = n > 0 ? static_cast<int>(items[0].size()) : 0;
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    SUDO_CHECK(static_cast<int>(items[static_cast<size_t>(i)].size()) == dim);
    std::copy(items[static_cast<size_t>(i)].begin(),
              items[static_cast<size_t>(i)].end(),
              rows.begin() + static_cast<size_t>(i) * dim);
  }
  BuildFrom(rows.data(), nullptr, n, dim);
}

KnnIndex::KnnIndex(const float* rows, int n, int dim,
                   const MutationOptions& mutation,
                   const StorageOptions& storage)
    : mutation_(mutation), storage_(storage) {
  SUDO_CHECK(n >= 0 && dim >= 0 && (n == 0 || rows != nullptr));
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  BuildFrom(rows, nullptr, n, dim);
}

KnnIndex::KnnIndex(const float* rows, const int* ids, int n, int dim,
                   const MutationOptions& mutation,
                   const StorageOptions& storage)
    : mutation_(mutation), storage_(storage) {
  SUDO_CHECK(n >= 0 && dim >= 0 && (n == 0 || rows != nullptr));
  SUDO_CHECK(n == 0 || ids != nullptr);
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  BuildFrom(rows, ids, n, dim);
}

Result<std::unique_ptr<KnnIndex>> KnnIndex::Create(
    const float* rows, int n, int dim, const MutationOptions& mutation,
    const StorageOptions& storage) {
  if (n < 0 || dim < 0) {
    return Status::InvalidArgument("negative index shape");
  }
  if (n > 0 && rows == nullptr) {
    return Status::InvalidArgument("null rows with n > 0");
  }
  if (n > 0 && dim == 0) {
    return Status::InvalidArgument("zero-width rows with n > 0");
  }
  SUDO_RETURN_IF_ERROR(ValidateMutationOptions(mutation));
  SUDO_RETURN_IF_ERROR(ValidateStorageOptions(storage));
  return std::make_unique<KnnIndex>(rows, n, dim, mutation, storage);
}

Status KnnIndex::Insert(const float* rows, int n, int dim) {
  if (n < 0) return Status::InvalidArgument("negative insert count");
  if (n == 0) return Status::OK();
  if (rows == nullptr) return Status::InvalidArgument("null insert rows");
  if (dim_ == 0) {
    return Status::FailedPrecondition(
        "insert into a dimensionless empty index (construct with an "
        "explicit dim to make it insertable)");
  }
  if (dim != dim_) {
    return Status::InvalidArgument(
        "insert dim " + std::to_string(dim) + " != index dim " +
        std::to_string(dim_));
  }
  store_.Append(rows, n);
  // push_back grows geometrically; reserving the exact new size here
  // would copy the whole id table on every one-row insert.
  for (int i = 0; i < n; ++i) {
    ids_.push_back(next_id_);
    pos_by_id_.emplace(next_id_, n_ + i);
    ++next_id_;
  }
  n_ += n;
  return Status::OK();
}

Status KnnIndex::Remove(const int* ids, int n) {
  if (n < 0) return Status::InvalidArgument("negative remove count");
  if (n == 0) return Status::OK();
  if (ids == nullptr) return Status::InvalidArgument("null remove ids");
  // Validate the whole batch first so a NotFound removes nothing
  // (duplicates within one call count as unknown on the second hit).
  for (int i = 0; i < n; ++i) {
    const auto it = pos_by_id_.find(ids[i]);
    if (it == pos_by_id_.end()) {
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
  for (int i = 0; i < n; ++i) {
    const auto it = pos_by_id_.find(ids[i]);
    ids_[static_cast<size_t>(it->second)] = -1;
    pos_by_id_.erase(it);
    ++n_tombstones_;
  }
  CompactIfNeeded();
  return Status::OK();
}

void KnnIndex::CompactIfNeeded() {
  if (n_tombstones_ == 0 ||
      static_cast<float>(n_tombstones_) <=
          mutation_.compact_tombstone_fraction * static_cast<float>(n_)) {
    return;
  }
  // Stable order-preserving erase: live rows keep their relative
  // (ascending-id) order, so compaction is invisible to query results.
  int w = 0;
  for (int pos = 0; pos < n_; ++pos) {
    if (ids_[static_cast<size_t>(pos)] < 0) continue;
    if (w != pos) {
      store_.MoveRow(pos, w);
      ids_[static_cast<size_t>(w)] = ids_[static_cast<size_t>(pos)];
    }
    pos_by_id_[ids_[static_cast<size_t>(w)]] = w;
    ++w;
  }
  n_ = w;
  n_tombstones_ = 0;
  store_.Truncate(n_);
  ids_.resize(static_cast<size_t>(n_));
}

void KnnIndex::ExportLive(std::vector<float>* rows,
                          std::vector<int>* ids) const {
  rows->clear();
  ids->clear();
  rows->resize(static_cast<size_t>(size()) * dim_);
  ids->reserve(static_cast<size_t>(size()));
  size_t w = 0;
  for (int pos = 0; pos < n_; ++pos) {
    if (ids_[static_cast<size_t>(pos)] < 0) continue;
    store_.DequantizeRowInto(pos, rows->data() + w * dim_);
    ids->push_back(ids_[static_cast<size_t>(pos)]);
    ++w;
  }
}

void KnnIndex::ExportLiveStore(QuantRowStore* store,
                               std::vector<int>* ids) const {
  store->Reset(dim_, store_.mode());
  store->Reserve(size());
  ids->clear();
  ids->reserve(static_cast<size_t>(size()));
  for (int pos = 0; pos < n_; ++pos) {
    if (ids_[static_cast<size_t>(pos)] < 0) continue;
    store->AppendFrom(store_, pos);
    ids->push_back(ids_[static_cast<size_t>(pos)]);
  }
}

Status KnnIndex::QueryBatch(const float* queries, int n_queries, int dim,
                            int k, std::vector<std::vector<Neighbor>>* out,
                            int num_threads) const {
  if (n_queries < 0) return Status::InvalidArgument("negative query count");
  if (k < 0) return Status::InvalidArgument("k must be >= 0");
  if (n_queries > 0 && queries == nullptr) {
    return Status::InvalidArgument("null query buffer");
  }
  if (n_queries > 0 && dim != dim_) {
    return Status::InvalidArgument(
        "query dim " + std::to_string(dim) + " != index dim " +
        std::to_string(dim_));
  }
  out->assign(static_cast<size_t>(n_queries), {});
  k = std::min(k, size());
  if (k <= 0 || n_queries == 0) return Status::OK();

  const int64_t n_blocks =
      (static_cast<int64_t>(n_queries) + kQueryBlock - 1) / kQueryBlock;
  if (store_.int8_mode()) {
    ParallelFor(n_blocks, num_threads,
                [&](int64_t begin, int64_t end, int /*shard*/) {
                  QuantQueryScratch scratch;
                  for (int64_t b = begin; b < end; ++b) {
                    const int q0 = static_cast<int>(b * kQueryBlock);
                    const int q1 = std::min(n_queries, q0 + kQueryBlock);
                    QuantQueryBlock(queries, q0, q1 - q0, k, &scratch, out);
                  }
                });
    return Status::OK();
  }
  ParallelFor(n_blocks, num_threads,
              [&](int64_t begin, int64_t end, int /*shard*/) {
                // Per-shard scratch, reused across the shard's blocks.
                std::vector<float> scores;
                std::vector<int> idx;
                std::vector<float> live_scores;
                std::vector<int> live_ids;
                for (int64_t b = begin; b < end; ++b) {
                  const int q0 = static_cast<int>(b * kQueryBlock);
                  const int q1 = std::min(n_queries, q0 + kQueryBlock);
                  const int m = q1 - q0;
                  scores.assign(static_cast<size_t>(m) * n_, 0.0f);
                  ks::GemmBT(m, n_, dim_,
                             queries + static_cast<size_t>(q0) * dim_,
                             store_.fp32_data(), scores.data());
                  for (int i = 0; i < m; ++i) {
                    const float* row =
                        scores.data() + static_cast<size_t>(i) * n_;
                    if (n_tombstones_ == 0) {
                      SelectTopKNeighbors(row, ids_.data(), n_, k, &idx,
                                          &(*out)[static_cast<size_t>(q0 + i)]);
                    } else {
                      GatherLiveScores(row, ids_.data(), n_, &live_scores,
                                       &live_ids);
                      SelectTopKNeighbors(
                          live_scores.data(), live_ids.data(),
                          static_cast<int>(live_ids.size()), k, &idx,
                          &(*out)[static_cast<size_t>(q0 + i)]);
                    }
                  }
                }
              });
  return Status::OK();
}

void KnnIndex::QuantQueryBlock(const float* queries, int q0, int m, int k,
                               QuantQueryScratch* s,
                               std::vector<std::vector<Neighbor>>* out) const {
  // Candidate generation runs entirely in int8: quantize the query block
  // once, score every stored row through the panel kernel, and keep the
  // top-r set per query with the heap pass (tombstones skipped there).
  // The fp32 re-rank then rescores only r dequantized rows per query, so
  // exactness costs O(r * dim), not O(n * dim). Every step is bitwise
  // tier- and thread-independent (see kernels.h GemmBTI8).
  const int r = QuantRerankDepth(storage_, k);
  s->qcodes.resize(static_cast<size_t>(m) * dim_);
  s->qscales.resize(static_cast<size_t>(m));
  ks::QuantizeRowsI8(m, dim_, queries + static_cast<size_t>(q0) * dim_,
                     s->qcodes.data(), s->qscales.data());
  s->scores.assign(static_cast<size_t>(m) * n_, 0.0f);
  ks::GemmBTI8(m, n_, dim_, s->qcodes.data(), s->qscales.data(),
               store_.q_data(), store_.scales(), s->scores.data());
  for (int i = 0; i < m; ++i) {
    SelectTopRLivePositions(s->scores.data() + static_cast<size_t>(i) * n_,
                            ids_.data(), n_, r, &s->cand);
    s->refs.clear();
    for (int pos : s->cand) {
      s->refs.push_back({&store_, pos, ids_[static_cast<size_t>(pos)]});
    }
    RerankQuantCandidates(queries + static_cast<size_t>(q0 + i) * dim_,
                          s->refs, k, &s->row, &s->fscores, &s->cand_ids,
                          &s->idx, &(*out)[static_cast<size_t>(q0 + i)]);
  }
}

std::vector<Neighbor> KnnIndex::Query(const std::vector<float>& query,
                                      int k) const {
  // Historical clamp semantics (matching the batch wrapper below): k < 0
  // and an empty index yield an empty result before any width check.
  k = std::min(k, size());
  if (k <= 0) return {};
  SUDO_CHECK(static_cast<int>(query.size()) == dim_);

  // Per-thread scoring/selection scratch: the serving hot loop calls
  // Query repeatedly, and a fresh heap allocation per call would dominate
  // small indexes (the PR 5 zero-alloc serving contract). Capacity is
  // retained across calls; only the returned vector allocates at steady
  // state.
  thread_local std::vector<float> scores;
  thread_local std::vector<int> idx;
  thread_local std::vector<float> live_scores;
  thread_local std::vector<int> live_ids;
  if (store_.int8_mode()) {
    // m = 1 edge of the int8 block path, on thread_local scratch so the
    // serving hot loop stays allocation-free at steady state.
    thread_local QuantQueryScratch qscratch;
    thread_local std::vector<std::vector<Neighbor>> rows;
    rows.resize(1);
    QuantQueryBlock(query.data(), 0, 1, k, &qscratch, &rows);
    return std::move(rows[0]);
  }
  scores.assign(static_cast<size_t>(n_), 0.0f);
  // m = 1 edge of the blocked QueryBatch panel: each score accumulates
  // along the same fixed k-increasing GemmBT chain, so a single Query is
  // bit-identical to the same row of a batch on whatever tier is active.
  ks::GemmBT(1, n_, dim_, query.data(), store_.fp32_data(), scores.data());

  std::vector<Neighbor> out;
  if (n_tombstones_ == 0) {
    SelectTopKNeighbors(scores.data(), ids_.data(), n_, k, &idx, &out);
  } else {
    GatherLiveScores(scores.data(), ids_.data(), n_, &live_scores,
                     &live_ids);
    SelectTopKNeighbors(live_scores.data(), live_ids.data(),
                        static_cast<int>(live_ids.size()), k, &idx, &out);
  }
  return out;
}

std::vector<std::vector<Neighbor>> KnnIndex::QueryBatch(const float* queries,
                                                        int n_queries, int dim,
                                                        int k,
                                                        int num_threads) const {
  // Historical clamp semantics: k < 0, empty batches, and an empty index
  // yield empty results; a width mismatch is a programmer error (abort).
  std::vector<std::vector<Neighbor>> out(
      static_cast<size_t>(std::max(0, n_queries)));
  if (k <= 0 || n_queries <= 0 || size() == 0) return out;
  SUDO_CHECK(dim == dim_ && queries != nullptr);
  SUDO_CHECK_OK(QueryBatch(queries, n_queries, dim, k, &out, num_threads));
  return out;
}

std::vector<std::vector<Neighbor>> KnnIndex::QueryBatch(
    const std::vector<std::vector<float>>& queries, int k,
    int num_threads) const {
  const int nq = static_cast<int>(queries.size());
  if (nq == 0) return {};
  // One flattening copy so scoring runs on contiguous panels; callers
  // holding flat encoder/cache buffers use the flat overload and skip it.
  std::vector<float> qflat(static_cast<size_t>(nq) * dim_);
  for (int i = 0; i < nq; ++i) {
    SUDO_CHECK(static_cast<int>(queries[static_cast<size_t>(i)].size()) ==
               dim_);
    std::copy(queries[static_cast<size_t>(i)].begin(),
              queries[static_cast<size_t>(i)].end(),
              qflat.begin() + static_cast<size_t>(i) * dim_);
  }
  return QueryBatch(qflat.data(), nq, dim_, k, num_threads);
}

float DenseCosine(const std::vector<float>& a, const std::vector<float>& b) {
  SUDO_CHECK(a.size() == b.size());
  const int n = static_cast<int>(a.size());
  const double dot = ks::DotDouble(a.data(), b.data(), n);
  const double na = ks::DotDouble(a.data(), a.data(), n);
  const double nb = ks::DotDouble(b.data(), b.data(), n);
  if (na <= 0.0 || nb <= 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

}  // namespace sudowoodo::index
