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

KnnIndex::KnnIndex(const float* rows, int n, int dim,
                   const MutationOptions& mutation,
                   const StorageOptions& storage)
    : KnnIndex(rows, nullptr, n, dim, mutation, storage) {}

KnnIndex::KnnIndex(const float* rows, const int* ids, int n, int dim,
                   const MutationOptions& mutation,
                   const StorageOptions& storage)
    : rows_(dim, storage.storage, 1), mutation_(mutation), storage_(storage) {
  SUDO_CHECK(n >= 0 && dim >= 0 && (n == 0 || rows != nullptr));
  SUDO_CHECK_OK(ValidateMutationOptions(mutation));
  SUDO_CHECK_OK(ValidateStorageOptions(storage));
  // One contiguous row-major buffer, so scoring runs stride-1 panels
  // (SIMD-friendly, no pointer chasing through per-item allocations);
  // int8 mode quantizes on this ingest. Strictly ascending ids keep live
  // storage order == id order, the invariant behind the rebuild-bitwise
  // contract.
  rows_.Append(0, rows, n, ids);
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
  rows_.Append(0, rows, n);
  return Status::OK();
}

Status KnnIndex::Remove(const int* ids, int n) {
  return rows_.Remove(ids, n, mutation_.compact_tombstone_fraction);
}

Status KnnIndex::QueryBatch(const float* queries, int n_queries, int dim,
                            int k, std::vector<std::vector<Neighbor>>* out,
                            int num_threads) const {
  if (n_queries < 0) return Status::InvalidArgument("negative query count");
  if (k < 0) return Status::InvalidArgument("k must be >= 0");
  if (n_queries > 0 && queries == nullptr) {
    return Status::InvalidArgument("null query buffer");
  }
  if (n_queries > 0 && dim != this->dim()) {
    return Status::InvalidArgument(
        "query dim " + std::to_string(dim) + " != index dim " +
        std::to_string(this->dim()));
  }
  out->assign(static_cast<size_t>(n_queries), {});
  k = std::min(k, size());
  if (k <= 0 || n_queries == 0) return Status::OK();

  const int64_t n_blocks =
      (static_cast<int64_t>(n_queries) + kQueryBlock - 1) / kQueryBlock;
  if (storage_.storage == IndexStorage::kInt8) {
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
  const RowSet::Table& table = rows_.table(0);
  const int n = static_cast<int>(table.ids.size());
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
                  scores.assign(static_cast<size_t>(m) * n, 0.0f);
                  ks::GemmBT(m, n, dim, queries + static_cast<size_t>(q0) * dim,
                             table.store.fp32_data(), scores.data());
                  for (int i = 0; i < m; ++i) {
                    const float* row =
                        scores.data() + static_cast<size_t>(i) * n;
                    if (table.live == n) {
                      SelectTopKNeighbors(row, table.ids.data(), n, k, &idx,
                                          &(*out)[static_cast<size_t>(q0 + i)]);
                    } else {
                      GatherLiveScores(row, table.ids.data(), n, &live_scores,
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
  const RowSet::Table& table = rows_.table(0);
  const int n = static_cast<int>(table.ids.size());
  const int dim = rows_.dim();
  const int r = QuantRerankDepth(storage_, k);
  s->qcodes.resize(static_cast<size_t>(m) * dim);
  s->qscales.resize(static_cast<size_t>(m));
  ks::QuantizeRowsI8(m, dim, queries + static_cast<size_t>(q0) * dim,
                     s->qcodes.data(), s->qscales.data());
  s->scores.assign(static_cast<size_t>(m) * n, 0.0f);
  ks::GemmBTI8(m, n, dim, s->qcodes.data(), s->qscales.data(),
               table.store.q_data(), table.store.scales(), s->scores.data());
  for (int i = 0; i < m; ++i) {
    SelectTopRLivePositions(s->scores.data() + static_cast<size_t>(i) * n,
                            table.ids.data(), n, r, &s->cand);
    s->refs.clear();
    for (int pos : s->cand) {
      s->refs.push_back(
          {&table.store, pos, table.ids[static_cast<size_t>(pos)]});
    }
    RerankQuantCandidates(queries + static_cast<size_t>(q0 + i) * dim,
                          s->refs, k, &s->row, &s->fscores, &s->cand_ids,
                          &s->idx, &(*out)[static_cast<size_t>(q0 + i)]);
  }
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
