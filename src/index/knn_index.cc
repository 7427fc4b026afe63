#include "index/knn_index.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "tensor/kernels.h"

namespace sudowoodo::index {

namespace ks = sudowoodo::tensor::kernels;

namespace {

/// Queries are scored in fixed blocks of this many rows, against the
/// stored rows in chunks of kRowChunk (a whole number of panels).
/// Boundaries depend only on the shapes, never on the thread count; each
/// score is one fixed k-increasing accumulation chain regardless of which
/// block and chunk compute it, and the selector's order is total, so
/// neither is visible in the results. Together they bound the per-thread
/// score buffer at kQueryBlock x kRowChunk floats (128 KiB) whatever the
/// corpus size, and keep it in cache while the selector reads it.
constexpr int kQueryBlock = 32;
constexpr int kRowChunk = 1024;
static_assert(kRowChunk % ks::kPackedPanelRows == 0,
              "chunks start on a panel boundary");

/// Per-thread query scratch. Retained across calls, so once a thread has
/// served the largest block shape it queries without allocating.
struct QueryScratch {
  std::vector<float> scores;       // [m, chunk rows]
  std::vector<int8_t> qcodes;      // int8: the quantized query block
  std::vector<float> qscales;
  std::vector<float> row;          // int8: one dequantized row
  std::vector<TopKSelector> sel;   // per query: top-k, or int8 top-r
  TopKSelector rerank;             // int8: the final top-k
};

QueryScratch& ThreadScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace

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
  // One contiguous buffer: fp32 rows are packed into GemmBT panels here,
  // once, and int8 rows quantize on this ingest. Strictly ascending ids
  // keep live storage order == id order, the invariant behind the
  // rebuild-bitwise contract.
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
  SUDO_RETURN_IF_ERROR(
      ValidateQueryArgs(queries, n_queries, dim, k, this->dim()));
  out->resize(static_cast<size_t>(n_queries));
  k = std::min(k, size());
  if (k <= 0 || this->dim() == 0) {
    for (auto& row : *out) row.clear();
    return Status::OK();
  }

  // One scoring path per storage mode: fp32 scores every stored row
  // through the packed panels; int8 quantizes the query block once,
  // scores every stored row through the int8 panel kernel, keeps the top
  // QuantRerankDepth candidates and re-ranks only those exactly in fp32,
  // so exactness costs O(r * dim), not O(n * dim). Either way each row of
  // scores streams through the selector, tombstones skipped inline.
  const RowSet::Table& table = rows_.table(0);
  const int n = static_cast<int>(table.ids.size());
  const bool int8 = storage_.storage == IndexStorage::kInt8;
  const int depth = int8 ? QuantRerankDepth(storage_, k) : k;
  const int64_t n_blocks =
      (static_cast<int64_t>(n_queries) + kQueryBlock - 1) / kQueryBlock;
  ParallelFor(n_blocks, num_threads,
              [&](int64_t begin, int64_t end, int /*shard*/) {
    QueryScratch& s = ThreadScratch();
    if (s.sel.size() < kQueryBlock) s.sel.resize(kQueryBlock);
    for (int64_t b = begin; b < end; ++b) {
      const int q0 = static_cast<int>(b * kQueryBlock);
      const int m = std::min(n_queries, q0 + kQueryBlock) - q0;
      const float* qb = queries + static_cast<size_t>(q0) * dim;
      if (int8) {
        s.qcodes.resize(static_cast<size_t>(m) * dim);
        s.qscales.resize(static_cast<size_t>(m));
        ks::QuantizeRowsI8(m, dim, qb, s.qcodes.data(), s.qscales.data());
      }
      for (int i = 0; i < m; ++i) s.sel[static_cast<size_t>(i)].Reset(depth);
      for (int c0 = 0; c0 < n; c0 += kRowChunk) {
        const int nc = std::min(kRowChunk, n - c0);
        s.scores.assign(static_cast<size_t>(m) * nc, 0.0f);
        if (int8) {
          ks::GemmBTI8(m, nc, dim, s.qcodes.data(), s.qscales.data(),
                       table.store.q_data() + static_cast<size_t>(c0) * dim,
                       table.store.scales() + c0, s.scores.data());
        } else {
          ks::GemmBTPacked(m, nc, dim, qb,
                           table.store.panels() +
                               ks::PackedRowOffset(c0, dim),
                           s.scores.data());
        }
        for (int i = 0; i < m; ++i) {
          s.sel[static_cast<size_t>(i)].PushScores(
              s.scores.data() + static_cast<size_t>(i) * nc,
              table.ids.data() + c0, nc, 0, c0);
        }
      }
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
