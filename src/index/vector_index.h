// The unified vector-index interface: every blocking index (the exact
// KnnIndex, the approximate IvfIndex, and the BlockingIndex selection
// facade) implements this one surface, so pipelines and the serving
// front door program against *an index*, not a concrete class.
//
// Canonical signatures are flat `(const float*, n, dim)` row-major
// buffers - encoder and cache output is flat, and every scoring path
// feeds contiguous GemmBT panels - with the nested-vector forms provided
// only as thin flattening conveniences. All fallible operations report
// through Status (common/status.h): dimension mismatches, negative k,
// inserting into a dimensionless index, or removing an unknown id are
// errors, not silent clamps.
//
// Mutation model. Items carry dense integer ids: construction assigns
// 0..n-1 in row order and Insert appends ids monotonically from there
// (`next_id()` before an Insert tells the caller which ids the batch
// will receive). Remove tombstones by id; storage is compacted when
// tombstones exceed MutationOptions::compact_tombstone_fraction of the
// stored rows. Both concrete indexes keep this bookkeeping in one shared
// index::RowSet (quant_store.h). Because ids are assigned monotonically
// and compaction preserves storage order, live rows are always stored in
// ascending-id order - which is what keeps the exact index's
// post-mutation results bitwise identical to an index rebuilt from
// scratch on the surviving rows (see knn_index.h).

#ifndef SUDOWOODO_INDEX_VECTOR_INDEX_H_
#define SUDOWOODO_INDEX_VECTOR_INDEX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace sudowoodo::index {

/// One retrieved neighbour: {item id, cosine similarity}.
struct Neighbor {
  int id = -1;
  float sim = 0.0f;
};

/// In-place mutation knobs, shared by every VectorIndex implementation
/// (carried in one place by BlockingIndexOptions rather than per-class
/// setters; the IVF-only fields are ignored by the exact index).
struct MutationOptions {
  /// Compact the storage (physically drop tombstoned rows) when
  /// tombstones exceed this fraction of the stored rows (IvfIndex: of
  /// each cell's stored rows). 0 compacts on every Remove; 1 never
  /// compacts between mutations.
  float compact_tombstone_fraction = 0.25f;
  /// IvfIndex: re-train the cells (fresh k-means over the live rows)
  /// when inserts since the last training exceed this fraction of the
  /// corpus size at that training. Keeps cell quality from decaying as
  /// the corpus drifts away from the trained partition.
  float retrain_insert_fraction = 0.5f;
  /// IvfIndex: re-train when the largest cell's live count exceeds this
  /// multiple of the mean live cell size (checked once mean >= 1).
  /// Catches skew that insert volume alone misses - arrivals piling
  /// into one cell degrade probing long before the volume trigger.
  float retrain_imbalance = 8.0f;
};

/// How an index stores its rows.
enum class IndexStorage {
  /// Rows kept verbatim as fp32; all scoring exact. The default.
  kFp32 = 0,
  /// Rows quantized to per-row symmetric int8 (scale-per-row, see
  /// tensor/kernels.h QuantizeRowsI8): 4x smaller storage, candidate
  /// generation scores through the int8 panel kernel, and the final
  /// top-k re-ranks the leading candidates exactly in fp32 on
  /// dequantized rows. Rows quantize once on ingest; every later layout
  /// move (compaction, IVF retraining, facade migration) transfers the
  /// (codes, scale) pair verbatim, so mutation never re-rounds and
  /// post-mutation results match a from-scratch int8 rebuild on the
  /// surviving rows.
  kInt8 = 1,
};

/// Row-storage knobs, carried by BlockingIndexOptions next to
/// MutationOptions. Ignored entirely under kFp32.
struct StorageOptions {
  IndexStorage storage = IndexStorage::kFp32;
  /// Int8 candidate generation keeps the top max(rerank_min,
  /// rerank_multiple * k) int8-scored candidates per query and re-ranks
  /// them in fp32. A deeper tail costs more dequantize+dot work and buys
  /// recall. With the defaults the int8 exact scan measures recall@10 =
  /// 0.929 (N = 25k) and 0.9307 (N = 100k) against fp32 on the synthetic
  /// ANN workload (BENCH_ann.json): an 8-bit representation limit on
  /// dense near-ties, explained in EXPERIMENTS.md "Quantized blocking".
  int rerank_multiple = 4;
  int rerank_min = 64;
};

/// Validates the storage knobs.
inline Status ValidateStorageOptions(const StorageOptions& s) {
  if (s.rerank_multiple < 1) {
    return Status::InvalidArgument("rerank_multiple must be >= 1");
  }
  if (s.rerank_min < 1) {
    return Status::InvalidArgument("rerank_min must be >= 1");
  }
  return Status::OK();
}

/// Validates the mutation knobs (fractions non-negative, imbalance >= 1).
inline Status ValidateMutationOptions(const MutationOptions& m) {
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
  return Status::OK();
}

/// Validates a QueryBatch call on an index of width `index_dim`. A
/// negative query count or k, or a null buffer for a non-empty batch, is
/// InvalidArgument, and so is a query width other than `index_dim` -
/// whether or not the index holds live rows. A dimensionless index
/// (`index_dim` 0) has no width to disagree with: it answers any width
/// with empty rows.
inline Status ValidateQueryArgs(const float* queries, int n_queries, int dim,
                                int k, int index_dim) {
  if (n_queries < 0) return Status::InvalidArgument("negative query count");
  if (k < 0) return Status::InvalidArgument("k must be >= 0");
  if (n_queries > 0 && queries == nullptr) {
    return Status::InvalidArgument("null query buffer");
  }
  if (n_queries > 0 && index_dim > 0 && dim != index_dim) {
    return Status::InvalidArgument("query dim " + std::to_string(dim) +
                                   " != index dim " +
                                   std::to_string(index_dim));
  }
  return Status::OK();
}

/// Abstract mutable top-k index over L2-normalized dense vectors (inner
/// product = cosine). Implementations are internally unsynchronized:
/// concurrent Query calls are safe, but mutations require external
/// serialization (index/live_index.h wraps one behind a shared_mutex for
/// the serving front door).
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Live (non-tombstoned) item count.
  virtual int size() const = 0;
  /// Row width; 0 for a dimensionless empty index.
  virtual int dim() const = 0;

  /// Top-k most similar live items per query, most similar first, ties
  /// toward the lower id, NaN similarities last (index/top_k.h). k is
  /// clamped to size(); arguments are checked by ValidateQueryArgs.
  /// `*out` is resized to n_queries rows, reusing their capacity.
  /// Results are bit-identical for any num_threads (fixed contiguous
  /// sharding).
  virtual Status QueryBatch(const float* queries, int n_queries, int dim,
                            int k, std::vector<std::vector<Neighbor>>* out,
                            int num_threads = 1) const = 0;

  /// Appends `n` rows, assigning them ids next_id()..next_id()+n-1 in
  /// row order. InvalidArgument on dim mismatch or bad buffer;
  /// FailedPrecondition when the index cannot accept rows (dimensionless
  /// empty exact index, untrained IVF index).
  virtual Status Insert(const float* rows, int n, int dim) = 0;

  /// Tombstones the given ids. Atomic: if any id is unknown (never
  /// assigned, or already removed) the call returns NotFound and removes
  /// nothing. Storage compacts per MutationOptions.
  virtual Status Remove(const int* ids, int n) = 0;

  /// The id the next inserted row will receive (monotone, never reused).
  virtual int next_id() const = 0;

  /// Resident bytes of the index payload: row storage (fp32 rows, or
  /// int8 codes + per-row scales), id map, and - for IVF - centroids and
  /// cell tables. Counts the floats the index stores (incl. tombstoned
  /// rows awaiting compaction and the zero padding that fills the last
  /// fp32 panel of each table), not allocator slack; the observable
  /// behind the int8 memory claim (see BENCH_ann.json).
  virtual size_t bytes_resident() const = 0;

  /// Single-query convenience over QueryBatch. The one-row batch is
  /// per-thread and retained, so a query into a retained `*out` allocates
  /// nothing once both have held k neighbours.
  Status Query(const float* query, int dim, int k,
               std::vector<Neighbor>* out) const {
    thread_local std::vector<std::vector<Neighbor>> rows;
    SUDO_RETURN_IF_ERROR(QueryBatch(query, 1, dim, k, &rows, 1));
    out->assign(rows[0].begin(), rows[0].end());
    return Status::OK();
  }

  /// Nested-vector convenience: flattens and calls the canonical flat
  /// QueryBatch (every row must have the same width).
  Status QueryBatch(const std::vector<std::vector<float>>& queries, int k,
                    std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const {
    const int nq = static_cast<int>(queries.size());
    if (nq == 0) {
      out->clear();
      return Status::OK();
    }
    const int d = static_cast<int>(queries[0].size());
    std::vector<float> flat(static_cast<size_t>(nq) * d);
    for (int i = 0; i < nq; ++i) {
      if (static_cast<int>(queries[static_cast<size_t>(i)].size()) != d) {
        return Status::InvalidArgument("ragged query rows");
      }
      std::copy(queries[static_cast<size_t>(i)].begin(),
                queries[static_cast<size_t>(i)].end(),
                flat.begin() + static_cast<size_t>(i) * d);
    }
    return QueryBatch(flat.data(), nq, d, k, out, num_threads);
  }
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_VECTOR_INDEX_H_
