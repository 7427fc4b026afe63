// Exact top-k cosine similarity search over dense embeddings: the blocking
// engine (paper step 2, §II-C). The candidate set for EM is the union of
// each query's k nearest neighbours (§VI-B, "kNN search over the learned
// vector representations ... for k = 1 to 20").
//
// This is the exact oracle; the sub-linear IVF variant and the
// exact-vs-approximate selection facade live in index/ivf_index.h. All
// three implement the unified index::VectorIndex mutation surface
// (vector_index.h), and the two concrete indexes share their row
// bookkeeping (index::RowSet, quant_store.h) but not their scoring.

#ifndef SUDOWOODO_INDEX_KNN_INDEX_H_
#define SUDOWOODO_INDEX_KNN_INDEX_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "index/quant_store.h"
#include "index/top_k.h"
#include "index/vector_index.h"

namespace sudowoodo::index {

/// Exact fp32 re-rank behind every int8 query path: for each candidate,
/// dequantizes its stored row (position `pos` of table `table` of
/// `rows`) into `row` ([rows.dim()] scratch) and scores it against the
/// fp32 query with the fixed 4-lane kernels::Dot chain (tier-independent
/// - Dot is not dispatched), then selects the final top-k through
/// `*selector` into `*out`. The candidates are the entries of an int8
/// top-r selection, in any order: the selector's order is total, so the
/// result does not depend on it.
void RerankQuantCandidates(const float* query, const RowSet& rows,
                           const std::vector<TopKSelector::Entry>& cand,
                           int k, float* row, TopKSelector* selector,
                           std::vector<Neighbor>* out);

/// The int8 candidate depth for a top-k query: max(rerank_min,
/// rerank_multiple * k); the selector keeps fewer when fewer rows are
/// live.
inline int QuantRerankDepth(const StorageOptions& s, int k) {
  return s.rerank_min > s.rerank_multiple * k ? s.rerank_min
                                              : s.rerank_multiple * k;
}

/// Brute-force inner-product index - the exact oracle the IVF index, the
/// facade and the int8 path are tested against. Vectors are expected to
/// be L2-normalized so inner product equals cosine similarity. Items live
/// in a one-table RowSet (quant_store.h), stored as pre-packed GemmBT
/// panels; all scoring goes through GemmBTPacked (tensor/kernels.h) as
/// (query-block x items) panels, and a single query is the m = 1 edge of
/// the same fixed accumulation chain - every query result is independent
/// of batch composition on whatever kernel tier is active. Each query's
/// scores stream through one bounded TopKSelector (top_k.h), which skips
/// tombstoned positions inline; query scratch is per-thread and
/// retained, so a steady-state query allocates nothing.
///
/// Mutation (VectorIndex): Insert appends rows to the table (ids assigned
/// monotonically), Remove tombstones in place, and the table compacts -
/// a stable, order-preserving erase - once tombstones exceed
/// MutationOptions::compact_tombstone_fraction. Since each query-item
/// score is an independent fixed k-increasing GemmBT chain and live rows
/// always sit in ascending-id order, queries after ANY insert/remove
/// sequence are bitwise identical to a from-scratch index on the
/// surviving rows (same ids, same order), at any thread count and kernel
/// tier - asserted in tests/live_index_test.cc.
///
/// Int8 storage (StorageOptions::kInt8): rows quantize once on ingest
/// (per-row symmetric scale, QuantRowStore) and queries score every row
/// through the int8 panel kernel, keep the top QuantRerankDepth
/// candidates, and re-rank them exactly in fp32 on dequantized rows.
/// The rebuild-bitwise mutation contract carries over - layout moves
/// transfer (codes, scale) verbatim - and because the int8 kernel and
/// the re-rank Dot are tier-independent, int8 results are bitwise
/// identical across ALL kernel tiers, not just within one.
class KnnIndex : public VectorIndex {
 public:
  /// Copies `rows` ([n, dim] row-major) and assigns ids 0..n-1. With
  /// StorageOptions::kInt8 the rows quantize on ingest and queries run
  /// the int8 candidate + fp32 re-rank path (see IndexStorage). Invalid
  /// shapes abort (SUDO_CHECK); use Create for Status-reporting
  /// validation.
  KnnIndex(const float* rows, int n, int dim,
           const MutationOptions& mutation = {},
           const StorageOptions& storage = {});

  /// Rebuild/oracle construction with explicit external ids (strictly
  /// ascending; next_id() continues from ids[n-1] + 1). This is how a
  /// from-scratch rebuild on surviving rows reproduces a mutated index
  /// exactly.
  KnnIndex(const float* rows, const int* ids, int n, int dim,
           const MutationOptions& mutation = {},
           const StorageOptions& storage = {});

  /// Status-reporting construction: rejects negative shapes, a null
  /// buffer with n > 0, and invalid mutation/storage options instead of
  /// aborting.
  static Result<std::unique_ptr<KnnIndex>> Create(
      const float* rows, int n, int dim,
      const MutationOptions& mutation = {},
      const StorageOptions& storage = {});

  // --- VectorIndex ---
  using VectorIndex::Query;
  using VectorIndex::QueryBatch;
  /// Queries are scored in fixed blocks through GemmBTPacked; with
  /// num_threads > 1 the blocks are sharded across workers in fixed
  /// contiguous ranges and each query's result is written to its own
  /// output slot.
  Status QueryBatch(const float* queries, int n_queries, int dim, int k,
                    std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const override;
  Status Insert(const float* rows, int n, int dim) override;
  Status Remove(const int* ids, int n) override;
  /// Live (non-tombstoned) items.
  int size() const override { return rows_.size(); }
  int dim() const override { return rows_.dim(); }
  int next_id() const override { return rows_.next_id(); }
  /// Row storage (panel padding included) + the position->id list (see
  /// VectorIndex).
  size_t bytes_resident() const override { return rows_.bytes_resident(); }

  // --- introspection ---

  /// Stored rows including tombstones (tests; the scored panel width).
  int stored_size() const { return rows_.stored_size(); }
  int tombstones() const { return rows_.tombstones(); }
  /// The storage mode and re-rank knobs this index was built with.
  const StorageOptions& storage() const { return storage_; }
  /// The one-table row set: what the kAuto facade migration partitions
  /// into IVF cells, and what rebuild oracles export the survivors from.
  const RowSet& rows() const { return rows_; }

 private:
  RowSet rows_;  // one table: [stored_size, dim] rows, tombstones included
  MutationOptions mutation_;
  StorageOptions storage_;
};

/// Cosine of two equal-width dense vectors (not assumed normalized).
float DenseCosine(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_KNN_INDEX_H_
