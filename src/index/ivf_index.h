// The blocking index (paper step 2, §II-C): top-k cosine search over
// L2-normalized embeddings. The candidate set for EM is the union of
// each query's k nearest neighbours (§VI-B, "kNN search over the learned
// vector representations ... for k = 1 to 20").
//
// One class over one RowSet (quant_store.h) in one of two layouts.
// Before it partitions, the index holds one table and a query scores
// every stored row: the exact scan, O(items x queries x dim), which is
// the wall between paper-scale blocking (~2.5k x 2.5k) and millions of
// records. Partitioning (IVF, inverted file) trains a dense spherical
// k-means (cluster/dense_kmeans.h) over the live rows and moves them
// into ~sqrt(N) cells, one table each; a query then scores the cell
// centroids, probes the top `nprobe` cells and scores only their rows -
// C + nprobe * N/C dots instead of N (~17 * sqrt(N) at the default
// nprobe), with recall controlled by `nprobe`. The two layouts differ
// only in which tables a query scores. kExact never partitions, kIvf
// partitions its first rows, and kAuto partitions once the live count
// reaches exact_threshold - at construction or on the Insert that grows
// it there, ids and stored rows carried over verbatim.
//
// Determinism contract: results are a pure function of
// (items, options, query, k, nprobe), independent of num_threads and of
// batch composition. Centroids and rows are stored as pre-packed GemmBT
// panels, and their scores are fixed GemmBTPacked accumulation chains
// (bit-identical across panel grouping and sharding within a kernel
// tier - see tensor/README.md). Probe selection (top nprobe cells) and
// the final top-k both run through one bounded TopKSelector (top_k.h):
// score desc, id asc, NaN last, tombstones skipped inline. That order is
// total, so pushing each scored table's scores as they come selects
// exactly what ranking the gathered candidates would. With nprobe >= the
// cell count every live item is scored and the result is bit-identical
// to the exact scan on the same tier - including after any
// insert/remove sequence.
//
// Mutation: Insert appends to the one table, or to each arriving row's
// nearest cell (deterministic centroid argmax, O(cells * dim) per row;
// no other row moves). Remove tombstones in place, and a table compacts
// - a stable, order-preserving erase - once its tombstones exceed
// MutationOptions::compact_tombstone_fraction of its stored rows. Live
// rows therefore stay in ascending-id order in every table, so exact
// queries after ANY insert/remove sequence are bitwise identical to a
// from-scratch index on the surviving rows (same ids), at any thread
// count and kernel tier - asserted in tests/live_index_test.cc. The
// cells re-train - a fresh seeded k-means over the live rows - when
// insert volume since the last training or cell-size imbalance crosses
// the MutationOptions thresholds, so approximation quality tracks a
// drifting corpus instead of decaying with it.
//
// Int8 storage (StorageOptions::kInt8): rows quantize once on ingest
// (per-row symmetric scale, QuantRowStore), queries score through the
// int8 panel kernel, keep the top max(rerank_min, rerank_multiple * k)
// candidates and re-rank them exactly in fp32 on dequantized rows. Cell
// training runs on the dequantized rows, so a retrain is a pure function
// of the stored (codes, scale) pairs; layout moves transfer the pairs
// verbatim. Because the int8 kernel and the re-rank Dot are
// tier-independent, int8 results are bitwise identical across ALL
// kernel tiers, not just within one.
//
// The index is internally unsynchronized: concurrent queries are safe,
// but mutations require external serialization (index/live_index.h
// wraps one behind a shared_mutex for the serving front door).

#ifndef SUDOWOODO_INDEX_IVF_INDEX_H_
#define SUDOWOODO_INDEX_IVF_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "index/quant_store.h"
#include "index/vector_index.h"

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h
}

namespace sudowoodo::index {

/// Cell training and the default probe count.
struct IvfOptions {
  /// Number of k-means cells; 0 = ceil(sqrt(N)), always clamped to
  /// [1, N]. Empty cells are dropped after training (re-training clamps
  /// against the live count the same way).
  int num_cells = 0;
  /// k-means refinement iterations over the full item set.
  int train_iters = 8;
  uint64_t seed = 7;
  /// Cells probed by QueryBatch (the explicit-nprobe QueryBatch
  /// overrides it per call). Must be > 0.
  int nprobe = 16;
  /// Worker threads / pool for cell training (bit-identical results for
  /// any value; see cluster/dense_kmeans.h). The pool pointer is retained
  /// for re-training, so it must outlive the index when set.
  int num_threads = 1;
  ThreadPool* pool = nullptr;
};

/// When the index partitions into cells.
enum class BlockingIndexKind {
  kAuto,   // exact below exact_threshold live items, IVF at or above it
  kExact,  // never: always the exact scan
  kIvf,    // as soon as it holds a row
};

/// Index options carried by the pipeline option structs.
struct BlockingIndexOptions {
  BlockingIndexKind kind = BlockingIndexKind::kAuto;
  /// kAuto: live counts below this stay on the exact scan (paper-scale
  /// tables are far below it; the asymptotic win only exists above it).
  /// A kAuto index that *grows* across this threshold via Insert
  /// partitions in place, ids preserved.
  int exact_threshold = 8192;
  /// IVF knobs, including `ivf.nprobe`, the cells probed per query once
  /// partitioned. Its default keeps EM blocking recall within the stated
  /// budget of exact on clustered embeddings while staying
  /// ~N/(17*sqrt(N)) times cheaper; see EXPERIMENTS.md "ANN blocking"
  /// for how to tune it. The pipelines override seed/threads/pool from
  /// their own options.
  IvfOptions ivf;
  /// In-place mutation knobs: compaction and cell re-training.
  MutationOptions mutation;
  /// Row-storage mode (fp32 or int8 quantized) and int8 re-rank depth;
  /// partitioning carries the quantized rows across verbatim.
  StorageOptions storage;
};

/// Mutable top-k index over L2-normalized vectors (inner product =
/// cosine); see the file comment. Query scratch is per-thread and
/// retained, so a steady-state query allocates nothing.
class BlockingIndex {
 public:
  /// Copies `rows` ([n, dim] row-major), assigning ids 0..n-1, and
  /// partitions them when options.kind asks for cells. Invalid shapes or
  /// options abort with the Status Create returns.
  BlockingIndex(const float* rows, int n, int dim,
                const BlockingIndexOptions& options);
  /// Rebuild construction with explicit external ids (strictly
  /// ascending; next_id() continues from ids[n-1] + 1). This is how a
  /// from-scratch rebuild on surviving rows reproduces a mutated index.
  BlockingIndex(const float* rows, const int* ids, int n, int dim,
                const BlockingIndexOptions& options);
  /// Per-item vectors, all the same width.
  BlockingIndex(const std::vector<std::vector<float>>& items,
                const BlockingIndexOptions& options);

  /// Status-reporting construction: rejects negative shapes, a null or
  /// zero-width buffer with n > 0, and invalid options instead of
  /// aborting.
  static Result<std::unique_ptr<BlockingIndex>> Create(
      const float* rows, int n, int dim, const BlockingIndexOptions& options);

  /// Top-k most similar live items per query, most similar first, ties
  /// toward the lower id, NaN similarities last (index/top_k.h), probing
  /// options.ivf.nprobe cells once partitioned. `*out` is resized to
  /// n_queries rows, reusing their capacity.
  Status QueryBatch(const float* queries, int n_queries, int dim, int k,
                    std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const;
  /// The same, probing `nprobe` cells (more than the cell count probes
  /// them all; ignored before partitioning). k is clamped to size(), and
  /// a partitioned index may return fewer than k neighbours when the
  /// probed cells hold fewer live items. InvalidArgument for a negative
  /// query count or k, nprobe <= 0, a null buffer for a non-empty batch,
  /// or a query width other than dim() - whether or not the index holds
  /// live rows; a dimensionless index answers any width with empty rows.
  /// Queries are processed in fixed blocks sharded across workers in
  /// fixed contiguous ranges, so results are bit-identical for any
  /// num_threads.
  Status QueryBatch(const float* queries, int n_queries, int dim, int k,
                    int nprobe, std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const;
  /// Nested-vector convenience: flattens and calls the flat QueryBatch
  /// (every row must have the same width).
  Status QueryBatch(const std::vector<std::vector<float>>& queries, int k,
                    std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const;
  /// Single-query convenience over QueryBatch. The one-row batch is
  /// per-thread and retained, so a query into a retained `*out` allocates
  /// nothing once both have held k neighbours.
  Status Query(const float* query, int dim, int k,
               std::vector<Neighbor>* out) const;

  /// Appends `n` rows, assigning them ids next_id()..next_id()+n-1 in
  /// row order: to the one table (partitioning it when the kind asks),
  /// or each to its nearest cell (re-training when a MutationOptions
  /// trigger fires). InvalidArgument on dim mismatch or bad buffer;
  /// FailedPrecondition on a dimensionless index.
  Status Insert(const float* rows, int n, int dim);
  /// Tombstones the given ids. Atomic: if any id is unknown (never
  /// assigned, or already removed) the call returns NotFound and removes
  /// nothing. Storage compacts per MutationOptions.
  Status Remove(const int* ids, int n);

  /// Live (non-tombstoned) item count.
  int size() const { return rows_.size(); }
  /// Row width; 0 for a dimensionless empty index.
  int dim() const { return rows_.dim(); }
  /// The id the next inserted row will receive (monotone, never reused).
  int next_id() const { return rows_.next_id(); }
  /// Resident bytes of the index payload: row storage (fp32 panels, or
  /// int8 codes + per-row scales), id lists and, once partitioned, the
  /// centroid panels and per-cell live counts. Counts what the index
  /// stores (incl. tombstoned rows awaiting compaction and the zero
  /// padding that fills the last fp32 panel of each table), not
  /// allocator slack; the observable behind the int8 memory claim (see
  /// BENCH_ann.json).
  size_t bytes_resident() const;

  /// Whether the rows are partitioned into cells.
  bool using_ivf() const { return !centroids_.empty(); }
  /// Non-empty cells after the most recent (re-)training; 0 before.
  int num_cells() const { return using_ivf() ? rows_.num_tables() : 0; }
  /// Cell re-trainings performed by mutations (partitioning is not one).
  int retrain_count() const { return retrains_; }
  /// Stored rows including tombstones.
  int stored_size() const { return rows_.stored_size(); }
  int tombstones() const { return rows_.tombstones(); }
  /// The storage mode and re-rank knobs this index was built with.
  const StorageOptions& storage() const { return options_.storage; }
  /// The stored rows: what rebuild oracles export the survivors from.
  const RowSet& rows() const { return rows_; }

 private:
  /// Partitions the one table once options_.kind asks for cells (no-op
  /// otherwise, and once partitioned).
  void PartitionIfDue();
  /// Trains cells over the live rows and moves the rows into them in
  /// place: k-means over the live rows' fp32 image in ascending-id order,
  /// then the stored (codes, scale) rows laid out into the cells
  /// verbatim. Shared by construction, the kAuto migration and
  /// re-training.
  void Partition();
  /// Re-trains the cells when the volume or imbalance trigger fires.
  void MaybeRetrain();

  BlockingIndexOptions options_;
  RowSet rows_;  // one table, or one per cell; tombstones included
  // [cells, dim] L2-normalized, as packed GemmBT panels (kernels.h);
  // empty before partitioning.
  std::vector<float> centroids_;
  int n_at_last_train_ = 0;  // live count when cells were trained
  int inserts_since_train_ = 0;
  int retrains_ = 0;
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_IVF_INDEX_H_
