// Sub-linear approximate top-k search: an IVF (inverted-file) index with
// exact re-ranking, plus the exact-vs-approximate selection facade the
// pipelines block through. Both implement index::VectorIndex
// (vector_index.h), so everything above them - pipelines, the serving
// front door - programs against one query/mutation surface.
//
// The exact KnnIndex (knn_index.h) scores every item per query -
// O(items x queries x dim) - which is the asymptotic wall between
// paper-scale blocking (~2.5k x 2.5k) and millions of records. IvfIndex
// makes the flop count sub-linear: a dense spherical k-means
// (cluster/dense_kmeans.h) partitions the L2-normalized items into
// ~sqrt(N) cells; a query scores the cell centroids, probes the top
// `nprobe` cells, and re-ranks the gathered candidates with their exact
// full-dimension similarity. Per query that is C + nprobe * N/C dots
// instead of N (~17 * sqrt(N) at the default nprobe), with recall
// controlled by `nprobe`.
//
// Determinism contract: results are a pure function of
// (items, options, query, k, nprobe), independent of num_threads and of
// batch composition. Centroids and cell rows are stored as pre-packed
// GemmBT panels, and their scores are fixed GemmBTPacked accumulation
// chains (bit-identical across panel grouping and sharding within a
// kernel tier - see tensor/README.md). Probe selection (top nprobe
// cells) and the final top-k both run through the exact index's bounded
// TopKSelector (top_k.h): score desc, id asc, NaN last, tombstones
// skipped inline. That order is total, so pushing each probed cell's
// scores as they come selects exactly what ranking the gathered
// candidates would. With nprobe >= the cell count every live item is
// scored and the result is bit-identical to KnnIndex on the same tier -
// including after any insert/remove sequence.
//
// Mutation (VectorIndex): each cell is one table of the index's RowSet
// (quant_store.h), so Insert appends each arriving row to its nearest
// cell (deterministic centroid argmax) at O(cells * dim) per row - no
// other row moves. Remove tombstones in
// place, and a cell compacts once its tombstones exceed the configured
// fraction of its stored rows. The cells themselves re-train - a fresh
// seeded k-means over the live rows - when insert volume since the last
// training or cell-size imbalance crosses the MutationOptions
// thresholds, so approximation quality tracks a drifting corpus instead
// of decaying with it.

#ifndef SUDOWOODO_INDEX_IVF_INDEX_H_
#define SUDOWOODO_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/knn_index.h"
#include "index/vector_index.h"

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h
}

namespace sudowoodo::index {

/// Options for IvfIndex construction (cell training) and interface-level
/// querying.
struct IvfOptions {
  /// Number of k-means cells; 0 = ceil(sqrt(N)), always clamped to
  /// [1, N]. Empty cells are dropped after training (re-training clamps
  /// against the live count the same way).
  int num_cells = 0;
  /// k-means refinement iterations over the full item set.
  int train_iters = 8;
  uint64_t seed = 7;
  /// Cells probed by the VectorIndex QueryBatch interface (the
  /// explicit-nprobe QueryBatch overrides it per call). Must be > 0.
  int nprobe = 16;
  /// Worker threads / pool for cell training (bit-identical results for
  /// any value; see cluster/dense_kmeans.h). The pool pointer is retained
  /// for re-training, so it must outlive the index when set.
  int num_threads = 1;
  ThreadPool* pool = nullptr;
};

/// Inverted-file index over L2-normalized vectors (inner product =
/// cosine): centroids and probing over a RowSet (quant_store.h) with one
/// table per cell. Each cell's rows sit in their own growable store of
/// pre-packed panels, so probing a cell scores them without a gather and
/// an insert appends to one cell; within a cell, live rows stay in
/// ascending-id order across every mutation. Query scratch is per-thread
/// and retained, so a steady-state query allocates nothing. Every
/// constructor, every re-training and the facade's kAuto migration go
/// through one Partition: k-means over the live rows' fp32 image in
/// ascending-id order, then the stored (codes, scale) rows laid out into
/// the cells verbatim.
class IvfIndex : public VectorIndex {
 public:
  /// Trains cells over `rows` ([n, dim] row-major), assigning ids
  /// 0..n-1. With StorageOptions::kInt8 the rows quantize once here;
  /// cell training and every re-training run on the DEQUANTIZED rows (so
  /// a retrain is a pure function of the stored (codes, scale) pairs, and
  /// a mutated index stays reproducible from a from-scratch int8 rebuild
  /// on the surviving rows), while centroids themselves stay fp32.
  IvfIndex(const float* rows, int n, int dim, const IvfOptions& options = {},
           const MutationOptions& mutation = {},
           const StorageOptions& storage = {});

  /// Rebuild construction with explicit external ids (strictly
  /// ascending; next_id() continues from ids[n-1] + 1).
  IvfIndex(const float* rows, const int* ids, int n, int dim,
           const IvfOptions& options = {},
           const MutationOptions& mutation = {},
           const StorageOptions& storage = {});

  /// Partitions the live rows of `rows` into freshly trained cells, ids
  /// and next_id() preserved and (codes, scale) pairs moved verbatim -
  /// the kAuto migration from KnnIndex::rows(). `rows.mode()` must match
  /// `storage.storage`.
  IvfIndex(const RowSet& rows, const IvfOptions& options,
           const MutationOptions& mutation, const StorageOptions& storage);

  /// Status-reporting construction: rejects bad shapes and invalid
  /// options instead of aborting.
  static Result<std::unique_ptr<IvfIndex>> Create(
      const float* rows, int n, int dim, const IvfOptions& options = {},
      const MutationOptions& mutation = {},
      const StorageOptions& storage = {});

  // --- VectorIndex (interface queries probe options.nprobe cells) ---
  using VectorIndex::Query;
  using VectorIndex::QueryBatch;
  Status QueryBatch(const float* queries, int n_queries, int dim, int k,
                    std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const override;
  Status Insert(const float* rows, int n, int dim) override;
  Status Remove(const int* ids, int n) override;
  /// Live (non-tombstoned) items.
  int size() const override { return rows_.size(); }
  int dim() const override { return rows_.dim(); }
  int next_id() const override { return rows_.next_id(); }
  /// Row storage + id lists + centroids + per-cell live counts (see
  /// VectorIndex), panel padding included: up to 31 zero rows per fp32
  /// cell, and the centroid panels.
  size_t bytes_resident() const override;

  /// Approximate top-k probing the `nprobe` best-scoring cells (more
  /// than the cell count probes them all); may return fewer than k
  /// neighbours when the probed cells hold fewer than k live items.
  /// InvalidArgument for nprobe <= 0, otherwise as the VectorIndex
  /// QueryBatch. Queries are processed in fixed blocks: centroid scoring
  /// runs one (query-block x cells) GemmBTPacked panel per block, and
  /// candidate scoring batches the block's queries that probe the same
  /// cell into one (sub-block x cell-rows) panel. Blocks are sharded
  /// across workers in fixed contiguous ranges, so results are
  /// bit-identical for any num_threads.
  Status QueryBatch(const float* queries, int n_queries, int dim, int k,
                    int nprobe, std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const;

  // --- introspection ---

  /// Non-empty cells after the most recent (re-)training.
  int num_cells() const { return rows_.num_tables(); }
  /// Cell re-trainings performed by mutations since construction.
  int retrain_count() const { return retrains_; }
  /// Stored rows including tombstones.
  int stored_size() const { return rows_.stored_size(); }
  int tombstones() const { return rows_.tombstones(); }
  /// The storage mode and re-rank knobs this index was built with.
  const StorageOptions& storage() const { return storage_; }

 private:
  /// Trains cells over `src`'s live rows and lays them out into rows_
  /// (see the class comment); shared by every constructor and by
  /// mutation-triggered re-training. `src` may be rows_ itself.
  void Partition(const RowSet& src);
  /// Re-trains cells over the live rows when the volume or imbalance
  /// trigger fires (no-op otherwise).
  void MaybeRetrain();

  RowSet rows_;                   // one table per cell
  // [cells, dim] L2-normalized, as packed GemmBT panels (kernels.h).
  std::vector<float> centroids_;
  int n_at_last_train_ = 0;       // live count when cells were trained
  int inserts_since_train_ = 0;
  int retrains_ = 0;
  IvfOptions options_;            // retained for re-training
  MutationOptions mutation_;
  StorageOptions storage_;
};

/// Which index the blocking call sites build.
enum class BlockingIndexKind {
  kAuto,   // exact below exact_threshold items, IVF at or above it
  kExact,  // always the brute-force oracle
  kIvf,    // always the IVF index
};

/// Index-selection options carried by the pipeline option structs.
struct BlockingIndexOptions {
  BlockingIndexKind kind = BlockingIndexKind::kAuto;
  /// kAuto: item counts below this stay on the exact oracle (paper-scale
  /// tables are far below it; the asymptotic win only exists above it).
  /// A kAuto facade that *grows* across this threshold via Insert
  /// migrates to IVF in place, ids preserved.
  int exact_threshold = 8192;
  /// IVF knobs, including `ivf.nprobe`, the cells probed per query on the
  /// IVF path. Its default keeps EM blocking recall within the stated
  /// budget of exact on clustered embeddings while staying
  /// ~N/(17*sqrt(N)) times cheaper; see EXPERIMENTS.md "ANN blocking"
  /// for how to tune it. The pipelines override seed/threads/pool from
  /// their own options.
  IvfOptions ivf;
  /// In-place mutation knobs for whichever index is selected - the one
  /// place to set compaction and IVF re-train behavior.
  MutationOptions mutation;
  /// Row-storage mode (fp32 or int8 quantized) and int8 re-rank depth
  /// for whichever index is selected; a kAuto migration carries the
  /// quantized rows across verbatim.
  StorageOptions storage;
};

/// The facade the pipelines block through: builds either the exact oracle
/// or an IVF index per `options` and serves batch queries and mutations
/// uniformly. Under kAuto, an Insert that grows the corpus across
/// `exact_threshold` partitions the exact oracle's RowSet into a freshly
/// trained IVF index (ids, next_id and stored rows carried over verbatim).
class BlockingIndex : public VectorIndex {
 public:
  BlockingIndex(const std::vector<std::vector<float>>& items,
                const BlockingIndexOptions& options);
  BlockingIndex(const float* rows, int n, int dim,
                const BlockingIndexOptions& options);

  /// Status-reporting construction (validates options and shape).
  static Result<std::unique_ptr<BlockingIndex>> Create(
      const float* rows, int n, int dim, const BlockingIndexOptions& options);

  // --- VectorIndex ---
  using VectorIndex::Query;
  using VectorIndex::QueryBatch;
  Status QueryBatch(const float* queries, int n_queries, int dim, int k,
                    std::vector<std::vector<Neighbor>>* out,
                    int num_threads = 1) const override;
  Status Insert(const float* rows, int n, int dim) override;
  Status Remove(const int* ids, int n) override;
  int size() const override;
  int dim() const override;
  int next_id() const override;
  size_t bytes_resident() const override;

  bool using_ivf() const { return ivf_ != nullptr; }
  /// IVF cell re-trainings (0 while on the exact oracle).
  int retrain_count() const { return ivf_ ? ivf_->retrain_count() : 0; }

 private:
  BlockingIndexOptions options_;
  std::unique_ptr<KnnIndex> exact_;
  std::unique_ptr<IvfIndex> ivf_;
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_IVF_INDEX_H_
