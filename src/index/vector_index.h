// The value types of the blocking index (index/ivf_index.h): the
// neighbour it returns and the mutation and storage knobs it is built
// with. They live apart from the index so the row store (quant_store.h)
// and the top-k selector (top_k.h) can use them without the index.
//
// Mutation model. Items carry dense integer ids: construction assigns
// 0..n-1 in row order and Insert appends ids monotonically from there
// (`next_id()` before an Insert tells the caller which ids the batch
// will receive). Remove tombstones by id; storage is compacted when
// tombstones exceed MutationOptions::compact_tombstone_fraction of the
// stored rows. The index keeps this bookkeeping in one index::RowSet
// (quant_store.h). Because ids are assigned monotonically and compaction
// preserves storage order, live rows are always stored in ascending-id
// order - which is what keeps the exact scan's post-mutation results
// bitwise identical to an index rebuilt from scratch on the surviving
// rows.

#ifndef SUDOWOODO_INDEX_VECTOR_INDEX_H_
#define SUDOWOODO_INDEX_VECTOR_INDEX_H_

namespace sudowoodo::index {

/// One retrieved neighbour: {item id, cosine similarity}.
struct Neighbor {
  int id = -1;
  float sim = 0.0f;
};

/// In-place mutation knobs, carried by BlockingIndexOptions (the
/// retrain fields only matter once the index has partitioned into
/// cells).
struct MutationOptions {
  /// Compact the storage (physically drop tombstoned rows) when
  /// tombstones exceed this fraction of the stored rows (of each cell's
  /// stored rows once partitioned). 0 compacts on every Remove; 1 never
  /// compacts between mutations.
  float compact_tombstone_fraction = 0.25f;
  /// Re-train the cells (fresh k-means over the live rows) when inserts
  /// since the last training exceed this fraction of the corpus size at
  /// that training. Keeps cell quality from decaying as the corpus
  /// drifts away from the trained partition.
  float retrain_insert_fraction = 0.5f;
  /// Re-train when the largest cell's live count exceeds this multiple
  /// of the mean live cell size (checked once mean >= 1). Catches skew
  /// that insert volume alone misses - arrivals piling into one cell
  /// degrade probing long before the volume trigger.
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
  /// move (compaction, partitioning, retraining) transfers the
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

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_VECTOR_INDEX_H_
