// The row storage behind the blocking index. QuantRowStore is one
// contiguous buffer that is either fp32 rows pre-packed as GemmBT panels
// (tensor/kernels.h GemmBTPacked: whole panels of 32 rows, k-major, so a
// query scores them without gathering anything) or row-major per-row
// symmetric int8 (codes + scale per row, 4x smaller - see IndexStorage in
// vector_index.h). RowSet is the mutable bookkeeping over one or more
// such buffers: ids, tombstones, compaction and re-partitioning. The
// packed layout is the only fp32 copy; a row is packed once when it is
// appended and moved verbatim (panel slot to panel slot) by compaction
// and re-partitioning.
//
// Quantize-once contract: a row is quantized exactly once, when it
// enters a store from fp32 (Append). Every later layout move -
// compaction (MoveRow/Truncate) and partitioning into IVF cells or
// retraining them (RowSet::Repartition) - transfers the (codes, scale)
// pair verbatim. Re-quantizing a dequantized row would preserve
// the codes but can move the scale by 1 ulp (the max|x|/127 division
// re-rounds), which would break the "mutated index == from-scratch
// rebuild, bitwise" contract the indexes test against; moving the pair
// makes layout changes exactly invisible.

#ifndef SUDOWOODO_INDEX_QUANT_STORE_H_
#define SUDOWOODO_INDEX_QUANT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/vector_index.h"

namespace sudowoodo::index {

class QuantRowStore {
 public:
  QuantRowStore() = default;

  /// Drops all rows and fixes the row width and storage mode.
  void Reset(int dim, IndexStorage mode);

  IndexStorage mode() const { return mode_; }
  bool int8_mode() const { return mode_ == IndexStorage::kInt8; }
  int dim() const { return dim_; }
  int size() const { return n_; }

  void Reserve(int n);

  /// Appends `n` fp32 rows, quantizing them in int8 mode (the
  /// quantize-once point; see tensor/kernels.h QuantizeRowsI8).
  void Append(const float* rows, int n);

  /// Appends row `src_pos` of `src` verbatim (same dim and mode).
  void AppendFrom(const QuantRowStore& src, int src_pos);

  /// Moves row `from` onto row `to` within this store (compaction).
  void MoveRow(int from, int to);

  /// Keeps the first `n` rows.
  void Truncate(int n);

  /// The fp32 rows as pre-packed GemmBT panels (tensor/kernels.h
  /// PackedFloats(size, dim) floats, padding rows zero). fp32 mode only
  /// (aborts in int8 mode - quantized rows have no fp32 image).
  const float* panels() const;
  /// The contiguous [size, dim] int8 code buffer / [size] scales. int8
  /// mode only.
  const int8_t* q_data() const;
  const float* scales() const;

  /// Writes row `pos` as fp32 into `out` ([dim]): a gather from its
  /// panel in fp32 mode, a dequantization in int8 mode. Bitwise
  /// reproducible either way.
  void DequantizeRowInto(int pos, float* out) const;

  /// Payload bytes held: the packed panels, padding rows included
  /// (fp32), or codes + scales (int8); not allocator slack.
  size_t bytes_resident() const;

 private:
  /// Grows/shrinks to exactly `n` rows; new rows are zero until written,
  /// and so are the padding rows of the last panel.
  void ResizeRows(int n);
  /// Overwrites row `dst_pos` with row `src_pos` of `src` verbatim.
  void PlaceFrom(const QuantRowStore& src, int src_pos, int dst_pos);

  int dim_ = 0;
  int n_ = 0;
  IndexStorage mode_ = IndexStorage::kFp32;
  std::vector<float> f_;       // packed panels of n_ rows in fp32 mode
  std::vector<int8_t> q_;      // [n_, dim_] codes in int8 mode
  std::vector<float> scale_;   // [n_] per-row scales in int8 mode
};

/// Where a live row is stored: position `pos` of table `table`.
struct RowRef {
  int table;
  int pos;
};

/// The mutable rows of one blocking index: one or more tables (one
/// before the index partitions, one per cell after), each a QuantRowStore
/// with its position -> id list and live count, plus one id -> (table,
/// position) map and the monotone next id. Rows enter a table in
/// ascending-id order and compaction is a stable erase, so every table's
/// live rows stay in ascending-id order across any mutation sequence -
/// the invariant behind the index's "mutated == rebuilt from the
/// survivors" contracts.
class RowSet {
 public:
  struct Table {
    QuantRowStore store;   // [ids.size(), dim] rows, tombstones included
    std::vector<int> ids;  // position -> id, -1 = tombstoned
    int live = 0;
  };

  RowSet() = default;
  /// `tables` empty tables of width `dim` in storage `mode`.
  RowSet(int dim, IndexStorage mode, int tables);

  int dim() const { return dim_; }
  IndexStorage mode() const { return mode_; }
  int num_tables() const { return static_cast<int>(tables_.size()); }
  const Table& table(int t) const { return tables_[static_cast<size_t>(t)]; }
  /// Live rows, across all tables.
  int size() const { return static_cast<int>(where_.size()); }
  /// Stored rows including tombstones, across all tables.
  int stored_size() const { return stored_; }
  int tombstones() const { return stored_ - size(); }
  /// The id the next appended row receives (monotone, never reused).
  int next_id() const { return next_id_; }

  /// Appends `n` fp32 rows to table `t` (the quantize-once point). The
  /// rows take ids next_id()..next_id()+n-1, or `ids` when given
  /// (strictly ascending, the first >= next_id()).
  void Append(int t, const float* rows, int n, const int* ids = nullptr);

  /// Tombstones `ids`, then compacts each touched table whose tombstones
  /// exceed `compact_fraction` of its stored rows. Atomic: if any id is
  /// unknown (never assigned, already removed, or repeated in this call)
  /// it returns NotFound and removes nothing.
  Status Remove(const int* ids, int n, float compact_fraction);

  /// Copies the live rows as fp32 ([size, dim]; dequantized under int8)
  /// and their ids, in ascending-id order. Under fp32 the rows are
  /// verbatim, so an index built from them with the same ids answers
  /// bitwise like this one.
  void ExportLive(std::vector<float>* rows, std::vector<int>* ids) const;

  /// A new set of `tables` tables holding these live rows verbatim (no
  /// re-quantization): the i-th live row in ascending-id order moves,
  /// with its id, to table `table_of[i]`. next_id() carries over.
  RowSet Repartition(const std::vector<int>& table_of, int tables) const;

  /// Row payload (rows + scales) plus the position -> id lists.
  size_t bytes_resident() const;

 private:
  /// The live rows' (id, location) in ascending-id order.
  std::vector<std::pair<int, RowRef>> LiveInIdOrder() const;
  /// Stable erase of table `t`'s tombstones once they exceed
  /// `compact_fraction` of its stored rows.
  void CompactIfNeeded(int t, float compact_fraction);

  int dim_ = 0;
  IndexStorage mode_ = IndexStorage::kFp32;
  std::vector<Table> tables_;
  std::unordered_map<int, RowRef> where_;  // live ids only
  int stored_ = 0;
  int next_id_ = 0;
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_QUANT_STORE_H_
