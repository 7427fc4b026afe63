// The row buffer behind both blocking indexes: one contiguous row-major
// store that is either plain fp32 or per-row symmetric int8 (codes +
// scale per row, 4x smaller - see IndexStorage in vector_index.h).
//
// Quantize-once contract: a row is quantized exactly once, when it
// enters the store from fp32 (Append). Every later layout move -
// compaction (MoveRow/Truncate), IVF cell layout and retraining, and
// facade migration (AppendFrom across stores) - transfers the (codes,
// scale) pair verbatim. Re-quantizing a dequantized row would preserve
// the codes but can move the scale by 1 ulp (the max|x|/127 division
// re-rounds), which would break the "mutated index == from-scratch
// rebuild, bitwise" contract the indexes test against; moving the pair
// makes layout changes exactly invisible.

#ifndef SUDOWOODO_INDEX_QUANT_STORE_H_
#define SUDOWOODO_INDEX_QUANT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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

  /// The contiguous [size, dim] fp32 buffer. fp32 mode only (aborts in
  /// int8 mode - quantized rows have no fp32 image to point at).
  const float* fp32_data() const;
  /// The contiguous [size, dim] int8 code buffer / [size] scales. int8
  /// mode only.
  const int8_t* q_data() const;
  const float* scales() const;

  /// Writes row `pos` as fp32 into `out` ([dim]): a copy in fp32 mode,
  /// a dequantization in int8 mode. Bitwise reproducible either way.
  void DequantizeRowInto(int pos, float* out) const;

  /// All rows as fp32 into `out` ([size, dim]): k-means retraining input.
  void DequantizeAllInto(float* out) const;

  /// Payload bytes held (rows + scales), excluding allocator slack.
  size_t bytes_resident() const;

 private:
  /// Grows/shrinks to exactly `n` rows; new rows are zero until written.
  void ResizeRows(int n);
  /// Overwrites row `dst_pos` with row `src_pos` of `src` verbatim.
  void PlaceFrom(const QuantRowStore& src, int src_pos, int dst_pos);

  int dim_ = 0;
  int n_ = 0;
  IndexStorage mode_ = IndexStorage::kFp32;
  std::vector<float> f_;       // [n_, dim_] in fp32 mode
  std::vector<int8_t> q_;      // [n_, dim_] codes in int8 mode
  std::vector<float> scale_;   // [n_] per-row scales in int8 mode
};

}  // namespace sudowoodo::index

#endif  // SUDOWOODO_INDEX_QUANT_STORE_H_
