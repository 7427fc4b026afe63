// Padded-pack utility for batched encoding: turns a ragged list of
// token-id sequences into one or more dense [B, T] id blocks (row-major,
// padded with pad_id) plus per-row valid lengths, so the Transformer
// encoder can run whole batches through the blocked GEMM kernels instead
// of fanning out per-row forwards. (FastBag needs no padded block: it
// pools its ragged rows straight from the token table.)
//
// Length bucketing bounds padding waste: rows are ordered by (truncated)
// length and greedily cut into buckets such that padding a bucket to its
// longest member wastes at most `max_padding_waste` of the id slots (and a
// bucket never exceeds `max_rows`). Packing is pure data movement - every
// encoder guarantees that a packed batch encodes bit-identically to its
// per-row graph route (see tests/batch_encode_test.cc).

#ifndef SUDOWOODO_NN_BATCH_PACK_H_
#define SUDOWOODO_NN_BATCH_PACK_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace sudowoodo::nn {

/// Packing knobs. The defaults bound padding waste to 12.5% while keeping
/// buckets big enough that the per-bucket GEMMs see m in the hundreds.
struct PackOptions {
  /// Sequences are truncated to this many tokens before packing (the same
  /// truncation the per-row encoders apply).
  int max_len = 64;
  /// Fill value for the padded tail of each row (text::Vocab::kPad).
  int pad_id = 0;
  /// Training-mode packing: cut buckets greedily over rows in *original*
  /// order instead of sorting by length, so bucket k holds the contiguous
  /// row range [off_k, off_k+1). The training paths require this - their
  /// bit-identity contract pins cross-row gradient accumulation into
  /// shared parameters to ascending original row order, which bucket
  /// concatenation only preserves when buckets partition the batch in
  /// order. Costs more padding than length bucketing (the waste bound is
  /// checked against the running max length), which is why the training
  /// paths pair it with a looser max_padding_waste.
  bool preserve_order = false;
  /// Hard cap on rows per bucket.
  int max_rows = 256;
  /// A bucket is cut when admitting the next (longer) row would push the
  /// padded-slot fraction of the [rows, T] id block above this.
  float max_padding_waste = 0.125f;
};

/// One dense padded block of packed rows.
struct PackedBucket {
  /// Bucket width T: the longest (truncated) sequence in the bucket.
  int t = 0;
  /// Original batch index of each packed row, ascending.
  std::vector<int> row_index;
  /// Valid prefix length of each packed row, in [1, t]. An empty input
  /// sequence packs as a single pad_id token (length 1) so that every row
  /// has a well-defined pooled vector; the per-row encoder paths apply the
  /// same substitution.
  std::vector<int> lengths;
  /// [rows() x t] row-major token ids, pad_id beyond each row's length.
  std::vector<int> ids;

  int rows() const { return static_cast<int>(row_index.size()); }
};

/// Reusable packing buffers for PackBatchesInto. A scratch owned by a
/// long-lived encoder lets steady-state serving pack every batch with
/// zero heap allocations: the bucket list and every per-bucket vector
/// only ever grow (vector capacity is retained across calls), so once the
/// scratch has seen a batch at least as large as the current one, packing
/// is pure data movement. Buckets are valid until the next
/// PackBatchesInto call on the same scratch. Not thread-safe.
class PackScratch {
 public:
  int n_buckets() const { return n_buckets_; }
  const PackedBucket& bucket(int i) const {
    return buckets_[static_cast<size_t>(i)];
  }

 private:
  friend int PackBatchesInto(const std::vector<std::vector<int>>& seqs,
                             const PackOptions& opts, PackScratch* scratch);
  friend std::vector<PackedBucket> PackBatches(
      const std::vector<std::vector<int>>& seqs, const PackOptions& opts);

  std::vector<PackedBucket> buckets_;  // first n_buckets_ are live
  int n_buckets_ = 0;
  std::vector<int> order_;  // packing permutation scratch
};

/// A list of id rows whose length changes from call to call without
/// giving up the rows' capacity: rows that Resize cuts off wait in a spare
/// list for a later, longer call. The serving paths build each call's
/// rows in one, so their steady state allocates nothing.
class IdRows {
 public:
  void Resize(size_t n) {
    while (rows_.size() > n) {
      spare_.push_back(std::move(rows_.back()));
      rows_.pop_back();
    }
    while (rows_.size() < n) {
      if (spare_.empty()) {
        rows_.emplace_back();
      } else {
        rows_.push_back(std::move(spare_.back()));
        spare_.pop_back();
      }
    }
  }
  size_t size() const { return rows_.size(); }
  std::vector<int>& operator[](size_t i) { return rows_[i]; }
  const std::vector<std::vector<int>>& rows() const { return rows_; }

 private:
  std::vector<std::vector<int>> rows_;
  std::vector<std::vector<int>> spare_;
};

/// Packs `seqs` into `scratch` (reusing its buffers; see PackScratch) and
/// returns the bucket count. Identical bucket contents to PackBatches.
int PackBatchesInto(const std::vector<std::vector<int>>& seqs,
                    const PackOptions& opts, PackScratch* scratch);

/// Packs `seqs` into length-bucketed padded blocks. Every input row lands
/// in exactly one bucket; buckets are ordered by ascending length and rows
/// within a bucket by ascending original index. Deterministic: depends
/// only on the sequence lengths and `opts`.
std::vector<PackedBucket> PackBatches(
    const std::vector<std::vector<int>>& seqs, const PackOptions& opts);

/// The packing rule for one row, shared with the per-row encoder paths so
/// the two stay equivalent by construction: truncate to `max_len`, and
/// substitute a single `pad_id` token for an empty sequence.
std::vector<int> TruncateOrPad(const std::vector<int>& ids, int max_len,
                               int pad_id);

}  // namespace sudowoodo::nn

#endif  // SUDOWOODO_NN_BATCH_PACK_H_
