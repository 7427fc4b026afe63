#include "nn/batch_pack.h"

#include <algorithm>
#include <numeric>

#include "common/status.h"

namespace sudowoodo::nn {

namespace {

/// Truncated length of one sequence under TruncateOrPad's rule.
int PackedLength(const std::vector<int>& seq, int max_len) {
  const int len = std::min<int>(static_cast<int>(seq.size()), max_len);
  return std::max(len, 1);
}

/// Fills `bucket` in place from the row ids rows[0..n_rows) (any order;
/// sorted ascending here). Reuses the bucket's vectors: after the scratch
/// has warmed up to the largest batch shape, this allocates nothing.
void FillBucketInto(const std::vector<std::vector<int>>& seqs,
                    const int* rows, int n_rows, const PackOptions& opts,
                    PackedBucket* bucket) {
  bucket->t = 0;
  bucket->row_index.assign(rows, rows + n_rows);
  std::sort(bucket->row_index.begin(), bucket->row_index.end());
  bucket->lengths.clear();
  for (int r : bucket->row_index) {
    const int len = PackedLength(seqs[static_cast<size_t>(r)], opts.max_len);
    bucket->lengths.push_back(len);
    bucket->t = std::max(bucket->t, len);
  }
  bucket->ids.assign(
      static_cast<size_t>(bucket->rows()) * static_cast<size_t>(bucket->t),
      opts.pad_id);
  for (int i = 0; i < bucket->rows(); ++i) {
    const auto& seq =
        seqs[static_cast<size_t>(bucket->row_index[static_cast<size_t>(i)])];
    int* dst = bucket->ids.data() + static_cast<size_t>(i) * bucket->t;
    const int len = bucket->lengths[static_cast<size_t>(i)];
    for (int j = 0; j < len && j < static_cast<int>(seq.size()); ++j) {
      dst[j] = seq[static_cast<size_t>(j)];
    }
  }
}

}  // namespace

std::vector<int> TruncateOrPad(const std::vector<int>& ids, int max_len,
                               int pad_id) {
  std::vector<int> trunc = ids;
  if (static_cast<int>(trunc.size()) > max_len) {
    trunc.resize(static_cast<size_t>(max_len));
  }
  if (trunc.empty()) trunc.push_back(pad_id);
  return trunc;
}

void ScatterPackedRows(const float* src, int d,
                       const std::vector<int>& row_index, float* dst) {
  for (size_t i = 0; i < row_index.size(); ++i) {
    std::copy(src + i * d, src + (i + 1) * d,
              dst + static_cast<size_t>(row_index[i]) * d);
  }
}

int PackBatchesInto(const std::vector<std::vector<int>>& seqs,
                    const PackOptions& opts, PackScratch* scratch) {
  SUDO_CHECK(opts.max_len >= 1 && opts.max_rows >= 1);
  scratch->n_buckets_ = 0;
  if (seqs.empty()) return 0;

  auto next_bucket = [scratch]() -> PackedBucket* {
    if (scratch->n_buckets_ == static_cast<int>(scratch->buckets_.size())) {
      scratch->buckets_.emplace_back();  // warmup growth only
    }
    return &scratch->buckets_[static_cast<size_t>(scratch->n_buckets_++)];
  };

  std::vector<int>& order = scratch->order_;
  order.resize(seqs.size());
  std::iota(order.begin(), order.end(), 0);

  if (opts.preserve_order) {
    // Greedy contiguous cuts in original row order (see PackOptions).
    // Lengths are not monotone here, so the prospective bucket width is
    // the running max.
    int start = 0;
    int64_t current_tokens = 0;
    int current_t = 0;
    for (int r = 0; r < static_cast<int>(seqs.size()); ++r) {
      const int len = PackedLength(seqs[static_cast<size_t>(r)], opts.max_len);
      if (r > start) {
        const int t = std::max(current_t, len);
        const int64_t slots = (static_cast<int64_t>(r - start) + 1) * t;
        const double waste =
            static_cast<double>(slots - (current_tokens + len)) /
            static_cast<double>(slots);
        if (r - start >= opts.max_rows || waste > opts.max_padding_waste) {
          FillBucketInto(seqs, order.data() + start, r - start, opts,
                         next_bucket());
          start = r;
          current_tokens = 0;
          current_t = 0;
        }
      }
      current_tokens += len;
      current_t = std::max(current_t, len);
    }
    if (start < static_cast<int>(seqs.size())) {
      FillBucketInto(seqs, order.data() + start,
                     static_cast<int>(seqs.size()) - start, opts,
                     next_bucket());
    }
    return scratch->n_buckets_;
  }

  // Order by (truncated length, original index) - the same permutation a
  // stable length sort produces, via in-place std::sort so the packing
  // path stays allocation-free - then greedy cuts: lengths within the
  // walk are non-decreasing, so the running bucket's T is always the
  // candidate row's length and the padded-slot fraction of the
  // prospective [rows+1, T'] block is cheap to evaluate exactly.
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int la = PackedLength(seqs[static_cast<size_t>(a)], opts.max_len);
    const int lb = PackedLength(seqs[static_cast<size_t>(b)], opts.max_len);
    return la != lb ? la < lb : a < b;
  });

  int start = 0;
  int64_t current_tokens = 0;  // sum of valid lengths in [start, i)
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    const int len = PackedLength(
        seqs[static_cast<size_t>(order[static_cast<size_t>(i)])],
        opts.max_len);
    if (i > start) {
      const int64_t slots = (static_cast<int64_t>(i - start) + 1) * len;
      const double waste =
          static_cast<double>(slots - (current_tokens + len)) /
          static_cast<double>(slots);
      if (i - start >= opts.max_rows || waste > opts.max_padding_waste) {
        FillBucketInto(seqs, order.data() + start, i - start, opts,
                       next_bucket());
        start = i;
        current_tokens = 0;
      }
    }
    current_tokens += len;
  }
  if (start < static_cast<int>(order.size())) {
    FillBucketInto(seqs, order.data() + start,
                   static_cast<int>(order.size()) - start, opts,
                   next_bucket());
  }
  return scratch->n_buckets_;
}

std::vector<PackedBucket> PackBatches(
    const std::vector<std::vector<int>>& seqs, const PackOptions& opts) {
  PackScratch scratch;
  const int n = PackBatchesInto(seqs, opts, &scratch);
  std::vector<PackedBucket> buckets;
  buckets.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    buckets.push_back(std::move(scratch.buckets_[static_cast<size_t>(i)]));
  }
  return buckets;
}

}  // namespace sudowoodo::nn
