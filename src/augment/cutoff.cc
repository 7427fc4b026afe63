#include "augment/cutoff.h"

#include <algorithm>
#include <cmath>

namespace sudowoodo::augment {

void CutoffPlan::TokenRange(int seq_len, int* begin, int* end) const {
  *begin = 0;
  *end = 0;
  if (seq_len <= 1) return;
  // Never cut position 0: that is the [CLS] pooling token.
  if (kind == CutoffKind::kToken) {
    int pos = 1 + static_cast<int>(start_frac * (seq_len - 1));
    pos = std::min(pos, seq_len - 1);
    *begin = pos;
    *end = pos + 1;
  } else if (kind == CutoffKind::kSpan) {
    int span = std::max(1, static_cast<int>(std::lround(ratio * seq_len)));
    span = std::min(span, seq_len - 1);
    int pos = 1 + static_cast<int>(start_frac * (seq_len - span));
    pos = std::min(pos, seq_len - span);
    *begin = pos;
    *end = pos + span;
  }
}

void CutoffPlan::ZeroCutEntries(int seq_len, int dim, float* mask) const {
  if (kind == CutoffKind::kFeature) {
    for (int j : feature_dims) {
      if (j < 0 || j >= dim) continue;
      for (int r = 0; r < seq_len; ++r) {
        mask[static_cast<size_t>(r) * dim + j] = 0.0f;
      }
    }
    return;
  }
  int begin = 0, end = 0;
  TokenRange(seq_len, &begin, &end);
  std::fill(mask + static_cast<size_t>(begin) * dim,
            mask + static_cast<size_t>(end) * dim, 0.0f);
}

CutoffPlan SampleCutoff(CutoffKind kind, int dim, double ratio, Rng* rng) {
  CutoffPlan plan;
  plan.kind = kind;
  plan.ratio = ratio;
  if (kind == CutoffKind::kNone) return plan;
  plan.start_frac = rng->Uniform();
  if (kind == CutoffKind::kFeature) {
    int k = std::max(1, static_cast<int>(std::lround(ratio * dim)));
    plan.feature_dims = rng->SampleWithoutReplacement(dim, k);
  }
  return plan;
}

}  // namespace sudowoodo::augment
