// The cutoff data-augmentation operators of Sudowoodo (paper §IV-A, Fig. 5).
//
// Cutoff perturbs the *input token embedding matrix* of the encoder rather
// than the raw string: token-cutoff zeroes one token's embedding, feature-
// cutoff zeroes a set of embedding dimensions across all tokens, and
// span-cutoff zeroes a contiguous run of tokens. Sudowoodo applies the same
// cutoff to every item in a batch ("batch-wise", §IV-A), which the paper
// motivates as a dropout-like regularizer: each step the encoder must match
// with partial information.
//
// A CutoffPlan is sampled once per batch; sequence-relative positions are
// stored as fractions so the same plan applies to sequences of different
// lengths.

#ifndef SUDOWOODO_AUGMENT_CUTOFF_H_
#define SUDOWOODO_AUGMENT_CUTOFF_H_

#include <vector>

#include "common/rng.h"

namespace sudowoodo::augment {

/// Which cutoff operator to apply (Fig. 5).
enum class CutoffKind {
  kNone = 0,
  kToken,    // zero a sampled token position
  kFeature,  // zero sampled embedding dimensions for all tokens
  kSpan,     // zero a sampled contiguous token span
};

/// A batch-level cutoff decision. Token positions are stored as a fraction
/// of the sequence length; feature dimensions are absolute.
struct CutoffPlan {
  CutoffKind kind = CutoffKind::kNone;
  /// Fraction of tokens (token/span) or features (feature) to zero.
  double ratio = 0.05;
  /// Start position of the token/span cut as a fraction in [0, 1).
  double start_frac = 0.0;
  /// Sampled embedding dimensions for feature-cutoff.
  std::vector<int> feature_dims;

  /// Row (token) index range [begin, end) to zero for a sequence of length
  /// seq_len. Empty range for feature/none cutoffs.
  void TokenRange(int seq_len, int* begin, int* end) const;

  /// Zeroes the entries of `mask`, a [seq_len, dim] row-major block of
  /// 0/1 factors for a sequence of seq_len tokens, that this plan cuts
  /// off: the feature columns in range, or the TokenRange rows. kNone
  /// leaves it untouched. The one mask rule of every encoder's cutoff.
  void ZeroCutEntries(int seq_len, int dim, float* mask) const;
};

/// Samples a batch-wise plan. `dim` is the embedding width (for feature
/// cutoff), `ratio` the fraction to cut (paper sweeps 0.01-0.08, Table IV).
CutoffPlan SampleCutoff(CutoffKind kind, int dim, double ratio, Rng* rng);

}  // namespace sudowoodo::augment

#endif  // SUDOWOODO_AUGMENT_CUTOFF_H_
