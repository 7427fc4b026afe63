// DeepMatcher-style matcher (Mudgal et al., SIGMOD 2018): the
// fully-supervised deep-learning comparison point of Tables V and XVIII.
//
// DeepMatcher encodes the two entities separately (RNN/attention
// summarizers in the original) and classifies similarity features of the
// two summaries. Here: a FastBag encoder produces Z_x and Z_y and an
// MLP classifies [Z_x, Z_y, |Z_x - Z_y|, Z_x ⊙ Z_y]. No LM pre-training
// and no pair cross-encoding - exactly the architectural gap the paper's
// comparison highlights.

#ifndef SUDOWOODO_BASELINES_DEEPMATCHER_H_
#define SUDOWOODO_BASELINES_DEEPMATCHER_H_

#include <memory>

#include "data/em_dataset.h"
#include "matcher/pair_matcher.h"
#include "pipeline/metrics.h"

namespace sudowoodo::baselines {

/// Options for the DeepMatcher run.
struct DeepMatcherOptions {
  int dim = 48;
  int max_len = 48;
  int epochs = 10;
  int batch_size = 16;
  float lr = 1e-3f;
  uint64_t seed = 71;
};

/// Trains DeepMatcher on the dataset's full training split and evaluates
/// the test split ("DeepMatcher (full)" in Tables V / XVIII).
pipeline::PRF1 RunDeepMatcherOnEm(const data::EmDataset& ds,
                                  const DeepMatcherOptions& options = {});

}  // namespace sudowoodo::baselines

#endif  // SUDOWOODO_BASELINES_DEEPMATCHER_H_
