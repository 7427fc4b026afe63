// Pairwise matching model M_pm with Sudowoodo's similarity-aware
// fine-tuning architecture (§III-B, Fig. 4, Eq. 3):
//
//   M_pm(x, y) = softmax( Linear_diff( Z_xy ⊕ |Z_x - Z_y| ) )
//
// where Z_x, Z_y are the encoder outputs for the individual items and Z_xy
// the output for the concatenated pair. Setting `sudowoodo_head = false`
// falls back to the default LM fine-tuning (classify Z_xy only), which is
// both the Ditto baseline's architecture and the "default fine-tuning
// option" the paper argues is not ideal (§III-B).

#ifndef SUDOWOODO_MATCHER_PAIR_MATCHER_H_
#define SUDOWOODO_MATCHER_PAIR_MATCHER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/encoder.h"
#include "nn/layers.h"
#include "text/vocab.h"

namespace sudowoodo::matcher {

/// One training/inference pair: serialized token streams plus a label.
/// `side` optionally carries dense per-pair features appended to the
/// Eq. 3 feature vector before the classification head (all examples of a
/// run must agree on its size; see FinetuneOptions::side_dim).
struct PairExample {
  std::vector<std::string> x;
  std::vector<std::string> y;
  int label = 0;
  std::vector<float> side;
};

/// Fine-tuning hyper-parameters (paper §VI-A2, scaled to the mini-LM).
struct FinetuneOptions {
  int epochs = 12;           // paper: 50
  int batch_size = 16;
  float lr = 1e-3f;
  bool sudowoodo_head = true;  // Eq. 3 vs plain concatenation head
  float grad_clip = 5.0f;
  /// Keep the weights of the epoch with the best validation F1 (§VI-A2).
  bool select_best_epoch = true;
  /// Width of PairExample::side. When > 0 the head input becomes
  /// [Z_xy ⊕ |Z_x - Z_y| ⊕ side]. Used by the cleaning pipeline to feed
  /// profiling signals alongside the learned representations (DESIGN.md
  /// §1.2 documents this substitution for large-LM knowledge).
  int side_dim = 0;
  /// Train only the classification head, using the pre-trained encoder
  /// as a frozen feature extractor (Definition 1's "directly used"
  /// representations). Prevents the encoder from memorizing tiny
  /// fine-tuning sets whose eval distribution contains unseen values.
  bool freeze_encoder = false;
  /// Use a 2-layer MLP classification head instead of the single linear
  /// layer of Eq. 3. The cleaning pipeline needs the extra capacity to
  /// combine profiling side features (feature interactions a linear head
  /// cannot express); EM keeps the paper's linear head.
  bool mlp_head = false;
  /// Upper bound on optimizer steps; 0 = unlimited. The paper fixes the
  /// number of fine-tuning steps when pseudo labels enlarge the training
  /// set ("We fix the size of the fine-tuning steps unchanged when adding
  /// the extra labels", §VI-B); the pipeline uses this knob for that.
  int max_steps = 0;
  uint64_t seed = 131;
};

/// Trains and applies the pairwise matching model on top of a (typically
/// pre-trained) encoder. The encoder is fine-tuned in place.
class PairMatcher {
 public:
  PairMatcher(nn::Encoder* encoder, const text::Vocab* vocab,
              const FinetuneOptions& options);

  /// Fine-tunes on `train`; when `valid` is non-empty and best-epoch
  /// selection is on, restores the best-validation-F1 weights at the end.
  Status Train(const std::vector<PairExample>& train,
               const std::vector<PairExample>& valid);

  /// P(match) for each pair.
  std::vector<float> PredictProba(const std::vector<PairExample>& pairs);

  /// Hard 0/1 predictions at threshold 0.5.
  std::vector<int> Predict(const std::vector<PairExample>& pairs);

  /// Width every PairExample::side must have (FinetuneOptions::side_dim);
  /// 0 = side features are ignored.
  int side_dim() const { return options_.side_dim; }
  double best_valid_f1() const { return best_valid_f1_; }
  double train_seconds() const { return train_seconds_; }

 private:
  /// Logits [batch, 2] for a slice of examples.
  tensor::Tensor ForwardBatch(const std::vector<const PairExample*>& batch,
                              bool training);
  /// Applies the configured classification head.
  tensor::Tensor Classify(const tensor::Tensor& features) const;

  nn::Encoder* encoder_;
  const text::Vocab* vocab_;
  FinetuneOptions options_;
  nn::Linear head_;
  nn::Mlp mlp_head_;
  double best_valid_f1_ = 0.0;
  double train_seconds_ = 0.0;
};

}  // namespace sudowoodo::matcher

#endif  // SUDOWOODO_MATCHER_PAIR_MATCHER_H_
