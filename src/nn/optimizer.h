// AdamW optimizer with decoupled weight decay (Loshchilov & Hutter 2019),
// the optimizer the paper uses for both pre-training and fine-tuning (§VI-A2).

#ifndef SUDOWOODO_NN_OPTIMIZER_H_
#define SUDOWOODO_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"

namespace sudowoodo::nn {

/// AdamW hyper-parameters. The defaults match the paper's fine-tuning setup
/// (lr 5e-5 scaled for the mini-LM, betas 0.9/0.999).
struct AdamWOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.01f;
};

/// AdamW over a fixed parameter list. Parameters must outlive the optimizer.
class AdamW {
 public:
  AdamW(std::vector<tensor::Tensor> params, const AdamWOptions& options);

  /// Applies one update from the accumulated gradients, then leaves the
  /// gradients untouched (call ZeroGrad separately). optimizer.cc is
  /// built with -fno-math-errno (CMakeLists.txt) so the per-element loop,
  /// whose std::sqrt could otherwise set errno, runs in vector lanes;
  /// IEEE sqrt and division round the same in every lane, so the weights
  /// are bit-identical to the scalar loop's.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad();

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

  void set_lr(float lr) { options_.lr = lr; }
  float lr() const { return options_.lr; }
  int64_t step_count() const { return step_; }

 private:
  std::vector<tensor::Tensor> params_;
  AdamWOptions options_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  int64_t step_ = 0;
};

}  // namespace sudowoodo::nn

#endif  // SUDOWOODO_NN_OPTIMIZER_H_
