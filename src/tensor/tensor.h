// A small reverse-mode automatic differentiation engine over dense 2-D
// float tensors.
//
// This is the numerical substrate for the whole library: the Transformer
// and FastBag encoders, the contrastive losses (NT-Xent, Barlow Twins) and
// the fine-tuning heads are all expressed in these ops, which means the
// gradient-check tests in tests/tensor_test.cc cover the exact code paths
// used in training.
//
// Model: a Tensor is a value handle to a heap node holding an [rows x cols]
// row-major float buffer, an optional gradient buffer, and a closure that
// propagates output gradients to the node's parents. Backward(loss) runs a
// topological sweep from a 1x1 loss node.
//
// Sequences are [T x D] matrices and batches of pooled representations are
// [B x D] matrices; there is deliberately no 3-D tensor type - per-sequence
// processing keeps the engine simple and removes any need for padding masks.

#ifndef SUDOWOODO_TENSOR_TENSOR_H_
#define SUDOWOODO_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h; only the pointer crosses here.
}

namespace sudowoodo::tensor {

/// Heap storage and autograd bookkeeping for one tensor value.
struct TensorImpl {
  int rows = 0;
  int cols = 0;
  std::vector<float> value;
  std::vector<float> grad;  // allocated lazily when requires_grad
  bool requires_grad = false;
  std::function<void()> backward_fn;  // propagates this->grad to parents
  std::vector<std::shared_ptr<TensorImpl>> parents;

  size_t size() const { return static_cast<size_t>(rows) * cols; }
  void EnsureGrad() {
    if (grad.size() != size()) grad.assign(size(), 0.0f);
  }
};

/// Value-semantics handle to a TensorImpl node in the autograd graph.
class Tensor {
 public:
  Tensor() = default;

  /// --- constructors -------------------------------------------------------
  static Tensor Zeros(int rows, int cols, bool requires_grad = false);
  static Tensor Constant(int rows, int cols, float v);
  static Tensor FromData(int rows, int cols, std::vector<float> data,
                         bool requires_grad = false);
  /// Gaussian init with the given stddev (e.g. 0.02 for transformer weights).
  static Tensor Randn(int rows, int cols, float stddev, Rng* rng,
                      bool requires_grad = true);

  bool defined() const { return impl_ != nullptr; }
  int rows() const { return impl_->rows; }
  int cols() const { return impl_->cols; }
  size_t size() const { return impl_->size(); }

  float* data() { return impl_->value.data(); }
  const float* data() const { return impl_->value.data(); }
  float at(int r, int c) const {
    return impl_->value[static_cast<size_t>(r) * impl_->cols + c];
  }
  void set(int r, int c, float v) {
    impl_->value[static_cast<size_t>(r) * impl_->cols + c] = v;
  }

  bool requires_grad() const { return impl_->requires_grad; }
  float* grad() { return impl_->grad.data(); }
  const float* grad() const { return impl_->grad.data(); }
  float grad_at(int r, int c) const {
    return impl_->grad[static_cast<size_t>(r) * impl_->cols + c];
  }
  void ZeroGrad() {
    if (impl_->requires_grad) impl_->grad.assign(impl_->size(), 0.0f);
  }

  /// Scalar convenience for 1x1 tensors.
  float item() const {
    SUDO_CHECK(rows() == 1 && cols() == 1);
    return impl_->value[0];
  }

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

  /// L2 norm of the value buffer (diagnostics / grad clipping).
  float Norm() const;

 private:
  friend Tensor WrapNode(std::shared_ptr<TensorImpl> impl);
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<TensorImpl> impl_;
};

/// While alive, ops do not record the autograd graph (inference mode).
/// Nestable; thread-local.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

/// True when graph recording is enabled (no NoGradGuard alive).
bool GradEnabled();

/// Runs backpropagation from a 1x1 loss node. Gradients accumulate into
/// every reachable node with requires_grad; call ZeroGrad between steps.
void Backward(const Tensor& loss);

/// --- elementwise & shape ops ----------------------------------------------
Tensor MatMul(const Tensor& a, const Tensor& b);
/// MatMul whose forward GEMM *and* both backward GEMMs (dA += dC B^T,
/// dB += A^T dC) row-shard over `pool` (see tensor/kernels.h; bit-identical
/// to serial for any shard count). `pool` must outlive Backward(). This is
/// how the training-mode forwards thread their dense work without touching
/// gradient determinism.
Tensor MatMul(const Tensor& a, const Tensor& b, ThreadPool* pool,
              int num_shards);
/// a[m,k] * b[n,k]^T without materializing the transpose (attention scores
/// Q*K^T, similarity matrices Z*Z^T). Forward is bit-identical to
/// MatMul(a, Transpose(b)) up to reduction order.
Tensor MatMulBT(const Tensor& a, const Tensor& b);
/// a[k,m]^T * b[k,n] without materializing the transpose (Barlow Twins
/// cross-correlation Z_o^T * Z_a).
Tensor MatMulAT(const Tensor& a, const Tensor& b);
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);  // Hadamard
Tensor Scale(const Tensor& a, float s);
/// a[m,n] + row[1,n], broadcast over rows (bias add).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);
Tensor Transpose(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Gelu(const Tensor& a);
/// Counter-based inverted dropout (the training-parallelism enabler; see
/// CounterRng in common/rng.h and src/tensor/README.md): element (i, j)
/// is dropped iff the stream keyed by keys[i / rows_per_key] fires at
/// counter (i % rows_per_key) * cols + j. The mask is a pure function of
/// (key, logical position), never of draw order, so a row gets the same
/// mask whether it is encoded alone ([len, d], its own key) or as one
/// block of a padded pack ([b*t, d], rows_per_key = t) and whichever
/// thread evaluates it. Identity when !training or p <= 0.
Tensor DropoutAt(const Tensor& a, float p, const std::vector<uint64_t>& keys,
                 int rows_per_key, bool training);
/// Stacks same-width tensors vertically.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// ConcatRows variant for the training paths: values are identical, but
/// the autograd parents are listed in *reverse* part order so the
/// backward topological sweep visits part subgraphs in ascending part
/// order. Cross-part gradient accumulation into shared parameters then
/// runs part 0 first, part 1 second, ... - the same ascending row-major
/// order the packed batched ops use internally (GemmAT walks contraction
/// rows upward), which is what makes per-row and batched training
/// gradients bit-identical. See "Training batching rules" in
/// src/tensor/README.md.
Tensor JoinRows(const std::vector<Tensor>& parts);
/// Packs b = parts.size() variable-length blocks into one [b*t, cols]
/// tensor: part i (len_i <= t rows) lands at rows [i*t, i*t + len_i) and
/// padded rows are exact zero (so they add exact zeros to downstream
/// GEMMs). Backward routes each part's grad slice back; parents are
/// listed in reverse part order like JoinRows.
Tensor PadPackRows(const std::vector<Tensor>& parts, int t);
/// Stacks same-height tensors horizontally.
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Columns [start, start+len) of a.
Tensor SliceCols(const Tensor& a, int start, int len);
/// Rows [start, start+len) of a.
Tensor SliceRows(const Tensor& a, int start, int len);
/// out[i,:] = table[ids[i],:]; backward scatter-adds (embedding lookup).
Tensor GatherRows(const Tensor& table, const std::vector<int>& ids);
/// Column vector [m,1] of row means.
Tensor RowMean(const Tensor& a);
/// FastBag's segment-pair pooling of a batch of ragged token rows, read
/// straight from an embedding table [vocab, d], as one node:
/// kernels::BagPairFeatures' [n, 4d] features [m1, m2, |m1 - m2|,
/// m1 ⊙ m2] (see there for the layout of ids, offsets, splits and mask;
/// an empty mask means none). Every id must index a table row. Values
/// and table gradients are bit-identical to the per-row chain
/// GatherRows, Mul by the mask, SliceRows per segment,
/// Transpose/RowMean/Transpose, then ConcatCols({m1, m2, Abs(Sub(m1,
/// m2)), Mul(m1, m2)}) with m2 := m1 for one segment, joined by JoinRows.
/// The backward adds into the table gradient rows ascending, then
/// positions ascending within a row, as that chain does; see "Training
/// batching rules" in src/tensor/README.md.
Tensor BagPairFeatures(const Tensor& table, std::vector<int> ids,
                       std::vector<int> offsets, std::vector<int> splits,
                       std::vector<float> mask);
Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);

/// --- normalization ---------------------------------------------------------
/// Per-row softmax (numerically stable).
Tensor RowSoftmax(const Tensor& a);
/// Autograd-capable mask-aware softmax for padded attention: row i is
/// softmaxed over its first valid[i] columns, padded columns become exact
/// 0 forward and receive/emit no gradient. The valid prefix (forward and
/// backward, including the y·gy reduction length) is bit-identical to
/// RowSoftmax on an unpadded [m, valid[i]] matrix.
Tensor RowSoftmaxMasked(const Tensor& a, const std::vector<int>& valid);
/// Per-row log-softmax.
Tensor LogRowSoftmax(const Tensor& a);
/// Per-row layer norm with learned gain/bias: gamma,beta are [1,n].
Tensor LayerNormRows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                     float eps = 1e-5f);
/// Rows scaled to unit L2 norm (Definition 1's normalized embeddings).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-9f);
/// Per-column standardization (x - mean)/std over the batch dimension, as
/// used by Barlow Twins before the cross-correlation matrix (Eq. 4).
Tensor StandardizeCols(const Tensor& a, float eps = 1e-5f);

/// --- losses -----------------------------------------------------------------
/// Mean negative log-likelihood of `targets` under per-row log-probs.
Tensor PickNegLogLikelihood(const Tensor& log_probs,
                            const std::vector<int>& targets);
/// Softmax cross-entropy with integer targets; returns mean loss (1x1).
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& targets);
/// Barlow Twins objective on a cross-correlation matrix C [d,d]:
/// sum_i (1-C_ii)^2 + lambda * sum_{i!=j} C_ij^2   (Eq. 5).
Tensor BarlowTwinsLoss(const Tensor& c, float lambda);

/// Numeric gradient of `f` w.r.t. entry (r,c) of `x` via central differences.
/// Test helper for gradient checking.
float NumericGradient(const std::function<Tensor()>& f, Tensor x, int r, int c,
                      float eps = 1e-3f);

}  // namespace sudowoodo::tensor

#endif  // SUDOWOODO_TENSOR_TENSOR_H_
