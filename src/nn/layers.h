// Basic neural-network building blocks on top of the tensor autograd engine.

#ifndef SUDOWOODO_NN_LAYERS_H_
#define SUDOWOODO_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h; only the pointer crosses here.
}

namespace sudowoodo::nn {

using tensor::Tensor;

/// Fully connected layer: y = x W + b, with W [in,out], b [1,out].
class Linear {
 public:
  Linear() = default;
  /// Gaussian(0, 0.02) weight init, zero bias.
  Linear(int in_dim, int out_dim, Rng* rng);

  /// x is [N, in]; returns [N, out].
  Tensor Forward(const Tensor& x) const { return Forward(x, nullptr, 1); }

  /// Same, with the GEMMs row-sharded over `pool` (`num_shards > 1`;
  /// bit-identical to serial by the kernel contract). With the tape off
  /// this is the fused inference fast path; with it on, the forward GEMM
  /// *and* both backward GEMMs shard (`pool` must outlive Backward()).
  Tensor Forward(const Tensor& x, ThreadPool* pool, int num_shards) const;

  /// Graph-free fast path on raw buffers: out[m, out_dim] = x[m, in_dim]
  /// * W + b, written into caller-owned (e.g. workspace) memory. `out` is
  /// overwritten, may be dirty on entry, and must not alias `x`. This is
  /// the exact float chain of the inference Forward above (zeroed
  /// accumulator GEMM, then a per-row bias Axpy), so the two are
  /// bit-identical; the allocation-free serving paths call it directly.
  void ForwardInto(const float* x, int m, float* out,
                   ThreadPool* pool = nullptr, int num_shards = 1) const;

  std::vector<Tensor> Parameters() const { return {w_, b_}; }
  int in_dim() const { return w_.rows(); }
  int out_dim() const { return w_.cols(); }

  /// Raw parameter handles for graph-free inference paths that call the
  /// kernel layer directly (e.g. the GRU recurrence).
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  Tensor w_;
  Tensor b_;
};

/// Token embedding table with gather-based lookup.
class Embedding {
 public:
  Embedding() = default;
  Embedding(int vocab_size, int dim, Rng* rng);

  /// Returns [ids.size(), dim].
  Tensor Forward(const std::vector<int>& ids) const;

  std::vector<Tensor> Parameters() const { return {table_}; }
  int vocab_size() const { return table_.rows(); }
  int dim() const { return table_.cols(); }

  /// Raw table handle for graph-free inference paths.
  const Tensor& table() const { return table_; }

 private:
  Tensor table_;
};

/// Layer normalization over the last dimension with learned gain/bias.
class LayerNorm {
 public:
  LayerNorm() = default;
  explicit LayerNorm(int dim);

  Tensor Forward(const Tensor& x) const;

  /// Graph-free fast path on raw buffers: y[m, dim] = layer-norm of
  /// x[m, dim], via the same kernels::LayerNormRows float chain the graph
  /// op runs (bit-identical). In-place (y == x) is allowed.
  void ForwardInto(const float* x, int m, float* y) const;

  std::vector<Tensor> Parameters() const { return {gamma_, beta_}; }

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Two-layer MLP with GELU: Linear -> GELU -> Linear.
class Mlp {
 public:
  Mlp() = default;
  Mlp(int in_dim, int hidden_dim, int out_dim, Rng* rng);

  Tensor Forward(const Tensor& x) const { return Forward(x, nullptr, 1); }

  /// Both Linear stages row-shard their inference GEMMs over `pool` (see
  /// Linear::Forward); GELU stays elementwise-serial.
  Tensor Forward(const Tensor& x, ThreadPool* pool, int num_shards) const;

  std::vector<Tensor> Parameters() const;

  /// Stage handles for the graph-free serving paths, which drive
  /// Linear::ForwardInto + kernels::GeluForward on workspace buffers.
  const Linear& fc1() const { return fc1_; }
  const Linear& fc2() const { return fc2_; }

 private:
  Linear fc1_;
  Linear fc2_;
};

/// Appends `extra` to `params`.
void AppendParameters(std::vector<Tensor>* params,
                      const std::vector<Tensor>& extra);

}  // namespace sudowoodo::nn

#endif  // SUDOWOODO_NN_LAYERS_H_
