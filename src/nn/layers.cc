#include "nn/layers.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace sudowoodo::nn {

Linear::Linear(int in_dim, int out_dim, Rng* rng)
    : w_(Tensor::Randn(in_dim, out_dim, 0.02f, rng, /*requires_grad=*/true)),
      b_(Tensor::Zeros(1, out_dim, /*requires_grad=*/true)) {}

Tensor Linear::Forward(const Tensor& x, ThreadPool* pool,
                       int num_shards) const {
  if (!tensor::GradEnabled()) {
    // Inference: one fused GEMM + bias on raw buffers, skipping the two
    // autograd nodes. Bit-identical to the graph path (see ForwardInto).
    Tensor out = Tensor::Zeros(x.rows(), w_.cols());
    ForwardInto(x.data(), x.rows(), out.data(), pool, num_shards);
    return out;
  }
  // Training: the forward GEMM and both backward GEMMs thread through the
  // same row-sharded kernels (bit-identical for any shard count); the
  // graph bookkeeping itself stays serial.
  return tensor::AddRowBroadcast(tensor::MatMul(x, w_, pool, num_shards), b_);
}

void Linear::ForwardInto(const float* x, int m, float* out, ThreadPool* pool,
                         int num_shards) const {
  namespace ks = tensor::kernels;
  const int k = w_.rows(), n = w_.cols();
  std::fill(out, out + static_cast<size_t>(m) * n, 0.0f);
  ks::Gemm(m, n, k, x, w_.data(), out, pool, num_shards);
  for (int i = 0; i < m; ++i) {
    ks::Axpy(n, 1.0f, b_.data(), out + static_cast<size_t>(i) * n);
  }
}

Embedding::Embedding(int vocab_size, int dim, Rng* rng)
    : table_(
          Tensor::Randn(vocab_size, dim, 0.02f, rng, /*requires_grad=*/true)) {}

Tensor Embedding::Forward(const std::vector<int>& ids) const {
  return tensor::GatherRows(table_, ids);
}

LayerNorm::LayerNorm(int dim)
    : gamma_(Tensor::FromData(1, dim, std::vector<float>(dim, 1.0f),
                              /*requires_grad=*/true)),
      beta_(Tensor::Zeros(1, dim, /*requires_grad=*/true)) {}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return tensor::LayerNormRows(x, gamma_, beta_);
}

void LayerNorm::ForwardInto(const float* x, int m, float* y) const {
  // eps must match tensor::LayerNormRows' default for bit-identity.
  tensor::kernels::LayerNormRows(m, gamma_.cols(), x, gamma_.data(),
                                 beta_.data(), 1e-5f, y, nullptr, nullptr);
}

Mlp::Mlp(int in_dim, int hidden_dim, int out_dim, Rng* rng)
    : fc1_(in_dim, hidden_dim, rng), fc2_(hidden_dim, out_dim, rng) {}

Tensor Mlp::Forward(const Tensor& x, ThreadPool* pool, int num_shards) const {
  return fc2_.Forward(tensor::Gelu(fc1_.Forward(x, pool, num_shards)), pool,
                      num_shards);
}

std::vector<Tensor> Mlp::Parameters() const {
  std::vector<Tensor> out = fc1_.Parameters();
  AppendParameters(&out, fc2_.Parameters());
  return out;
}

void AppendParameters(std::vector<Tensor>* params,
                      const std::vector<Tensor>& extra) {
  params->insert(params->end(), extra.begin(), extra.end());
}

}  // namespace sudowoodo::nn
