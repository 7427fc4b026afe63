// GRU sequence encoder: the substrate for the DeepMatcher-style RNN
// baseline (Mudgal et al., SIGMOD 2018) referenced throughout the paper's
// evaluation (Tables V, XVIII).

#ifndef SUDOWOODO_NN_GRU_H_
#define SUDOWOODO_NN_GRU_H_

#include <vector>

#include "nn/encoder.h"
#include "nn/layers.h"

namespace sudowoodo::nn {

/// Configuration for GruEncoder.
struct GruConfig {
  int vocab_size = 1000;
  int max_len = 64;
  int dim = 64;  // embedding and hidden width
  float dropout = 0.1f;
  /// Fill token for padded batch slots; also substituted for an empty
  /// input sequence (text::Vocab::kPad).
  int pad_id = 0;
  uint64_t seed = 17;
};

/// Single-layer GRU over token embeddings; pools the final hidden state.
class GruEncoder : public Encoder {
 public:
  explicit GruEncoder(const GruConfig& config);

  std::vector<Tensor> Parameters() const override;
  int dim() const override { return config_.dim; }
  int vocab_size() const override { return config_.vocab_size; }

 protected:
  Tensor EncodeBatchImpl(const std::vector<std::vector<int>>& batch,
                         const augment::CutoffPlan* cutoff,
                         bool training) override;

  /// Batched inference recurrence: packs the batch into padded buckets
  /// (reusing the pack scratch) and steps every sequence of a bucket in
  /// lockstep on workspace buffers, so each gate is one [rows, 2*dim] x
  /// [2*dim, dim] blocked GEMM per time step instead of `rows` GEMV
  /// calls. Rows whose sequence has ended keep their hidden state frozen
  /// (masked update); bit-identical to the per-row graph recurrence.
  /// Scatters each bucket's hidden states to `out` rows in batch order;
  /// zero heap allocations after warmup.
  void EncodeInferenceImpl(const std::vector<std::vector<int>>& batch,
                           float* out) override;

 private:
  /// Gate ordinals on the deferred-gradient tape (see MakeGateTape).
  enum GateIndex { kZ = 0, kR = 1, kH = 2 };

  /// Registers the three gate projections on a fresh deferred-gradient
  /// tape in kZ/kR/kH order - the one place that order is defined.
  std::shared_ptr<tensor::DeferredGradTape> MakeGateTape() const;

  Tensor EncodeOne(const std::vector<int>& ids,
                   const augment::CutoffPlan* cutoff, bool training,
                   const TrainStream& stream, int row);

  /// Batched *training* recurrence: the same lockstep stepping as the
  /// inference path, but graph-building - gate projections go through
  /// LinearDeferred (weight/bias grads replayed row-major by the tape
  /// anchor, matching the per-row loop bit for bit), finished rows freeze
  /// via the exact-copy WhereRows select, and the embedding dropout mask
  /// is counter-keyed by (row, position). Losses and gradients are
  /// bit-identical to the per-row training path.
  Tensor EncodeBatchTraining(const std::vector<std::vector<int>>& batch,
                             const augment::CutoffPlan* cutoff,
                             const TrainStream& stream);

  GruConfig config_;
  Rng rng_;
  Embedding token_emb_;
  // Fused gate projections: [x, h] -> {update z, reset r, candidate h~}.
  Linear wz_, wr_, wh_;
};

}  // namespace sudowoodo::nn

#endif  // SUDOWOODO_NN_GRU_H_
