#include "matcher/pair_matcher.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "nn/optimizer.h"
#include "nn/weights.h"
#include "pipeline/metrics.h"
#include "tensor/kernels.h"
#include "tensor/workspace.h"
#include "text/serialize.h"

namespace sudowoodo::matcher {

namespace ts = sudowoodo::tensor;
namespace ks = sudowoodo::tensor::kernels;

PairMatcher::PairMatcher(nn::Encoder* encoder, const text::Vocab* vocab,
                         const FinetuneOptions& options)
    : encoder_(encoder), vocab_(vocab), options_(options) {
  SUDO_CHECK(encoder != nullptr && vocab != nullptr);
  Rng rng(options.seed);
  const int in_dim =
      (options.sudowoodo_head ? 2 * encoder->dim() : encoder->dim()) +
      options.side_dim;
  if (options.mlp_head) {
    mlp_head_ = nn::Mlp(in_dim, in_dim / 2, 2, &rng);
  } else {
    head_ = nn::Linear(in_dim, 2, &rng);
  }
}

ts::Tensor PairMatcher::Classify(const ts::Tensor& features) const {
  return options_.mlp_head ? mlp_head_.Forward(features)
                           : head_.Forward(features);
}

ts::Tensor PairMatcher::ForwardBatch(
    const std::vector<const PairExample*>& batch, bool training) {
  std::vector<std::vector<int>> xy_ids;
  xy_ids.reserve(batch.size());
  for (const PairExample* ex : batch) {
    xy_ids.push_back(
        vocab_->Encode(text::SerializePairTokens(ex->x, ex->y)));
  }
  ts::Tensor z_xy = encoder_->EncodeBatch(xy_ids, nullptr, training);

  // Optional constant side-feature block.
  ts::Tensor side;
  if (options_.side_dim > 0) {
    side = ts::Tensor::Zeros(static_cast<int>(batch.size()),
                             options_.side_dim);
    for (size_t i = 0; i < batch.size(); ++i) {
      SUDO_CHECK(static_cast<int>(batch[i]->side.size()) ==
                 options_.side_dim);
      for (int j = 0; j < options_.side_dim; ++j) {
        side.set(static_cast<int>(i), j,
                 batch[i]->side[static_cast<size_t>(j)]);
      }
    }
  }

  if (!options_.sudowoodo_head) {
    if (options_.side_dim > 0) {
      return Classify(ts::ConcatCols({z_xy, side}));
    }
    return Classify(z_xy);
  }
  std::vector<std::vector<int>> x_ids, y_ids;
  x_ids.reserve(batch.size());
  y_ids.reserve(batch.size());
  for (const PairExample* ex : batch) {
    x_ids.push_back(vocab_->Encode(ex->x));
    y_ids.push_back(vocab_->Encode(ex->y));
  }
  ts::Tensor z_x = encoder_->EncodeBatch(x_ids, nullptr, training);
  ts::Tensor z_y = encoder_->EncodeBatch(y_ids, nullptr, training);
  // Z_xy ⊕ |Z_x - Z_y|   (Eq. 3), plus side features when configured.
  std::vector<ts::Tensor> parts = {z_xy, ts::Abs(ts::Sub(z_x, z_y))};
  if (options_.side_dim > 0) parts.push_back(side);
  return Classify(ts::ConcatCols(parts));
}

Status PairMatcher::Train(const std::vector<PairExample>& train,
                          const std::vector<PairExample>& valid) {
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  Rng rng(options_.seed + 1);

  std::vector<ts::Tensor> params;
  if (!options_.freeze_encoder) params = encoder_->Parameters();
  nn::AppendParameters(&params, options_.mlp_head ? mlp_head_.Parameters()
                                                  : head_.Parameters());
  nn::AdamWOptions opt_options;
  opt_options.lr = options_.lr;
  nn::AdamW optimizer(params, opt_options);

  nn::WeightSnapshot best;
  best_valid_f1_ = -1.0;

  std::vector<int> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  int steps = 0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    if (options_.max_steps > 0 && steps >= options_.max_steps) break;
    rng.Shuffle(&order);
    for (size_t b = 0; b < order.size();
         b += static_cast<size_t>(options_.batch_size)) {
      if (options_.max_steps > 0 && steps >= options_.max_steps) break;
      ++steps;
      const size_t end =
          std::min(order.size(), b + static_cast<size_t>(options_.batch_size));
      std::vector<const PairExample*> batch;
      std::vector<int> labels;
      for (size_t i = b; i < end; ++i) {
        batch.push_back(&train[static_cast<size_t>(order[i])]);
        labels.push_back(train[static_cast<size_t>(order[i])].label);
      }
      ts::Tensor logits = ForwardBatch(batch, /*training=*/true);
      ts::Tensor loss = ts::CrossEntropyWithLogits(logits, labels);
      optimizer.ZeroGrad();
      ts::Backward(loss);
      optimizer.ClipGradNorm(options_.grad_clip);
      optimizer.Step();
    }
    if (options_.select_best_epoch && !valid.empty()) {
      std::vector<int> preds = Predict(valid);
      std::vector<int> labels;
      labels.reserve(valid.size());
      for (const auto& ex : valid) labels.push_back(ex.label);
      const double f1 = pipeline::ComputePRF1(preds, labels).f1;
      if (f1 > best_valid_f1_) {
        best_valid_f1_ = f1;
        best = nn::SnapshotWeights(params);
      }
    }
  }
  if (options_.select_best_epoch && !best.empty()) {
    nn::RestoreWeights(params, best);
  }
  train_seconds_ = timer.ElapsedSeconds();
  return Status::OK();
}

std::vector<float> PairMatcher::PredictProba(
    const std::vector<PairExample>& pairs) {
  std::vector<float> out(pairs.size());
  PredictProbaInto(pairs, out.data());
  return out;
}

void PairMatcher::PredictProbaInto(const std::vector<PairExample>& pairs,
                                   float* out) {
  for (size_t b = 0; b < pairs.size(); b += kMaxPairsPerPass) {
    PredictPass(pairs.data() + b,
                std::min(kMaxPairsPerPass, pairs.size() - b), out + b);
  }
}

void PairMatcher::PredictPass(const PairExample* pairs, size_t n,
                              float* out) {
  const bool sides = options_.sudowoodo_head;
  const int side_dim = options_.side_dim;
  rows_.Resize(sides ? 3 * n : n);
  for (size_t i = 0; i < n; ++i) {
    SUDO_CHECK(side_dim == 0 ||
               static_cast<int>(pairs[i].side.size()) == side_dim);
    std::vector<int>& x = sides ? rows_[n + i] : x_ids_;
    std::vector<int>& y = sides ? rows_[2 * n + i] : y_ids_;
    // A side equal to the previous pair's (a record against its blocking
    // candidates) copies its ids instead of looking them up again.
    if (i > 0 && pairs[i].x == pairs[i - 1].x) {
      if (sides) x = rows_[n + i - 1];
    } else {
      vocab_->EncodeInto(pairs[i].x, &x);
    }
    if (i > 0 && pairs[i].y == pairs[i - 1].y) {
      if (sides) y = rows_[2 * n + i - 1];
    } else {
      vocab_->EncodeInto(pairs[i].y, &y);
    }
    // [CLS] x [SEP] y [SEP]: Encode(x), the [SEP] id, Encode(y) without
    // its [CLS], the [SEP] id.
    std::vector<int>& xy = rows_[i];
    xy.assign(x.begin(), x.end());
    xy.push_back(text::Vocab::kSep);
    xy.insert(xy.end(), y.begin() + 1, y.end());
    xy.push_back(text::Vocab::kSep);
  }

  const size_t d = static_cast<size_t>(encoder_->dim());
  const size_t in = (sides ? 2 * d : d) + static_cast<size_t>(side_dim);
  const int m = static_cast<int>(n);
  ts::Workspace& ws = ts::Workspace::ThreadLocal();
  ts::Workspace::Frame frame(ws);
  float* z = ws.Floats(rows_.size() * d);
  encoder_->EncodeInference(rows_.rows(), z);

  // The head's input rows [Z_xy | |Z_x - Z_y| | side], laid out as
  // ConcatCols lays out its parts, with Sub and Abs's float chain.
  float* features = ws.Floats(n * in);
  for (size_t i = 0; i < n; ++i) {
    float* f = features + i * in;
    std::copy(z + i * d, z + (i + 1) * d, f);
    if (sides) {
      const float* zx = z + (n + i) * d;
      const float* zy = z + (2 * n + i) * d;
      for (size_t j = 0; j < d; ++j) f[d + j] = std::fabs(zx[j] - zy[j]);
    }
    std::copy(pairs[i].side.begin(), pairs[i].side.begin() + side_dim,
              f + in - static_cast<size_t>(side_dim));
  }
  // Linear::Forward and Mlp::Forward with the tape off, then RowSoftmax.
  float* logits = ws.Floats(n * 2);
  if (options_.mlp_head) {
    const size_t hidden = static_cast<size_t>(mlp_head_.fc1().out_dim());
    float* h = ws.Floats(n * hidden);
    float* g = ws.Floats(n * hidden);
    mlp_head_.fc1().ForwardInto(features, m, h);
    ks::GeluForward(static_cast<int>(n * hidden), h, g);
    mlp_head_.fc2().ForwardInto(g, m, logits);
  } else {
    head_.ForwardInto(features, m, logits);
  }
  float* probs = ws.Floats(n * 2);
  ks::RowSoftmax(m, 2, logits, probs);
  for (size_t i = 0; i < n; ++i) out[i] = probs[2 * i + 1];
}

std::vector<int> PairMatcher::Predict(const std::vector<PairExample>& pairs) {
  std::vector<float> probs = PredictProba(pairs);
  std::vector<int> out(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) out[i] = probs[i] >= 0.5f ? 1 : 0;
  return out;
}

}  // namespace sudowoodo::matcher
