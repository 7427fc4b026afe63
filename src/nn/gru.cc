#include "nn/gru.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "nn/batch_pack.h"
#include "tensor/workspace.h"

namespace sudowoodo::nn {

namespace ts = sudowoodo::tensor;

namespace {

/// One gate projection on raw buffers for a whole step batch:
/// out[b,d] = act(xh[b,2d] * W + b) through Linear::ForwardInto, the
/// float chain of Linear::Forward (bit-identical gate values for any
/// batch size or shard count).
template <typename Act>
void GateForward(const Linear& gate, const float* xh, int b, int d, float* out,
                 Act act, ThreadPool* pool, int num_shards) {
  gate.ForwardInto(xh, b, out, pool, num_shards);
  for (size_t j = 0; j < static_cast<size_t>(b) * d; ++j) out[j] = act(out[j]);
}

float SigmoidScalar(float v) { return 1.0f / (1.0f + std::exp(-v)); }
float TanhScalar(float v) { return std::tanh(v); }

}  // namespace

GruEncoder::GruEncoder(const GruConfig& config)
    : config_(config), rng_(config.seed) {
  drop_seed_ = config.seed;
  Rng init_rng = rng_.Fork();
  token_emb_ = Embedding(config.vocab_size, config.dim, &init_rng);
  wz_ = Linear(2 * config.dim, config.dim, &init_rng);
  wr_ = Linear(2 * config.dim, config.dim, &init_rng);
  wh_ = Linear(2 * config.dim, config.dim, &init_rng);
}

std::shared_ptr<ts::DeferredGradTape> GruEncoder::MakeGateTape() const {
  // Single source of truth for the gate order on the deferred tape: the
  // indices LinearDeferred is called with (kZ/kR/kH) must match this
  // push_back order in BOTH training paths, or deferred weight grads
  // would silently mis-route in one of them.
  auto tape = std::make_shared<ts::DeferredGradTape>();
  tape->gates.push_back({wz_.weight().impl(), wz_.bias().impl(), {}});  // kZ
  tape->gates.push_back({wr_.weight().impl(), wr_.bias().impl(), {}});  // kR
  tape->gates.push_back({wh_.weight().impl(), wh_.bias().impl(), {}});  // kH
  return tape;
}

Tensor GruEncoder::EncodeOne(const std::vector<int>& ids,
                             const augment::CutoffPlan* cutoff,
                             bool training, const TrainStream& stream,
                             int row) {
  // TruncateOrPad is the packing rule: truncation plus the empty-row ->
  // single-[PAD] substitution, shared with the batched path.
  std::vector<int> trunc =
      TruncateOrPad(ids, config_.max_len, config_.pad_id);
  Tensor emb = token_emb_.Forward(trunc);  // [T, dim]
  if (cutoff != nullptr) emb = ApplyCutoff(emb, *cutoff);
  emb = ts::DropoutAt(emb, config_.dropout,
                      {TrainDropKey(stream, static_cast<uint64_t>(row), 0)},
                      config_.max_len, training);

  // Gate projections run through the deferred tape so weight/bias grads
  // replay in ascending (row, step) order - the same canonical sequence
  // the lockstep batched path uses, which is what makes the two
  // bit-identical (plain autograd would accumulate this row's steps in
  // *reverse* step order during the sweep).
  auto tape = MakeGateTape();
  Tensor h = ts::AnchorDeferred(Tensor::Zeros(1, config_.dim), tape);
  const int t_len = emb.rows();
  for (int t = 0; t < t_len; ++t) {
    Tensor xt = ts::SliceRows(emb, t, 1);
    Tensor xh = ts::ConcatCols({xt, h});
    Tensor z = ts::Sigmoid(
        ts::LinearDeferred(xh, wz_.weight(), wz_.bias(), tape, kZ));
    Tensor r = ts::Sigmoid(
        ts::LinearDeferred(xh, wr_.weight(), wr_.bias(), tape, kR));
    Tensor xrh = ts::ConcatCols({xt, ts::Mul(r, h)});
    Tensor cand = ts::Tanh(
        ts::LinearDeferred(xrh, wh_.weight(), wh_.bias(), tape, kH));
    // h = (1 - z) * h + z * cand
    Tensor one = Tensor::Constant(1, config_.dim, 1.0f);
    h = ts::Add(ts::Mul(ts::Sub(one, z), h), ts::Mul(z, cand));
  }
  return h;
}

Tensor GruEncoder::EncodeBatchTraining(
    const std::vector<std::vector<int>>& batch,
    const augment::CutoffPlan* cutoff, const TrainStream& stream) {
  const int d = config_.dim;
  ThreadPool* pool = TrainPool();
  const int shards = train_num_threads_;
  const auto buckets = PackBatches(
      batch, MakeTrainPackOptions(config_.max_len, config_.pad_id));
  std::vector<Tensor> outs;
  outs.reserve(buckets.size());

  for (const PackedBucket& bucket : buckets) {
    const int b = bucket.rows(), t = bucket.t;
    Tensor emb = token_emb_.Forward(bucket.ids);  // [b*t, d], one gather
    if (cutoff != nullptr) {
      emb = ts::Mul(emb, PackedCutoffMask(*cutoff, bucket, d));
    }
    std::vector<uint64_t> keys(static_cast<size_t>(b));
    for (int i = 0; i < b; ++i) {
      keys[static_cast<size_t>(i)] = TrainDropKey(
          stream,
          static_cast<uint64_t>(bucket.row_index[static_cast<size_t>(i)]), 0);
    }
    emb = ts::DropoutAt(emb, config_.dropout, keys, t, /*training=*/true);

    auto tape = MakeGateTape();
    Tensor h = ts::AnchorDeferred(Tensor::Zeros(b, d), tape);
    Tensor one = Tensor::Constant(b, d, 1.0f);
    for (int step = 0; step < t; ++step) {
      std::vector<int> step_rows(static_cast<size_t>(b));
      for (int i = 0; i < b; ++i) {
        step_rows[static_cast<size_t>(i)] = i * t + step;
      }
      Tensor xt = ts::GatherRows(emb, step_rows);  // [b, d] lockstep inputs
      Tensor xh = ts::ConcatCols({xt, h});
      Tensor z = ts::Sigmoid(
          ts::LinearDeferred(xh, wz_.weight(), wz_.bias(), tape, kZ, pool,
                             shards));
      Tensor r = ts::Sigmoid(
          ts::LinearDeferred(xh, wr_.weight(), wr_.bias(), tape, kR, pool,
                             shards));
      Tensor xrh = ts::ConcatCols({xt, ts::Mul(r, h)});
      Tensor cand = ts::Tanh(
          ts::LinearDeferred(xrh, wh_.weight(), wh_.bias(), tape, kH, pool,
                             shards));
      Tensor upd = ts::Add(ts::Mul(ts::Sub(one, z), h), ts::Mul(z, cand));
      // Finished rows freeze: an exact row copy, so a frozen step is
      // bit-identical (values and gradient routing) to not stepping at
      // all. Skipped entirely when every row is still active - then the
      // graph is the same shape as the per-row loop's.
      std::vector<int> active(static_cast<size_t>(b));
      bool all_active = true;
      for (int i = 0; i < b; ++i) {
        active[static_cast<size_t>(i)] =
            step < bucket.lengths[static_cast<size_t>(i)] ? 1 : 0;
        all_active = all_active && active[static_cast<size_t>(i)];
      }
      h = all_active ? upd : ts::WhereRows(active, upd, h);
    }
    outs.push_back(h);  // [b, d], bucket rows in ascending original order
  }
  return ts::JoinRows(outs);
}

void GruEncoder::EncodeInferenceImpl(
    const std::vector<std::vector<int>>& batch, float* out) {
  const int d = config_.dim;
  const float* table = token_emb_.table().data();
  ThreadPool* pool = InferencePool();
  const int n_buckets = PackBatchesInto(
      batch, MakePackOptions(config_.max_len, config_.pad_id),
      &pack_scratch_);

  ts::Workspace& ws = ts::Workspace::ThreadLocal();
  for (int bi = 0; bi < n_buckets; ++bi) {
    const PackedBucket& bucket = pack_scratch_.bucket(bi);
    const int b = bucket.rows(), t = bucket.t;
    ts::Workspace::Frame frame(ws);
    float* h = ws.Floats(static_cast<size_t>(b) * d);
    std::fill(h, h + static_cast<size_t>(b) * d, 0.0f);
    float* xh = ws.Floats(static_cast<size_t>(b) * 2 * d);
    float* z = ws.Floats(static_cast<size_t>(b) * d);
    float* r = ws.Floats(static_cast<size_t>(b) * d);
    float* cand = ws.Floats(static_cast<size_t>(b) * d);
    for (int step = 0; step < t; ++step) {
      // Every row steps, including finished ones (their padded inputs
      // produce finite garbage gates); the masked update below freezes
      // finished rows, so active rows see exactly the per-row recurrence.
      for (int i = 0; i < b; ++i) {
        const int id = bucket.ids[static_cast<size_t>(i) * t + step];
        SUDO_CHECK(id >= 0 && id < token_emb_.vocab_size());
        const float* xt = table + static_cast<size_t>(id) * d;
        float* xh_row = xh + static_cast<size_t>(i) * 2 * d;
        std::copy(xt, xt + d, xh_row);
        std::copy(h + static_cast<size_t>(i) * d,
                  h + static_cast<size_t>(i + 1) * d, xh_row + d);
      }
      GateForward(wz_, xh, b, d, z, SigmoidScalar, pool, num_threads_);
      GateForward(wr_, xh, b, d, r, SigmoidScalar, pool, num_threads_);
      // Candidate input is [x_t, r * h].
      for (int i = 0; i < b; ++i) {
        float* xh_row = xh + static_cast<size_t>(i) * 2 * d;
        const float* r_row = r + static_cast<size_t>(i) * d;
        const float* h_row = h + static_cast<size_t>(i) * d;
        for (int j = 0; j < d; ++j) xh_row[d + j] = r_row[j] * h_row[j];
      }
      GateForward(wh_, xh, b, d, cand, TanhScalar, pool, num_threads_);
      for (int i = 0; i < b; ++i) {
        if (step >= bucket.lengths[static_cast<size_t>(i)]) continue;
        float* h_row = h + static_cast<size_t>(i) * d;
        const float* z_row = z + static_cast<size_t>(i) * d;
        const float* c_row = cand + static_cast<size_t>(i) * d;
        for (int j = 0; j < d; ++j) {
          h_row[j] = (1.0f - z_row[j]) * h_row[j] + z_row[j] * c_row[j];
        }
      }
    }
    ScatterPackedRows(h, d, bucket.row_index, out);
  }
}

Tensor GruEncoder::EncodeBatchImpl(const std::vector<std::vector<int>>& batch,
                                   const augment::CutoffPlan* cutoff,
                                   bool training) {
  const TrainStream stream = training ? NextTrainStream() : TrainStream{};
  if (training && batched_training_) {
    return EncodeBatchTraining(batch, cutoff, stream);
  }
  std::vector<Tensor> pooled =
      EncodeRows(batch.size(), training, [&](size_t i) {
        return EncodeOne(batch[i], cutoff, training, stream,
                         static_cast<int>(i));
      });
  // Training joins with ascending-backward order (see tensor::JoinRows).
  return training ? ts::JoinRows(pooled) : ts::ConcatRows(pooled);
}

std::vector<Tensor> GruEncoder::Parameters() const {
  std::vector<Tensor> out = token_emb_.Parameters();
  AppendParameters(&out, wz_.Parameters());
  AppendParameters(&out, wr_.Parameters());
  AppendParameters(&out, wh_.Parameters());
  return out;
}

}  // namespace sudowoodo::nn
