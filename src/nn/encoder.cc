#include "nn/encoder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/parallel.h"
#include "common/thread_pool.h"
#include "index/embedding_cache.h"
#include "tensor/kernels.h"
#include "tensor/workspace.h"

namespace sudowoodo::nn {

namespace ts = sudowoodo::tensor;
namespace ks = sudowoodo::tensor::kernels;

Tensor Encoder::EncodeBatch(const std::vector<std::vector<int>>& batch,
                            const augment::CutoffPlan* cutoff,
                            bool training) {
  SUDO_CHECK(!batch.empty());
  if (training || ts::GradEnabled()) {
    // An optimizer step usually follows a training-mode encode, so any
    // cached vectors may describe stale weights; the next serving call
    // re-encodes from scratch (see set_embedding_cache).
    cache_dirty_ = true;
    return EncodeBatchImpl(batch, cutoff, training);
  }
  if (cutoff != nullptr) return EncodeBatchImpl(batch, cutoff, training);
  Tensor out = Tensor::Zeros(static_cast<int>(batch.size()), dim());
  EncodeInference(batch, out.data());
  return out;
}

void Encoder::EncodeInference(const std::vector<std::vector<int>>& batch,
                              float* out) {
  if (batch.empty()) return;
  ts::NoGradGuard ng;  // cheap (thread-local counter), guards direct calls
  if (cache_ == nullptr || cache_->capacity() == 0) {
    EncodeInferenceImpl(batch, out);
    return;
  }
  if (cache_dirty_) {
    cache_->Clear();
    cache_dirty_ = false;
  }
  const int d = dim();
  miss_rows_.clear();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!cache_->Lookup(batch[i], out + i * static_cast<size_t>(d), d)) {
      miss_rows_.push_back(static_cast<int>(i));
    }
  }
  if (miss_rows_.empty()) return;
  // Dedupe the misses so a batch of repeats (cleaning's candidate pairs)
  // encodes each distinct sequence once. Encoding only the misses is safe
  // because every row's batched-inference value is independent of its
  // co-batch (the bit-identity contract of tests/batch_encode_test.cc).
  miss_batch_.clear();
  miss_slot_.clear();
  std::unordered_map<std::vector<int>, int, index::EmbeddingCache::IdsHash>
      slot_of;
  for (int r : miss_rows_) {
    const auto [it, fresh] = slot_of.try_emplace(
        batch[static_cast<size_t>(r)],
        static_cast<int>(miss_batch_.size()));
    if (fresh) miss_batch_.push_back(batch[static_cast<size_t>(r)]);
    miss_slot_.push_back(it->second);
  }
  miss_out_.resize(miss_batch_.size() * static_cast<size_t>(d));
  EncodeInferenceImpl(miss_batch_, miss_out_.data());
  for (size_t i = 0; i < miss_rows_.size(); ++i) {
    const float* src =
        miss_out_.data() + static_cast<size_t>(miss_slot_[i]) * d;
    std::copy(src, src + d,
              out + static_cast<size_t>(miss_rows_[i]) * d);
  }
  for (size_t u = 0; u < miss_batch_.size(); ++u) {
    cache_->Insert(miss_batch_[u], miss_out_.data() + u * d, d);
  }
}

ThreadPool* Encoder::InferencePool() const {
  if (num_threads_ <= 1) return nullptr;
  return pool_ != nullptr ? pool_ : &ThreadPool::Global();
}

ThreadPool* Encoder::TrainPool() const {
  if (train_num_threads_ <= 1) return nullptr;
  return pool_ != nullptr ? pool_ : &ThreadPool::Global();
}

PackOptions Encoder::MakePackOptions(int max_len, int pad_id) const {
  PackOptions opts;
  opts.max_len = max_len;
  opts.pad_id = pad_id;
  return opts;
}

PackOptions Encoder::MakeTrainPackOptions(int max_len, int pad_id) const {
  PackOptions opts = MakePackOptions(max_len, pad_id);
  opts.preserve_order = true;
  // Order-preserving cuts cannot sort by length, so a tolerant bound
  // would routinely pad a short row out to the batch max and burn the
  // saved GEMM time on garbage rows. 0.25 keeps buckets big enough to
  // amortize (a run of similar lengths stays together) while capping the
  // padded-slot overhead at a quarter of the id block.
  opts.max_padding_waste = 0.25f;
  return opts;
}

std::vector<Tensor> Encoder::EncodeRows(
    size_t n, bool training,
    const std::function<Tensor(size_t)>& encode_row) {
  std::vector<Tensor> rows(n);
  // Training fan-out: each worker builds a disjoint per-row subgraph.
  // Parents (parameter tensors) are only read; dropout masks are
  // counter-keyed by (row, position), not draw order; and the backward
  // sweep is ordered by graph structure, not construction time - so the
  // resulting graph is identical for any thread count. Workers keep the
  // tape ON (their thread-local default). One shard runs inline.
  const int shards = training && ts::GradEnabled() ? train_num_threads_ : 1;
  ParallelFor(
      static_cast<int64_t>(n), shards,
      [&](int64_t begin, int64_t end, int /*shard*/) {
        for (int64_t i = begin; i < end; ++i) {
          rows[static_cast<size_t>(i)] = encode_row(static_cast<size_t>(i));
        }
      },
      pool_);
  return rows;
}

void Encoder::EncodeNormalizedInto(const std::vector<std::vector<int>>& batch,
                                   float* out) {
  if (batch.empty()) return;
  ts::NoGradGuard ng;
  const int d = dim();
  EncodeInference(batch, out);
  // Same float chain as tensor::L2NormalizeRows' forward (kernel norm,
  // then ScaleAdd by 1/(norm + eps)), without the graph node.
  ts::Workspace& ws = ts::Workspace::ThreadLocal();
  ts::Workspace::Frame frame(ws);
  float* norms = ws.Floats(batch.size());
  ks::L2NormRows(static_cast<int>(batch.size()), d, out, norms);
  for (size_t i = 0; i < batch.size(); ++i) {
    const float inv = 1.0f / (norms[i] + 1e-9f);
    float* row = out + i * static_cast<size_t>(d);
    ks::ScaleAdd(d, inv, row, 0.0f, row);
  }
}

std::vector<std::vector<float>> Encoder::EmbedNormalized(
    const std::vector<std::vector<int>>& batch) {
  std::vector<std::vector<float>> out(batch.size());
  if (batch.empty()) return out;
  const int d = dim();
  std::vector<float> z(batch.size() * static_cast<size_t>(d));
  EncodeNormalizedInto(batch, z.data());
  for (size_t i = 0; i < batch.size(); ++i) {
    const float* row = z.data() + i * static_cast<size_t>(d);
    out[i].assign(row, row + d);
  }
  return out;
}

Tensor ApplyCutoff(const Tensor& emb, const augment::CutoffPlan& plan) {
  if (plan.kind == augment::CutoffKind::kNone) return emb;
  Tensor mask = Tensor::Constant(emb.rows(), emb.cols(), 1.0f);
  plan.ZeroCutEntries(emb.rows(), emb.cols(), mask.data());
  return ts::Mul(emb, mask);
}

Tensor PackedCutoffMask(const augment::CutoffPlan& plan,
                        const PackedBucket& bucket, int d) {
  const int b = bucket.rows(), t = bucket.t;
  Tensor mask = Tensor::Constant(b * t, d, 1.0f);
  for (int i = 0; i < b; ++i) {
    plan.ZeroCutEntries(bucket.lengths[static_cast<size_t>(i)], d,
                        mask.data() + static_cast<size_t>(i) * t * d);
  }
  return mask;
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim, int n_heads, Rng* rng)
    : n_heads_(n_heads),
      head_dim_(dim / n_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  SUDO_CHECK(dim % n_heads == 0);
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x) const {
  Tensor q = wq_.Forward(x);
  Tensor k = wk_.Forward(x);
  Tensor v = wv_.Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Tensor> heads;
  heads.reserve(static_cast<size_t>(n_heads_));
  for (int h = 0; h < n_heads_; ++h) {
    Tensor qh = ts::SliceCols(q, h * head_dim_, head_dim_);
    Tensor kh = ts::SliceCols(k, h * head_dim_, head_dim_);
    Tensor vh = ts::SliceCols(v, h * head_dim_, head_dim_);
    Tensor scores = ts::Scale(ts::MatMulBT(qh, kh), scale);
    Tensor attn = ts::RowSoftmax(scores);
    heads.push_back(ts::MatMul(attn, vh));
  }
  return wo_.Forward(ts::ConcatCols(heads));
}

void MultiHeadSelfAttention::ForwardPackedInto(
    const float* x, int b, int t, const std::vector<int>& lengths, int q_rows,
    ThreadPool* pool, int num_shards, float* out) const {
  SUDO_CHECK(!ts::GradEnabled());
  SUDO_CHECK(b > 0 && t > 0 && q_rows > 0 && q_rows <= t);
  SUDO_CHECK(static_cast<int>(lengths.size()) == b);
  const int dim = n_heads_ * head_dim_;
  const int hd = head_dim_;
  const size_t bt = static_cast<size_t>(b) * t;
  const size_t bq = static_cast<size_t>(b) * q_rows;
  ts::Workspace& ws = ts::Workspace::ThreadLocal();
  ts::Workspace::Frame frame(ws);
  // The projections are where the batch pays off: one GEMM each instead
  // of b separate ones, row-sharded over the pool. K and V need every
  // row; Q only the first q_rows of each block, gathered into a compact
  // [b*q_rows, dim] block (each GEMM element is one k-increasing chain
  // whatever m is, so the gathered rows keep their bits).
  const float* xq = x;
  if (q_rows < t) {
    float* gathered = ws.Floats(bq * dim);
    for (int s = 0; s < b; ++s) {
      const float* src = x + static_cast<size_t>(s) * t * dim;
      std::copy(src, src + static_cast<size_t>(q_rows) * dim,
                gathered + static_cast<size_t>(s) * q_rows * dim);
    }
    xq = gathered;
  }
  float* q = ws.Floats(bq * dim);
  float* k = ws.Floats(bt * dim);
  float* v = ws.Floats(bt * dim);
  wq_.ForwardInto(xq, b * q_rows, q, pool, num_shards);
  wk_.ForwardInto(x, b * t, k, pool, num_shards);
  wv_.ForwardInto(x, b * t, v, pool, num_shards);
  // Padding firewall: zero the K/V rows past each block's valid prefix.
  // Those rows are projections of the padded residual-stream rows -
  // garbage that the layer stack could in principle amplify to Inf/NaN -
  // and the value GEMM multiplies them by the exact-zero weights the
  // masked softmax writes. A 0-weight times a zeroed row contributes an
  // exact 0 under every dispatch tier, where a 0-weight times an Inf/NaN
  // row would give NaN (no GEMM tier skips zero operands). The q rows
  // need no zeroing: only the valid prefix is ever read.
  for (int s = 0; s < b; ++s) {
    const int len = lengths[static_cast<size_t>(s)];
    if (len >= t) continue;
    const size_t pad_begin = (static_cast<size_t>(s) * t + len) * dim;
    const size_t pad_end = static_cast<size_t>(s + 1) * t * dim;
    std::fill(k + pad_begin, k + pad_end, 0.0f);
    std::fill(v + pad_begin, v + pad_end, 0.0f);
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // Score matrices are per sequence; fan them out across the pool, each
  // sequence writing only its own disjoint slot of the output-projection
  // input and carving head-sized scratch from its worker's thread-local
  // workspace. Only the valid query rows are computed ([nq, t] scores
  // with nq = min(len, q_rows), not [t, t]); the other rows of each
  // block stay exact zero, which bounds the padding overhead (wo_ still
  // projects them, but 0-rows produce bias-only outputs that are never
  // copied out).
  float* attn_in = ws.Floats(bq * dim);
  std::fill(attn_in, attn_in + bq * dim, 0.0f);
  auto encode_range = [&](int64_t begin, int64_t end, int /*shard*/) {
    ts::NoGradGuard ng;  // GradEnabled() is thread-local; workers re-disable.
    ts::Workspace& wws = ts::Workspace::ThreadLocal();
    ts::Workspace::Frame wframe(wws);
    float* qh = wws.Floats(static_cast<size_t>(q_rows) * hd);
    float* kh = wws.Floats(static_cast<size_t>(t) * hd);
    float* vh = wws.Floats(static_cast<size_t>(t) * hd);
    float* scores = wws.Floats(static_cast<size_t>(q_rows) * t);
    float* head_out = wws.Floats(static_cast<size_t>(q_rows) * hd);
    int* valid = wws.Ints(static_cast<size_t>(q_rows));
    for (int64_t s = begin; s < end; ++s) {
      const int len = lengths[static_cast<size_t>(s)];
      const int nq = std::min(len, q_rows);
      const size_t base = static_cast<size_t>(s) * t;
      const size_t qbase = static_cast<size_t>(s) * q_rows;
      std::fill(valid, valid + nq, len);
      for (int h = 0; h < n_heads_; ++h) {
        // Contiguous per-head slices, the raw equivalent of the oracle's
        // SliceRows + SliceCols copies.
        const size_t col = static_cast<size_t>(h) * hd;
        for (int r = 0; r < t; ++r) {
          const size_t row = (base + r) * dim + col;
          std::copy(k + row, k + row + hd, kh + static_cast<size_t>(r) * hd);
          std::copy(v + row, v + row + hd, vh + static_cast<size_t>(r) * hd);
        }
        for (int r = 0; r < nq; ++r) {
          const size_t row = (qbase + r) * dim + col;
          std::copy(q + row, q + row + hd, qh + static_cast<size_t>(r) * hd);
        }
        std::fill(scores, scores + static_cast<size_t>(nq) * t, 0.0f);
        ks::GemmBT(nq, t, hd, qh, kh, scores);
        for (size_t i = 0; i < static_cast<size_t>(nq) * t; ++i) {
          scores[i] *= scale;
        }
        // Padded key columns get exact-0 weight, and the padded value
        // rows were zeroed after projection, so the value GEMM adds
        // exact zeros for them in every dispatch tier.
        ks::RowSoftmaxMasked(nq, t, scores, valid, scores);
        std::fill(head_out, head_out + static_cast<size_t>(nq) * hd, 0.0f);
        ks::Gemm(nq, hd, t, scores, vh, head_out);
        for (int r = 0; r < nq; ++r) {
          std::copy(head_out + static_cast<size_t>(r) * hd,
                    head_out + static_cast<size_t>(r + 1) * hd,
                    attn_in + (qbase + r) * dim + col);
        }
      }
    }
  };
  ParallelFor(b, num_shards, encode_range, pool);
  wo_.ForwardInto(attn_in, b * q_rows, out, pool, num_shards);
}

Tensor MultiHeadSelfAttention::ForwardPackedTrain(
    const Tensor& x, int t, const std::vector<int>& lengths, ThreadPool* pool,
    int num_shards) const {
  SUDO_CHECK(t > 0 && x.rows() % t == 0);
  const int b = x.rows() / t;
  SUDO_CHECK(static_cast<int>(lengths.size()) == b);
  // Whole-block projections: one graph GEMM each, forward and backward
  // row-sharded. Padded rows carry finite garbage forward; their q rows
  // are never sliced, so their gradients stay exact zero and the weight
  // gradient GEMMs (contraction rows walked upward, one += per term) see
  // the same nonzero term sequence as the per-row path.
  Tensor q = wq_.Forward(x, pool, num_shards);
  Tensor k = wk_.Forward(x, pool, num_shards);
  Tensor v = wv_.Forward(x, pool, num_shards);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // Per-sequence score subgraphs. Workers build disjoint subgraphs over
  // the shared (read-only) q/k/v parents; the backward sweep is ordered
  // by structure, so construction order is irrelevant. Each sequence's
  // gradient lands in its own disjoint row range of q/k/v.
  std::vector<Tensor> merged(static_cast<size_t>(b));
  auto build_seq = [&](int64_t begin, int64_t end, int /*shard*/) {
    for (int64_t s = begin; s < end; ++s) {
      const int len = lengths[static_cast<size_t>(s)];
      Tensor qs = ts::SliceRows(q, static_cast<int>(s) * t, len);
      Tensor ks_ = ts::SliceRows(k, static_cast<int>(s) * t, t);
      Tensor vs = ts::SliceRows(v, static_cast<int>(s) * t, t);
      const std::vector<int> valid(static_cast<size_t>(len), len);
      std::vector<Tensor> heads;
      heads.reserve(static_cast<size_t>(n_heads_));
      for (int h = 0; h < n_heads_; ++h) {
        Tensor qh = ts::SliceCols(qs, h * head_dim_, head_dim_);
        Tensor kh = ts::SliceCols(ks_, h * head_dim_, head_dim_);
        Tensor vh = ts::SliceCols(vs, h * head_dim_, head_dim_);
        Tensor scores = ts::Scale(ts::MatMulBT(qh, kh), scale);
        // Masked softmax: padded key columns are exact 0 forward and get
        // no gradient; the valid prefix (and its backward y·gy reduction)
        // is bit-identical to the per-row RowSoftmax.
        Tensor attn = ts::RowSoftmaxMasked(scores, valid);
        // The padded value rows are finite and meet exact-0 weights, so
        // they add exact zeros to the value GEMM, forward and backward.
        heads.push_back(ts::MatMul(attn, vh));
      }
      merged[static_cast<size_t>(s)] = ts::ConcatCols(heads);  // [len, dim]
    }
  };
  ParallelFor(b, num_shards, build_seq, pool);
  // Exact-zero padding between blocks keeps wo's GEMM (and its backward)
  // blind to padded rows.
  Tensor attn_in = ts::PadPackRows(merged, t);
  return wo_.Forward(attn_in, pool, num_shards);
}

std::vector<Tensor> MultiHeadSelfAttention::Parameters() const {
  std::vector<Tensor> out = wq_.Parameters();
  AppendParameters(&out, wk_.Parameters());
  AppendParameters(&out, wv_.Parameters());
  AppendParameters(&out, wo_.Parameters());
  return out;
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config)
    : config_(config), rng_(config.seed), final_ln_(config.dim) {
  drop_seed_ = config.seed;
  Rng init_rng = rng_.Fork();
  token_emb_ = Embedding(config.vocab_size, config.dim, &init_rng);
  pos_emb_ = Embedding(config.max_len, config.dim, &init_rng);
  layers_.reserve(static_cast<size_t>(config.n_layers));
  for (int i = 0; i < config.n_layers; ++i) {
    Layer layer;
    layer.ln1 = LayerNorm(config.dim);
    layer.ln2 = LayerNorm(config.dim);
    layer.attn = MultiHeadSelfAttention(config.dim, config.n_heads, &init_rng);
    layer.ffn = Mlp(config.dim, config.ffn_dim, config.dim, &init_rng);
    layers_.push_back(std::move(layer));
  }
}

Tensor TransformerEncoder::EncodeOne(const std::vector<int>& ids,
                                     const augment::CutoffPlan* cutoff,
                                     bool training, const TrainStream& stream,
                                     int row) {
  std::vector<int> trunc =
      TruncateOrPad(ids, config_.max_len, config_.pad_id);
  std::vector<int> pos(trunc.size());
  for (size_t i = 0; i < pos.size(); ++i) pos[i] = static_cast<int>(i);

  // Dropout masks are keyed by (row, site) and counted by (position,
  // channel); rows_per_key only needs to cover this row, so max_len works
  // for any bucket width the batched path might pick.
  const uint64_t r = static_cast<uint64_t>(row);
  Tensor x = ts::Add(token_emb_.Forward(trunc), pos_emb_.Forward(pos));
  if (cutoff != nullptr) x = ApplyCutoff(x, *cutoff);
  x = ts::DropoutAt(x, config_.dropout, {TrainDropKey(stream, r, 0)},
                    config_.max_len, training);

  uint64_t site = 1;
  for (const Layer& layer : layers_) {
    Tensor attn_out = layer.attn.Forward(layer.ln1.Forward(x));
    x = ts::Add(x, ts::DropoutAt(attn_out, config_.dropout,
                                 {TrainDropKey(stream, r, site++)},
                                 config_.max_len, training));
    Tensor ffn_out = layer.ffn.Forward(layer.ln2.Forward(x));
    x = ts::Add(x, ts::DropoutAt(ffn_out, config_.dropout,
                                 {TrainDropKey(stream, r, site++)},
                                 config_.max_len, training));
  }
  x = final_ln_.Forward(x);
  return ts::SliceRows(x, 0, 1);  // [CLS] pooling
}

Tensor TransformerEncoder::EncodeBatchImpl(
    const std::vector<std::vector<int>>& batch,
    const augment::CutoffPlan* cutoff, bool training) {
  const TrainStream stream = training ? NextTrainStream() : TrainStream{};
  if (training && batched_training_) {
    return EncodeBatchTraining(batch, cutoff, stream);
  }
  std::vector<Tensor> pooled =
      EncodeRows(batch.size(), training, [&](size_t i) {
        return EncodeOne(batch[i], cutoff, training, stream,
                         static_cast<int>(i));
      });
  // Training joins with ascending-backward order so cross-row parameter
  // gradients accumulate row-major - the batched path's order.
  return training ? ts::JoinRows(pooled) : ts::ConcatRows(pooled);
}

void TransformerEncoder::EncodeBucketInto(const PackedBucket& bucket,
                                          float* out) {
  const int b = bucket.rows(), t = bucket.t, d = config_.dim;
  ThreadPool* pool = InferencePool();
  const int shards = num_threads_;
  const size_t bt = static_cast<size_t>(b) * t;
  ts::Workspace& ws = ts::Workspace::ThreadLocal();
  ts::Workspace::Frame frame(ws);

  // One [b*t, dim] residual stream for the whole bucket, carved from the
  // workspace. Padded rows hold the pad-token embedding and stay finite
  // but meaningless; they never feed a valid row (attention masks them,
  // everything else is row-local).
  float* x = ws.Floats(bt * d);
  const float* tok = token_emb_.table().data();
  const float* pos = pos_emb_.table().data();
  for (size_t r = 0; r < bt; ++r) {
    const int id = bucket.ids[r];
    SUDO_CHECK(id >= 0 && id < token_emb_.vocab_size());
    const float* trow = tok + static_cast<size_t>(id) * d;
    const float* prow = pos + (r % t) * d;
    float* xr = x + r * d;
    for (int j = 0; j < d; ++j) xr[j] = trow[j] + prow[j];
  }

  // [CLS] pooling reads row 0 of each block, so the last layer needs
  // every row only as attention keys and values: it runs LayerNorm 1 and
  // the K/V projections on all rows, and everything else - query,
  // attention, output projection, residuals, LayerNorm 2, FFN and the
  // final LayerNorm - on row 0 of each block alone. `rows` is the number
  // of residual rows kept per block: t, then 1 after the last layer.
  float* ln = ws.Floats(bt * d);
  float* attn_out = ws.Floats(bt * d);
  float* ffn_hidden = ws.Floats(bt * static_cast<size_t>(config_.ffn_dim));
  float* ffn_out = ws.Floats(bt * d);
  int rows = t;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const int q_rows = l + 1 == layers_.size() ? 1 : t;
    layer.ln1.ForwardInto(x, b * t, ln);
    layer.attn.ForwardPackedInto(ln, b, t, bucket.lengths, q_rows, pool,
                                 shards, attn_out);
    if (q_rows < rows) {
      // Compact the residual stream to row 0 of each block: row s*t
      // moves down to row s, below every row still to be read.
      for (int s = 1; s < b; ++s) {
        const float* src = x + static_cast<size_t>(s) * t * d;
        std::copy(src, src + d, x + static_cast<size_t>(s) * d);
      }
      rows = q_rows;
    }
    const int m = b * rows;
    const size_t md = static_cast<size_t>(m) * d;
    for (size_t i = 0; i < md; ++i) x[i] = x[i] + attn_out[i];
    layer.ln2.ForwardInto(x, m, ln);
    layer.ffn.fc1().ForwardInto(ln, m, ffn_hidden, pool, shards);
    ks::GeluForward(m * config_.ffn_dim, ffn_hidden, ffn_hidden);
    layer.ffn.fc2().ForwardInto(ffn_hidden, m, ffn_out, pool, shards);
    for (size_t i = 0; i < md; ++i) x[i] = x[i] + ffn_out[i];
  }
  final_ln_.ForwardInto(x, b * rows, ln);

  // [CLS] pooling: row 0 of each block, scattered to batch order.
  for (int i = 0; i < b; ++i) {
    const float* cls = ln + static_cast<size_t>(i) * rows * d;
    float* dst =
        out +
        static_cast<size_t>(bucket.row_index[static_cast<size_t>(i)]) * d;
    std::copy(cls, cls + d, dst);
  }
}

void TransformerEncoder::EncodeInferenceImpl(
    const std::vector<std::vector<int>>& batch, float* out) {
  const int n_buckets = PackBatchesInto(
      batch, MakePackOptions(config_.max_len, config_.pad_id),
      &pack_scratch_);
  for (int i = 0; i < n_buckets; ++i) {
    EncodeBucketInto(pack_scratch_.bucket(i), out);
  }
}

Tensor TransformerEncoder::EncodeBucketTrain(const PackedBucket& bucket,
                                             const augment::CutoffPlan* cutoff,
                                             const TrainStream& stream) {
  const int b = bucket.rows(), t = bucket.t;
  ThreadPool* pool = TrainPool();
  const int shards = train_num_threads_;

  // Per-block dropout keys for one site, derived from *original* row ids.
  auto site_keys = [&](uint64_t site) {
    std::vector<uint64_t> keys(static_cast<size_t>(b));
    for (int i = 0; i < b; ++i) {
      keys[static_cast<size_t>(i)] = TrainDropKey(
          stream, static_cast<uint64_t>(bucket.row_index[static_cast<size_t>(i)]),
          site);
    }
    return keys;
  };

  std::vector<int> pos(bucket.ids.size());
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < t; ++j) pos[static_cast<size_t>(i) * t + j] = j;
  }
  Tensor x = ts::Add(token_emb_.Forward(bucket.ids), pos_emb_.Forward(pos));
  if (cutoff != nullptr) {
    x = ts::Mul(x, PackedCutoffMask(*cutoff, bucket, config_.dim));
  }
  x = ts::DropoutAt(x, config_.dropout, site_keys(0), t, /*training=*/true);

  uint64_t site = 1;
  for (const Layer& layer : layers_) {
    Tensor attn_out = layer.attn.ForwardPackedTrain(
        layer.ln1.Forward(x), t, bucket.lengths, pool, shards);
    x = ts::Add(x, ts::DropoutAt(attn_out, config_.dropout, site_keys(site++),
                                 t, /*training=*/true));
    Tensor ffn_out = layer.ffn.Forward(layer.ln2.Forward(x), pool, shards);
    x = ts::Add(x, ts::DropoutAt(ffn_out, config_.dropout, site_keys(site++),
                                 t, /*training=*/true));
  }
  x = final_ln_.Forward(x);

  // [CLS] pooling: row 0 of each padded block. GatherRows' backward adds
  // the pooled grads back into exactly those rows; every other (padded or
  // non-CLS) row keeps whatever gradient the layers routed to it.
  std::vector<int> cls_rows(static_cast<size_t>(b));
  for (int i = 0; i < b; ++i) cls_rows[static_cast<size_t>(i)] = i * t;
  return ts::GatherRows(x, cls_rows);
}

Tensor TransformerEncoder::EncodeBatchTraining(
    const std::vector<std::vector<int>>& batch,
    const augment::CutoffPlan* cutoff, const TrainStream& stream) {
  const auto buckets = PackBatches(
      batch, MakeTrainPackOptions(config_.max_len, config_.pad_id));
  std::vector<Tensor> outs;
  outs.reserve(buckets.size());
  for (const PackedBucket& bucket : buckets) {
    outs.push_back(EncodeBucketTrain(bucket, cutoff, stream));
  }
  // Order-preserving buckets partition the batch contiguously, so the
  // ascending-backward join restores batch order *and* pins cross-bucket
  // parameter-gradient accumulation to ascending rows.
  return ts::JoinRows(outs);
}

std::vector<Tensor> TransformerEncoder::Parameters() const {
  std::vector<Tensor> out = token_emb_.Parameters();
  AppendParameters(&out, pos_emb_.Parameters());
  for (const Layer& layer : layers_) {
    AppendParameters(&out, layer.ln1.Parameters());
    AppendParameters(&out, layer.attn.Parameters());
    AppendParameters(&out, layer.ln2.Parameters());
    AppendParameters(&out, layer.ffn.Parameters());
  }
  AppendParameters(&out, final_ln_.Parameters());
  return out;
}

FastBagEncoder::FastBagEncoder(const FastBagConfig& config)
    : config_(config), rng_(config.seed), ln_(config.dim) {
  drop_seed_ = config.seed;
  Rng init_rng = rng_.Fork();
  token_emb_ = Embedding(config.vocab_size, config.dim, &init_rng);
  mlp_ = Mlp(4 * config.dim, config.hidden_dim, config.dim, &init_rng);
}

int FastBagEncoder::SegmentSplit(const int* ids, int len) const {
  for (int j = 0; j < len; ++j) {
    if (ids[j] == config_.sep_token_id) return j > 0 && j + 1 < len ? j : -1;
  }
  return -1;
}

Tensor FastBagEncoder::PoolOne(const std::vector<int>& ids,
                               const augment::CutoffPlan* cutoff) {
  std::vector<int> trunc =
      TruncateOrPad(ids, config_.max_len, config_.pad_id);
  Tensor emb = token_emb_.Forward(trunc);  // [T, dim]
  if (cutoff != nullptr) emb = ApplyCutoff(emb, *cutoff);

  auto mean_rows = [](const Tensor& m) {
    // [1, dim] column means via transpose + RowMean.
    return ts::Transpose(ts::RowMean(ts::Transpose(m)));
  };
  Tensor m1, m2;
  const int t_len = emb.rows();
  const int sep = SegmentSplit(trunc.data(), t_len);
  if (sep >= 0) {
    m1 = mean_rows(ts::SliceRows(emb, 0, sep));
    m2 = mean_rows(ts::SliceRows(emb, sep + 1, t_len - sep - 1));
  } else {
    m1 = mean_rows(emb);
    m2 = m1;
  }
  // Cross-segment interaction features (see the class comment).
  return ts::ConcatCols({m1, m2, ts::Abs(ts::Sub(m1, m2)), ts::Mul(m1, m2)});
}

int FastBagEncoder::FlattenRows(const std::vector<std::vector<int>>& batch,
                                int* ids, int* offsets, int* splits) const {
  int pos = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<int>& seq = batch[i];
    const int len = std::min(static_cast<int>(seq.size()), config_.max_len);
    offsets[i] = pos;
    if (len == 0) ids[pos] = config_.pad_id;  // TruncateOrPad's rule
    std::copy(seq.begin(), seq.begin() + len, ids + pos);
    const int n_ids = std::max(len, 1);
    for (int j = pos; j < pos + n_ids; ++j) {
      SUDO_CHECK(ids[j] >= 0 && ids[j] < token_emb_.vocab_size());
    }
    splits[i] = SegmentSplit(ids + pos, n_ids);
    pos += n_ids;
  }
  offsets[batch.size()] = pos;
  return pos;
}

void FastBagEncoder::EncodeInferenceImpl(
    const std::vector<std::vector<int>>& batch, float* out) {
  const int d = config_.dim;
  ThreadPool* pool = InferencePool();
  const int shards = num_threads_;
  const int n = static_cast<int>(batch.size());
  ts::Workspace& ws = ts::Workspace::ThreadLocal();
  ts::Workspace::Frame frame(ws);
  int* ids = ws.Ints(static_cast<size_t>(n) * config_.max_len);
  int* offsets = ws.Ints(static_cast<size_t>(n) + 1);
  int* splits = ws.Ints(static_cast<size_t>(n));
  FlattenRows(batch, ids, offsets, splits);
  float* feats = ws.Floats(static_cast<size_t>(n) * 4 * d);
  ks::BagPairFeatures(n, d, token_emb_.table().data(), ids, offsets, splits,
                      /*mask=*/nullptr, feats);
  // Raw tail, op for op the inference Tensor tail: residual on the mean
  // of the two segment means, plus the MLP's interaction corrections,
  // layer-normed straight into `out`.
  float* hidden = ws.Floats(static_cast<size_t>(n) * config_.hidden_dim);
  float* mlp_out = ws.Floats(static_cast<size_t>(n) * d);
  mlp_.fc1().ForwardInto(feats, n, hidden, pool, shards);
  ks::GeluForward(n * config_.hidden_dim, hidden, hidden);
  mlp_.fc2().ForwardInto(hidden, n, mlp_out, pool, shards);
  float* pre = ws.Floats(static_cast<size_t>(n) * d);
  for (int i = 0; i < n; ++i) {
    const float* f = feats + static_cast<size_t>(i) * 4 * d;
    float* p = pre + static_cast<size_t>(i) * d;
    for (int j = 0; j < d; ++j) p[j] = (f[j] + f[d + j]) * 0.5f;
  }
  for (size_t i = 0; i < static_cast<size_t>(n) * d; ++i) {
    pre[i] = pre[i] + mlp_out[i];
  }
  ln_.ForwardInto(pre, n, out);
}

Tensor FastBagEncoder::PoolBatchedTraining(
    const std::vector<std::vector<int>>& batch,
    const augment::CutoffPlan* cutoff) {
  const int d = config_.dim;
  const size_t n = batch.size();
  std::vector<int> ids(n * static_cast<size_t>(config_.max_len));
  std::vector<int> offsets(n + 1);
  std::vector<int> splits(n);
  ids.resize(static_cast<size_t>(
      FlattenRows(batch, ids.data(), offsets.data(), splits.data())));
  // A kNone plan multiplies by ones, which changes no bit: no mask.
  std::vector<float> mask;
  if (cutoff != nullptr && cutoff->kind != augment::CutoffKind::kNone) {
    mask.assign(ids.size() * static_cast<size_t>(d), 1.0f);
    for (size_t i = 0; i < n; ++i) {
      cutoff->ZeroCutEntries(offsets[i + 1] - offsets[i], d,
                             mask.data() + static_cast<size_t>(offsets[i]) * d);
    }
  }
  return ts::BagPairFeatures(token_emb_.table(), std::move(ids),
                             std::move(offsets), std::move(splits),
                             std::move(mask));
}

Tensor FastBagEncoder::EncodeBatchImpl(
    const std::vector<std::vector<int>>& batch,
    const augment::CutoffPlan* cutoff, bool training) {
  const TrainStream stream = training ? NextTrainStream() : TrainStream{};
  Tensor x;
  if (training && batched_training_) {
    x = PoolBatchedTraining(batch, cutoff);  // [B, 4*dim]
  } else {
    std::vector<Tensor> pooled =
        EncodeRows(batch.size(), training,
                   [&](size_t i) { return PoolOne(batch[i], cutoff); });
    // Training joins with ascending-backward order (see JoinRows).
    x = training ? ts::JoinRows(pooled) : ts::ConcatRows(pooled);
  }
  if (training) {
    std::vector<uint64_t> keys(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      keys[i] = TrainDropKey(stream, static_cast<uint64_t>(i), /*site=*/0);
    }
    x = ts::DropoutAt(x, config_.dropout, keys, /*rows_per_key=*/1, training);
  }
  // Residual on the mean of the two segment means keeps the informative
  // bag-of-embeddings signal flowing from step one; the MLP learns the
  // interaction corrections on top.
  const int d = config_.dim;
  ThreadPool* pool = training ? TrainPool() : InferencePool();
  const int shards = training ? train_num_threads_ : num_threads_;
  Tensor resid = ts::Scale(
      ts::Add(ts::SliceCols(x, 0, d), ts::SliceCols(x, d, d)), 0.5f);
  return ln_.Forward(ts::Add(resid, mlp_.Forward(x, pool, shards)));
}

std::vector<Tensor> FastBagEncoder::Parameters() const {
  std::vector<Tensor> out = token_emb_.Parameters();
  AppendParameters(&out, mlp_.Parameters());
  AppendParameters(&out, ln_.Parameters());
  return out;
}

}  // namespace sudowoodo::nn
