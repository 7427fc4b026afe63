// Batched-vs-per-row equivalence battery for the padded-pack inference
// encoding path (src/nn/batch_pack.h + the EncodeBatch batched routes).
//
// The contract under test: for every encoder kind and every batch size,
// the batched [B, T] route produces *bit-identical* pooled vectors to the
// oracle - the eval-mode graph route, which EncodeBatch takes with the
// autograd tape on and training off: per-row Tensor ops, the same graph
// training differentiates, sharing no packing, workspace or masking code
// with the batched route. This holds for the Transformer too - not just
// FastBag/GRU - because every reduction in the batched path (LayerNorm,
// masked softmax over the valid prefix, GEMM k-accumulation, masked
// mean-pool) is row-local and walks exactly the floating-point order of
// its per-row counterpart; no reduction order changes, so no tolerance is
// needed anywhere.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "augment/cutoff.h"
#include "common/rng.h"
#include "nn/batch_pack.h"
#include "nn/encoder.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "tensor/kernels.h"

namespace sudowoodo::nn {
namespace {

namespace ts = sudowoodo::tensor;
namespace ks = sudowoodo::tensor::kernels;

// Ragged batch with lengths from 1 to beyond max_len (to exercise
// truncation) and [SEP]=3 in roughly half the rows (to exercise the
// FastBag segment split).
std::vector<std::vector<int>> RaggedBatch(int n, int vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> batch(static_cast<size_t>(n));
  for (size_t i = 0; i < batch.size(); ++i) {
    const int len = 1 + rng.UniformInt(40);
    for (int t = 0; t < len; ++t) {
      batch[i].push_back(6 + rng.UniformInt(vocab - 6));
    }
    if (len >= 3 && rng.UniformInt(2) == 0) {
      batch[i][static_cast<size_t>(len / 2)] = 3;  // [SEP]
    }
  }
  return batch;
}

// Encodes `batch` twice with one encoder: the graph oracle (tape on),
// then the batched route (tape off, the serving front door).
std::pair<Tensor, Tensor> OracleAndBatched(
    Encoder* encoder, const std::vector<std::vector<int>>& batch) {
  Tensor want = encoder->EncodeBatch(batch, nullptr, /*training=*/false);
  ts::NoGradGuard ng;
  return {want, encoder->EncodeBatch(batch, nullptr, /*training=*/false)};
}

template <typename EncoderT, typename ConfigT>
void ExpectBatchedBitIdentical(const ConfigT& config, int batch_size,
                               uint64_t seed) {
  const auto batch = RaggedBatch(batch_size, config.vocab_size, seed);
  EncoderT encoder(config);
  ASSERT_TRUE(ts::GradEnabled());  // the oracle builds its graph
  const auto [want, got] = OracleAndBatched(&encoder, batch);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int i = 0; i < want.rows(); ++i) {
    for (int j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got.at(i, j), want.at(i, j))
          << "row " << i << " dim " << j << " B " << batch_size;
    }
  }
}

// The batched route computes only the [CLS] row in its last layer, so
// the inference batteries run 1 layer (where the last layer is also the
// first), 2 and 3.
constexpr int kLayerCounts[] = {1, 2, 3};

TransformerConfig SmallTransformer(int n_layers = 2) {
  TransformerConfig config;
  config.vocab_size = 200;
  config.max_len = 24;
  config.dim = 16;
  config.n_layers = n_layers;
  config.n_heads = 2;
  config.ffn_dim = 32;
  config.dropout = 0.1f;  // must be a no-op at inference either way
  return config;
}

FastBagConfig SmallBag() {
  FastBagConfig config;
  config.vocab_size = 200;
  config.max_len = 24;
  config.dim = 16;
  config.hidden_dim = 32;
  return config;
}

GruConfig SmallGru() {
  GruConfig config;
  config.vocab_size = 200;
  config.max_len = 24;
  config.dim = 12;
  return config;
}

// Padded slots must never leak into valid outputs, even when the data
// sitting in them is NaN/Inf - no GEMM tier skips zero operands, and a
// fused multiply-add turns 0 * NaN into NaN (see kernels.h). The worst
// realistic poison is the pad embedding itself: the batched residual
// stream carries a pad-row projection of it through every layer, so
// setting the [PAD] table row to NaN/Inf makes every padded slot
// non-finite from the first gather. The graph oracle never reads the
// pad row (no row in this batch is empty), so batched must still match
// it bitwise.
template <typename EncoderT, typename ConfigT>
void ExpectPoisonedPaddingHarmless(const ConfigT& config, float poison,
                                   uint64_t seed) {
  const auto batch = RaggedBatch(40, config.vocab_size, seed);
  EncoderT encoder(config);
  for (Tensor p : encoder.Parameters()) {
    if (p.rows() != config.vocab_size) continue;  // the token table
    for (int j = 0; j < p.cols(); ++j) p.data()[j] = poison;  // pad row 0
  }

  ASSERT_TRUE(ts::GradEnabled());  // the oracle builds its graph
  const auto [want, got] = OracleAndBatched(&encoder, batch);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int i = 0; i < want.rows(); ++i) {
    for (int j = 0; j < want.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(want.at(i, j))) << "oracle row " << i;
      ASSERT_EQ(got.at(i, j), want.at(i, j))
          << "row " << i << " dim " << j << " poison " << poison;
    }
  }
}

TEST(BatchEncodePaddingPoisonTest, TransformerSurvivesNaNAndInfPadding) {
  for (int layers : kLayerCounts) {
    SCOPED_TRACE(layers);
    ExpectPoisonedPaddingHarmless<TransformerEncoder>(
        SmallTransformer(layers), std::numeric_limits<float>::quiet_NaN(),
        301);
    ExpectPoisonedPaddingHarmless<TransformerEncoder>(
        SmallTransformer(layers), std::numeric_limits<float>::infinity(),
        302);
  }
}

TEST(BatchEncodePaddingPoisonTest, FastBagSurvivesNaNAndInfPadding) {
  ExpectPoisonedPaddingHarmless<FastBagEncoder>(
      SmallBag(), std::numeric_limits<float>::quiet_NaN(), 303);
  ExpectPoisonedPaddingHarmless<FastBagEncoder>(
      SmallBag(), std::numeric_limits<float>::infinity(), 304);
}

TEST(BatchEncodePaddingPoisonTest, GruSurvivesNaNAndInfPadding) {
  ExpectPoisonedPaddingHarmless<GruEncoder>(
      SmallGru(), std::numeric_limits<float>::quiet_NaN(), 305);
  ExpectPoisonedPaddingHarmless<GruEncoder>(
      SmallGru(), std::numeric_limits<float>::infinity(), 306);
}

TEST(BatchEncodeEquivalenceTest, TransformerBitIdenticalAcrossBatchSizes) {
  for (int layers : kLayerCounts) {
    SCOPED_TRACE(layers);
    for (int b : {1, 7, 64, 257}) {
      ExpectBatchedBitIdentical<TransformerEncoder>(SmallTransformer(layers),
                                                    b, 100 + b);
    }
  }
}

TEST(BatchEncodeEquivalenceTest, FastBagBitIdenticalAcrossBatchSizes) {
  for (int b : {1, 7, 64, 257}) {
    ExpectBatchedBitIdentical<FastBagEncoder>(SmallBag(), b, 300 + b);
  }
}

TEST(BatchEncodeEquivalenceTest, GruBitIdenticalAcrossBatchSizes) {
  for (int b : {1, 7, 64, 257}) {
    ExpectBatchedBitIdentical<GruEncoder>(SmallGru(), b, 500 + b);
  }
}

// --- batched training equivalence -------------------------------------------
//
// The training-mode counterpart of the battery above, and stricter: not
// just pooled values but every parameter gradient must be bit-identical
// between the batched padded-pack path and the per-row oracle
// (set_batched_training(false)). This is what makes full loss
// *trajectories* identical: any last-bit gradient difference would be
// amplified by the optimizer within a step or two. Dropout is active
// (counter-keyed masks) and a span-cutoff plan is applied to mimic the
// pretrainer's augmented view.
template <typename EncoderT, typename ConfigT>
void ExpectTrainingBitIdentical(const ConfigT& config, int batch_size,
                                bool with_cutoff, uint64_t seed) {
  const auto batch = RaggedBatch(batch_size, config.vocab_size, seed);
  augment::CutoffPlan plan;
  plan.kind = augment::CutoffKind::kSpan;
  plan.ratio = 0.2;
  plan.start_frac = 0.4;
  const augment::CutoffPlan* cutoff = with_cutoff ? &plan : nullptr;

  EncoderT per_row(config);
  per_row.set_batched_training(false);
  EncoderT batched(config);  // same seed => same weights & dropout keys

  Tensor want = per_row.EncodeBatch(batch, cutoff, /*training=*/true);
  Tensor got = batched.EncodeBatch(batch, cutoff, /*training=*/true);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i])
        << "value " << i << " B " << batch_size << " cutoff " << with_cutoff;
  }

  ts::Backward(ts::MeanAll(want));
  ts::Backward(ts::MeanAll(got));
  const auto pw = per_row.Parameters(), pg = batched.Parameters();
  ASSERT_EQ(pw.size(), pg.size());
  for (size_t p = 0; p < pw.size(); ++p) {
    for (size_t i = 0; i < pw[p].size(); ++i) {
      ASSERT_EQ(pg[p].grad()[i], pw[p].grad()[i])
          << "param " << p << " elem " << i << " B " << batch_size
          << " cutoff " << with_cutoff;
    }
  }
}

TEST(BatchEncodeEquivalenceTest, TransformerTrainingGradsBitIdentical) {
  for (int b : {1, 7, 33}) {
    ExpectTrainingBitIdentical<TransformerEncoder>(SmallTransformer(), b,
                                                   /*with_cutoff=*/false,
                                                   700 + b);
    ExpectTrainingBitIdentical<TransformerEncoder>(SmallTransformer(), b,
                                                   /*with_cutoff=*/true,
                                                   710 + b);
  }
}

TEST(BatchEncodeEquivalenceTest, FastBagTrainingGradsBitIdentical) {
  for (int b : {1, 7, 33}) {
    ExpectTrainingBitIdentical<FastBagEncoder>(SmallBag(), b,
                                               /*with_cutoff=*/false, 720 + b);
    ExpectTrainingBitIdentical<FastBagEncoder>(SmallBag(), b,
                                               /*with_cutoff=*/true, 730 + b);
  }
}

TEST(BatchEncodeEquivalenceTest, GruTrainingGradsBitIdentical) {
  for (int b : {1, 7, 33}) {
    ExpectTrainingBitIdentical<GruEncoder>(SmallGru(), b,
                                           /*with_cutoff=*/false, 740 + b);
    ExpectTrainingBitIdentical<GruEncoder>(SmallGru(), b,
                                           /*with_cutoff=*/true, 750 + b);
  }
}

TEST(BatchEncodeEquivalenceTest, BatchedPathThreadCountInvariant) {
  const auto batch = RaggedBatch(40, 200, 17);
  for (int layers : kLayerCounts) {
    TransformerEncoder serial(SmallTransformer(layers));
    const auto want = serial.EmbedNormalized(batch);
    for (int num_threads : {2, 4}) {
      TransformerEncoder threaded(SmallTransformer(layers));
      threaded.set_num_threads(num_threads);
      const auto got = threaded.EmbedNormalized(batch);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        for (size_t j = 0; j < want[i].size(); ++j) {
          ASSERT_EQ(got[i][j], want[i][j])
              << "layers " << layers << " num_threads " << num_threads;
        }
      }
    }
  }
}

// --- PackBatches ------------------------------------------------------------

TEST(PackBatchesTest, CoversEveryRowExactlyOnceAndTruncates) {
  const auto batch = RaggedBatch(100, 50, 3);
  PackOptions opts;
  opts.max_len = 16;
  const auto buckets = PackBatches(batch, opts);
  std::vector<int> seen(batch.size(), 0);
  for (const auto& bucket : buckets) {
    ASSERT_EQ(bucket.lengths.size(), bucket.row_index.size());
    ASSERT_EQ(bucket.ids.size(),
              static_cast<size_t>(bucket.rows()) * bucket.t);
    ASSERT_LE(bucket.t, opts.max_len);
    for (int i = 0; i < bucket.rows(); ++i) {
      const int row = bucket.row_index[static_cast<size_t>(i)];
      ++seen[static_cast<size_t>(row)];
      const int len = bucket.lengths[static_cast<size_t>(i)];
      ASSERT_GE(len, 1);
      ASSERT_LE(len, bucket.t);
      const int* ids = bucket.ids.data() + static_cast<size_t>(i) * bucket.t;
      // Valid prefix matches the (truncated) input; the tail is padding.
      for (int j = 0; j < len; ++j) {
        ASSERT_EQ(ids[j], batch[static_cast<size_t>(row)][static_cast<size_t>(j)]);
      }
      for (int j = len; j < bucket.t; ++j) ASSERT_EQ(ids[j], opts.pad_id);
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(PackBatchesTest, BucketingBoundsPaddingWaste) {
  const auto batch = RaggedBatch(300, 50, 9);
  PackOptions opts;
  opts.max_len = 48;
  const auto buckets = PackBatches(batch, opts);
  EXPECT_GT(buckets.size(), 1u);  // ragged lengths 1..40 must split
  for (const auto& bucket : buckets) {
    ASSERT_LE(bucket.rows(), opts.max_rows);
    int64_t tokens = 0;
    for (int len : bucket.lengths) tokens += len;
    const int64_t slots = static_cast<int64_t>(bucket.rows()) * bucket.t;
    const double waste =
        static_cast<double>(slots - tokens) / static_cast<double>(slots);
    // The greedy cut guarantees the bound except for a singleton bucket
    // (which has zero waste anyway since T = its only row's length).
    EXPECT_LE(waste, opts.max_padding_waste + 1e-9);
  }
}

TEST(PackBatchesTest, EmptySequencePacksAsSinglePadToken) {
  PackOptions opts;
  opts.max_len = 8;
  const auto buckets = PackBatches({{}, {7, 8, 9}}, opts);
  int total_rows = 0;
  for (const auto& bucket : buckets) {
    for (int i = 0; i < bucket.rows(); ++i) {
      ++total_rows;
      if (bucket.row_index[static_cast<size_t>(i)] == 0) {
        EXPECT_EQ(bucket.lengths[static_cast<size_t>(i)], 1);
        EXPECT_EQ(bucket.ids[static_cast<size_t>(i) * bucket.t], opts.pad_id);
      }
    }
  }
  EXPECT_EQ(total_rows, 2);
}

// --- masked kernels ---------------------------------------------------------

TEST(MaskedKernelsTest, RowSoftmaxMaskedPrefixMatchesUnmasked) {
  Rng rng(11);
  const int m = 5, n = 9;
  std::vector<float> x(static_cast<size_t>(m) * n);
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  std::vector<int> valid = {1, 4, 9, 6, 2};
  std::vector<float> y(x.size());
  ks::RowSoftmaxMasked(m, n, x.data(), valid.data(), y.data());
  for (int i = 0; i < m; ++i) {
    const int v = valid[static_cast<size_t>(i)];
    std::vector<float> want(static_cast<size_t>(v));
    ks::RowSoftmax(1, v, x.data() + static_cast<size_t>(i) * n, want.data());
    for (int j = 0; j < v; ++j) {
      EXPECT_EQ(y[static_cast<size_t>(i) * n + j], want[static_cast<size_t>(j)]);
    }
    for (int j = v; j < n; ++j) {
      EXPECT_EQ(y[static_cast<size_t>(i) * n + j], 0.0f);
    }
  }
}

TEST(MaskedKernelsTest, MaskedMeanPoolMatchesTransposedRowMean) {
  Rng rng(13);
  const int b = 3, t = 6, d = 4;
  std::vector<float> x(static_cast<size_t>(b) * t * d);
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  std::vector<int> lengths = {6, 1, 3};
  std::vector<float> out(static_cast<size_t>(b) * d);
  ks::MaskedMeanPool(b, t, d, x.data(), lengths.data(), out.data());
  for (int i = 0; i < b; ++i) {
    // The per-row FastBag path pools via Transpose + RowMean: a scalar
    // r-increasing chain per column. Replicate it exactly.
    const int len = lengths[static_cast<size_t>(i)];
    for (int j = 0; j < d; ++j) {
      float s = 0.0f;
      for (int r = 0; r < len; ++r) {
        s += x[(static_cast<size_t>(i) * t + r) * d + j];
      }
      EXPECT_EQ(out[static_cast<size_t>(i) * d + j], s / len);
    }
  }
}

}  // namespace
}  // namespace sudowoodo::nn
