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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
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
// (counter-keyed masks) and a cutoff plan mimics the pretrainer's
// augmented view.

// The cutoff plan of one training case; feature cutoff also names a
// column past SmallBag's 16, which must be skipped.
augment::CutoffPlan TestPlan(augment::CutoffKind kind) {
  augment::CutoffPlan plan;
  plan.kind = kind;
  plan.ratio = 0.2;
  plan.start_frac = 0.4;
  if (kind == augment::CutoffKind::kFeature) plan.feature_dims = {1, 5, 9, 40};
  return plan;
}

template <typename EncoderT, typename ConfigT>
void ExpectTrainingBitIdentical(const ConfigT& config,
                                const std::vector<std::vector<int>>& batch,
                                const augment::CutoffPlan* cutoff) {
  EncoderT per_row(config);
  per_row.set_batched_training(false);
  EncoderT batched(config);  // same seed => same weights & dropout keys

  Tensor want = per_row.EncodeBatch(batch, cutoff, /*training=*/true);
  Tensor got = batched.EncodeBatch(batch, cutoff, /*training=*/true);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i])
        << "value " << i << " B " << batch.size();
  }

  ts::Backward(ts::MeanAll(want));
  ts::Backward(ts::MeanAll(got));
  const auto pw = per_row.Parameters(), pg = batched.Parameters();
  ASSERT_EQ(pw.size(), pg.size());
  for (size_t p = 0; p < pw.size(); ++p) {
    for (size_t i = 0; i < pw[p].size(); ++i) {
      ASSERT_EQ(pg[p].grad()[i], pw[p].grad()[i])
          << "param " << p << " elem " << i << " B " << batch.size();
    }
  }
}

// No cutoff (batches seeded seed + b) and span cutoff (seed + 10 + b)
// over ragged batches of 1, 7 and 33 rows.
template <typename EncoderT, typename ConfigT>
void ExpectTrainingBitIdenticalBattery(const ConfigT& config, uint64_t seed) {
  const augment::CutoffPlan span = TestPlan(augment::CutoffKind::kSpan);
  for (int b : {1, 7, 33}) {
    SCOPED_TRACE(b);
    ExpectTrainingBitIdentical<EncoderT>(
        config, RaggedBatch(b, config.vocab_size, seed + b), nullptr);
    ExpectTrainingBitIdentical<EncoderT>(
        config, RaggedBatch(b, config.vocab_size, seed + 10 + b), &span);
  }
}

TEST(BatchEncodeEquivalenceTest, TransformerTrainingGradsBitIdentical) {
  ExpectTrainingBitIdenticalBattery<TransformerEncoder>(SmallTransformer(),
                                                        700);
}

TEST(BatchEncodeEquivalenceTest, FastBagTrainingGradsBitIdentical) {
  ExpectTrainingBitIdenticalBattery<FastBagEncoder>(SmallBag(), 720);
  // Every cutoff kind, over a batch that also holds an empty row (pooled
  // as one [PAD]) and a row of one id.
  for (int b : {1, 7, 33}) {
    auto batch = RaggedBatch(b, SmallBag().vocab_size, 760 + b);
    batch[static_cast<size_t>(b) / 2].clear();
    if (b > 1) batch[0] = {7};
    for (auto kind : {augment::CutoffKind::kNone, augment::CutoffKind::kToken,
                      augment::CutoffKind::kFeature,
                      augment::CutoffKind::kSpan}) {
      SCOPED_TRACE(static_cast<int>(kind));
      SCOPED_TRACE(b);
      const augment::CutoffPlan plan = TestPlan(kind);
      ExpectTrainingBitIdentical<FastBagEncoder>(SmallBag(), batch, &plan);
    }
  }
}

TEST(BatchEncodeEquivalenceTest, GruTrainingGradsBitIdentical) {
  ExpectTrainingBitIdenticalBattery<GruEncoder>(SmallGru(), 740);
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
  // The shared pooling kernel (kernels::BagPairFeatures) over ragged rows
  // of 6, 1 and 5 ids read from a table, the last split around position
  // 2, without and with a 0/1 mask. The per-row FastBag path pools via
  // Transpose + RowMean: a scalar r-increasing chain per column, then one
  // division. Replicate it exactly.
  Rng rng(13);
  const int vocab = 9, d = 4;
  std::vector<float> table(static_cast<size_t>(vocab) * d);
  for (auto& v : table) v = static_cast<float>(rng.Gaussian());
  const std::vector<int> ids = {1, 4, 4, 8, 0, 2, 5, 3, 6, 7, 6, 1};
  const std::vector<int> offsets = {0, 6, 7, 12};
  const std::vector<int> splits = {-1, -1, 2};
  std::vector<float> ones(ids.size() * d, 1.0f), mask(ids.size() * d);
  for (auto& v : mask) v = rng.UniformInt(2) == 0 ? 0.0f : 1.0f;
  for (const std::vector<float>* m : {&ones, &mask}) {
    std::vector<float> out(static_cast<size_t>(offsets.size() - 1) * 4 * d);
    ks::BagPairFeatures(static_cast<int>(splits.size()), d, table.data(),
                        ids.data(), offsets.data(), splits.data(),
                        m == &ones ? nullptr : m->data(), out.data());
    auto mean = [&](int r0, int r1, int j) {
      float s = 0.0f;
      for (int r = r0; r < r1; ++r) {
        s += table[static_cast<size_t>(ids[static_cast<size_t>(r)]) * d + j] *
             (*m)[static_cast<size_t>(r) * d + j];
      }
      return s / (r1 - r0);
    };
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      const int begin = offsets[i], end = offsets[i + 1], sp = splits[i];
      for (int j = 0; j < d; ++j) {
        const float m1 = mean(begin, sp < 0 ? end : begin + sp, j);
        const float m2 = sp < 0 ? m1 : mean(begin + sp + 1, end, j);
        const float* row = out.data() + i * 4 * d;
        EXPECT_EQ(row[j], m1);
        EXPECT_EQ(row[d + j], m2);
        EXPECT_EQ(row[2 * d + j], std::fabs(m1 - m2));
        EXPECT_EQ(row[3 * d + j], m1 * m2);
      }
    }
  }
}

// --- BagPairFeatures against the per-row chain ------------------------------
//
// tensor::BagPairFeatures is FastBag's whole batched training pooling in
// one node. It must give the bits of the per-row chain PoolOne builds,
// values and table gradients, for any values: the chain here is built
// from public ops in PoolOne's structure (GatherRows, Mul by the mask,
// SliceRows per segment, Transpose/RowMean/Transpose, Sub, Abs, Mul,
// ConcatCols) and joined with JoinRows. NaN positions are pinned but not
// NaN sign or payload: GCC treats + and * as commutative, so which
// operand's NaN survives an op is the compiler's choice on both sides.

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

bool SameBitsOrBothNaN(float a, float b) {
  return Bits(a) == Bits(b) || (std::isnan(a) && std::isnan(b));
}

// Mostly normal values, with one in five drawn from +-0, +-Inf, NaN and
// denormals.
float SpecialOrNormal(Rng* rng) {
  static const float kSpecial[] = {
      0.0f, -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -3.0f * std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min() / 4.0f};
  if (rng->UniformInt(5) == 0) {
    return kSpecial[rng->UniformInt(static_cast<int>(std::size(kSpecial)))];
  }
  return static_cast<float>(rng->Gaussian());
}

TEST(BagPairFeaturesTest, MatchesPerRowChainBitwise) {
  constexpr int kVocab = 12, kSep = 3, kPad = 0, kMaxLen = 6;
  // Segment shapes: whole rows, one-id rows and segments, a second
  // segment from r0 > 0 to the end, the last id alone, and rows with no
  // second segment.
  std::vector<std::vector<int>> raw = {
      {},                          // empty: one [PAD]
      {5},                         // one id
      {5, 6, 7, 8, 9},             // no [SEP]
      {3, 5, 6},                   // [SEP] at 0: one segment
      {5, 6, 3},                   // [SEP] at len - 1: one segment
      {5, 3},                      // [SEP] at len - 1 of two
      {3},                         // a lone [SEP]
      {5, 3, 6, 3, 7},             // [SEP] twice: split at 1
      {5, 6, 7, 3, 8},             // second segment is the last id
      {7, 7, 3, 7, 7},             // one table row in both segments
      {5, 6, 7, 8, 9, 10, 11, 3},  // truncated past its [SEP]
      {5, 3, 6, 7, 8, 9, 10, 11},  // truncated, split at 1
  };
  Rng batch_rng(91);
  for (int i = 0; i < 6; ++i) {  // ragged rows sharing table rows
    std::vector<int> row;
    const int len = 1 + batch_rng.UniformInt(9);
    for (int t = 0; t < len; ++t) row.push_back(4 + batch_rng.UniformInt(8));
    if (len >= 3) row[static_cast<size_t>(len / 2)] = kSep;
    raw.push_back(row);
  }
  // Truncated rows, flattened, and each row's split under PoolOne's rule.
  std::vector<std::vector<int>> rows;
  std::vector<int> ids, offsets = {0}, splits;
  for (const auto& r : raw) {
    rows.push_back(TruncateOrPad(r, kMaxLen, kPad));
    const auto& t = rows.back();
    const int len = static_cast<int>(t.size());
    const auto sep = std::find(t.begin(), t.end(), kSep);
    const int s = static_cast<int>(sep - t.begin());
    splits.push_back(sep != t.end() && s > 0 && s + 1 < len ? s : -1);
    ids.insert(ids.end(), t.begin(), t.end());
    offsets.push_back(static_cast<int>(ids.size()));
  }
  const int n = static_cast<int>(rows.size());

  struct MaskCase {
    const char* name;
    bool has_plan;
    augment::CutoffKind kind;
  };
  const MaskCase cases[] = {{"no plan", false, augment::CutoffKind::kNone},
                            {"kNone", true, augment::CutoffKind::kNone},
                            {"token", true, augment::CutoffKind::kToken},
                            {"feature", true, augment::CutoffKind::kFeature},
                            {"span", true, augment::CutoffKind::kSpan}};
  for (int d : {1, 7, 64, 65, 300}) {
    for (const MaskCase& mc : cases) {
      for (uint64_t trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE(testing::Message() << "d " << d << " mask " << mc.name
                                        << " trial " << trial);
        Rng rng(1000 * static_cast<uint64_t>(d) + 10 * trial +
                static_cast<uint64_t>(&mc - cases));
        augment::CutoffPlan plan;
        plan.kind = mc.kind;
        plan.ratio = 0.4;
        plan.start_frac = 0.3;
        plan.feature_dims = {0, d / 2, d - 1, d + 3};  // d + 3: skipped
        std::vector<float> mask;
        if (mc.has_plan) {
          mask.assign(ids.size() * static_cast<size_t>(d), 1.0f);
          for (size_t i = 0; i < rows.size(); ++i) {
            plan.ZeroCutEntries(static_cast<int>(rows[i].size()), d,
                                mask.data() + offsets[i] * d);
          }
        }
        // Two equal tables, their grads starting at equal random normals
        // (a table grad never holds -0), and one upstream gradient.
        std::vector<float> values(static_cast<size_t>(kVocab) * d);
        for (auto& v : values) v = SpecialOrNormal(&rng);
        Tensor op_table = Tensor::FromData(kVocab, d, values, true);
        Tensor chain_table = Tensor::FromData(kVocab, d, values, true);
        for (size_t i = 0; i < values.size(); ++i) {
          float g = static_cast<float>(rng.Gaussian());
          if (g == 0.0f) g = 1.0f;
          op_table.grad()[i] = g;
          chain_table.grad()[i] = g;
        }
        std::vector<float> up(static_cast<size_t>(n) * 4 * d);
        for (auto& v : up) v = SpecialOrNormal(&rng);
        const Tensor upstream = Tensor::FromData(n, 4 * d, up);

        Tensor got = ts::BagPairFeatures(op_table, ids, offsets, splits, mask);
        std::vector<Tensor> parts;
        for (int i = 0; i < n; ++i) {
          const auto& t = rows[static_cast<size_t>(i)];
          const int len = static_cast<int>(t.size());
          const int begin = offsets[static_cast<size_t>(i)];
          Tensor emb = ts::GatherRows(chain_table, t);
          if (mc.has_plan) {
            const float* m = mask.data() + static_cast<size_t>(begin) * d;
            emb = ts::Mul(emb, Tensor::FromData(
                                   len, d, std::vector<float>(m, m + len * d)));
          }
          auto mean_rows = [](const Tensor& m) {
            return ts::Transpose(ts::RowMean(ts::Transpose(m)));
          };
          const int s = splits[static_cast<size_t>(i)];
          Tensor m1, m2;
          if (s >= 0) {
            m1 = mean_rows(ts::SliceRows(emb, 0, s));
            m2 = mean_rows(ts::SliceRows(emb, s + 1, len - s - 1));
          } else {
            m1 = mean_rows(emb);
            m2 = m1;
          }
          parts.push_back(ts::ConcatCols(
              {m1, m2, ts::Abs(ts::Sub(m1, m2)), ts::Mul(m1, m2)}));
        }
        Tensor want = ts::JoinRows(parts);
        ts::Backward(ts::SumAll(ts::Mul(got, upstream)));
        ts::Backward(ts::SumAll(ts::Mul(want, upstream)));

        ASSERT_EQ(got.rows(), n);
        ASSERT_EQ(got.cols(), 4 * d);
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_PRED2(SameBitsOrBothNaN, got.data()[i], want.data()[i])
              << "value " << i;
        }
        for (size_t i = 0; i < values.size(); ++i) {
          ASSERT_PRED2(SameBitsOrBothNaN, op_table.grad()[i],
                       chain_table.grad()[i])
              << "table grad " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sudowoodo::nn
