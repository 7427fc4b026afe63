// Tests for the neural building blocks: layers, encoders, the optimizer,
// and weight persistence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/encoder.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/weights.h"

namespace sudowoodo::nn {
namespace {

namespace ts = sudowoodo::tensor;

TEST(LinearTest, OutputShapeAndBias) {
  Rng rng(1);
  Linear fc(4, 3, &rng);
  Tensor x = Tensor::Constant(2, 4, 0.0f);
  Tensor y = fc.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 3);
  // Zero input -> bias (zero-initialized).
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(y.at(0, j), 0.0f);
}

TEST(EmbeddingTest, GatherReturnsRows) {
  Rng rng(2);
  Embedding emb(10, 4, &rng);
  Tensor out = emb.Forward({3, 3, 7});
  EXPECT_EQ(out.rows(), 3);
  for (int j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(0, j), out.at(1, j));  // same id, same row
  }
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln(8);
  Rng rng(3);
  Tensor x = Tensor::Randn(4, 8, 3.0f, &rng, false);
  Tensor y = ln.Forward(x);
  for (int i = 0; i < 4; ++i) {
    float mean = 0, var = 0;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    mean /= 8;
    for (int j = 0; j < 8; ++j) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(MlpTest, ParameterCount) {
  Rng rng(4);
  Mlp mlp(4, 8, 2, &rng);
  EXPECT_EQ(mlp.Parameters().size(), 4u);  // 2 layers x (W, b)
}

TEST(AttentionTest, ShapePreservedAndGradFlows) {
  Rng rng(5);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Tensor x = Tensor::Randn(5, 8, 1.0f, &rng, true);
  Tensor y = attn.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
  x.ZeroGrad();
  for (auto& p : attn.Parameters()) p.ZeroGrad();
  ts::Backward(ts::MeanAll(attn.Forward(x)));
  float grad_norm = 0;
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) grad_norm += std::fabs(x.grad_at(r, c));
  }
  EXPECT_GT(grad_norm, 0.0f);
}

TransformerConfig SmallTransformer() {
  TransformerConfig config;
  config.vocab_size = 50;
  config.max_len = 12;
  config.dim = 16;
  config.n_layers = 2;
  config.n_heads = 2;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  return config;
}

TEST(TransformerTest, EncodeBatchShape) {
  TransformerEncoder enc(SmallTransformer());
  Tensor z = enc.EncodeBatch({{2, 7, 8}, {2, 9}}, nullptr, false);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 16);
}

TEST(TransformerTest, DeterministicWithoutDropout) {
  TransformerEncoder enc(SmallTransformer());
  ts::NoGradGuard ng;
  Tensor z1 = enc.EncodeBatch({{2, 7, 8}}, nullptr, false);
  Tensor z2 = enc.EncodeBatch({{2, 7, 8}}, nullptr, false);
  for (int j = 0; j < z1.cols(); ++j) EXPECT_FLOAT_EQ(z1.at(0, j), z2.at(0, j));
}

TEST(TransformerTest, TruncatesLongSequences) {
  TransformerEncoder enc(SmallTransformer());
  std::vector<int> long_seq(100, 5);
  ts::NoGradGuard ng;
  Tensor z = enc.EncodeBatch({long_seq}, nullptr, false);
  EXPECT_EQ(z.rows(), 1);  // no crash; truncated internally
}

TEST(TransformerTest, CutoffChangesEncoding) {
  TransformerEncoder enc(SmallTransformer());
  ts::NoGradGuard ng;
  augment::CutoffPlan plan;
  plan.kind = augment::CutoffKind::kSpan;
  plan.ratio = 0.4;
  plan.start_frac = 0.2;
  Tensor z1 = enc.EncodeBatch({{2, 7, 8, 9, 10}}, nullptr, false);
  Tensor z2 = enc.EncodeBatch({{2, 7, 8, 9, 10}}, &plan, false);
  float diff = 0;
  for (int j = 0; j < z1.cols(); ++j) diff += std::fabs(z1.at(0, j) - z2.at(0, j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(ApplyCutoffTest, TokenCutoffZeroesOneRow) {
  Tensor emb = Tensor::Constant(5, 4, 1.0f);
  augment::CutoffPlan plan;
  plan.kind = augment::CutoffKind::kToken;
  plan.start_frac = 0.5;
  Tensor out = ApplyCutoff(emb, plan);
  int zero_rows = 0;
  for (int i = 0; i < 5; ++i) {
    bool all_zero = true;
    for (int j = 0; j < 4; ++j) {
      if (out.at(i, j) != 0.0f) all_zero = false;
    }
    zero_rows += all_zero ? 1 : 0;
  }
  EXPECT_EQ(zero_rows, 1);
  // Row 0 ([CLS]) is never cut.
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
}

TEST(ApplyCutoffTest, FeatureCutoffZeroesColumns) {
  Tensor emb = Tensor::Constant(3, 6, 1.0f);
  augment::CutoffPlan plan;
  plan.kind = augment::CutoffKind::kFeature;
  plan.feature_dims = {1, 4};
  Tensor out = ApplyCutoff(emb, plan);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(out.at(i, 1), 0.0f);
    EXPECT_FLOAT_EQ(out.at(i, 4), 0.0f);
    EXPECT_FLOAT_EQ(out.at(i, 0), 1.0f);
  }
}

FastBagConfig SmallBag() {
  FastBagConfig config;
  config.vocab_size = 50;
  config.dim = 16;
  config.hidden_dim = 32;
  config.dropout = 0.0f;
  return config;
}

TEST(FastBagTest, ShapeAndDeterminism) {
  FastBagEncoder enc(SmallBag());
  ts::NoGradGuard ng;
  Tensor z1 = enc.EncodeBatch({{2, 7, 8}, {2, 9, 10, 11}}, nullptr, false);
  EXPECT_EQ(z1.rows(), 2);
  EXPECT_EQ(z1.cols(), 16);
  Tensor z2 = enc.EncodeBatch({{2, 7, 8}, {2, 9, 10, 11}}, nullptr, false);
  for (int j = 0; j < 16; ++j) EXPECT_FLOAT_EQ(z1.at(0, j), z2.at(0, j));
}

TEST(FastBagTest, PairSegmentsChangeEncoding) {
  FastBagEncoder enc(SmallBag());
  ts::NoGradGuard ng;
  // Same multiset of tokens, but with/without [SEP]=3 segment split.
  Tensor merged = enc.EncodeBatch({{2, 7, 8, 9, 10}}, nullptr, false);
  Tensor split = enc.EncodeBatch({{2, 7, 8, 3, 9, 10}}, nullptr, false);
  float diff = 0;
  for (int j = 0; j < 16; ++j) diff += std::fabs(merged.at(0, j) - split.at(0, j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(FastBagTest, IdenticalSegmentsGiveZeroDiffFeature) {
  // x [SEP] x: the |m1 - m2| block is zero, distinguishing matches.
  FastBagEncoder enc(SmallBag());
  ts::NoGradGuard ng;
  Tensor same = enc.EncodeBatch({{2, 7, 8, 3, 7, 8}}, nullptr, false);
  Tensor diff = enc.EncodeBatch({{2, 7, 8, 3, 9, 10}}, nullptr, false);
  float delta = 0;
  for (int j = 0; j < 16; ++j) delta += std::fabs(same.at(0, j) - diff.at(0, j));
  EXPECT_GT(delta, 1e-4f);
}

template <typename EncoderT, typename ConfigT>
void ExpectEmptyRowsEncodeLikePerRow(const ConfigT& config) {
  // An empty token list (and an all-padding row) must produce the same
  // pooled vector in the batched route as in the per-row graph route
  // (the oracle: tape on, training off) - both substitute a single [PAD]
  // token - instead of crashing or reading garbage out of a zero-length
  // block.
  const std::vector<std::vector<int>> batch = {{}, {2, 7, 8}, {0, 0, 0}, {}};
  EncoderT encoder(config);
  ASSERT_TRUE(ts::GradEnabled());  // the oracle builds its graph
  Tensor want = encoder.EncodeBatch(batch, nullptr, /*training=*/false);
  ts::NoGradGuard ng;
  Tensor got = encoder.EncodeBatch(batch, nullptr, /*training=*/false);
  ASSERT_EQ(got.rows(), 4);
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(got.at(i, j), want.at(i, j)) << "row " << i << " dim " << j;
      ASSERT_TRUE(std::isfinite(got.at(i, j)));
    }
  }
  // Both empty rows encode identically (same substituted [PAD] sequence).
  for (int j = 0; j < got.cols(); ++j) {
    EXPECT_EQ(got.at(0, j), got.at(3, j));
  }
}

TEST(TransformerTest, EmptyTokenListEncodesAsPad) {
  ExpectEmptyRowsEncodeLikePerRow<TransformerEncoder>(SmallTransformer());
}

TEST(FastBagTest, EmptyTokenListEncodesAsPad) {
  ExpectEmptyRowsEncodeLikePerRow<FastBagEncoder>(SmallBag());
}

TEST(AdamWTest, MinimizesQuadratic) {
  // Minimize ||x - 3||^2 elementwise.
  Tensor x = Tensor::Zeros(1, 4, true);
  AdamWOptions opts;
  opts.lr = 0.1f;
  opts.weight_decay = 0.0f;
  AdamW optimizer({x}, opts);
  Tensor target = Tensor::Constant(1, 4, 3.0f);
  for (int step = 0; step < 300; ++step) {
    optimizer.ZeroGrad();
    Tensor diff = ts::Sub(x, target);
    ts::Backward(ts::MeanAll(ts::Mul(diff, diff)));
    optimizer.Step();
  }
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(x.at(0, j), 3.0f, 0.05f);
}

TEST(AdamWTest, ClipGradNormScales) {
  Tensor x = Tensor::Zeros(1, 2, true);
  x.ZeroGrad();
  x.grad()[0] = 3.0f;
  x.grad()[1] = 4.0f;  // norm 5
  AdamW optimizer({x}, AdamWOptions{});
  const float pre = optimizer.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 0.8f, 1e-5f);
}

// AdamW's clip and update as scalar loops, the spec for the optimizer's
// vectorized build: packed sqrt and division round as the scalar ones
// do, so every weight, moment and clipped grad must match bit for bit.
struct ScalarAdamW {
  AdamWOptions options;
  std::vector<std::vector<float>> m, v;
  int64_t step = 0;

  float ClipGradNorm(std::vector<std::vector<float>>* grads, float max_norm) {
    double total = 0.0;
    for (const auto& g : *grads) {
      for (float x : g) total += static_cast<double>(x) * x;
    }
    const float norm = static_cast<float>(std::sqrt(total));
    if (norm > max_norm && norm > 0.0f) {
      const float scale = max_norm / norm;
      for (auto& g : *grads) {
        for (float& x : g) x *= scale;
      }
    }
    return norm;
  }

  void Step(std::vector<std::vector<float>>* weights,
            const std::vector<std::vector<float>>& grads) {
    ++step;
    const float bc1 = 1.0f - std::pow(options.beta1, static_cast<float>(step));
    const float bc2 = 1.0f - std::pow(options.beta2, static_cast<float>(step));
    for (size_t p = 0; p < weights->size(); ++p) {
      float* w = (*weights)[p].data();
      const float* g = grads[p].data();
      float* mp = m[p].data();
      float* vp = v[p].data();
      for (size_t i = 0; i < grads[p].size(); ++i) {
        mp[i] = options.beta1 * mp[i] + (1.0f - options.beta1) * g[i];
        vp[i] = options.beta2 * vp[i] + (1.0f - options.beta2) * g[i] * g[i];
        const float mhat = mp[i] / bc1;
        const float vhat = vp[i] / bc2;
        w[i] -= options.lr * (mhat / (std::sqrt(vhat) + options.eps) +
                              options.weight_decay * w[i]);
      }
    }
  }
};

uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

TEST(AdamWTest, StepMatchesScalarReference) {
  // Sizes 1, 3, 17 and 1000 hit every vector tail; a frozen parameter
  // sits between them. Grads mix Gaussians with +-0, denormals and large
  // values; odd steps clip (max_norm 1), even steps do not, so large
  // grads reach the moments unscaled and overflow v to inf; the last
  // step feeds NaN, which also disables that step's clip.
  const std::vector<int> sizes = {1, 3, 17, 1000};
  Rng rng(2024);
  std::vector<Tensor> params;
  ScalarAdamW ref;
  ref.options.lr = 3e-3f;
  ref.options.weight_decay = 0.05f;
  std::vector<std::vector<float>> ref_w;
  for (int n : sizes) {
    params.push_back(Tensor::Randn(1, n, 0.5f, &rng, /*requires_grad=*/true));
    ref_w.emplace_back(params.back().data(), params.back().data() + n);
    ref.m.emplace_back(static_cast<size_t>(n), 0.0f);
    ref.v.emplace_back(static_cast<size_t>(n), 0.0f);
    if (n == 3) params.push_back(Tensor::Constant(1, 5, 0.25f));
  }
  AdamW optimizer(params, ref.options);
  const float kSpecials[] = {0.0f,   -0.0f,  1e-40f, -1e-45f, 1.1e-38f,
                             1e25f,  -3e24f, 7e20f,  -1e-39f};
  constexpr int kSteps = 9;
  for (int step = 1; step <= kSteps; ++step) {
    if (step == 5) {
      optimizer.set_lr(1e-3f);
      ref.options.lr = 1e-3f;
    }
    std::vector<std::vector<float>> grads;
    for (int n : sizes) {
      std::vector<float> g(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        float x = static_cast<float>(rng.Gaussian());
        if (i % 5 == 0) x = kSpecials[(i / 5 + step) % 9];
        if (step == kSteps && i % 7 == 3) {
          x = std::numeric_limits<float>::quiet_NaN();
        }
        g[static_cast<size_t>(i)] = x;
      }
      grads.push_back(std::move(g));
    }
    size_t k = 0;
    for (Tensor& p : params) {
      if (!p.requires_grad()) continue;
      p.ZeroGrad();
      std::copy(grads[k].begin(), grads[k].end(), p.grad());
      ++k;
    }
    const float max_norm = step % 2 == 1 ? 1.0f : 1e30f;
    const float want_norm = ref.ClipGradNorm(&grads, max_norm);
    EXPECT_EQ(FloatBits(optimizer.ClipGradNorm(max_norm)),
              FloatBits(want_norm))
        << "step " << step;
    optimizer.Step();
    ref.Step(&ref_w, grads);
    k = 0;
    for (const Tensor& p : params) {
      if (!p.requires_grad()) {
        for (size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p.data()[i], 0.25f);
        continue;
      }
      for (size_t i = 0; i < p.size(); ++i) {
        ASSERT_EQ(FloatBits(p.grad()[i]), FloatBits(grads[k][i]))
            << "step " << step << " param " << k << " grad " << i;
        ASSERT_EQ(FloatBits(p.data()[i]), FloatBits(ref_w[k][i]))
            << "step " << step << " param " << k << " weight " << i;
      }
      ++k;
    }
  }
  EXPECT_EQ(optimizer.step_count(), kSteps);
}

TEST(WeightsTest, SnapshotRestoreRoundTrip) {
  Rng rng(9);
  Tensor a = Tensor::Randn(2, 3, 1.0f, &rng, true);
  WeightSnapshot snap = SnapshotWeights({a});
  const float orig = a.at(0, 0);
  a.set(0, 0, 99.0f);
  RestoreWeights({a}, snap);
  EXPECT_FLOAT_EQ(a.at(0, 0), orig);
}

TEST(WeightsTest, SaveLoadRoundTrip) {
  Rng rng(10);
  Tensor a = Tensor::Randn(3, 2, 1.0f, &rng, true);
  Tensor b = Tensor::Randn(1, 4, 1.0f, &rng, true);
  const std::string path = "/tmp/sudowoodo_weights_test.bin";
  ASSERT_TRUE(SaveWeights({a, b}, path).ok());
  Tensor a2 = Tensor::Zeros(3, 2, true);
  Tensor b2 = Tensor::Zeros(1, 4, true);
  ASSERT_TRUE(LoadWeights({a2, b2}, path).ok());
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(a2.at(r, c), a.at(r, c));
  }
  std::remove(path.c_str());
}

TEST(WeightsTest, LoadRejectsShapeMismatch) {
  Rng rng(11);
  Tensor a = Tensor::Randn(2, 2, 1.0f, &rng, true);
  const std::string path = "/tmp/sudowoodo_weights_test2.bin";
  ASSERT_TRUE(SaveWeights({a}, path).ok());
  Tensor wrong = Tensor::Zeros(3, 3, true);
  EXPECT_FALSE(LoadWeights({wrong}, path).ok());
  std::remove(path.c_str());
}

// --- Durability regressions: SaveWeights used to ignore fwrite/fclose
// returns (a full disk produced a silently truncated file) and LoadWeights
// accepted any bytes that happened to parse. The rewritten format (magic +
// version + checksum, temp-file + rename) must fail loudly instead.

TEST(WeightsTest, SaveFailsLoudlyWhenDirectoryDoesNotExist) {
  Rng rng(12);
  Tensor a = Tensor::Randn(2, 2, 1.0f, &rng, true);
  const Status st =
      SaveWeights({a}, "/tmp/sudowoodo_no_such_dir_xyz/weights.bin");
  EXPECT_FALSE(st.ok());
}

TEST(WeightsTest, SaveLeavesNoTempFileBehind) {
  Rng rng(13);
  Tensor a = Tensor::Randn(2, 2, 1.0f, &rng, true);
  const std::string path = "/tmp/sudowoodo_weights_tmp_test.bin";
  ASSERT_TRUE(SaveWeights({a}, path).ok());
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "temp file survived the rename";
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(WeightsTest, LoadRejectsTruncatedFile) {
  Rng rng(14);
  Tensor a = Tensor::Randn(4, 4, 1.0f, &rng, true);
  const std::string path = "/tmp/sudowoodo_weights_trunc.bin";
  ASSERT_TRUE(SaveWeights({a}, path).ok());
  // Chop the tail off - simulates the disk-full truncation the old
  // SaveWeights produced silently.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::vector<unsigned char> bytes(static_cast<size_t>(full) - 7);
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  Tensor dst = Tensor::Zeros(4, 4, true);
  EXPECT_FALSE(LoadWeights({dst}, path).ok());
  std::remove(path.c_str());
}

TEST(WeightsTest, LoadRejectsBitFlip) {
  Rng rng(15);
  Tensor a = Tensor::Randn(4, 4, 1.0f, &rng, true);
  const std::string path = "/tmp/sudowoodo_weights_bitflip.bin";
  ASSERT_TRUE(SaveWeights({a}, path).ok());
  // Flip one bit in the middle of the float payload: shapes still parse,
  // only the checksum can catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fseek(f, full - 9, SEEK_SET);
  unsigned char byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0x10;
  std::fseek(f, full - 9, SEEK_SET);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);
  Tensor dst = Tensor::Zeros(4, 4, true);
  const Status st = LoadWeights({dst}, path);
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

TEST(WeightsTest, LoadRejectsTrailingBytes) {
  Rng rng(16);
  Tensor a = Tensor::Randn(2, 3, 1.0f, &rng, true);
  const std::string path = "/tmp/sudowoodo_weights_trailing.bin";
  ASSERT_TRUE(SaveWeights({a}, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const unsigned char junk = 0xAB;
  ASSERT_EQ(std::fwrite(&junk, 1, 1, f), 1u);
  std::fclose(f);
  Tensor dst = Tensor::Zeros(2, 3, true);
  EXPECT_FALSE(LoadWeights({dst}, path).ok());
  std::remove(path.c_str());
}

TEST(WeightsTest, LoadRejectsBadMagic) {
  const std::string path = "/tmp/sudowoodo_weights_badmagic.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "not a weights file at all, honest";
  ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
  std::fclose(f);
  Tensor dst = Tensor::Zeros(2, 2, true);
  const Status st = LoadWeights({dst}, path);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("magic"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(WeightsTest, FailedLoadLeavesParamsUntouched) {
  Rng rng(17);
  Tensor a = Tensor::Randn(2, 2, 1.0f, &rng, true);
  Tensor b = Tensor::Randn(3, 1, 1.0f, &rng, true);
  const std::string path = "/tmp/sudowoodo_weights_staged.bin";
  ASSERT_TRUE(SaveWeights({a, b}, path).ok());
  // Truncate into the *second* tensor: the first parses fine, so a
  // load-in-place would have clobbered `a` before noticing.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::vector<unsigned char> bytes(static_cast<size_t>(full) - 2);
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  Tensor a2 = Tensor::Zeros(2, 2, true);
  Tensor b2 = Tensor::Zeros(3, 1, true);
  a2.set(0, 0, 42.0f);
  EXPECT_FALSE(LoadWeights({a2, b2}, path).ok());
  EXPECT_FLOAT_EQ(a2.at(0, 0), 42.0f) << "failed load mutated params";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sudowoodo::nn
