// Unit and gradient-check tests for the autograd engine. Every op that
// participates in training is checked against central finite differences.

#include "tensor/tensor.h"

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sudowoodo::tensor {
namespace {

// Checks analytic gradient of f() w.r.t. every entry of every tensor in xs
// against finite differences.
void CheckGradients(const std::function<Tensor()>& f, std::vector<Tensor> xs,
                    float tol = 2e-2f) {
  Tensor loss = f();
  ASSERT_EQ(loss.rows(), 1);
  ASSERT_EQ(loss.cols(), 1);
  for (auto& x : xs) x.ZeroGrad();
  loss = f();
  Backward(loss);
  for (auto& x : xs) {
    for (int r = 0; r < x.rows(); ++r) {
      for (int c = 0; c < x.cols(); ++c) {
        const float analytic = x.grad_at(r, c);
        const float numeric = NumericGradient(f, x, r, c);
        const float scale = std::max({1.0f, std::fabs(analytic),
                                      std::fabs(numeric)});
        EXPECT_NEAR(analytic, numeric, tol * scale)
            << "at (" << r << "," << c << ")";
      }
    }
  }
}

Tensor RandInput(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(rows, cols, 1.0f, &rng, /*requires_grad=*/true);
}

TEST(TensorTest, ConstructorsAndAccessors) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_FLOAT_EQ(z.at(1, 2), 0.0f);
  Tensor c = Tensor::Constant(2, 2, 3.5f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 3.5f);
  Tensor f = Tensor::FromData(1, 2, {1.0f, -2.0f});
  EXPECT_FLOAT_EQ(f.at(0, 1), -2.0f);
  f.set(0, 1, 7.0f);
  EXPECT_FLOAT_EQ(f.at(0, 1), 7.0f);
}

TEST(TensorTest, MatMulForward) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorTest, MatMulGradient) {
  Tensor a = RandInput(3, 4, 1);
  Tensor b = RandInput(4, 2, 2);
  CheckGradients([&]() { return MeanAll(MatMul(a, b)); }, {a, b});
}

TEST(TensorTest, MatMulBTMatchesExplicitTranspose) {
  Tensor a = RandInput(3, 5, 11);
  Tensor b = RandInput(4, 5, 12);
  Tensor fused = MatMulBT(a, b);
  Tensor ref = MatMul(a, Transpose(b));
  ASSERT_EQ(fused.rows(), 3);
  ASSERT_EQ(fused.cols(), 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(fused.at(r, c), ref.at(r, c), 1e-5f);
    }
  }
}

TEST(TensorTest, MatMulBTGradient) {
  Tensor a = RandInput(3, 4, 13);
  Tensor b = RandInput(5, 4, 14);
  CheckGradients([&]() { return MeanAll(MatMulBT(a, b)); }, {a, b});
}

TEST(TensorTest, MatMulBTGradientSharedOperand) {
  // Z * Z^T with one node feeding both sides (the NT-Xent similarity).
  Tensor z = RandInput(4, 3, 15);
  CheckGradients([&]() { return MeanAll(MatMulBT(z, z)); }, {z});
}

TEST(TensorTest, MatMulATMatchesExplicitTranspose) {
  Tensor a = RandInput(5, 3, 16);
  Tensor b = RandInput(5, 4, 17);
  Tensor fused = MatMulAT(a, b);
  Tensor ref = MatMul(Transpose(a), b);
  ASSERT_EQ(fused.rows(), 3);
  ASSERT_EQ(fused.cols(), 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(fused.at(r, c), ref.at(r, c), 1e-5f);
    }
  }
}

TEST(TensorTest, MatMulATGradient) {
  Tensor a = RandInput(4, 3, 18);
  Tensor b = RandInput(4, 5, 19);
  CheckGradients([&]() { return MeanAll(MatMulAT(a, b)); }, {a, b});
}

TEST(TensorTest, AddSubMulGradient) {
  Tensor a = RandInput(2, 3, 3);
  Tensor b = RandInput(2, 3, 4);
  CheckGradients([&]() { return MeanAll(Add(a, b)); }, {a, b});
  CheckGradients([&]() { return MeanAll(Sub(a, b)); }, {a, b});
  CheckGradients([&]() { return MeanAll(Mul(a, b)); }, {a, b});
}

TEST(TensorTest, ScaleAndBroadcastGradient) {
  Tensor a = RandInput(3, 4, 5);
  Tensor row = RandInput(1, 4, 6);
  CheckGradients([&]() { return MeanAll(Scale(a, -2.5f)); }, {a});
  CheckGradients([&]() { return MeanAll(AddRowBroadcast(a, row)); }, {a, row});
}

TEST(TensorTest, TransposeGradient) {
  Tensor a = RandInput(2, 5, 7);
  CheckGradients([&]() { return MeanAll(Mul(Transpose(a), Transpose(a))); },
                 {a});
}

TEST(TensorTest, ActivationGradients) {
  Tensor a = RandInput(3, 3, 8);
  CheckGradients([&]() { return MeanAll(Relu(a)); }, {a}, 5e-2f);
  CheckGradients([&]() { return MeanAll(Gelu(a)); }, {a});
  CheckGradients([&]() { return MeanAll(Tanh(a)); }, {a});
  CheckGradients([&]() { return MeanAll(Sigmoid(a)); }, {a});
  CheckGradients([&]() { return MeanAll(Abs(a)); }, {a}, 5e-2f);
}

TEST(TensorTest, ConcatSliceGradients) {
  Tensor a = RandInput(2, 3, 9);
  Tensor b = RandInput(2, 3, 10);
  CheckGradients([&]() { return MeanAll(Mul(ConcatRows({a, b}),
                                            ConcatRows({a, b}))); },
                 {a, b});
  CheckGradients([&]() { return MeanAll(Mul(ConcatCols({a, b}),
                                            ConcatCols({a, b}))); },
                 {a, b});
  CheckGradients([&]() { return MeanAll(SliceCols(a, 1, 2)); }, {a});
  CheckGradients([&]() { return MeanAll(SliceRows(a, 0, 1)); }, {a});
}

TEST(TensorTest, GatherRowsGradient) {
  Tensor table = RandInput(5, 3, 11);
  std::vector<int> ids = {0, 2, 2, 4};
  CheckGradients([&]() { return MeanAll(GatherRows(table, ids)); }, {table});
}

TEST(TensorTest, ReductionGradients) {
  Tensor a = RandInput(3, 4, 12);
  CheckGradients([&]() { return SumAll(a); }, {a});
  CheckGradients([&]() { return MeanAll(a); }, {a});
  CheckGradients([&]() { return MeanAll(RowMean(a)); }, {a});
}

TEST(TensorTest, SoftmaxGradients) {
  Tensor a = RandInput(3, 5, 13);
  CheckGradients([&]() { return MeanAll(Mul(RowSoftmax(a), a)); }, {a});
  CheckGradients([&]() { return MeanAll(Mul(LogRowSoftmax(a), a)); }, {a});
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Tensor a = RandInput(4, 7, 14);
  Tensor s = RowSoftmax(a);
  for (int i = 0; i < s.rows(); ++i) {
    float sum = 0.0f;
    for (int j = 0; j < s.cols(); ++j) sum += s.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, LayerNormGradient) {
  Tensor a = RandInput(3, 6, 15);
  Tensor gamma = RandInput(1, 6, 16);
  Tensor beta = RandInput(1, 6, 17);
  CheckGradients(
      [&]() { return MeanAll(Mul(LayerNormRows(a, gamma, beta), a)); },
      {a, gamma, beta});
}

TEST(TensorTest, L2NormalizeGradientAndNorm) {
  Tensor a = RandInput(3, 5, 18);
  Tensor n = L2NormalizeRows(a);
  for (int i = 0; i < n.rows(); ++i) {
    float sum = 0.0f;
    for (int j = 0; j < n.cols(); ++j) sum += n.at(i, j) * n.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
  CheckGradients([&]() { return MeanAll(Mul(L2NormalizeRows(a), a)); }, {a});
}

TEST(TensorTest, StandardizeColsGradient) {
  Tensor a = RandInput(6, 3, 19);
  CheckGradients([&]() { return MeanAll(Mul(StandardizeCols(a), a)); }, {a},
                 4e-2f);
}

TEST(TensorTest, StandardizeColsMoments) {
  Tensor a = RandInput(32, 4, 20);
  Tensor s = StandardizeCols(a);
  for (int j = 0; j < s.cols(); ++j) {
    float mean = 0.0f, var = 0.0f;
    for (int i = 0; i < s.rows(); ++i) mean += s.at(i, j);
    mean /= s.rows();
    for (int i = 0; i < s.rows(); ++i) {
      var += (s.at(i, j) - mean) * (s.at(i, j) - mean);
    }
    var /= s.rows();
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(TensorTest, CrossEntropyGradient) {
  Tensor logits = RandInput(4, 3, 21);
  std::vector<int> targets = {0, 2, 1, 1};
  CheckGradients([&]() { return CrossEntropyWithLogits(logits, targets); },
                 {logits});
}

TEST(TensorTest, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromData(1, 2, {0.0f, 0.0f}, true);
  Tensor loss = CrossEntropyWithLogits(logits, {1});
  EXPECT_NEAR(loss.item(), std::log(2.0f), 1e-5f);
}

TEST(TensorTest, BarlowTwinsLossGradient) {
  Tensor c = RandInput(4, 4, 22);
  CheckGradients([&]() { return BarlowTwinsLoss(c, 0.1f); }, {c});
}

TEST(TensorTest, BarlowTwinsIdentityIsZero) {
  Tensor c = Tensor::Zeros(3, 3);
  for (int i = 0; i < 3; ++i) c.set(i, i, 1.0f);
  EXPECT_NEAR(BarlowTwinsLoss(c, 0.5f).item(), 0.0f, 1e-6f);
}

TEST(TensorTest, DropoutInferenceIsIdentity) {
  Tensor a = RandInput(3, 3, 24);
  Tensor out = DropoutAt(a, 0.5f, {23}, /*rows_per_key=*/3, /*training=*/false);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(out.at(i, j), a.at(i, j));
  }
}

TEST(TensorTest, DropoutPreservesExpectation) {
  Tensor a = Tensor::Constant(50, 50, 1.0f);
  Tensor out = DropoutAt(a, 0.3f, {25}, /*rows_per_key=*/50, /*training=*/true);
  double mean = 0.0;
  for (size_t i = 0; i < out.size(); ++i) mean += out.data()[i];
  mean /= static_cast<double>(out.size());
  EXPECT_NEAR(mean, 1.0, 0.05);
}

TEST(TensorTest, DropoutAtPackedBlocksMatchEachBlockAlone) {
  // The packing contract: a [b*t, n] block with rows_per_key = t masks
  // block i exactly as DropoutAt masks that block alone under keys[i].
  const int b = 3, t = 4, n = 5;
  const std::vector<uint64_t> keys = {101, 202, 303};
  Tensor packed = RandInput(b * t, n, 27);
  Tensor out = DropoutAt(packed, 0.4f, keys, t, /*training=*/true);
  int dropped = 0;
  for (size_t i = 0; i < out.size(); ++i) dropped += out.data()[i] == 0.0f;
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, b * t * n);
  for (int i = 0; i < b; ++i) {
    Tensor block = Tensor::FromData(
        t, n,
        std::vector<float>(packed.data() + static_cast<size_t>(i) * t * n,
                           packed.data() + static_cast<size_t>(i + 1) * t * n));
    Tensor alone = DropoutAt(block, 0.4f, {keys[static_cast<size_t>(i)]}, t,
                             /*training=*/true);
    for (int r = 0; r < t; ++r) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(out.at(i * t + r, j), alone.at(r, j))
            << "block " << i << " row " << r << " col " << j;
      }
    }
  }
}

TEST(TensorTest, NoGradGuardDisablesGraph) {
  Tensor a = RandInput(2, 2, 26);
  {
    NoGradGuard ng;
    Tensor out = MatMul(a, a);
    EXPECT_FALSE(out.requires_grad());
  }
  Tensor out = MatMul(a, a);
  EXPECT_TRUE(out.requires_grad());
}

TEST(TensorTest, GradAccumulatesAcrossSharedUse) {
  Tensor a = Tensor::FromData(1, 1, {3.0f}, true);
  a.ZeroGrad();
  Tensor loss = MeanAll(Mul(a, a));  // d/da a^2 = 2a = 6
  Backward(loss);
  EXPECT_NEAR(a.grad_at(0, 0), 6.0f, 1e-4f);
}

TEST(TensorTest, BackwardThroughDeepChain) {
  Tensor a = RandInput(2, 2, 27);
  Tensor x = a;
  for (int i = 0; i < 50; ++i) x = Tanh(x);
  a.ZeroGrad();
  Backward(MeanAll(x));
  // Just checks it runs and produces finite gradients.
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_TRUE(std::isfinite(a.grad_at(r, c)));
    }
  }
}

}  // namespace
}  // namespace sudowoodo::tensor
