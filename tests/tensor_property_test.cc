// Property-style sweeps over the autograd engine: gradient checks across
// randomized shapes and seeds for every op family, plus algebraic
// identities that must hold for arbitrary inputs.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace sudowoodo::tensor {
namespace {

struct ShapeCase {
  int rows;
  int cols;
  uint64_t seed;
};

class RandomShapeGradTest : public ::testing::TestWithParam<int> {
 protected:
  ShapeCase Case() {
    Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
    return {2 + rng.UniformInt(4), 2 + rng.UniformInt(5),
            static_cast<uint64_t>(GetParam()) + 1000};
  }

  void CheckGrad(const std::function<Tensor()>& f, Tensor x,
                 float tol = 3e-2f) {
    x.ZeroGrad();
    Backward(f());
    Rng pick(Case().seed * 31);
    for (int trial = 0; trial < 3; ++trial) {
      const int r = pick.UniformInt(x.rows());
      const int c = pick.UniformInt(x.cols());
      const float numeric = NumericGradient(f, x, r, c);
      EXPECT_NEAR(x.grad_at(r, c), numeric,
                  tol * std::max(1.0f, std::fabs(numeric)))
          << "shape " << x.rows() << "x" << x.cols();
    }
  }
};

TEST_P(RandomShapeGradTest, MatMulChain) {
  auto cs = Case();
  Rng rng(cs.seed);
  Tensor a = Tensor::Randn(cs.rows, cs.cols, 1.0f, &rng, true);
  Tensor b = Tensor::Randn(cs.cols, cs.rows, 1.0f, &rng, true);
  CheckGrad([&]() { return MeanAll(Gelu(MatMul(a, b))); }, a);
  CheckGrad([&]() { return MeanAll(Gelu(MatMul(a, b))); }, b);
}

TEST_P(RandomShapeGradTest, NormalizationStack) {
  auto cs = Case();
  Rng rng(cs.seed);
  Tensor a = Tensor::Randn(cs.rows, cs.cols, 1.0f, &rng, true);
  CheckGrad([&]() { return MeanAll(Mul(L2NormalizeRows(a), a)); }, a);
  CheckGrad([&]() { return MeanAll(Mul(RowSoftmax(a), a)); }, a);
}

TEST_P(RandomShapeGradTest, ConcatSliceRoundTrip) {
  auto cs = Case();
  Rng rng(cs.seed);
  Tensor a = Tensor::Randn(cs.rows, cs.cols, 1.0f, &rng, true);
  Tensor b = Tensor::Randn(cs.rows, cs.cols, 1.0f, &rng, true);
  CheckGrad(
      [&]() {
        Tensor cat = ConcatCols({a, b});
        return MeanAll(Mul(SliceCols(cat, 0, cs.cols),
                           SliceCols(cat, cs.cols, cs.cols)));
      },
      a);
}

TEST_P(RandomShapeGradTest, CrossEntropyOnRandomTargets) {
  auto cs = Case();
  Rng rng(cs.seed);
  Tensor logits = Tensor::Randn(cs.rows, cs.cols, 1.0f, &rng, true);
  std::vector<int> targets(static_cast<size_t>(cs.rows));
  for (auto& t : targets) t = rng.UniformInt(cs.cols);
  CheckGrad([&]() { return CrossEntropyWithLogits(logits, targets); },
            logits);
}

INSTANTIATE_TEST_SUITE_P(ManyShapes, RandomShapeGradTest,
                         ::testing::Range(0, 8));

class AlgebraTest : public ::testing::TestWithParam<int> {
 protected:
  Tensor Rand(int r, int c) {
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 101);
    return Tensor::Randn(r, c, 1.0f, &rng, false);
  }
};

TEST_P(AlgebraTest, TransposeIsInvolution) {
  Tensor a = Rand(3, 5);
  Tensor tt = Transpose(Transpose(a));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_FLOAT_EQ(tt.at(i, j), a.at(i, j));
  }
}

TEST_P(AlgebraTest, MatMulDistributesOverAdd) {
  Tensor a = Rand(3, 4);
  Rng rng2(static_cast<uint64_t>(GetParam()) + 5);
  Tensor b = Tensor::Randn(4, 2, 1.0f, &rng2, false);
  Tensor c = Tensor::Randn(4, 2, 1.0f, &rng2, false);
  Tensor lhs = MatMul(a, Add(b, c));
  Tensor rhs = Add(MatMul(a, b), MatMul(a, c));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_NEAR(lhs.at(i, j), rhs.at(i, j), 1e-4f);
    }
  }
}

TEST_P(AlgebraTest, SoftmaxInvariantToRowShift) {
  Tensor a = Rand(2, 6);
  Tensor shifted = Add(a, Tensor::Constant(2, 6, 3.7f));
  Tensor s1 = RowSoftmax(a);
  Tensor s2 = RowSoftmax(shifted);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_NEAR(s1.at(i, j), s2.at(i, j), 1e-5f);
    }
  }
}

TEST_P(AlgebraTest, SumAllEqualsMeanTimesSize) {
  Tensor a = Rand(4, 3);
  EXPECT_NEAR(SumAll(a).item(), MeanAll(a).item() * 12.0f, 1e-3f);
}

TEST_P(AlgebraTest, AbsIsNonNegativeAndIdempotent) {
  Tensor a = Rand(3, 3);
  Tensor abs1 = Abs(a);
  Tensor abs2 = Abs(abs1);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_GE(abs1.at(i, j), 0.0f);
      EXPECT_FLOAT_EQ(abs1.at(i, j), abs2.at(i, j));
    }
  }
}

TEST_P(AlgebraTest, GatherMatchesManualLookup) {
  Tensor table = Rand(6, 4);
  std::vector<int> ids = {5, 0, 3, 3};
  Tensor out = GatherRows(table, ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(out.at(static_cast<int>(i), j), table.at(ids[i], j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, AlgebraTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace sudowoodo::tensor
