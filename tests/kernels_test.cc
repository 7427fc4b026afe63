// Tests for the raw kernel layer under the autograd engine.
//
// The naive reference loops in this file are the spec, with the tolerance
// split documented in kernels.h: the *scalar* tier must match them bit
// for bit (per-output-element accumulation order is k-increasing in
// both), while the SIMD micro-kernel tiers accumulate with fused
// multiply-adds and so match only within a small relative tolerance.
// Within ANY tier, the threaded overload must match serial bitwise -
// that is the per-dispatch determinism contract the dispatch-matrix
// battery below pins for every tier this machine can run.
//
// One further scalar-tier-only behavior: the reference loops skip
// products of exact-zero A elements, so 0 * Inf/NaN contributes 0 there
// where the plain loop (and the FMA tiers) would produce NaN. No caller
// may rely on that skip; see "Masking and batching rules" in
// src/tensor/README.md.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace sudowoodo::tensor::kernels {
namespace {

/// Pins the dispatch tier for one test scope; restores the default on
/// exit so test order never leaks a tier.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier t) { EXPECT_TRUE(SetKernelTier(t)); }
  ~ScopedTier() { ResetKernelTier(); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
};

std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier t : {KernelTier::kScalar, KernelTier::kPortable,
                       KernelTier::kNeon, KernelTier::kAvx2,
                       KernelTier::kAvx512}) {
    if (KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

std::vector<float> RandomVec(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  return v;
}

/// Reference GEMM: C += A*B, accumulating directly into C along a scalar
/// k-increasing chain per output element - the exact per-element order the
/// blocked kernel guarantees (existing C value first, then products in k
/// order).
void NaiveGemm(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int l = 0; l < k; ++l) {
        c[static_cast<size_t>(i) * n + j] +=
            a[static_cast<size_t>(i) * k + l] * b[static_cast<size_t>(l) * n + j];
      }
    }
  }
}

void NaiveGemmAT(int m, int n, int k, const float* a, const float* b,
                 float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int l = 0; l < k; ++l) {
        c[static_cast<size_t>(i) * n + j] +=
            a[static_cast<size_t>(l) * m + i] * b[static_cast<size_t>(l) * n + j];
      }
    }
  }
}

void NaiveGemmBT(int m, int n, int k, const float* a, const float* b,
                 float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int l = 0; l < k; ++l) {
        acc += static_cast<double>(a[static_cast<size_t>(i) * k + l]) *
               b[static_cast<size_t>(j) * k + l];
      }
      c[static_cast<size_t>(i) * n + j] += static_cast<float>(acc);
    }
  }
}

/// Shapes covering 1x1, row/column vectors, block-size multiples, and
/// dims that are *not* multiples of the blocking tiles.
struct Shape {
  int m, n, k;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {5, 1, 3},   {1, 1, 300},
    {2, 3, 4},   {17, 29, 33}, {8, 8, 8},   {3, 257, 131},
    {64, 64, 64}, {5, 300, 129}, {130, 7, 259},
};

TEST(KernelsTest, BlockedGemmMatchesNaiveExactly) {
  // Bitwise equality with the naive loop is a scalar-tier guarantee; the
  // SIMD tiers are covered with tolerance by the dispatch battery below.
  ScopedTier scalar(KernelTier::kScalar);
  for (const auto& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, 1 + static_cast<uint64_t>(s.m));
    const auto b = RandomVec(s.k * s.n, 2 + static_cast<uint64_t>(s.n));
    std::vector<float> want(static_cast<size_t>(s.m) * s.n, 0.0f);
    std::vector<float> got = want;
    NaiveGemm(s.m, s.n, s.k, a.data(), b.data(), want.data());
    Gemm(s.m, s.n, s.k, a.data(), b.data(), got.data());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "shape " << s.m << "x" << s.n << "x" << s.k
                                 << " at " << i;
    }
  }
}

TEST(KernelsTest, GemmAccumulatesIntoExistingC) {
  ScopedTier scalar(KernelTier::kScalar);
  const int m = 3, n = 5, k = 4;
  const auto a = RandomVec(m * k, 11);
  const auto b = RandomVec(k * n, 12);
  std::vector<float> base(static_cast<size_t>(m) * n, 2.5f);
  std::vector<float> want = base;
  std::vector<float> got = base;
  NaiveGemm(m, n, k, a.data(), b.data(), want.data());
  Gemm(m, n, k, a.data(), b.data(), got.data());
  EXPECT_EQ(got, want);
}

TEST(KernelsTest, GemmATMatchesNaiveExactly) {
  ScopedTier scalar(KernelTier::kScalar);
  for (const auto& s : kShapes) {
    const auto a = RandomVec(s.k * s.m, 3 + static_cast<uint64_t>(s.m));
    const auto b = RandomVec(s.k * s.n, 4 + static_cast<uint64_t>(s.n));
    std::vector<float> want(static_cast<size_t>(s.m) * s.n, 0.0f);
    std::vector<float> got = want;
    NaiveGemmAT(s.m, s.n, s.k, a.data(), b.data(), want.data());
    GemmAT(s.m, s.n, s.k, a.data(), b.data(), got.data());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "shape " << s.m << "x" << s.n << "x" << s.k;
    }
  }
}

TEST(KernelsTest, GemmBTMatchesDoubleReference) {
  // GemmBT never promises bitwise equality with a single-chain loop (the
  // scalar tier reduces via the 4-lane Dot, the micro tiers via an FMA
  // chain), so compare the *default dispatch* against a double reference
  // with a small tolerance.
  for (const auto& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, 5 + static_cast<uint64_t>(s.m));
    const auto b = RandomVec(s.n * s.k, 6 + static_cast<uint64_t>(s.n));
    std::vector<float> want(static_cast<size_t>(s.m) * s.n, 0.0f);
    std::vector<float> got = want;
    NaiveGemmBT(s.m, s.n, s.k, a.data(), b.data(), want.data());
    GemmBT(s.m, s.n, s.k, a.data(), b.data(), got.data());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-4f * (std::fabs(want[i]) + 1.0f))
          << "shape " << s.m << "x" << s.n << "x" << s.k;
    }
  }
}

TEST(KernelsTest, ThreadedGemmBitIdenticalToSerial) {
  const int m = 37, n = 65, k = 129;
  const auto a = RandomVec(m * k, 21);
  const auto b = RandomVec(k * n, 22);
  std::vector<float> serial(static_cast<size_t>(m) * n, 0.0f);
  Gemm(m, n, k, a.data(), b.data(), serial.data());
  for (int shards : {2, 3, 8}) {
    std::vector<float> threaded(static_cast<size_t>(m) * n, 0.0f);
    Gemm(m, n, k, a.data(), b.data(), threaded.data(), &ThreadPool::Global(),
         shards);
    EXPECT_EQ(threaded, serial) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------
// Dispatch-matrix battery: every tier this binary+CPU can run, against
// the naive references, at edge shapes (non-multiple-of-tile m/n/k for
// every tile geometry in use, m=1, k=0, multi-k-block), plus the
// per-tier determinism contract (threaded == serial, repeat == repeat)
// and the cross-tier tolerance bound.

/// Edge shapes for the micro-kernel geometries: row tiles of 6, column
/// panels of 8/16/32 floats depending on tier, k blocks of 256.
const Shape kDispatchShapes[] = {
    {1, 1, 1},     // everything is a tail
    {1, 33, 47},   // m=1: single-row tiles only
    {6, 32, 8},    // exact 6-row tile, exact panels for every width
    {7, 17, 9},    // one full tile + 1-row tail, ragged panels
    {13, 31, 129}, // tails in every dimension
    {5, 33, 300},  // k spans two 256-deep packed blocks
    {130, 7, 259}, // many row tiles, narrow n, ragged k blocks
};

TEST(KernelDispatchTest, EveryTierMatchesNaiveAtEdgeShapes) {
  for (KernelTier tier : AvailableTiers()) {
    ScopedTier scoped(tier);
    for (const auto& s : kDispatchShapes) {
      const auto a = RandomVec(s.m * s.k, 71 + static_cast<uint64_t>(s.m));
      const auto at = RandomVec(s.k * s.m, 72 + static_cast<uint64_t>(s.m));
      const auto b = RandomVec(s.k * s.n, 73 + static_cast<uint64_t>(s.n));
      const auto bt = RandomVec(s.n * s.k, 74 + static_cast<uint64_t>(s.n));
      // Non-zero initial C: the += contract must hold in every tier.
      std::vector<float> want(static_cast<size_t>(s.m) * s.n, 0.25f);
      std::vector<float> got_nn = want, got_at = want, got_bt = want;
      std::vector<float> want_at = want, want_bt = want;
      NaiveGemm(s.m, s.n, s.k, a.data(), b.data(), want.data());
      NaiveGemmAT(s.m, s.n, s.k, at.data(), b.data(), want_at.data());
      NaiveGemmBT(s.m, s.n, s.k, a.data(), bt.data(), want_bt.data());
      Gemm(s.m, s.n, s.k, a.data(), b.data(), got_nn.data());
      GemmAT(s.m, s.n, s.k, at.data(), b.data(), got_at.data());
      GemmBT(s.m, s.n, s.k, a.data(), bt.data(), got_bt.data());
      for (size_t i = 0; i < want.size(); ++i) {
        const char* where = KernelTierName(tier);
        if (tier == KernelTier::kScalar) {
          // The reference tier IS the naive chain, bit for bit.
          ASSERT_EQ(got_nn[i], want[i]) << where << " gemm " << s.m << "x"
                                        << s.n << "x" << s.k << " at " << i;
          ASSERT_EQ(got_at[i], want_at[i]) << where << " gemm_at";
        } else {
          ASSERT_NEAR(got_nn[i], want[i], 1e-4f * (std::fabs(want[i]) + 1.0f))
              << where << " gemm " << s.m << "x" << s.n << "x" << s.k;
          ASSERT_NEAR(got_at[i], want_at[i],
                      1e-4f * (std::fabs(want_at[i]) + 1.0f))
              << where << " gemm_at " << s.m << "x" << s.n << "x" << s.k;
        }
        ASSERT_NEAR(got_bt[i], want_bt[i],
                    1e-4f * (std::fabs(want_bt[i]) + 1.0f))
            << where << " gemm_bt " << s.m << "x" << s.n << "x" << s.k;
      }
    }
  }
}

TEST(KernelDispatchTest, KZeroLeavesCUntouchedInEveryTier) {
  for (KernelTier tier : AvailableTiers()) {
    ScopedTier scoped(tier);
    const int m = 4, n = 9;
    const std::vector<float> before = RandomVec(m * n, 81);
    std::vector<float> c = before;
    Gemm(m, n, 0, nullptr, nullptr, c.data());
    GemmAT(m, n, 0, nullptr, nullptr, c.data());
    GemmBT(m, n, 0, nullptr, nullptr, c.data());
    EXPECT_EQ(c, before) << KernelTierName(tier);
  }
}

TEST(KernelDispatchTest, ThreadedBitIdenticalToSerialInEveryTier) {
  const int m = 37, n = 65, k = 300;  // ragged everywhere, two k blocks
  const auto a = RandomVec(m * k, 91);
  const auto at = RandomVec(k * m, 92);
  const auto b = RandomVec(k * n, 93);
  const auto bt = RandomVec(n * k, 94);
  for (KernelTier tier : AvailableTiers()) {
    ScopedTier scoped(tier);
    std::vector<float> s_nn(static_cast<size_t>(m) * n, 0.0f);
    std::vector<float> s_at = s_nn, s_bt = s_nn;
    Gemm(m, n, k, a.data(), b.data(), s_nn.data());
    GemmAT(m, n, k, at.data(), b.data(), s_at.data());
    GemmBT(m, n, k, a.data(), bt.data(), s_bt.data());
    for (int shards : {2, 3, 8}) {
      std::vector<float> t_nn(static_cast<size_t>(m) * n, 0.0f);
      std::vector<float> t_at = t_nn, t_bt = t_nn;
      Gemm(m, n, k, a.data(), b.data(), t_nn.data(), &ThreadPool::Global(),
           shards);
      GemmAT(m, n, k, at.data(), b.data(), t_at.data(),
             &ThreadPool::Global(), shards);
      GemmBT(m, n, k, a.data(), bt.data(), t_bt.data(),
             &ThreadPool::Global(), shards);
      EXPECT_EQ(t_nn, s_nn) << KernelTierName(tier) << " shards=" << shards;
      EXPECT_EQ(t_at, s_at) << KernelTierName(tier) << " shards=" << shards;
      EXPECT_EQ(t_bt, s_bt) << KernelTierName(tier) << " shards=" << shards;
    }
    // Same tier, same inputs, run twice: dispatch itself must be stable.
    std::vector<float> again(static_cast<size_t>(m) * n, 0.0f);
    Gemm(m, n, k, a.data(), b.data(), again.data());
    EXPECT_EQ(again, s_nn) << KernelTierName(tier);
  }
}

TEST(KernelDispatchTest, TiersAgreeWithScalarWithinTolerance) {
  // The cross-tier bound: any tier's output stays within a small
  // relative tolerance of the scalar reference tier. This is the
  // contract callers get when the same binary dispatches differently on
  // different machines.
  const int m = 23, n = 45, k = 131;
  const auto a = RandomVec(m * k, 95);
  const auto b = RandomVec(k * n, 96);
  std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
  {
    ScopedTier scalar(KernelTier::kScalar);
    Gemm(m, n, k, a.data(), b.data(), ref.data());
  }
  for (KernelTier tier : AvailableTiers()) {
    ScopedTier scoped(tier);
    std::vector<float> got(static_cast<size_t>(m) * n, 0.0f);
    Gemm(m, n, k, a.data(), b.data(), got.data());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(got[i], ref[i], 1e-4f * (std::fabs(ref[i]) + 1.0f))
          << KernelTierName(tier) << " at " << i;
    }
  }
}

/// B ([n, k] row-major) in the stored panel layout GemmBTPacked reads.
std::vector<float> PackedImage(int n, int k, const std::vector<float>& b) {
  std::vector<float> packed(PackedFloats(n, k), 0.0f);
  PackRows(n, k, b.data(), 0, packed.data());
  return packed;
}

TEST(PackedGemmBTTest, BitwiseEqualsRowMajorInEveryTierAndShardCount) {
  // The pre-packed entry must reproduce the row-major GemmBT bit for bit
  // within each tier: m covers the one-row tile and the 6-row tiles with
  // their tails, n sits on both sides of every tier panel width (8, 16,
  // 32) and of the one-row tile's panel groups (64, 128), and k crosses
  // the row-major path's 256-deep packing blocks.
  const int ms[] = {1, 5, 6, 7, 32, 33};
  const int ns[] = {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128,
                    129};
  const int ks[] = {1, 64, 255, 256, 257, 300};
  for (KernelTier tier : AvailableTiers()) {
    ScopedTier scoped(tier);
    for (int k : ks) {
      for (int n : ns) {
        const auto b = RandomVec(n * k, 500 + static_cast<uint64_t>(n * 7 + k));
        const auto packed = PackedImage(n, k, b);
        for (int m : ms) {
          const auto a = RandomVec(m * k, 900 + static_cast<uint64_t>(m + k));
          // Non-zero initial C: the += contract holds on both entries.
          const auto c0 = RandomVec(m * n, 1300 + static_cast<uint64_t>(m * n));
          std::vector<float> want = c0;
          GemmBT(m, n, k, a.data(), b.data(), want.data());
          for (int shards = 1; shards <= 4; ++shards) {
            std::vector<float> got = c0;
            GemmBTPacked(m, n, k, a.data(), packed.data(), got.data(),
                         &ThreadPool::Global(), shards);
            ASSERT_EQ(got, want)
                << KernelTierName(tier) << " m=" << m << " n=" << n
                << " k=" << k << " shards=" << shards;
          }
        }
      }
    }
  }
}

TEST(PackedGemmBTTest, RowsRoundTripAndPaddingIsZero) {
  const int n = 45, k = 13;
  const auto b = RandomVec(n * k, 77);
  const auto packed = PackedImage(n, k, b);
  ASSERT_EQ(packed.size(), static_cast<size_t>(64 * k));
  std::vector<float> row(static_cast<size_t>(k));
  for (int r = 0; r < n; ++r) {
    UnpackRow(k, packed.data(), r, row.data());
    for (int l = 0; l < k; ++l) {
      ASSERT_EQ(row[static_cast<size_t>(l)], b[static_cast<size_t>(r * k + l)]);
      ASSERT_EQ(packed[PackedRowOffset(r, k) +
                       static_cast<size_t>(l) * kPackedPanelRows],
                b[static_cast<size_t>(r * k + l)]);
    }
  }
  for (int r = n; r < 64; ++r) {
    UnpackRow(k, packed.data(), r, row.data());
    for (float v : row) ASSERT_EQ(v, 0.0f) << "padding row " << r;
  }
}

TEST(KernelDispatchTest, ScalarAndPortableAlwaysSupported) {
  EXPECT_TRUE(KernelTierSupported(KernelTier::kScalar));
  EXPECT_TRUE(KernelTierSupported(KernelTier::kPortable));
  // The active tier must be a supported one, whatever the environment
  // picked.
  EXPECT_TRUE(KernelTierSupported(ActiveKernelTier()));
  // Forcing an unsupported tier must fail without changing dispatch.
  const KernelTier active = ActiveKernelTier();
  for (KernelTier t : {KernelTier::kNeon, KernelTier::kAvx2,
                       KernelTier::kAvx512}) {
    if (!KernelTierSupported(t)) {
      EXPECT_FALSE(SetKernelTier(t));
      EXPECT_EQ(ActiveKernelTier(), active);
    }
  }
}

TEST(KernelsTest, DotMatchesDoubleReference) {
  for (int n : {0, 1, 3, 4, 7, 64, 301}) {
    const auto a = RandomVec(n, 31);
    const auto b = RandomVec(n, 32);
    double want = 0.0;
    for (int i = 0; i < n; ++i) want += static_cast<double>(a[i]) * b[i];
    EXPECT_NEAR(Dot(a.data(), b.data(), n), want,
                1e-4 * (std::fabs(want) + 1.0));
    EXPECT_NEAR(DotDouble(a.data(), b.data(), n), want,
                1e-9 * (std::fabs(want) + 1.0));
  }
}

TEST(KernelsTest, AxpyAndScaleAdd) {
  const int n = 13;
  const auto x = RandomVec(n, 41);
  std::vector<float> y = RandomVec(n, 42);
  std::vector<float> y0 = y;
  Axpy(n, 0.5f, x.data(), y.data());
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(y[static_cast<size_t>(i)], y0[static_cast<size_t>(i)] + 0.5f * x[static_cast<size_t>(i)]);
  y = y0;
  ScaleAdd(n, 2.0f, x.data(), -1.0f, y.data());
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(y[static_cast<size_t>(i)], 2.0f * x[static_cast<size_t>(i)] - y0[static_cast<size_t>(i)]);
}

TEST(KernelsTest, RowSoftmaxRowsSumToOneAndHandleExtremes) {
  const int m = 4, n = 9;
  auto x = RandomVec(m * n, 51);
  x[3] = 1e4f;  // large logit: stability comes from the max subtraction
  std::vector<float> y(static_cast<size_t>(m) * n);
  RowSoftmax(m, n, x.data(), y.data());
  for (int i = 0; i < m; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      const float v = y[static_cast<size_t>(i) * n + j];
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(KernelsTest, L2NormRows) {
  const int m = 3, n = 50;
  const auto x = RandomVec(m * n, 61);
  std::vector<float> norms(static_cast<size_t>(m));
  L2NormRows(m, n, x.data(), norms.data());
  for (int i = 0; i < m; ++i) {
    double want = 0.0;
    for (int j = 0; j < n; ++j) {
      const double v = x[static_cast<size_t>(i) * n + j];
      want += v * v;
    }
    EXPECT_NEAR(norms[static_cast<size_t>(i)], std::sqrt(want), 1e-4);
  }
}

}  // namespace
}  // namespace sudowoodo::tensor::kernels
