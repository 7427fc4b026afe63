// Tests for the raw kernel layer under the autograd engine.
//
// The naive reference loops in this file are the spec. Every dispatch
// tier accumulates each output element along one k-increasing chain that
// starts from the existing C value, so every tier matches one of two
// naive chains bit for bit: the plain chain `c += a * b` (a tier whose
// ISA has no fused multiply-add, like the portable tier on x86-64) or
// the fused chain `c = fma(a, b, c)` (AVX2, AVX-512, NEON). Within ANY
// tier, the threaded overload must match serial bitwise - that is the
// per-dispatch determinism contract the dispatch-matrix battery below
// pins for every tier this machine can run. Across tiers only a small
// relative tolerance holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
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

constexpr KernelTier kAllTiers[] = {KernelTier::kPortable, KernelTier::kNeon,
                                    KernelTier::kAvx2, KernelTier::kAvx512};

std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier t : kAllTiers) {
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

/// The three GEMM variants: A is [m,k] for kNN and kBT and [k,m] for
/// kAT; B is [k,n] for kNN and kAT and [n,k] for kBT.
enum class Op { kNN, kAT, kBT };

const char* OpName(Op op) {
  switch (op) {
    case Op::kNN: return "gemm";
    case Op::kAT: return "gemm_at";
    case Op::kBT: return "gemm_bt";
  }
  return "?";
}

void RunKernel(Op op, int m, int n, int k, const float* a, const float* b,
               float* c) {
  switch (op) {
    case Op::kNN: Gemm(m, n, k, a, b, c); break;
    case Op::kAT: GemmAT(m, n, k, a, b, c); break;
    case Op::kBT: GemmBT(m, n, k, a, b, c); break;
  }
}

/// How a naive reference chain rounds each term.
enum class Chain { kPlain, kFused };

/// Reference C += op(A) * op(B): each output element accumulates directly
/// into C along one k-increasing chain. kPlain rounds the product and
/// the sum separately; kFused rounds each term once through std::fma.
std::vector<float> Naive(Chain chain, Op op, int m, int n, int k,
                         const float* a, const float* b,
                         std::vector<float> c) {
  // A(i,l) = a[i*ai + l*al] and B(l,j) = b[l*bl + j*bj].
  const size_t ai = op == Op::kAT ? 1 : k, al = op == Op::kAT ? m : 1;
  const size_t bl = op == Op::kBT ? 1 : n, bj = op == Op::kBT ? k : 1;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& acc = c[static_cast<size_t>(i) * n + j];
      for (int l = 0; l < k; ++l) {
        const float x = a[i * ai + l * al];
        const float y = b[l * bl + j * bj];
        if (chain == Chain::kFused) {
          acc = std::fma(x, y, acc);
        } else {
          // A volatile product: on a target with FMA the compiler would
          // otherwise contract the multiply and add into one fma.
          volatile float p = x * y;
          acc += p;
        }
      }
    }
  }
  return c;
}

/// Over a series of kernel outputs: whether every one equals its
/// plain-chain reference bit for bit, and whether every one equals its
/// fused-chain reference. A tier must keep one of the two throughout.
class OneChain {
 public:
  /// Checks `got`, the kernel's result of op(a, b) added to `c0`.
  void Check(Op op, int m, int n, int k, const float* a, const float* b,
             const std::vector<float>& c0, const std::vector<float>& got) {
    const std::string where = std::string(OpName(op)) + " " +
                              std::to_string(m) + "x" + std::to_string(n) +
                              "x" + std::to_string(k);
    if (plain_miss_.empty() &&
        got != Naive(Chain::kPlain, op, m, n, k, a, b, c0)) {
      plain_miss_ = where;
    }
    if (fused_miss_.empty() &&
        got != Naive(Chain::kFused, op, m, n, k, a, b, c0)) {
      fused_miss_ = where;
    }
  }

  ::testing::AssertionResult Holds() const {
    if (plain_miss_.empty() || fused_miss_.empty()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "the plain chain first differs at " << plain_miss_
           << ", the fma chain at " << fused_miss_;
  }

 private:
  std::string plain_miss_, fused_miss_;
};

/// B ([n, k] row-major) in the stored panel layout GemmBTPacked reads.
std::vector<float> PackedImage(int n, int k, const std::vector<float>& b) {
  std::vector<float> packed(PackedFloats(n, k), 0.0f);
  PackRows(n, k, b.data(), 0, packed.data());
  return packed;
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

/// `op` on the portable tier, which every machine runs, from a zero C:
/// one naive chain on every shape.
void ExpectPortableFollowsOneChain(Op op, uint64_t seed) {
  ScopedTier portable(KernelTier::kPortable);
  OneChain chain;
  for (const auto& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, seed + static_cast<uint64_t>(s.m));
    const auto b = RandomVec(s.k * s.n, seed + 1 + static_cast<uint64_t>(s.n));
    const std::vector<float> c0(static_cast<size_t>(s.m) * s.n, 0.0f);
    std::vector<float> got = c0;
    RunKernel(op, s.m, s.n, s.k, a.data(), b.data(), got.data());
    chain.Check(op, s.m, s.n, s.k, a.data(), b.data(), c0, got);
  }
  EXPECT_TRUE(chain.Holds()) << OpName(op);
}

TEST(KernelsTest, BlockedGemmMatchesNaiveExactly) {
  ExpectPortableFollowsOneChain(Op::kNN, 1);
}

TEST(KernelsTest, GemmAccumulatesIntoExistingC) {
  ScopedTier portable(KernelTier::kPortable);
  const int m = 3, n = 5, k = 4;
  const auto a = RandomVec(m * k, 11);
  const auto b = RandomVec(k * n, 12);
  const std::vector<float> base(static_cast<size_t>(m) * n, 2.5f);
  std::vector<float> got = base;
  Gemm(m, n, k, a.data(), b.data(), got.data());
  OneChain chain;
  chain.Check(Op::kNN, m, n, k, a.data(), b.data(), base, got);
  EXPECT_TRUE(chain.Holds());
}

TEST(KernelsTest, GemmATMatchesNaiveExactly) {
  ExpectPortableFollowsOneChain(Op::kAT, 3);
}

TEST(KernelsTest, GemmBTMatchesNaiveExactly) {
  ExpectPortableFollowsOneChain(Op::kBT, 5);
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
// the naive chains, at edge shapes (non-multiple-of-tile m/n/k for every
// tile geometry in use, m=1, k=0, multi-k-block), plus the per-tier
// determinism contract (threaded == serial, repeat == repeat) and the
// cross-tier tolerance bound.

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
    OneChain chain;
    for (const auto& s : kDispatchShapes) {
      const auto a = RandomVec(s.m * s.k, 71 + static_cast<uint64_t>(s.m));
      const auto at = RandomVec(s.k * s.m, 72 + static_cast<uint64_t>(s.m));
      const auto b = RandomVec(s.k * s.n, 73 + static_cast<uint64_t>(s.n));
      const auto bt = RandomVec(s.n * s.k, 74 + static_cast<uint64_t>(s.n));
      // Non-zero initial C: the += contract must hold in every tier.
      const std::vector<float> c0(static_cast<size_t>(s.m) * s.n, 0.25f);
      std::vector<float> got_nn = c0, got_at = c0, got_bt = c0;
      std::vector<float> got_packed = c0;
      Gemm(s.m, s.n, s.k, a.data(), b.data(), got_nn.data());
      GemmAT(s.m, s.n, s.k, at.data(), b.data(), got_at.data());
      GemmBT(s.m, s.n, s.k, a.data(), bt.data(), got_bt.data());
      GemmBTPacked(s.m, s.n, s.k, a.data(), PackedImage(s.n, s.k, bt).data(),
                   got_packed.data());
      chain.Check(Op::kNN, s.m, s.n, s.k, a.data(), b.data(), c0, got_nn);
      chain.Check(Op::kAT, s.m, s.n, s.k, at.data(), b.data(), c0, got_at);
      chain.Check(Op::kBT, s.m, s.n, s.k, a.data(), bt.data(), c0, got_bt);
      chain.Check(Op::kBT, s.m, s.n, s.k, a.data(), bt.data(), c0,
                  got_packed);
    }
    EXPECT_TRUE(chain.Holds()) << KernelTierName(tier);
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

TEST(KernelDispatchTest, TiersAgreeWithPortableWithinTolerance) {
  // The cross-tier bound: any tier's output stays within a small
  // relative tolerance of the portable tier, which every machine runs.
  // This is the contract callers get when the same binary dispatches
  // differently on different machines.
  const int m = 23, n = 45, k = 131;
  const auto a = RandomVec(m * k, 95);
  const auto b = RandomVec(k * n, 96);
  std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
  {
    ScopedTier portable(KernelTier::kPortable);
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

TEST(KernelDispatchTest, PortableAlwaysSupported) {
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

TEST(KernelDispatchTest, ResetKeepsTheEnvironmentTier) {
  // A test run that pins its tier through SUDOWOODO_KERNEL_TIER relies on
  // the pin holding: a name the dispatcher does not recognise, or a tier
  // this machine cannot run, silently falls back to the best tier.
  ResetKernelTier();
  const char* name = std::getenv("SUDOWOODO_KERNEL_TIER");
  if (name == nullptr || name[0] == '\0') {
    // No pin: the best tier this binary and CPU support.
    EXPECT_EQ(ActiveKernelTier(), AvailableTiers().back());
    return;
  }
  const KernelTier* named =
      std::find_if(std::begin(kAllTiers), std::end(kAllTiers),
                   [name](KernelTier t) {
                     return std::string(name) == KernelTierName(t);
                   });
  ASSERT_NE(named, std::end(kAllTiers))
      << "SUDOWOODO_KERNEL_TIER=" << name << " names no kernel tier";
  EXPECT_EQ(ActiveKernelTier(), *named)
      << "SUDOWOODO_KERNEL_TIER=" << name << " is not the active tier";
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

// --- GELU: every tier against a scalar fdlibm port -------------------------
//
// GeluForward and GeluBackward evaluate tanh through a lane-wise port of
// fdlibm's tanhf and expm1f, the code glibc runs for std::tanh(float).
// The spec is the scalar port below, written in this file so the test
// depends on no libm; CMakeLists.txt compiles this file with
// -ffp-contract=off so the reference rounds every operation as written,
// as the kernels do.

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

constexpr float kInvLn2 = 1.4426950216e+00f;  // expm1f's 1/ln2

// fdlibm s_expm1f.c (Ian Lance Taylor's float conversion), errno aside.
float RefExpm1f(float x) {
  constexpr float kOne = 1.0f, kHuge = 1.0e+30f, kTiny = 1.0e-30f;
  constexpr float kOThreshold = 8.8721679688e+01f;
  constexpr float kLn2Hi = 6.9313812256e-01f, kLn2Lo = 9.0580006145e-06f;
  constexpr float kQ1 = -3.3333335072e-02f, kQ2 = 1.5873016091e-03f,
                  kQ3 = -7.9365076090e-05f, kQ4 = 4.0082177293e-06f,
                  kQ5 = -2.0109921195e-07f;
  uint32_t hx = Bits(x);
  const uint32_t xsb = hx & 0x80000000u;
  hx &= 0x7fffffffu;
  if (hx >= 0x4195b844u) {  // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {
      if (hx > 0x7f800000u) return x + x;                   // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;   // +-inf
      if (x > kOThreshold) return kHuge * kHuge;            // overflow
    }
    if (xsb != 0) return kTiny - kOne;  // x < -27 ln2: -1
  }
  float hi, lo, c = 0.0f, t;
  int32_t k;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    t = kHuge + x;
    return x - (t - (kHuge + x));
  } else {
    k = 0;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return kOne + 2.0f * (x - e);
  }
  const uint32_t kexp = static_cast<uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {
    const float y = kOne - (e - x);
    return FromBits(Bits(y) + kexp) - kOne;
  }
  float y;
  if (k < 23) {
    t = FromBits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = FromBits(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return FromBits(Bits(y) + kexp);
}

// fdlibm s_tanhf.c.
float RefTanhf(float x) {
  constexpr float kOne = 1.0f, kTwo = 2.0f, kTiny = 1.0e-30f;
  const uint32_t jx = Bits(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) return neg ? kOne / x - kOne : kOne / x + kOne;
  float z;
  if (ix < 0x41b00000u) {  // |x| < 22
    if (ix == 0) return x;
    if (ix < 0x24000000u) return x * (kOne + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {                      // |x| >= 1
      const float t = RefExpm1f(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = RefExpm1f(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {
    z = kOne - kTiny;
  }
  return neg ? -z : z;
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

float RefGeluInner(float v) { return kGeluC * (v + kGeluA * v * v * v); }

float RefGelu(float v) {
  return 0.5f * v * (1.0f + RefTanhf(RefGeluInner(v)));
}

// The backward's inner value: x*x*x first, so not always RefGeluInner's.
float RefGeluGradInner(float x) {
  const float x3 = x * x * x;
  return kGeluC * (x + kGeluA * x3);
}

float RefGeluGrad(float x) {
  const float t = RefTanhf(RefGeluGradInner(x));
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * kGeluA * x * x);
}

/// What GeluBackward leaves in dx[i].
float RefGeluBackward(float x, float dy, float dx) {
  return dx + RefGeluGrad(x) * dy;
}

/// Counts outputs whose bits differ from `want`, reporting the first few.
size_t CountMismatches(const std::vector<float>& x,
                       const std::vector<float>& got,
                       const std::vector<uint32_t>& want,
                       const std::string& what) {
  size_t bad = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (Bits(got[i]) == want[i]) continue;
    if (bad++ < 3) {
      ADD_FAILURE() << what << ": x bits " << std::hex << Bits(x[i])
                    << " got " << Bits(got[i]) << " want " << want[i];
    }
  }
  return bad;
}

/// Runs GeluForward and GeluBackward (into a nonzero dx) on every tier
/// this machine supports and requires every output to equal RefGelu and
/// RefGeluBackward bit for bit.
void ExpectGeluBitExact(const std::vector<float>& x, const char* what) {
  const int n = static_cast<int>(x.size());
  const std::vector<float> dy = RandomVec(n, 77);
  const std::vector<float> dx0 = RandomVec(n, 78);
  std::vector<uint32_t> want(x.size()), want_dx(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    want[i] = Bits(RefGelu(x[i]));
    want_dx[i] = Bits(RefGeluBackward(x[i], dy[i], dx0[i]));
  }
  for (KernelTier tier : AvailableTiers()) {
    ScopedTier scoped(tier);
    const std::string name = std::string(what) + " " + KernelTierName(tier);
    std::vector<float> y(x.size());
    GeluForward(n, x.data(), y.data());
    EXPECT_EQ(CountMismatches(x, y, want, name + " forward"), 0u) << name;
    std::vector<float> dx = dx0;
    GeluBackward(n, x.data(), dy.data(), dx.data());
    EXPECT_EQ(CountMismatches(x, dx, want_dx, name + " backward"), 0u)
        << name;
  }
}

TEST(GeluKernelTest, EveryTierMatchesFdlibmOnStridedBitPatterns) {
  std::vector<float> x;
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += 4099) {
    x.push_back(FromBits(static_cast<uint32_t>(b)));
  }
  ExpectGeluBitExact(x, "every 4099th pattern");
}

/// The smallest v >= 0 whose GELU inner value (forward's or backward's)
/// reaches `target` (inner is non-decreasing in v, so a bisection over
/// bit patterns finds it).
uint32_t FirstVReaching(float target, float (*inner)(float)) {
  uint32_t lo = 0, hi = 0x7f800000u;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (inner(FromBits(mid)) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The smallest |x| at which tanhf's call expm1f(2|x|) reduces by k >= k0.
float FirstTanhArgWithK(int k0) {
  uint32_t lo = 0x3f800000u, hi = 0x41b00000u;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    const float arg = 2.0f * FromBits(mid);
    if (static_cast<int>(kInvLn2 * arg + 0.5f) >= k0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return FromBits(lo);
}

TEST(GeluKernelTest, EveryTierMatchesFdlibmAtBranchThresholds) {
  // Every branch threshold of tanhf and of the expm1f calls it makes,
  // as a value of tanhf's argument x: tanhf's 2^-55, 1 and 22; expm1f's
  // 2^-25, 0.5 ln2 and 1.5 ln2 on -2|x|, its 27 ln2 filter on 2|x|, and
  // the reductions where k reaches 23 and 57 (new exponent branches).
  const std::vector<float> thresholds = {
      FromBits(0x24000000u),      FromBits(0x3f800000u),
      FromBits(0x41b00000u),      FromBits(0x33000000u) * 0.5f,
      FromBits(0x3eb17218u) * 0.5f, FromBits(0x3f851592u) * 0.5f,
      FromBits(0x4195b844u) * 0.5f, FirstTanhArgWithK(23),
      FirstTanhArgWithK(57)};
  std::vector<float> x;
  for (float th : thresholds) {
    // The GELU input whose inner value crosses the threshold, +-8 ulps:
    // inner moves roughly 1 to 3 of its own ulps per ulp of v, so this
    // brackets every threshold by at least +-2 of tanhf's ulps. Both
    // signs, for the forward's inner value and the backward's.
    for (float (*inner)(float) : {RefGeluInner, RefGeluGradInner}) {
      const uint32_t v = FirstVReaching(th, inner);
      for (uint32_t b = v - 8; b <= v + 8; ++b) {
        x.push_back(FromBits(b));
        x.push_back(-FromBits(b));
      }
    }
    // The threshold itself as a GELU input, +-2 ulps.
    for (uint32_t b = Bits(th) - 2; b <= Bits(th) + 2; ++b) {
      x.push_back(FromBits(b));
      x.push_back(-FromBits(b));
    }
  }
  ExpectGeluBitExact(x, "branch thresholds");
}

TEST(GeluKernelTest, EveryTierMatchesFdlibmOnZerosInfinitiesAndNaNs) {
  std::vector<float> x;
  for (uint32_t b :
       {0x00000000u, 0x80000000u,   // +-0
        0x7f800000u, 0xff800000u,   // +-inf
        0x7fc00000u, 0xffc00000u,   // quiet NaNs
        0x7fc12345u, 0xffd00001u,   // quiet NaNs with payloads
        0x7f800001u, 0xffa00000u,   // signaling NaNs
        0x7fbfffffu, 0xff812345u,   // signaling NaNs with payloads
        0x00000001u, 0x807fffffu,   // denormals
        0x7f7fffffu, 0xff7fffffu}) {  // +-FLT_MAX
    x.push_back(FromBits(b));
  }
  ExpectGeluBitExact(x, "special values");
}

TEST(GeluKernelTest, EveryLengthAndInPlace) {
  // Lengths 0-33 cover every tier's full vectors and every tail; the
  // floats past n must stay untouched.
  for (int n = 0; n <= 33; ++n) {
    const std::vector<float> x = RandomVec(n + 1, 900 + n);
    for (KernelTier tier : AvailableTiers()) {
      ScopedTier scoped(tier);
      std::vector<float> y(static_cast<size_t>(n) + 1, -7.0f);
      GeluForward(n, x.data(), y.data());
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(y[static_cast<size_t>(i)]),
                  Bits(RefGelu(x[static_cast<size_t>(i)])))
            << KernelTierName(tier) << " n " << n << " i " << i;
      }
      ASSERT_EQ(y[static_cast<size_t>(n)], -7.0f)
          << KernelTierName(tier) << " wrote past n " << n;
      std::vector<float> inplace = x;
      GeluForward(n, inplace.data(), inplace.data());
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(inplace[static_cast<size_t>(i)]),
                  Bits(y[static_cast<size_t>(i)]))
            << KernelTierName(tier) << " in place, n " << n;
      }
      ASSERT_EQ(inplace[static_cast<size_t>(n)], x[static_cast<size_t>(n)]);
    }
  }
}

TEST(GeluKernelTest, BackwardEveryLengthAndSharedGradBuffer) {
  // Lengths 0-33 into a nonzero dx; the float past n must stay untouched.
  // dy == dx (one buffer) accumulates d * dx into dx.
  for (int n = 0; n <= 33; ++n) {
    const std::vector<float> x = RandomVec(n + 1, 950 + n);
    const std::vector<float> dy = RandomVec(n + 1, 1000 + n);
    const std::vector<float> dx0 = RandomVec(n + 1, 1050 + n);
    for (KernelTier tier : AvailableTiers()) {
      ScopedTier scoped(tier);
      std::vector<float> dx = dx0;
      GeluBackward(n, x.data(), dy.data(), dx.data());
      std::vector<float> shared = dx0;
      GeluBackward(n, x.data(), shared.data(), shared.data());
      for (int i = 0; i < n; ++i) {
        const size_t u = static_cast<size_t>(i);
        ASSERT_EQ(Bits(dx[u]), Bits(RefGeluBackward(x[u], dy[u], dx0[u])))
            << KernelTierName(tier) << " n " << n << " i " << i;
        ASSERT_EQ(Bits(shared[u]),
                  Bits(RefGeluBackward(x[u], dx0[u], dx0[u])))
            << KernelTierName(tier) << " dy == dx, n " << n << " i " << i;
      }
      const size_t past = static_cast<size_t>(n);
      ASSERT_EQ(Bits(dx[past]), Bits(dx0[past]))
          << KernelTierName(tier) << " wrote past n " << n;
      ASSERT_EQ(Bits(shared[past]), Bits(dx0[past]))
          << KernelTierName(tier) << " dy == dx wrote past n " << n;
    }
  }
}

}  // namespace
}  // namespace sudowoodo::tensor::kernels
