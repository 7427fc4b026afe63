#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/parallel.h"
#include "tensor/kernels_micro.h"

namespace sudowoodo::tensor::kernels {

namespace {

/// Shared fan-out for the row-sharded GEMM variants: ParallelFor over the
/// m output rows on the caller's pool (`pool == nullptr` is serial). Each
/// output element is computed whole by exactly one shard, so the result is
/// bit-identical to serial for any shard count or pool size.
template <typename RowsFn>
void ShardRows(int m, ThreadPool* pool, int num_shards, const RowsFn& rows) {
  ParallelFor(
      m, pool != nullptr ? num_shards : 1,
      [&rows](int64_t begin, int64_t end, int) {
        rows(static_cast<int>(begin), static_cast<int>(end));
      },
      pool);
}

/// One tier's micro-kernel workers. Tiers this binary was not built with
/// are compiled out (SUDOWOODO_HAVE_* come from CMakeLists.txt) and can
/// never be active, so every other case lands on the portable tier.
struct TierKernels {
  detail::GemmMicroFn gemm;
  detail::GemmBTPackedMicroFn gemm_bt_packed;
  detail::GemmBTI8MicroFn gemm_bt_i8;
  detail::GeluFn gelu;
  detail::GeluBackwardFn gelu_backward;
};

TierKernels ActiveKernels() {
  switch (ActiveKernelTier()) {
#if SUDOWOODO_HAVE_AVX512
    case KernelTier::kAvx512:
      return {detail::GemmMicroAvx512, detail::GemmBTPackedMicroAvx512,
              detail::GemmBTI8MicroAvx512, detail::GeluForwardAvx512,
              detail::GeluBackwardAvx512};
#endif
#if SUDOWOODO_HAVE_AVX2
    case KernelTier::kAvx2:
      return {detail::GemmMicroAvx2, detail::GemmBTPackedMicroAvx2,
              detail::GemmBTI8MicroAvx2, detail::GeluForwardAvx2,
              detail::GeluBackwardAvx2};
#endif
#if SUDOWOODO_HAVE_NEON
    case KernelTier::kNeon:
      return {detail::GemmMicroNeon, detail::GemmBTPackedMicroNeon,
              detail::GemmBTI8MicroNeon, detail::GeluForwardNeon,
              detail::GeluBackwardNeon};
#endif
    default:
      return {detail::GemmMicroPortable, detail::GemmBTPackedMicroPortable,
              detail::GemmBTI8MicroPortable, detail::GeluForwardPortable,
              detail::GeluBackwardPortable};
  }
}

KernelTier DetectDefaultTier() {
  if (const char* name = std::getenv("SUDOWOODO_KERNEL_TIER")) {
    for (KernelTier t : {KernelTier::kPortable, KernelTier::kNeon,
                         KernelTier::kAvx2, KernelTier::kAvx512}) {
      if (std::strcmp(name, KernelTierName(t)) == 0 &&
          KernelTierSupported(t)) {
        return t;
      }
    }
    // Unknown or unsupported name: fall through to the best tier.
  }
  for (KernelTier t : {KernelTier::kAvx512, KernelTier::kAvx2,
                       KernelTier::kNeon}) {
    if (KernelTierSupported(t)) return t;
  }
  return KernelTier::kPortable;
}

/// Row-sharded C += op(A) * op(B) on the active tier's micro-kernel.
void DispatchGemm(detail::GemmVariant v, int m, int n, int k, const float* a,
                  const float* b, float* c, ThreadPool* pool,
                  int num_shards) {
  const detail::GemmMicroFn micro = ActiveKernels().gemm;
  ShardRows(m, pool, num_shards, [=](int begin, int end) {
    micro(v, begin, end, m, n, k, a, b, c);
  });
}

// -1 = no override; otherwise the forced tier. Relaxed atomics suffice:
// the contract (kernels.h) is that overrides happen between kernel
// calls, the atomic just keeps concurrent readers well-defined.
std::atomic<int> g_forced_tier{-1};

}  // namespace

KernelTier ActiveKernelTier() {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelTier>(forced);
  static const KernelTier kDefault = DetectDefaultTier();
  return kDefault;
}

bool KernelTierSupported(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable:
      return true;
    case KernelTier::kNeon:
#if SUDOWOODO_HAVE_NEON
      return true;
#else
      return false;
#endif
    case KernelTier::kAvx2:
#if SUDOWOODO_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case KernelTier::kAvx512:
#if SUDOWOODO_HAVE_AVX512
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable: return "portable";
    case KernelTier::kNeon: return "neon";
    case KernelTier::kAvx2: return "avx2";
    case KernelTier::kAvx512: return "avx512";
  }
  return "?";
}

bool SetKernelTier(KernelTier tier) {
  if (!KernelTierSupported(tier)) return false;
  g_forced_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
  return true;
}

void ResetKernelTier() {
  g_forced_tier.store(-1, std::memory_order_relaxed);
}

void Gemm(int m, int n, int k, const float* a, const float* b, float* c,
          ThreadPool* pool, int num_shards) {
  DispatchGemm(detail::GemmVariant::kNN, m, n, k, a, b, c, pool, num_shards);
}

void GemmAT(int m, int n, int k, const float* a, const float* b, float* c,
            ThreadPool* pool, int num_shards) {
  DispatchGemm(detail::GemmVariant::kAT, m, n, k, a, b, c, pool, num_shards);
}

void GemmBT(int m, int n, int k, const float* a, const float* b, float* c,
            ThreadPool* pool, int num_shards) {
  DispatchGemm(detail::GemmVariant::kBT, m, n, k, a, b, c, pool, num_shards);
}

void PackRows(int n, int k, const float* rows, int r0, float* packed) {
  if (k <= 0) return;
  for (int i = 0; i < n; ++i) {
    const float* src = rows + static_cast<size_t>(i) * k;
    float* dst = packed + PackedRowOffset(r0 + i, k);
    for (int l = 0; l < k; ++l) {
      dst[static_cast<size_t>(l) * kPackedPanelRows] = src[l];
    }
  }
}

void UnpackRow(int k, const float* packed, int r, float* out) {
  if (k <= 0) return;
  const float* src = packed + PackedRowOffset(r, k);
  for (int l = 0; l < k; ++l) {
    out[l] = src[static_cast<size_t>(l) * kPackedPanelRows];
  }
}

void GemmBTPacked(int m, int n, int k, const float* a, const float* b_packed,
                  float* c, ThreadPool* pool, int num_shards) {
  const detail::GemmBTPackedMicroFn micro = ActiveKernels().gemm_bt_packed;
  ShardRows(m, pool, num_shards, [=](int begin, int end) {
    micro(begin, end, n, k, a, b_packed, c);
  });
}

void QuantizeRowsI8(int m, int n, const float* x, int8_t* q, float* scales) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<size_t>(i) * n;
    int8_t* qr = q + static_cast<size_t>(i) * n;
    float max_abs = 0.0f;
    for (int j = 0; j < n; ++j) {
      const float v = std::fabs(xr[j]);
      // Non-finite elements are excluded from the scale (an Inf would
      // collapse every finite element to code 0) and quantize to 0 below.
      if (std::isfinite(v) && v > max_abs) max_abs = v;
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
    scales[i] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (int j = 0; j < n; ++j) {
      const float v = xr[j] * inv;
      if (!std::isfinite(v)) {
        qr[j] = 0;
        continue;
      }
      // v is within ~127 * (1 + eps) of the representable range (inv is
      // the rounded reciprocal, not exact), so clamp after rounding.
      const long r = std::lrintf(v);
      qr[j] = static_cast<int8_t>(std::clamp(r, -127L, 127L));
    }
  }
}

void DequantizeRowsI8(int m, int n, const int8_t* q, const float* scales,
                      float* x) {
  for (int i = 0; i < m; ++i) {
    const int8_t* qr = q + static_cast<size_t>(i) * n;
    const float scale = scales[i];
    float* xr = x + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) xr[j] = static_cast<float>(qr[j]) * scale;
  }
}

void GemmBTI8(int m, int n, int k, const int8_t* a, const float* a_scale,
              const int8_t* b, const float* b_scale, float* c,
              ThreadPool* pool, int num_shards) {
  const detail::GemmBTI8MicroFn micro = ActiveKernels().gemm_bt_i8;
  ShardRows(m, pool, num_shards, [=](int begin, int end) {
    micro(begin, end, n, k, a, a_scale, b, b_scale, c);
  });
}

float Dot(const float* a, const float* b, int n) {
  // Four independent partial sums: the chains have no cross dependency, so
  // the compiler can keep them in vector lanes; the combine order is fixed.
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

double DotDouble(const float* a, const float* b, int n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += static_cast<double>(a[i]) * b[i];
    s1 += static_cast<double>(a[i + 1]) * b[i + 1];
    s2 += static_cast<double>(a[i + 2]) * b[i + 2];
    s3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  for (; i < n; ++i) s0 += static_cast<double>(a[i]) * b[i];
  return (s0 + s1) + (s2 + s3);
}

void Axpy(int n, float alpha, const float* x, float* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAdd(int n, float alpha, const float* x, float beta, float* y) {
  for (int i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

void RowSoftmax(int m, int n, const float* x, float* y) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<size_t>(i) * n;
    float* yr = y + static_cast<size_t>(i) * n;
    float mx = xr[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
    float z = 0.0f;
    for (int j = 0; j < n; ++j) {
      yr[j] = std::exp(xr[j] - mx);
      z += yr[j];
    }
    const float inv = 1.0f / z;
    for (int j = 0; j < n; ++j) yr[j] *= inv;
  }
}

void RowSoftmaxMasked(int m, int n, const float* x, const int* valid,
                      float* y) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<size_t>(i) * n;
    float* yr = y + static_cast<size_t>(i) * n;
    const int v = valid[i];
    float mx = xr[0];
    for (int j = 1; j < v; ++j) mx = std::max(mx, xr[j]);
    float z = 0.0f;
    for (int j = 0; j < v; ++j) {
      yr[j] = std::exp(xr[j] - mx);
      z += yr[j];
    }
    const float inv = 1.0f / z;
    for (int j = 0; j < v; ++j) yr[j] *= inv;
    for (int j = v; j < n; ++j) yr[j] = 0.0f;
  }
}

namespace {

/// out[j] = mean over positions [r0, r1) of table[ids[r]][j], times
/// mask[r][j] when there is a mask. The sweep is row-major, yet each
/// out[j] accumulates strictly r-increasing, so the sum is the scalar
/// per-column chain bit for bit.
void SegmentMean(int d, const float* table, const int* ids, const float* mask,
                 int r0, int r1, float* out) {
  std::fill(out, out + d, 0.0f);
  for (int r = r0; r < r1; ++r) {
    const float* x = table + static_cast<size_t>(ids[r]) * d;
    if (mask == nullptr) {
      for (int j = 0; j < d; ++j) out[j] += x[j];
    } else {
      const float* m = mask + static_cast<size_t>(r) * d;
      for (int j = 0; j < d; ++j) out[j] += x[j] * m[j];
    }
  }
  const float count = static_cast<float>(r1 - r0);
  for (int j = 0; j < d; ++j) out[j] /= count;
}

}  // namespace

void BagPairFeatures(int n, int d, const float* table, const int* ids,
                     const int* offsets, const int* splits, const float* mask,
                     float* out) {
  for (int i = 0; i < n; ++i) {
    const int begin = offsets[i];
    const int len = offsets[i + 1] - begin;
    const int s = splits[i];
    const int* row_ids = ids + begin;
    const float* row_mask =
        mask == nullptr ? nullptr : mask + static_cast<size_t>(begin) * d;
    float* a = out + static_cast<size_t>(i) * 4 * d;
    float* c = a + d;
    if (s >= 0) {
      SegmentMean(d, table, row_ids, row_mask, 0, s, a);
      SegmentMean(d, table, row_ids, row_mask, s + 1, len, c);
    } else {
      SegmentMean(d, table, row_ids, row_mask, 0, len, a);
      std::copy(a, a + d, c);
    }
    for (int j = 0; j < d; ++j) {
      a[2 * d + j] = std::fabs(a[j] - c[j]);
      a[3 * d + j] = a[j] * c[j];
    }
  }
}

void L2NormRows(int m, int n, const float* x, float* norms) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<size_t>(i) * n;
    norms[i] = std::sqrt(Dot(xr, xr, n));
  }
}

void LayerNormRows(int m, int n, const float* x, const float* gamma,
                   const float* beta, float eps, float* y, float* xhat,
                   float* inv_std) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<size_t>(i) * n;
    float mean = 0.0f;
    for (int j = 0; j < n; ++j) mean += xr[j];
    mean /= n;
    float var = 0.0f;
    for (int j = 0; j < n; ++j) var += (xr[j] - mean) * (xr[j] - mean);
    var /= n;
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[i] = istd;
    float* yr = y + static_cast<size_t>(i) * n;
    float* xh = xhat != nullptr ? xhat + static_cast<size_t>(i) * n : nullptr;
    for (int j = 0; j < n; ++j) {
      const float h = (xr[j] - mean) * istd;
      if (xh != nullptr) xh[j] = h;
      yr[j] = h * gamma[j] + beta[j];
    }
  }
}

void GeluForward(int n, const float* x, float* y) {
  ActiveKernels().gelu(n, x, y);
}

void GeluBackward(int n, const float* x, const float* dy, float* dx) {
  ActiveKernels().gelu_backward(n, x, dy, dx);
}

}  // namespace sudowoodo::tensor::kernels
