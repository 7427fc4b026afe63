// SIMD-friendly dense float kernels: the raw-math layer below the autograd
// engine.
//
// Layering contract (see src/tensor/README.md): everything in this header
// operates on plain float buffers with tight strides - row-major, or the
// pre-packed panel layout of GemmBTPacked - no Tensor, no graph, no
// allocation. tensor.cc owns autograd bookkeeping and calls
// down into these kernels for every dense hot loop; the layers above
// (nn/, cluster/, index/) either go through tensor ops or call the kernels
// directly on their own buffers for graph-free inference paths.
//
// Determinism (see src/tensor/README.md for the full contract): the GEMM
// variants dispatch at runtime to one of several micro-kernel tiers
// (portable vector, NEON, AVX2, AVX-512). *Within* a tier, every kernel
// accumulates each output element along one k-increasing chain that
// does not depend on blocking parameters or on the number of shards, so
// threaded results are bit-identical to serial ones and batched results
// are bit-identical to per-row ones. *Across* tiers the rounding differs:
// a tier compiled with fused multiply-adds rounds each term once, one
// without them rounds the product and the sum separately. Each tier is
// therefore bitwise one of two naive loops (`c += a * b` or
// `c = fma(a, b, c)`, k-increasing, starting from the existing C), and
// different tiers agree only within a small relative tolerance. No tier
// skips exact-zero operands (0 * Inf/NaN is NaN), so padded or garbage
// operand rows must be zeroed at the source (see "Masking and batching
// rules" in the README).
//
// Reductions (Dot, L2NormRows) use a fixed 4-lane partial sum so the
// compiler can vectorize them; the lane-combine order is fixed, so they
// too are deterministic - but note they are *not* the same rounding as a
// single-chain scalar loop.

#ifndef SUDOWOODO_TENSOR_KERNELS_H_
#define SUDOWOODO_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h; only the pointer is used here.
}

namespace sudowoodo::tensor::kernels {

/// Dispatch tiers, worst to best: the register-blocked micro-kernel (and
/// GELU and the int8 panel) compiled for progressively wider vectors.
/// Every tier is deterministic on its own; the float GEMM tiers differ
/// from each other by rounding only, GELU and GemmBTI8 not at all.
enum class KernelTier {
  kPortable = 0, // 4-wide generic vectors, always available
  kNeon = 1,     // NEON (aarch64)
  kAvx2 = 2,     // AVX2+FMA (x86-64)
  kAvx512 = 3,   // AVX-512F (x86-64)
};

/// The tier the kernels currently dispatch to. Resolved once from the
/// environment and CPUID on first use:
/// SUDOWOODO_KERNEL_TIER=portable|neon|avx2|avx512 picks a specific tier
/// (ignored when unsupported or unrecognised), otherwise the best tier
/// this binary and CPU support wins.
KernelTier ActiveKernelTier();

/// Whether `tier` is compiled into this binary and runnable on this CPU.
/// kPortable is always supported.
bool KernelTierSupported(KernelTier tier);

/// Human-readable tier name ("portable", "avx2", ...).
const char* KernelTierName(KernelTier tier);

/// Overrides the dispatch choice (tests and benches). Returns false and
/// changes nothing when `tier` is unsupported. Not thread-safe against
/// concurrent kernel calls; set it from the main thread between batches.
bool SetKernelTier(KernelTier tier);

/// Reverts SetKernelTier to the environment/CPUID default.
void ResetKernelTier();

/// C[m,n] += A[m,k] * B[k,n]. Dispatches to the active tier (see
/// KernelTier); every tier accumulates each output element along a
/// k-increasing chain, so results are bit-identical across blocking and
/// sharding *within* a tier. With `num_shards > 1` the m rows are split
/// into fixed contiguous shards run on `pool` (bit-identical to serial;
/// pass the global pool from common/thread_pool.h). `pool == nullptr` or
/// `num_shards <= 1` is the serial path.
void Gemm(int m, int n, int k, const float* a, const float* b, float* c,
          ThreadPool* pool = nullptr, int num_shards = 1);

/// C[m,n] += A^T * B where A is [k,m] and B is [k,n] (both row-major).
/// The transposed operand is never materialized. With `num_shards > 1`
/// the m *output* rows are split into fixed contiguous shards run on
/// `pool`; the k-long contraction of each element stays whole on one
/// worker, so sharding never changes the accumulation order
/// (bit-identical to serial). This is the weight-gradient kernel of the
/// training path (dW += X^T dY).
void GemmAT(int m, int n, int k, const float* a, const float* b, float* c,
            ThreadPool* pool = nullptr, int num_shards = 1);

/// C[m,n] += A * B^T where A is [m,k] and B is [n,k] (both row-major).
/// Each output element is a dot of two contiguous rows. Row-sharded over
/// `pool` like Gemm (bit-identical for any shard count); this is the
/// input-gradient kernel of the training path (dX += dY W^T).
void GemmBT(int m, int n, int k, const float* a, const float* b, float* c,
            ThreadPool* pool = nullptr, int num_shards = 1);

/// Rows per stored panel of a pre-packed GemmBT operand. It is a multiple
/// of every tier's micro-kernel panel width (8, 16 and 32 floats), so one
/// stored layout serves every tier: a narrower tier reads a stored panel
/// as several of its own panels through a panel stride of 32.
inline constexpr int kPackedPanelRows = 32;

/// The pre-packed layout of n rows of width k: whole panels of
/// kPackedPanelRows rows, each stored k-major, so element (r, l) sits at
/// PackedRowOffset(r, k) + l * kPackedPanelRows. The rows past n in the
/// last panel are zero padding. This is the panel layout the SIMD tiers
/// otherwise gather from a row-major B on every GemmBT call.
inline size_t PackedFloats(int n, int k) {
  const size_t panels =
      (static_cast<size_t>(n) + kPackedPanelRows - 1) / kPackedPanelRows;
  return panels * kPackedPanelRows * static_cast<size_t>(k);
}
inline size_t PackedRowOffset(int r, int k) {
  return static_cast<size_t>(r / kPackedPanelRows) * kPackedPanelRows *
             static_cast<size_t>(k) +
         static_cast<size_t>(r % kPackedPanelRows);
}

/// Writes the n row-major rows of `rows` ([n, k]) as rows r0..r0+n-1 of
/// the packed image `packed`, which must hold PackedFloats(r0 + n, k).
void PackRows(int n, int k, const float* rows, int r0, float* packed);

/// Copies packed row `r` to out[0..k).
void UnpackRow(int k, const float* packed, int r, float* out);

/// GemmBT with B pre-packed: C[m,n] += A[m,k] * B^T where B's n rows are
/// stored in the packed layout above (PackedFloats(n, k) floats). Within
/// a tier every output element is bitwise equal to GemmBT on the
/// row-major B: the same per-element chain, only without the per-call
/// panel gather. Row-sharded over `pool` like GemmBT.
void GemmBTPacked(int m, int n, int k, const float* a, const float* b_packed,
                  float* c, ThreadPool* pool = nullptr, int num_shards = 1);

/// Per-row symmetric int8 quantization of x [m,n]: scales[i] =
/// max_j |x[i,j]| / 127 and q[i,j] = clamp(round(x[i,j] / scales[i]),
/// -127, 127), rounding ties to even (the default FP environment). An
/// all-zero row gets scale 0 and all-zero codes. Non-finite elements are
/// ignored by the max and quantize to 0 (never a float->int cast of a
/// non-finite value, which would be UB); callers that need NaN to poison
/// results must keep the fp32 path. Deterministic and tier-independent:
/// every arithmetic step is a correctly-rounded scalar float op in a
/// fixed order, so the (q, scale) pair for a given row is the same on
/// every build and machine.
void QuantizeRowsI8(int m, int n, const float* x, int8_t* q, float* scales);

/// Inverse of QuantizeRowsI8 up to quantization error: x[i,j] = q[i,j] *
/// scales[i]. Exact per element (int8 -> float conversion is exact and
/// the product is one correctly-rounded multiply), so dequantization is
/// bitwise reproducible everywhere.
void DequantizeRowsI8(int m, int n, const int8_t* q, const float* scales,
                      float* x);

/// Quantized scoring panel: C[m,n] += float(dot) * (a_scale[i] *
/// b_scale[j]) where dot is the int32 dot of int8 rows A[i] and B[j], A
/// is [m,k] and B is [n,k] (the int8 analogue of GemmBT; scores
/// approximate the fp32 dots of the original rows). Row-sharded over
/// `pool` like GemmBT.
///
/// Determinism: STRONGER than the float GEMMs. The int32 accumulation is
/// exact for k <= 133152 (|dot| <= k * 127^2 fits in int32), and the
/// rescale is a fixed float expression per element, c + float(dot) *
/// (a_scale[i] * b_scale[j]), rounded op by op: every tier compiles it
/// with contraction off, so no tier fuses the final add. The output is
/// therefore bit-identical across ALL tiers, thread counts, and
/// blockings, from any starting C - the per-tier TUs exist only so the
/// integer loop vectorizes with the widest available ISA. The float
/// conversion of the dot is exact while |dot| < 2^24 (always true for
/// k <= 1040, far above the embedding dims used here).
void GemmBTI8(int m, int n, int k, const int8_t* a, const float* a_scale,
              const int8_t* b, const float* b_scale, float* c,
              ThreadPool* pool = nullptr, int num_shards = 1);

/// Dot product of two contiguous float spans (4-lane partial sums).
float Dot(const float* a, const float* b, int n);

/// Dot product accumulated in double precision (4-lane partial sums), for
/// callers that need the extra headroom (norms over long vectors).
double DotDouble(const float* a, const float* b, int n);

/// y[i] += alpha * x[i].
void Axpy(int n, float alpha, const float* x, float* y);

/// y[i] = alpha * x[i] + beta * y[i].
void ScaleAdd(int n, float alpha, const float* x, float beta, float* y);

/// Numerically stable per-row softmax: y[i,:] = softmax(x[i,:]).
/// x and y are [m,n]; in-place (y == x) is allowed.
void RowSoftmax(int m, int n, const float* x, float* y);

/// Mask-aware per-row softmax for padded batches: row i is softmaxed over
/// its first valid[i] columns (1 <= valid[i] <= n) and the remaining
/// columns are set to exact 0: in a following Gemm those weights meet
/// the padded operand rows, which add exact zeros only while they are
/// finite, so callers zero such rows at the source. The max/sum
/// reductions walk the valid prefix in the same order RowSoftmax walks
/// a full row, so the valid prefix of a masked row is bit-identical to
/// RowSoftmax on an [m, valid[i]] matrix. In-place (y == x) is allowed.
void RowSoftmaxMasked(int m, int n, const float* x, const int* valid,
                      float* y);

/// norms[i] = sqrt(sum_j x[i,j]^2) for x of shape [m,n].
void L2NormRows(int m, int n, const float* x, float* norms);

/// FastBag's segment-pair pooling of n ragged token rows, read straight
/// from an embedding table [*, d]. Row i holds the ids
/// ids[offsets[i], offsets[i+1]) (at least one); splits[i] = s with
/// 0 < s < len - 1 pools the segments [0, s) and [s + 1, len) around a
/// separator, -1 pools the whole row as one segment. `mask`, when
/// non-null, holds a 0/1 factor per (id, column) of the flattened rows
/// ([offsets[n], d]) that multiplies each gathered value (cutoff DA; a
/// cut Inf or NaN becomes NaN). Row i of out [n, 4d] is [m1, m2, |m1 - m2|,
/// m1 * m2], with m2 = m1 for one segment. A segment mean is
/// (((0 + x_r0) + x_r0+1) + ...) / count per element: one r-increasing
/// chain, the rounding of the per-row Transpose/RowMean/Transpose chain.
/// tensor::BagPairFeatures and FastBag's inference route both call this.
void BagPairFeatures(int n, int d, const float* table, const int* ids,
                     const int* offsets, const int* splits, const float* mask,
                     float* out);

/// Per-row layer-norm forward: y[i,:] = xhat[i,:] * gamma + beta with
/// xhat = (x - mean) / sqrt(var + eps), mean/var reduced per row in one
/// j-increasing scalar chain. This is THE layer-norm float chain: the
/// autograd op (tensor::LayerNormRows) calls down here for its forward,
/// and the workspace inference paths call it directly, so the two are
/// bit-identical by construction. `xhat` and `inv_std` ([m*n] / [m])
/// receive the normalized values and 1/sqrt(var+eps) when non-null (the
/// autograd op saves them for backward); pass nullptr to skip.
void LayerNormRows(int m, int n, const float* x, const float* gamma,
                   const float* beta, float eps, float* y, float* xhat,
                   float* inv_std);

/// Elementwise tanh-approximation GELU forward, shared (like LayerNormRows)
/// between tensor::Gelu and the workspace inference paths:
/// y = 0.5f * x * (1.0f + tanhf(kC * (x + kA * x * x * x))), each op
/// rounded as written. Dispatched per tier (4 lanes on portable and
/// NEON, 8 on AVX2, 16 on AVX-512), with tanhf a lane-wise port of
/// fdlibm's tanhf and expm1f - the code glibc runs for std::tanh(float) -
/// compiled with contraction off. The output is bit-identical across
/// tiers and does not depend on the libm the binary links: it is the
/// scalar fdlibm chain bit for bit, NaN payloads included. In-place
/// (y == x) is allowed.
void GeluForward(int n, const float* x, float* y);

/// GELU backward, accumulating: dx[i] += d * dy[i], where d is the
/// derivative of GeluForward's approximation at x[i] in tensor::Gelu's
/// backward expression order (not the forward's):
///   x3 = x*x*x; inner = kC * (x + kA * x3); t = tanhf(inner);
///   sech2 = 1 - t*t;
///   d = 0.5f*(1 + t) + 0.5f*x*sech2*kC*(1 + 3.0f*kA*x*x),
/// each op rounded as written, tanhf the same lane-wise fdlibm port, in
/// the same contraction-off units. Bit-identical across tiers and to the
/// scalar chain over glibc's tanhf. Each of x, dy and dx must either be
/// the same buffer as another or not overlap it at all.
void GeluBackward(int n, const float* x, const float* dy, float* dx);

}  // namespace sudowoodo::tensor::kernels

#endif  // SUDOWOODO_TENSOR_KERNELS_H_
