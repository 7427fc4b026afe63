// Internal entry points of the register-blocked GEMM micro-kernel tiers.
//
// Each tier lives in its own translation unit (kernels_portable.cc,
// kernels_avx2.cc, kernels_avx512.cc, kernels_neon.cc) compiled with the
// matching ISA flags; all of them include kernels_micro_impl.h, which
// holds the one shared implementation parameterized by vector width.
// Beside each sits a contraction-off unit (kernels_<tier>_exact.cc: the
// same ISA flags plus -ffp-contract=off) for the kernels that must round
// as written on every tier: GELU and the int8 scoring panel. The
// dispatcher in kernels.cc guards every call with a CPUID check, so the
// wider-ISA functions never execute on hardware that lacks the
// instructions. Declarations are unconditional; definitions exist only in
// the TUs CMake compiles for the target architecture (the
// SUDOWOODO_HAVE_* macros gate the call sites).

#ifndef SUDOWOODO_TENSOR_KERNELS_MICRO_H_
#define SUDOWOODO_TENSOR_KERNELS_MICRO_H_

#include <cstdint>

namespace sudowoodo::tensor::kernels::detail {

/// Which transpose variant the shared micro-kernel driver is computing.
/// All three share the same packed-B panel kernel; they differ only in
/// how the B panel is gathered and how A is strided.
enum class GemmVariant {
  kNN,  // C += A[m,k]   * B[k,n]
  kAT,  // C += A[k,m]^T * B[k,n]
  kBT,  // C += A[m,k]   * B[n,k]^T
};

/// One tier's row-range worker: computes output rows [m_begin, m_end) of
/// the full [m,n] product. Accumulates into C (k-increasing FMA chain per
/// element); row ranges are independent, so the sharded overloads hand
/// disjoint ranges to pool workers.
using GemmMicroFn = void (*)(GemmVariant v, int m_begin, int m_end, int m,
                             int n, int k, const float* a, const float* b,
                             float* c);

void GemmMicroPortable(GemmVariant v, int m_begin, int m_end, int m, int n,
                       int k, const float* a, const float* b, float* c);
void GemmMicroNeon(GemmVariant v, int m_begin, int m_end, int m, int n,
                   int k, const float* a, const float* b, float* c);
void GemmMicroAvx2(GemmVariant v, int m_begin, int m_end, int m, int n,
                   int k, const float* a, const float* b, float* c);
void GemmMicroAvx512(GemmVariant v, int m_begin, int m_end, int m, int n,
                     int k, const float* a, const float* b, float* c);

/// One tier's row-range worker for GemmBTPacked (kernels.h): output rows
/// [m_begin, m_end) of C[m,n] += A * B^T with B pre-packed in stored
/// panels of kPackedPanelRows rows. Same per-element chain as the kBT
/// variant of GemmMicroFn on the row-major B.
using GemmBTPackedMicroFn = void (*)(int m_begin, int m_end, int n, int k,
                                     const float* a, const float* b_packed,
                                     float* c);

void GemmBTPackedMicroPortable(int m_begin, int m_end, int n, int k,
                               const float* a, const float* b_packed,
                               float* c);
void GemmBTPackedMicroNeon(int m_begin, int m_end, int n, int k,
                           const float* a, const float* b_packed, float* c);
void GemmBTPackedMicroAvx2(int m_begin, int m_end, int n, int k,
                           const float* a, const float* b_packed, float* c);
void GemmBTPackedMicroAvx512(int m_begin, int m_end, int n, int k,
                             const float* a, const float* b_packed,
                             float* c);

/// One tier's row-range worker for the int8 scoring panel (GemmBTI8 in
/// kernels.h): output rows [m_begin, m_end) of C[m,n] += rescaled int8
/// dots. Every tier computes bit-identical output (integer accumulation
/// is exact; the rescale is a fixed scalar float expression) - the tiers
/// differ only in how fast the compiler's autovectorizer runs the
/// integer loop under that TU's ISA flags. Defined in the per-tier
/// contraction-off TUs (kernels_<tier>_exact.cc), via
/// kernels_quant_impl.h, so no tier fuses the rescale's final add.
using GemmBTI8MicroFn = void (*)(int m_begin, int m_end, int n, int k,
                                 const int8_t* a, const float* a_scale,
                                 const int8_t* b, const float* b_scale,
                                 float* c);

void GemmBTI8MicroPortable(int m_begin, int m_end, int n, int k,
                           const int8_t* a, const float* a_scale,
                           const int8_t* b, const float* b_scale, float* c);
void GemmBTI8MicroNeon(int m_begin, int m_end, int n, int k, const int8_t* a,
                       const float* a_scale, const int8_t* b,
                       const float* b_scale, float* c);
void GemmBTI8MicroAvx2(int m_begin, int m_end, int n, int k, const int8_t* a,
                       const float* a_scale, const int8_t* b,
                       const float* b_scale, float* c);
void GemmBTI8MicroAvx512(int m_begin, int m_end, int n, int k,
                         const int8_t* a, const float* a_scale,
                         const int8_t* b, const float* b_scale, float* c);

/// One tier's GELU forward (GeluForward in kernels.h): y[i] = the
/// tanh-approximation GELU of x[i] for i < n, in vectors of 4, 8 or 16
/// lanes. Every tier is bit-identical to the scalar fdlibm chain; defined
/// in the per-tier contraction-off TUs via kernels_gelu_impl.h.
using GeluFn = void (*)(int n, const float* x, float* y);

void GeluForwardPortable(int n, const float* x, float* y);
void GeluForwardNeon(int n, const float* x, float* y);
void GeluForwardAvx2(int n, const float* x, float* y);
void GeluForwardAvx512(int n, const float* x, float* y);

/// One tier's GELU backward (GeluBackward in kernels.h): dx[i] += the
/// GELU derivative at x[i] times dy[i] for i < n, in the same lanes and
/// units as the forward, bit-identical to the scalar chain on every tier.
using GeluBackwardFn = void (*)(int n, const float* x, const float* dy,
                                float* dx);

void GeluBackwardPortable(int n, const float* x, const float* dy, float* dx);
void GeluBackwardNeon(int n, const float* x, const float* dy, float* dx);
void GeluBackwardAvx2(int n, const float* x, const float* dy, float* dx);
void GeluBackwardAvx512(int n, const float* x, const float* dy, float* dx);

}  // namespace sudowoodo::tensor::kernels::detail

#endif  // SUDOWOODO_TENSOR_KERNELS_MICRO_H_
