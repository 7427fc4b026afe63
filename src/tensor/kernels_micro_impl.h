// The register-blocked GEMM micro-kernel, shared by every SIMD tier.
//
// This header is included (not compiled standalone) by one .cc per tier,
// each built with that tier's ISA flags and these macros defined first:
//
//   SUDOWOODO_MICRO_VEC_FLOATS    floats per vector register (4/8/16)
//   SUDOWOODO_MICRO_ENTRY         name of the exported entry point
//   SUDOWOODO_MICRO_PACKED_ENTRY  name of the pre-packed-B GemmBT entry
//
// Structure (GEBP): the k extent is cut into kKC-deep blocks; each block
// of B is gathered once into packed panels of kNR columns laid out
// k-major (so the inner loop streams one contiguous panel), then swept
// across the caller's row range in kMR-row register tiles. Each tile
// keeps a kMR x kNR accumulator block in registers and performs one
// broadcast-A x panel-B fused multiply-add per k step.
//
// Determinism contract: each output element starts from its existing C
// value and accumulates one fma per k index, strictly k-increasing.
// Cutting k into kKC blocks preserves this (the intermediate store/load
// of C is exact), and neither the row-tile grouping nor the panel width
// touches the per-element chain - so results are bit-identical for any
// m/n/k, any shard decomposition, and any row range split, within a
// tier. Different vector widths still round identically per element (the
// chain is scalar per element); what distinguishes tiers numerically is
// only whether the TU's ISA lets `acc += av * b` contract to a fused
// multiply-add. A tier is therefore bitwise the naive k-increasing loop
// `c += a * b` (no FMA in the ISA: the portable tier on x86-64) or
// `c = fma(a, b, c)` (AVX2, AVX-512, NEON), which tests/kernels_test.cc
// pins for every tier the machine runs.
//
// Pre-packed B (GemmBTPacked): the caller stores B once in panels of
// kPackedPanelRows rows, k-major, so nothing is gathered per call. A
// tier whose kNR is narrower reads each stored panel as kSub of its own
// panels through a panel stride of kPackedPanelRows; the tile body is
// the same template, so each element sees the same chain as above.
//
// Tail handling keeps the same chain: partial row tiles run narrower
// instantiations of the same template, and partial column panels are
// zero-padded in the packed buffer and computed through a stack tile
// whose valid columns are copied in and out (the padded lanes multiply
// packed zeros against finite A, which cannot produce non-finite values).

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/kernels_micro.h"

namespace sudowoodo::tensor::kernels::detail {
namespace {

constexpr int kVF = SUDOWOODO_MICRO_VEC_FLOATS;  // floats per vector
constexpr int kMR = 6;                           // rows per register tile
constexpr int kNV = 2;                           // vectors per tile row
constexpr int kNR = kNV * kVF;                   // columns per panel
constexpr int kKC = 256;                         // k depth per packed block
constexpr int kSP = kPackedPanelRows;            // rows per stored panel
static_assert(kSP % kNR == 0, "stored panels must split into tier panels");
constexpr int kSub = kSP / kNR;                  // tier panels per stored one

// aligned(4): loads/stores go through memcpy below, but keep the type's
// alignment honest for any direct use.
typedef float vfloat
    __attribute__((vector_size(kVF * sizeof(float)), aligned(4)));

inline vfloat LoadU(const float* p) {
  vfloat v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void StoreU(float* p, vfloat v) { __builtin_memcpy(p, &v, sizeof v); }

/// MR x kNR register tile: C_tile += A_chunk * B_panel over kc steps.
/// A is addressed as a[i * a_row_stride + l * a_l_stride] (row-major A
/// and the kAT column walk are both just stride choices); pb is the
/// packed k-major panel, LDB floats per k step (kNR for the per-call
/// pack, kSP for a stored panel). `acc[i][v] += av * bv` contracts to one
/// fused multiply-add per element under the FMA-enabled tiers.
template <int MR, int LDB>
inline void MicroTile(int kc, const float* a, ptrdiff_t a_row_stride,
                      ptrdiff_t a_l_stride, const float* pb, float* c,
                      ptrdiff_t ldc) {
  vfloat acc[MR][kNV];
  for (int i = 0; i < MR; ++i) {
    for (int v = 0; v < kNV; ++v) {
      acc[i][v] = LoadU(c + i * ldc + v * kVF);
    }
  }
  for (int l = 0; l < kc; ++l) {
    const vfloat b0 = LoadU(pb + static_cast<size_t>(l) * LDB);
    const vfloat b1 = LoadU(pb + static_cast<size_t>(l) * LDB + kVF);
    for (int i = 0; i < MR; ++i) {
      const float av = a[i * a_row_stride + l * a_l_stride];
      acc[i][0] += av * b0;
      acc[i][1] += av * b1;
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int v = 0; v < kNV; ++v) {
      StoreU(c + i * ldc + v * kVF, acc[i][v]);
    }
  }
}

template <int LDB>
inline void RunTile(int mr, int kc, const float* a, ptrdiff_t a_row_stride,
                    ptrdiff_t a_l_stride, const float* pb, float* c,
                    ptrdiff_t ldc) {
  switch (mr) {
    case 6:
      MicroTile<6, LDB>(kc, a, a_row_stride, a_l_stride, pb, c, ldc);
      break;
    case 5:
      MicroTile<5, LDB>(kc, a, a_row_stride, a_l_stride, pb, c, ldc);
      break;
    case 4:
      MicroTile<4, LDB>(kc, a, a_row_stride, a_l_stride, pb, c, ldc);
      break;
    case 3:
      MicroTile<3, LDB>(kc, a, a_row_stride, a_l_stride, pb, c, ldc);
      break;
    case 2:
      MicroTile<2, LDB>(kc, a, a_row_stride, a_l_stride, pb, c, ldc);
      break;
    default:
      MicroTile<1, LDB>(kc, a, a_row_stride, a_l_stride, pb, c, ldc);
      break;
  }
}

/// Edge-panel tile (w < kNR valid columns): stage the valid C columns in
/// a full-width stack tile (padded lanes zeroed - the packed panel pads
/// with zeros too, so those lanes stay finite), run the same kernel, and
/// copy the valid columns back. The valid columns see exactly the
/// full-tile chain.
template <int LDB>
inline void RunTileEdge(int mr, int kc, const float* a,
                        ptrdiff_t a_row_stride, ptrdiff_t a_l_stride,
                        const float* pb, float* c, ptrdiff_t ldc, int w) {
  float tmp[kMR * kNR] = {};
  for (int i = 0; i < mr; ++i) {
    std::memcpy(tmp + static_cast<size_t>(i) * kNR, c + i * ldc,
                static_cast<size_t>(w) * sizeof(float));
  }
  RunTile<LDB>(mr, kc, a, a_row_stride, a_l_stride, pb, tmp, kNR);
  for (int i = 0; i < mr; ++i) {
    std::memcpy(c + i * ldc, tmp + static_cast<size_t>(i) * kNR,
                static_cast<size_t>(w) * sizeof(float));
  }
}

/// Gathers B rows [l0, l0+kc) x columns [j0, j0+w) into a k-major panel,
/// zero-padding to kNR columns. B row-major [k, n] (the kNN/kAT layout).
void PackPanelRowMajor(const float* b, int n, int l0, int kc, int j0, int w,
                       float* pb) {
  for (int l = 0; l < kc; ++l) {
    const float* src = b + (static_cast<size_t>(l0) + l) * n + j0;
    float* dst = pb + static_cast<size_t>(l) * kNR;
    std::memcpy(dst, src, static_cast<size_t>(w) * sizeof(float));
    for (int j = w; j < kNR; ++j) dst[j] = 0.0f;
  }
}

/// Same panel from B^T where B is [n, k] row-major (the kBT layout):
/// pb[l, j] = b[j0+j, l0+l], a strided transpose gather.
void PackPanelTransposed(const float* b, int k, int l0, int kc, int j0,
                         int w, float* pb) {
  for (int j = 0; j < w; ++j) {
    const float* src = b + (static_cast<size_t>(j0) + j) * k + l0;
    for (int l = 0; l < kc; ++l) {
      pb[static_cast<size_t>(l) * kNR + j] = src[l];
    }
  }
  for (int l = 0; l < kc; ++l) {
    for (int j = w; j < kNR; ++j) {
      pb[static_cast<size_t>(l) * kNR + j] = 0.0f;
    }
  }
}

void GemmMicroRows(GemmVariant v, int m_begin, int m_end, int m, int n,
                   int k, const float* a, const float* b, float* c) {
  if (m_end <= m_begin || n <= 0 || k <= 0) return;  // C += nothing
  // Grow-only per-thread pack buffer: pool workers and the serial serving
  // path alike stop allocating once the largest panel set has been seen
  // (the zero-alloc steady-state contract of the workspace layer).
  thread_local std::vector<float> pack;
  const int npanels = (n + kNR - 1) / kNR;
  const size_t panel_stride =
      static_cast<size_t>(std::min(k, kKC)) * kNR;
  const size_t need = static_cast<size_t>(npanels) * panel_stride;
  if (pack.size() < need) pack.resize(need);

  for (int l0 = 0; l0 < k; l0 += kKC) {
    const int kc = std::min(kKC, k - l0);
    for (int p = 0; p < npanels; ++p) {
      const int j0 = p * kNR;
      const int w = std::min(kNR, n - j0);
      float* pb = pack.data() + static_cast<size_t>(p) * panel_stride;
      if (v == GemmVariant::kBT) {
        PackPanelTransposed(b, k, l0, kc, j0, w, pb);
      } else {
        PackPanelRowMajor(b, n, l0, kc, j0, w, pb);
      }
    }
    for (int i0 = m_begin; i0 < m_end; i0 += kMR) {
      const int mr = std::min(kMR, m_end - i0);
      const float* abase;
      ptrdiff_t a_row_stride, a_l_stride;
      if (v == GemmVariant::kAT) {
        // A is [k, m]: element (i, l) lives at a[l*m + i], so six tile
        // rows are six adjacent columns - contiguous per k step.
        abase = a + static_cast<size_t>(l0) * m + i0;
        a_row_stride = 1;
        a_l_stride = m;
      } else {
        abase = a + static_cast<size_t>(i0) * k + l0;
        a_row_stride = k;
        a_l_stride = 1;
      }
      for (int p = 0; p < npanels; ++p) {
        const int j0 = p * kNR;
        const int w = std::min(kNR, n - j0);
        const float* pb = pack.data() + static_cast<size_t>(p) * panel_stride;
        float* ct = c + static_cast<size_t>(i0) * n + j0;
        if (w == kNR) {
          RunTile<kNR>(mr, kc, abase, a_row_stride, a_l_stride, pb, ct, n);
        } else {
          RunTileEdge<kNR>(mr, kc, abase, a_row_stride, a_l_stride, pb, ct,
                           n, w);
        }
      }
    }
  }
}

void GemmBTPackedRows(int m_begin, int m_end, int n, int k, const float* a,
                      const float* bp, float* c) {
  if (m_end <= m_begin || n <= 0 || k <= 0) return;  // C += nothing
  const size_t panel_stride = static_cast<size_t>(k) * kSP;
  const int panels = (n + kSP - 1) / kSP;
  // Stored panel outer, row tiles inner: one stored panel stays in cache
  // while the caller's rows sweep it.
  for (int p = 0; p < panels; ++p) {
    for (int s = 0; s < kSub; ++s) {
      const int j0 = p * kSP + s * kNR;
      if (j0 >= n) break;
      const int w = std::min(kNR, n - j0);
      const float* pb = bp + p * panel_stride + s * kNR;
      for (int i0 = m_begin; i0 < m_end; i0 += kMR) {
        const int mr = std::min(kMR, m_end - i0);
        const float* abase = a + static_cast<size_t>(i0) * k;
        float* ct = c + static_cast<size_t>(i0) * n + j0;
        if (w == kNR) {
          RunTile<kSP>(mr, k, abase, k, 1, pb, ct, n);
        } else {
          RunTileEdge<kSP>(mr, k, abase, k, 1, pb, ct, n, w);
        }
      }
    }
  }
}

}  // namespace

void SUDOWOODO_MICRO_ENTRY(GemmVariant v, int m_begin, int m_end, int m,
                           int n, int k, const float* a, const float* b,
                           float* c) {
  GemmMicroRows(v, m_begin, m_end, m, n, k, a, b, c);
}

void SUDOWOODO_MICRO_PACKED_ENTRY(int m_begin, int m_end, int n, int k,
                                  const float* a, const float* b_packed,
                                  float* c) {
  GemmBTPackedRows(m_begin, m_end, n, k, a, b_packed, c);
}

}  // namespace sudowoodo::tensor::kernels::detail
