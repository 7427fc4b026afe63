// The int8 scoring panel shared by every SIMD tier, the quantized
// sibling of kernels_micro_impl.h.
//
// Included (not compiled standalone) by the contraction-off .cc of each
// tier (kernels_<tier>_exact.cc: the tier's ISA flags plus
// -ffp-contract=off), with this macro defined first:
//
//   SUDOWOODO_QUANT_ENTRY  name of the exported entry point
//
// Unlike the float micro-kernel there is no per-width template work to
// do: the inner loop is a plain int8 * int8 -> int32 dot that GCC's
// autovectorizer turns into widening-multiply + pairwise-add sequences
// (pmaddwd / sdot and friends) under each TU's ISA flags. The panel
// tiles the item rows (B) so a block of quantized rows stays in L1 while
// the query rows sweep it.
//
// Determinism contract: integer accumulation is exact, so the dot is the
// same number for ANY vectorization, unrolling, or blocking. The only
// float arithmetic is the per-element rescale, written once here for
// every tier:
//
//   c += float(dot) * (a_scale[i] * b_scale[j])
//
// Three correctly-rounded scalar ops in a fixed order. The units that
// include this file compile with contraction off, so no tier fuses the
// final add into an FMA, and all tiers produce bit-identical output from
// any starting C. This is deliberately stronger than the fp32 GEMM
// contract (per-tier bit-identity, cross-tier tolerance) and is
// test-asserted against an integer reference loop in tests/quant_test.cc.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels_micro.h"

namespace sudowoodo::tensor::kernels::detail {
namespace {

// Rows of B scored per tile: 256 rows x 64-dim int8 = 16 KiB, half of a
// 32 KiB L1d, leaving room for the query rows streaming over it. A
// tuning knob only - the output does not depend on it.
constexpr int kQuantBTile = 256;

// Single int32-accumulated dot. One accumulator chain is what the
// vectorizer's reduction pattern wants; exactness makes the chain shape
// irrelevant to the result.
inline int32_t DotI8Body(const int8_t* a, const int8_t* b, int k) {
  int32_t s = 0;
  for (int l = 0; l < k; ++l) {
    s += static_cast<int32_t>(a[l]) * static_cast<int32_t>(b[l]);
  }
  return s;
}

}  // namespace

void SUDOWOODO_QUANT_ENTRY(int m_begin, int m_end, int n, int k,
                           const int8_t* a, const float* a_scale,
                           const int8_t* b, const float* b_scale, float* c) {
  for (int jc = 0; jc < n; jc += kQuantBTile) {
    const int j_end = std::min(jc + kQuantBTile, n);
    for (int i = m_begin; i < m_end; ++i) {
      const int8_t* arow = a + static_cast<size_t>(i) * k;
      const float sa = a_scale[i];
      float* crow = c + static_cast<size_t>(i) * n;
      for (int j = jc; j < j_end; ++j) {
        const int32_t d = DotI8Body(arow, b + static_cast<size_t>(j) * k, k);
        crow[j] += static_cast<float>(d) * (sa * b_scale[j]);
      }
    }
  }
}

}  // namespace sudowoodo::tensor::kernels::detail
