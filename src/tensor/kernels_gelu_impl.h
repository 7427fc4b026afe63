// The tanh-approximation GELU forward and backward, shared by every SIMD
// tier.
//
// Included (not compiled standalone) by one contraction-off .cc per tier
// (kernels_<tier>_exact.cc, built with that tier's ISA flags plus
// -ffp-contract=off), with these macros defined first:
//
//   SUDOWOODO_GELU_LANES           floats per vector (4/8/16)
//   SUDOWOODO_GELU_ENTRY           name of the exported forward
//   SUDOWOODO_GELU_BACKWARD_ENTRY  name of the exported backward
//
// Both directions were scalar loops over std::tanh: glibc's tanhf, which
// is fdlibm's s_tanhf.c over its s_expm1f.c. This file ports those two
// routines lane by lane. Every branch of the scalar code becomes a lane
// mask: each lane evaluates the arithmetic of every branch and a select
// keeps the one its scalar twin would have taken, so each lane performs
// exactly the scalar float operations, in the same order, on the same
// operands. Selects move bits and never round, and -ffp-contract=off
// keeps the compiler from fusing any `a * b + c` into one rounding, so
// the output is bit-identical to the scalar chain for every input (NaN
// payloads included), on every tier and whatever libm the binary links.
// tests/kernels_test.cc pins every tier against a scalar port of the
// same two routines.
//
// Only the part of expm1f that tanhf reaches is ported: tanhf calls it
// with 2|x| for 1 <= |x| < 22 and with -2|x| for 2^-55 <= |x| < 1, so
// the argument lies in [2, 44) or (-2, -2^-54]. Non-finite and overflow
// arguments, the k == 1 reduction branch and the large-negative shortcut
// never occur there. Lanes that take another tanhf branch run the expm1f
// path at |x| = 1, a harmless argument, and discard its result.

#include <cstddef>
#include <cstdint>

#include "tensor/kernels_micro.h"

namespace sudowoodo::tensor::kernels::detail {
namespace {

constexpr int kLanes = SUDOWOODO_GELU_LANES;

typedef float vf __attribute__((vector_size(kLanes * sizeof(float))));
typedef int32_t vi __attribute__((vector_size(kLanes * sizeof(float))));
typedef uint32_t vu __attribute__((vector_size(kLanes * sizeof(float))));

inline vf Splat(float v) { return vf{} + v; }

/// Adds k to the binary exponent of y (fdlibm's SET_FLOAT_WORD(y, i +
/// (k << 23))), in unsigned lanes so a negative k wraps as it does there.
inline vf AddExponent(vf y, vi k) {
  return reinterpret_cast<vf>(reinterpret_cast<vu>(y) +
                              (reinterpret_cast<vu>(k) << 23));
}

/// fdlibm expm1f, lane-wise, on tanhf's argument range (see above).
inline vf Expm1Lanes(vf x) {
  constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
  constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
  constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
  constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
  constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
  constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
  constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
  constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb
  const vi hx = reinterpret_cast<vi>(x) & 0x7fffffff;
  const vi neg = reinterpret_cast<vi>(x) < 0;

  // Argument reduction: x = k ln2 + r. For 0.5 ln2 < |x| < 1.5 ln2 the
  // scalar code takes k = +-1, hi = x -+ ln2_hi, lo = +-ln2_lo; that is
  // the general formula at t = +-1, where t * ln2_hi and t * ln2_lo are
  // exact. At k == 0 the formula leaves x unchanged (x - 0 == x) and
  // c == 0, as the scalar code's unreduced path has them.
  vi k = __builtin_convertvector(
      kInvLn2 * x + (neg ? Splat(-0.5f) : Splat(0.5f)), vi);
  k = hx < 0x3f851592 ? (neg ? vi{} - 1 : vi{} + 1) : k;
  k = hx > 0x3eb17218 ? k : vi{};
  const vf t = __builtin_convertvector(k, vf);
  const vf hi = x - t * kLn2Hi;
  const vf lo = t * kLn2Lo;
  const vf r = hi - lo;
  const vf c = (hi - r) - lo;

  // x is now in the primary range.
  const vf hfx = 0.5f * r;
  const vf hxs = r * hfx;
  const vf r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const vf t3 = 3.0f - r1 * hfx;
  vf e = hxs * ((r1 - t3) / (6.0f - r * t3));
  const vf y_k0 = r - (r * e - hxs);
  e = r * (e - c) - c;
  e -= hxs;
  const vf y_km1 = 0.5f * (r - e) - 0.5f;
  const vf y_far = AddExponent(1.0f - (e - r), k) - 1.0f;  // k <= -2, k > 56
  // 2^-k from its exponent bits; 1 - 2^-k is exact for k < 23, so it
  // equals the scalar code's SET_FLOAT_WORD(t, 0x3f800000 - (0x1000000 >> k)).
  const vf p = reinterpret_cast<vf>(reinterpret_cast<vu>(0x7f - k) << 23);
  const vf y_mid = AddExponent((1.0f - p) - (e - r), k);   // 2 <= k < 23
  const vf y_high = AddExponent((r - (e + p)) + 1.0f, k);  // 23 <= k <= 56

  vf y = k < 23 ? y_mid : y_high;
  y = (k <= -2) | (k > 56) ? y_far : y;
  y = k == -1 ? y_km1 : y;
  y = k == 0 ? y_k0 : y;
  // |x| < 2^-25: expm1f returns x itself.
  return hx < 0x33000000 ? x : y;
}

/// fdlibm tanhf, lane-wise.
inline vf TanhLanes(vf x) {
  const vi jx = reinterpret_cast<vi>(x);
  const vi ix = jx & 0x7fffffff;
  const vi mid = (ix >= 0x24000000) & (ix < 0x41b00000);  // 2^-55 <= |x| < 22
  const vf ax = mid ? reinterpret_cast<vf>(ix) : Splat(1.0f);
  const vi ge1 = ix >= 0x3f800000;
  const vf t = Expm1Lanes(ge1 ? 2.0f * ax : -2.0f * ax);
  vf z = ge1 ? 1.0f - 2.0f / (t + 2.0f) : -t / (t + 2.0f);
  z = mid ? z : Splat(1.0f);  // |x| >= 22: one - tiny, which rounds to 1
  z = jx < 0 ? -z : z;
  // |x| < 2^-55: x * (1 + x), which also returns +-0 unchanged.
  z = ix < 0x24000000 ? x * (1.0f + x) : z;
  // Inf/NaN: one/x + one or one/x - one by sign; a NaN passes through
  // with its payload.
  return ix >= 0x7f800000 ? 1.0f / x + (jx < 0 ? Splat(-1.0f) : Splat(1.0f))
                          : z;
}

constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kA = 0.044715f;

inline vf GeluLanes(vf v) {
  const vf inner = kC * (v + kA * v * v * v);
  return 0.5f * v * (1.0f + TanhLanes(inner));
}

/// dGELU/dx in the backward's own expression order, which is not the
/// forward's: x*x*x is formed first, so `inner` may differ from
/// GeluLanes' in its last bit.
inline vf GeluGradLanes(vf x) {
  const vf x3 = x * x * x;
  const vf inner = kC * (x + kA * x3);
  const vf t = TanhLanes(inner);
  const vf sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kC * (1.0f + 3.0f * kA * x * x);
}

}  // namespace

void SUDOWOODO_GELU_ENTRY(int n, const float* x, float* y) {
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    vf v;
    __builtin_memcpy(&v, x + i, sizeof v);
    v = GeluLanes(v);
    __builtin_memcpy(y + i, &v, sizeof v);
  }
  if (i < n) {
    // Tail: zero-padded lanes, only the valid ones written back.
    const size_t rest = static_cast<size_t>(n - i) * sizeof(float);
    vf v{};
    __builtin_memcpy(&v, x + i, rest);
    v = GeluLanes(v);
    __builtin_memcpy(y + i, &v, rest);
  }
}

void SUDOWOODO_GELU_BACKWARD_ENTRY(int n, const float* x, const float* dy,
                                   float* dx) {
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    vf v, g, acc;
    __builtin_memcpy(&v, x + i, sizeof v);
    __builtin_memcpy(&g, dy + i, sizeof g);
    __builtin_memcpy(&acc, dx + i, sizeof acc);
    acc += GeluGradLanes(v) * g;
    __builtin_memcpy(dx + i, &acc, sizeof acc);
  }
  if (i < n) {
    const size_t rest = static_cast<size_t>(n - i) * sizeof(float);
    vf v{}, g{}, acc{};
    __builtin_memcpy(&v, x + i, rest);
    __builtin_memcpy(&g, dy + i, rest);
    __builtin_memcpy(&acc, dx + i, rest);
    acc += GeluGradLanes(v) * g;
    __builtin_memcpy(dx + i, &acc, rest);
  }
}

}  // namespace sudowoodo::tensor::kernels::detail
