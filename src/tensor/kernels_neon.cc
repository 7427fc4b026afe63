// NEON micro-kernel tier: 4-wide q-register vectors, 6x8 tiles. NEON is
// baseline on aarch64, so no extra compile flags are needed and the tier
// is unconditionally supported there; GCC/Clang contract the accumulate
// into vfmla, giving this tier the same fused rounding as the x86 AVX
// tiers.

#if defined(__aarch64__)
#define SUDOWOODO_MICRO_VEC_FLOATS 4
#define SUDOWOODO_MICRO_ENTRY GemmMicroNeon
#define SUDOWOODO_MICRO_PACKED_ENTRY GemmBTPackedMicroNeon
#include "tensor/kernels_micro_impl.h"
#endif
