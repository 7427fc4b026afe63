// AVX2+FMA micro-kernel tier: 8-wide ymm vectors, 6x16 register tiles.
// Compiled with -mavx2 -mfma (see CMakeLists.txt); the dispatcher in
// kernels.cc only calls in after __builtin_cpu_supports("avx2") and
// ("fma") both pass, so nothing here executes on older CPUs.

#if defined(__x86_64__) || defined(__i386__)
#define SUDOWOODO_MICRO_VEC_FLOATS 8
#define SUDOWOODO_MICRO_ENTRY GemmMicroAvx2
#define SUDOWOODO_MICRO_PACKED_ENTRY GemmBTPackedMicroAvx2
#include "tensor/kernels_micro_impl.h"
#endif
