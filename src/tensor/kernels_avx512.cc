// AVX-512F micro-kernel tier: 16-wide zmm vectors, 6x32 register tiles
// (12 accumulators + 2 panel vectors out of 32 registers). Compiled with
// -mavx512f (see CMakeLists.txt); guarded at runtime by
// __builtin_cpu_supports("avx512f") in the kernels.cc dispatcher.

#if defined(__x86_64__) || defined(__i386__)
#define SUDOWOODO_MICRO_VEC_FLOATS 16
#define SUDOWOODO_MICRO_ENTRY GemmMicroAvx512
#define SUDOWOODO_MICRO_PACKED_ENTRY GemmBTPackedMicroAvx512
#include "tensor/kernels_micro_impl.h"
#endif
