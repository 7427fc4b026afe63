// AVX-512 contraction-off tier: 16-wide zmm vectors, compiled with
// -mavx512f -ffp-contract=off (see CMakeLists.txt). The ISA matches
// kernels_avx512.cc, whose GEMM chains rely on contraction; this unit
// holds the kernels that must round exactly as written on every tier:
// the GELU forward and backward and the int8 scoring panel. Called only
// after the kernels.cc dispatcher's CPUID check for avx512f.

#if defined(__x86_64__) || defined(__i386__)
#define SUDOWOODO_GELU_LANES 16
#define SUDOWOODO_GELU_ENTRY GeluForwardAvx512
#define SUDOWOODO_GELU_BACKWARD_ENTRY GeluBackwardAvx512
#include "tensor/kernels_gelu_impl.h"

#define SUDOWOODO_QUANT_ENTRY GemmBTI8MicroAvx512
#include "tensor/kernels_quant_impl.h"
#endif
