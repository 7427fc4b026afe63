// AVX2 contraction-off tier: 8-wide ymm vectors, compiled with -mavx2
// -mfma -ffp-contract=off (see CMakeLists.txt). The ISA matches
// kernels_avx2.cc, whose GEMM chains rely on contraction; this unit holds
// the kernels that must round exactly as written on every tier: the GELU
// forward and backward and the int8 scoring panel. Called only after the
// kernels.cc dispatcher's CPUID check for avx2 and fma.

#if defined(__x86_64__) || defined(__i386__)
#define SUDOWOODO_GELU_LANES 8
#define SUDOWOODO_GELU_ENTRY GeluForwardAvx2
#define SUDOWOODO_GELU_BACKWARD_ENTRY GeluBackwardAvx2
#include "tensor/kernels_gelu_impl.h"

#define SUDOWOODO_QUANT_ENTRY GemmBTI8MicroAvx2
#include "tensor/kernels_quant_impl.h"
#endif
