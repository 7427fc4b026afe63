// NEON contraction-off tier: 4-wide q-register vectors, compiled with
// -ffp-contract=off (see CMakeLists.txt) so GCC/Clang cannot fuse any
// multiply-add into vfmla here, unlike kernels_neon.cc. Holds the kernels
// that must round exactly as written on every tier: the GELU forward and
// backward and the int8 scoring panel.

#if defined(__aarch64__)
#define SUDOWOODO_GELU_LANES 4
#define SUDOWOODO_GELU_ENTRY GeluForwardNeon
#define SUDOWOODO_GELU_BACKWARD_ENTRY GeluBackwardNeon
#include "tensor/kernels_gelu_impl.h"

#define SUDOWOODO_QUANT_ENTRY GemmBTI8MicroNeon
#include "tensor/kernels_quant_impl.h"
#endif
