// Portable micro-kernel tier: 4-wide generic vectors, no ISA flags beyond
// the build's baseline, so it compiles and runs everywhere (SSE2 on
// x86-64, the base vector unit elsewhere). Whether the compiler emits
// fused multiply-adds here depends on the baseline ISA; either way the
// codegen is fixed per binary, so the tier is deterministic on its own.

#define SUDOWOODO_MICRO_VEC_FLOATS 4
#define SUDOWOODO_MICRO_ENTRY GemmMicroPortable
#define SUDOWOODO_MICRO_PACKED_ENTRY GemmBTPackedMicroPortable
#include "tensor/kernels_micro_impl.h"
