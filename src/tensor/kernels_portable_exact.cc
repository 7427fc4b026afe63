// Portable contraction-off tier: 4-wide generic vectors, the build's
// baseline ISA, and -ffp-contract=off (see CMakeLists.txt), so every
// float operation here rounds once as written whatever the baseline
// offers. Holds the kernels whose output must not depend on the tier:
// the GELU forward and backward and the int8 scoring panel.

#define SUDOWOODO_GELU_LANES 4
#define SUDOWOODO_GELU_ENTRY GeluForwardPortable
#define SUDOWOODO_GELU_BACKWARD_ENTRY GeluBackwardPortable
#include "tensor/kernels_gelu_impl.h"

#define SUDOWOODO_QUANT_ENTRY GemmBTI8MicroPortable
#include "tensor/kernels_quant_impl.h"
