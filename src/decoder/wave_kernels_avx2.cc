/**
 * @file
 * AVX2 rung of the SIMD ladder: L = 8, one ymm per variable. Compiled
 * only when the build enables the x86 kernels.
 */

#include "decoder/wave_kernels.h"

#ifdef CYCLONE_WAVE_KERNEL_AVX2

#include <cstdint>

#include <immintrin.h>

// Sign-bit packing via one vmovmskps on the bitcast predicate
// (packSignBits in the .inl).
#define CYCLONE_WAVE_PACK_AVX 1

// The lane helpers pass/return wide generic vectors; they are
// force-inlined into the target("avx2") kernels, so the baseline-ABI
// warning about vector returns is moot.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// Scoped ISA for the hot kernels only: the rest of the library
// compiles for the baseline target, so no symbol shared with other
// TUs can smuggle AVX2 code into a binary that runs on a pre-AVX2
// CPU. The backend registry's supported() check gates every call.
#define CYCLONE_WAVE_KERNEL __attribute__((target("avx2")))
#include "decoder/wave_kernels.inl"

namespace cyclone {

const WaveKernelTable kWaveKernelsAvx2{&posteriorUpdateWave<8>,
                                       &checkMinSumWave<8>};

} // namespace cyclone

#endif // CYCLONE_WAVE_KERNEL_AVX2
