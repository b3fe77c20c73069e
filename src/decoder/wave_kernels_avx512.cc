/**
 * @file
 * AVX-512 rung of the SIMD ladder: L = 16, one zmm per variable. The
 * generic-vector selects (`cond ? a : b` on 16-lane comparisons) lower
 * to __mmask16 compare + masked blends under this target, which is
 * what makes the two-smallest tracking and the compressed-message
 * decode cheap at this width. Compiled only when the build enables
 * the x86 AVX-512 kernels.
 */

#include "decoder/wave_kernels.h"

#ifdef CYCLONE_WAVE_KERNEL_AVX512

#include <cstdint>

#include <immintrin.h>

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// Sign-bit packing via vptestmd against a sign-bit splat: the mask
// lands directly in a k-register (packSignBits in the .inl).
#define CYCLONE_WAVE_PACK_AVX512 1

// avx512f covers the 512-bit float/int arithmetic and mask blends;
// avx512bw the byte/word mask ops GCC picks for 16-lane integer
// selects. Deliberately no FMA contraction — same as the AVX2 rung —
// so every lane stays float-identical to the scalar decoder.
#define CYCLONE_WAVE_KERNEL __attribute__((target("avx512f,avx512bw")))
#include "decoder/wave_kernels.inl"

namespace cyclone {

const WaveKernelTable kWaveKernelsAvx512{&posteriorUpdateWave<16>,
                                         &checkMinSumWave<16>};

} // namespace cyclone

#endif // CYCLONE_WAVE_KERNEL_AVX512
