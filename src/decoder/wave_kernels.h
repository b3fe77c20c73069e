/**
 * @file
 * ISA-specific instantiations of the lane-parallel BP kernels.
 *
 * The wave decoder's two hot passes — the posterior scatter/gather and
 * the min-sum check-to-variable update — are template bodies shared by
 * every SIMD rung (wave_kernels.inl). Each rung is one translation
 * unit that includes the .inl under a function-scoped target attribute
 * and exports one kernel table at its one lane width:
 *
 *   - wave_kernels_avx2.cc    : target("avx2"), L = 8 (ymm).
 *   - wave_kernels_avx512.cc  : target("avx512f,avx512bw"), L = 16 —
 *     one zmm per variable, with the lane-wise selects lowered to
 *     __mmask16 blends.
 *
 * Both TUs compile to nothing unless the build enables the x86
 * kernels (CYCLONE_WAVE_SIMD on an x86-64 host); such builds decode
 * on the scalar batch core. Splitting the rungs into separate TUs
 * (instead of one TU with many target attributes) keeps each kernel's
 * helpers inlined under exactly one ISA. The kernels operate on a
 * borrowed view of the decoder's lane-major state (WaveKernelCtx); all
 * float semantics and the bit-exactness argument live in
 * bp_wave_decoder.h.
 */

#ifndef CYCLONE_DECODER_WAVE_KERNELS_H
#define CYCLONE_DECODER_WAVE_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "decoder/bp_graph.h"

namespace cyclone {

/**
 * Borrowed view of BpWaveDecoder's lane-major state for one pass.
 *
 * Messages are stored compressed: a check's outgoing min-sum messages
 * take only two magnitudes (scale x min1 / scale x min2 of its
 * incoming magnitudes), so the per-edge state is two packed lane-bit
 * words — bit l of edgeSignBits is lane l's message IEEE sign bit,
 * bit l of edgeMinBits whether that lane's own magnitude was the
 * minimum (selecting scale x min2 on decode). That replaces a
 * numEdges x L float message array (64 B per edge at L = 16) with
 * 8 B per edge, and decoding a message is a broadcast + bit-test
 * select + sign XOR yielding the exact floats the full array would
 * have held. (Lane *bitmasks* rather than a code byte per lane
 * because GCC scalarizes byte-to-int vector conversions;
 * broadcast-and-test lowers to two ops per word.)
 */
struct WaveKernelCtx
{
    const BpGraph* graph = nullptr;
    float* posterior = nullptr;  ///< numVars x L.
    uint64_t* hardMask = nullptr;  ///< per var: bit l = lane l's bit.
    const float* synSign = nullptr;  ///< numChecks x L: +-1 per lane.
    float* msgScratch = nullptr;   ///< maxCheckDegree x L.
    float clamp = 50.0f;
    float minSumScale = 0.9f;
    float* checkMin1 = nullptr;  ///< numChecks x L: scale x min1.
    float* checkMin2 = nullptr;  ///< numChecks x L: scale x min2.
    uint32_t* edgeSignBits = nullptr;  ///< numEdges: lane sign bits.
    uint32_t* edgeMinBits = nullptr;   ///< numEdges: lane was-min1 bits.
};

/** One rung's inner passes at its lane width. */
struct WaveKernelTable
{
    void (*posteriorUpdate)(const WaveKernelCtx&) = nullptr;
    void (*checkMinSum)(const WaveKernelCtx&) = nullptr;
};

#if defined(CYCLONE_WAVE_KERNEL_AVX2)
/** The AVX2 rung's kernels at L = 8. */
extern const WaveKernelTable kWaveKernelsAvx2;
#endif

#if defined(CYCLONE_WAVE_KERNEL_AVX512)
/** The AVX-512 rung's kernels at L = 16. */
extern const WaveKernelTable kWaveKernelsAvx512;
#endif

} // namespace cyclone

#endif // CYCLONE_DECODER_WAVE_KERNELS_H
