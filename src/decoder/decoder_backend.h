/**
 * @file
 * The DecoderBackend seam: registry and runtime dispatch for the
 * decode stack's SIMD ladder.
 *
 * A backend is one rung of the ladder, each at one lane width:
 * "avx512" (L = 16 zmm wave kernel), "avx2" (L = 8 ymm wave kernel)
 * and "scalar" (the per-syndrome batch core, no wave kernel). The two
 * wave rungs exist only in builds that enable the x86 kernels
 * (CYCLONE_WAVE_SIMD on x86-64); every other build decodes on the
 * scalar rung. All rungs are bit-identical by construction — lanes
 * never interact and every lane runs the scalar float sequence — so
 * dispatch is purely a throughput decision:
 *
 *   1. If the CYCLONE_WAVE_BACKEND environment variable names a
 *      compiled-in, CPUID-supported backend, it wins (the forced-
 *      dispatch hook the tests and benches use). Unknown names, or
 *      backends this host cannot run, fall through to auto dispatch —
 *      an override can change speed, never results.
 *   2. Otherwise the widest supported rung wins: avx512 -> avx2 ->
 *      scalar.
 *
 * A requested lane width (BpOptions::waveLanes) narrows the choice:
 * a rung wider than the request is skipped (e.g. waveLanes = 8 on an
 * AVX-512 host selects avx2, and waveLanes = 1 — or any request
 * below 8 — selects scalar).
 */

#ifndef CYCLONE_DECODER_DECODER_BACKEND_H
#define CYCLONE_DECODER_DECODER_BACKEND_H

#include <cstddef>
#include <string_view>
#include <vector>

#include "decoder/wave_kernels.h"

namespace cyclone {

/** One rung of the SIMD ladder. */
struct DecoderBackend
{
    /** Stable identifier: "scalar", "avx2" or "avx512". Also the
     *  value CYCLONE_WAVE_BACKEND matches against, and the name
     *  reported through BpOsdStats. */
    const char* name = "";

    /** Lanes per wave (1 for the scalar rung). */
    size_t lanes = 1;

    /** Whether this host's CPU can execute the rung's kernels. */
    bool (*supported)() = nullptr;

    /** The rung's wave kernels (nullptr for the scalar rung). */
    const WaveKernelTable* kernels = nullptr;
};

/**
 * Every backend compiled into this build, widest rung first; the
 * scalar rung is always present and always last. Entries may be
 * unsupported on this host — pair with supported().
 */
const std::vector<const DecoderBackend*>& decoderBackendRegistry();

/** Registry entry by name, or nullptr (compiled-in != supported). */
const DecoderBackend* findDecoderBackend(std::string_view name);

/** Environment variable that forces a backend ("auto" / "" = off). */
inline constexpr const char* kWaveBackendEnv = "CYCLONE_WAVE_BACKEND";

/**
 * Runtime dispatch for this host, this environment and a waveLanes
 * request. Never fails: the scalar rung is the universal fallback.
 * Read once at decoder construction — changing CYCLONE_WAVE_BACKEND
 * afterwards does not migrate live decoders.
 */
const DecoderBackend& selectDecoderBackend(size_t requestedLanes);

} // namespace cyclone

#endif // CYCLONE_DECODER_DECODER_BACKEND_H
