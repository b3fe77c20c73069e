#include "decoder/decoder_backend.h"

#include <cstdlib>

namespace cyclone {

namespace {

bool
alwaysSupported()
{
    return true;
}

#if defined(CYCLONE_WAVE_KERNEL_AVX2)

bool
avx2Supported()
{
    return __builtin_cpu_supports("avx2");
}

#endif

#if defined(CYCLONE_WAVE_KERNEL_AVX512)

bool
avx512Supported()
{
    return __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw");
}

const DecoderBackend kAvx512Backend{
    "avx512", 16, &avx512Supported, &waveKernelTablesAvx512};

#endif

#if defined(CYCLONE_WAVE_KERNEL_AVX2)

const DecoderBackend kAvx2Backend{
    "avx2", 8, &avx2Supported, &waveKernelTablesAvx2};

#else

// Preferred width 8 matches the old default: 16 generic-vector lanes
// without an attributed kernel lower to poor code on most baselines
// and pay more idle-lane waste in the tail of each flush.
const DecoderBackend kGenericBackend{
    "generic", 8, &alwaysSupported, &waveKernelTablesGeneric};

#endif

const DecoderBackend kScalarBackend{
    "scalar", 1, &alwaysSupported, nullptr};

} // namespace

const std::vector<const DecoderBackend*>&
decoderBackendRegistry()
{
    static const std::vector<const DecoderBackend*> registry = [] {
        std::vector<const DecoderBackend*> r;
#if defined(CYCLONE_WAVE_KERNEL_AVX512)
        r.push_back(&kAvx512Backend);
#endif
#if defined(CYCLONE_WAVE_KERNEL_AVX2)
        r.push_back(&kAvx2Backend);
#else
        r.push_back(&kGenericBackend);
#endif
        r.push_back(&kScalarBackend);
        return r;
    }();
    return registry;
}

const DecoderBackend*
findDecoderBackend(std::string_view name)
{
    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (name == b->name)
            return b;
    }
    return nullptr;
}

size_t
backendLaneWidth(const DecoderBackend& backend, size_t requested)
{
    if (backend.kernels == nullptr)
        return 0;
    size_t cap = requested == 0 ? backend.preferredLanes : requested;
    if (cap < 4)
        cap = 4; // Requests below the narrowest kernel clamp up.
    size_t best = 0;
    for (const size_t w : {size_t{4}, size_t{8}, size_t{16}}) {
        if (w <= cap && backend.kernels(w) != nullptr)
            best = w;
    }
    return best;
}

DecoderBackendChoice
selectDecoderBackend(size_t requestedLanes)
{
    const auto& registry = decoderBackendRegistry();
    const DecoderBackend* scalar = registry.back();
    if (requestedLanes == 1)
        return {scalar, 1};

    if (const char* env = std::getenv(kWaveBackendEnv)) {
        const std::string_view forced(env);
        if (!forced.empty() && forced != "auto") {
            const DecoderBackend* b = findDecoderBackend(forced);
            if (b != nullptr && b->supported()) {
                if (b->kernels == nullptr)
                    return {b, 1};
                const size_t lanes =
                    backendLaneWidth(*b, requestedLanes);
                if (lanes > 1)
                    return {b, lanes};
            }
            // Unknown names, unsupported rungs and width-incompatible
            // forces fall through to auto dispatch: the override is a
            // throughput knob and must never strand a decode.
        }
    }

    for (const DecoderBackend* b : registry) {
        if (b->kernels == nullptr || !b->supported())
            continue;
        const size_t lanes = backendLaneWidth(*b, requestedLanes);
        if (lanes > 1)
            return {b, lanes};
    }
    return {scalar, 1};
}

} // namespace cyclone
