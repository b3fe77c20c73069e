#include "decoder/decoder_backend.h"

#include <cstdlib>

namespace cyclone {

namespace {

bool
alwaysSupported()
{
    return true;
}

#if defined(CYCLONE_WAVE_KERNEL_AVX512)

bool
avx512Supported()
{
    return __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw");
}

const DecoderBackend kAvx512Backend{
    "avx512", 16, &avx512Supported, &kWaveKernelsAvx512};

#endif

#if defined(CYCLONE_WAVE_KERNEL_AVX2)

bool
avx2Supported()
{
    return __builtin_cpu_supports("avx2");
}

const DecoderBackend kAvx2Backend{
    "avx2", 8, &avx2Supported, &kWaveKernelsAvx2};

#endif

const DecoderBackend kScalarBackend{
    "scalar", 1, &alwaysSupported, nullptr};

/** Whether wave rung `b` runs here and fits a waveLanes request. */
bool
servesRequest(const DecoderBackend& b, size_t requestedLanes)
{
    return b.kernels != nullptr && b.supported() &&
        (requestedLanes == 0 || b.lanes <= requestedLanes);
}

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

const DecoderBackend&
selectDecoderBackend(size_t requestedLanes)
{
    if (requestedLanes == 1)
        return kScalarBackend;

    if (const char* env = std::getenv(kWaveBackendEnv)) {
        const std::string_view forced(env);
        if (!forced.empty() && forced != "auto") {
            const DecoderBackend* b = findDecoderBackend(forced);
            if (b != nullptr && (b->kernels == nullptr
                                     ? b->supported()
                                     : servesRequest(*b, requestedLanes)))
                return *b;
            // Unknown names, unsupported rungs and width-incompatible
            // forces fall through to auto dispatch: the override is a
            // throughput knob and must never strand a decode.
        }
    }

    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (servesRequest(*b, requestedLanes))
            return *b;
    }
    return kScalarBackend;
}

} // namespace cyclone
