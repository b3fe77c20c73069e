#include "decoder/bp_wave_decoder.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace cyclone {

bool
BpWaveDecoder::runtimeSupported()
{
    return selectDecoderBackend(0).lanes > 1;
}

size_t
BpWaveDecoder::resolveLaneWidth(size_t requested)
{
    return selectDecoderBackend(requested).lanes;
}

BpWaveDecoder::BpWaveDecoder(std::shared_ptr<const BpGraph> graph,
                             BpOptions options)
    : BpWaveDecoder(std::move(graph), options,
                    selectDecoderBackend(options.waveLanes))
{}

BpWaveDecoder::BpWaveDecoder(std::shared_ptr<const BpGraph> graph,
                             BpOptions options,
                             const DecoderBackend& backend)
    : graph_(std::move(graph)), options_(options), backend_(&backend),
      laneWidth_(backend.lanes),
      clamp_(static_cast<float>(options.clamp)),
      minSumScale_(static_cast<float>(options.minSumScale))
{
    CYCLONE_ASSERT(backend.kernels != nullptr && backend.supported(),
                   "backend '" << backend.name
                   << "' is no wave rung this host can run (waveLanes "
                   << options_.waveLanes
                   << ") — check runtimeSupported() first");
    const BpGraph& g = *graph_;
    const size_t L = laneWidth_;
    // All-zero compressed state decodes every message to +0.0f.
    checkMin1_.assign(g.numChecks * L, 0.0f);
    checkMin2_.assign(g.numChecks * L, 0.0f);
    edgeSignBits_.assign(g.numEdges, 0);
    edgeMinBits_.assign(g.numEdges, 0);
    posterior_.assign(g.numVars * L, 0.0f);
    hardMask_.assign(g.numVars, 0);
    synMask_.assign(g.numChecks, 0);
    synSign_.assign(g.numChecks * L, 1.0f);
    msgScratch_.resize(g.maxCheckDegree * L);
    initialSyndrome_.resize(g.numChecks);
    for (size_t c = 0; c < g.numChecks; ++c) {
        bool parity = false;
        for (size_t s = g.checkOffset[c]; s < g.checkOffset[c + 1]; ++s)
            parity ^= g.prior[g.checkEdgeVar[s]] < 0.0f;
        initialSyndrome_.set(c, parity);
    }
}

WaveKernelCtx
BpWaveDecoder::kernelCtx()
{
    WaveKernelCtx ctx;
    ctx.graph = graph_.get();
    ctx.checkMin1 = checkMin1_.data();
    ctx.checkMin2 = checkMin2_.data();
    ctx.edgeSignBits = edgeSignBits_.data();
    ctx.edgeMinBits = edgeMinBits_.data();
    ctx.posterior = posterior_.data();
    ctx.hardMask = hardMask_.data();
    ctx.synSign = synSign_.data();
    ctx.msgScratch = msgScratch_.data();
    ctx.clamp = clamp_;
    ctx.minSumScale = minSumScale_;
    return ctx;
}

uint64_t
BpWaveDecoder::verifyWave() const
{
    // H e == syndrome for every lane at once: one XOR of the variable
    // lane masks per edge, one lane-mask compare per check.
    const BpGraph& g = *graph_;
    const uint64_t* hard = hardMask_.data();
    uint64_t mismatch = 0;
    for (size_t c = 0; c < g.numChecks; ++c) {
        uint64_t parity = 0;
        for (size_t s = g.checkOffset[c]; s < g.checkOffset[c + 1];
             ++s)
            parity ^= hard[g.checkEdgeVar[s]];
        mismatch |= parity ^ synMask_[c];
    }
    return ~mismatch;
}

void
BpWaveDecoder::loadLane(size_t lane, const BitVec& syndrome)
{
    const BpGraph& g = *graph_;
    CYCLONE_ASSERT(syndrome.size() == g.numChecks,
                   "syndrome length mismatch: " << syndrome.size()
                   << " vs " << g.numChecks);
    const size_t L = laneWidth_;
    const uint64_t bit = uint64_t{1} << lane;
    for (size_t c = 0; c < g.numChecks; ++c) {
        const bool set = syndrome.get(c);
        synMask_[c] = (synMask_[c] & ~bit) | (set ? bit : 0);
        synSign_[c * L + lane] = set ? -1.0f : 1.0f;
    }
    // All-zero messages.
    for (size_t c = 0; c < g.numChecks; ++c) {
        checkMin1_[c * L + lane] = 0.0f;
        checkMin2_[c * L + lane] = 0.0f;
    }
    const uint32_t keep = ~static_cast<uint32_t>(bit);
    for (size_t s = 0; s < g.numEdges; ++s) {
        edgeSignBits_[s] &= keep;
        edgeMinBits_[s] &= keep;
    }
    // The iteration-0 posterior pass over zero messages adds +0.0f to
    // each prior, which leaves every prior (never -0.0f) unchanged.
    for (size_t v = 0; v < g.numVars; ++v) {
        posterior_[v * L + lane] = g.prior[v];
        hardMask_[v] = (hardMask_[v] & ~bit) |
            (g.prior[v] < 0.0f ? bit : 0);
    }
    iterations_[lane] = 0;
}

size_t
BpWaveDecoder::decodeAll(const BitVec* const* syndromes, size_t count,
                         const RetireFn& onRetire)
{
    const size_t L = laneWidth_;
    const WaveKernelCtx ctx = kernelCtx();
    const WaveKernelTable& kernels = *backend_->kernels;
    size_t laneIndex[64];
    size_t next = 0;
    auto retire = [&](size_t l, bool converged) {
        const uint64_t bit = uint64_t{1} << l;
        convergedMask_ = (convergedMask_ & ~bit) | (converged ? bit : 0);
        onRetire(laneIndex[l], l);
    };
    // Load pending syndromes into lane l until one needs a check pass:
    // a loaded lane holds its iteration-0 hard decision, whose syndrome
    // is initialSyndrome_, so that verification is one comparison.
    auto fill = [&](size_t l) -> uint64_t {
        while (next < count) {
            laneIndex[l] = next;
            const BitVec& syndrome = *syndromes[next++];
            loadLane(l, syndrome);
            const bool verified = syndrome == initialSyndrome_;
            if (!verified && options_.maxIterations > 0)
                return uint64_t{1} << l;
            retire(l, verified);
        }
        return 0;
    };
    uint64_t live = 0;
    for (size_t l = 0; l < L; ++l)
        live |= fill(l);
    size_t steps = 0;
    while (live != 0) {
        kernels.checkMinSum(ctx);
        kernels.posteriorUpdate(ctx);
        ++steps;
        // Verifying every step is equivalent to the scalar decoder's
        // change-gated verification (an unmoved decision re-verifies
        // to the same answer). A lane at its cap has just run the
        // scalar epilogue: final posterior pass and verification.
        const uint64_t verified = verifyWave();
        uint64_t retiring = live & verified;
        for (uint64_t m = live; m != 0; m &= m - 1) {
            const size_t l = static_cast<size_t>(std::countr_zero(m));
            if (++iterations_[l] >= options_.maxIterations)
                retiring |= uint64_t{1} << l;
        }
        live &= ~retiring;
        for (uint64_t m = retiring; m != 0; m &= m - 1) {
            const size_t l = static_cast<size_t>(std::countr_zero(m));
            retire(l, (verified >> l) & 1);
            live |= fill(l);
        }
    }
    return steps;
}

void
BpWaveDecoder::decodeWave(const BitVec* const* syndromes, size_t count)
{
    CYCLONE_ASSERT(count >= 1 && count <= laneWidth_,
                   "wave lane count " << count << " out of [1, "
                   << laneWidth_ << "]");
    // Retired lanes keep iterating or refill, so syndrome i's result
    // is copied out at retirement and swapped in as lane i's state.
    const size_t L = laneWidth_;
    snapPosterior_.resize(posterior_.size());
    snapHard_.assign(hardMask_.size(), 0);
    uint64_t converged = 0;
    uint32_t iterations[64] = {};
    decodeAll(syndromes, count, [&](size_t i, size_t lane) {
        converged |= uint64_t{laneConverged(lane)} << i;
        iterations[i] = iterations_[lane];
        for (size_t v = 0; v < graph_->numVars; ++v) {
            snapPosterior_[v * L + i] = posterior_[v * L + lane];
            snapHard_[v] |= ((hardMask_[v] >> lane) & 1) << i;
        }
    });
    posterior_.swap(snapPosterior_);
    hardMask_.swap(snapHard_);
    convergedMask_ = converged;
    std::copy(iterations, iterations + L, iterations_);
}

void
BpWaveDecoder::lanePosterior(size_t lane, std::vector<float>& out) const
{
    const size_t L = laneWidth_;
    const size_t n = graph_->numVars;
    out.resize(n);
    for (size_t v = 0; v < n; ++v)
        out[v] = posterior_[v * L + lane];
}

void
BpWaveDecoder::laneHardDecision(size_t lane, BitVec& out) const
{
    const size_t n = graph_->numVars;
    if (out.size() != n)
        out.resize(n);
    std::vector<uint64_t>& words = out.words();
    std::fill(words.begin(), words.end(), 0);
    for (size_t v = 0; v < n; ++v)
        words[v >> 6] |= ((hardMask_[v] >> lane) & 1) << (v & 63);
}

} // namespace cyclone
