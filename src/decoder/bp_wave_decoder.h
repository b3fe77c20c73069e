/**
 * @file
 * Lane-parallel belief propagation: decode many shots per SIMD wave.
 *
 * The wave decoder runs the exact BpDecoder message schedule on up to
 * L syndromes simultaneously. State is lane-major structure-of-arrays
 * — posterior[var][lane], per-check minima [check][lane], priors
 * broadcast across lanes — so the posterior pass and the min-sum
 * check pass become fixed-width inner loops over L floats, one SIMD
 * word each. Hard decisions are per-variable lane bitmasks, so
 * syndrome verification collapses to one XOR per edge and one compare
 * per check, simultaneously for every lane.
 *
 * The hot passes themselves live behind the DecoderBackend seam
 * (decoder_backend.h): each SIMD-ladder rung is a per-ISA translation
 * unit exporting a kernel table at its one lane width (avx512 L = 16,
 * avx2 L = 8), and this class runs the iteration schedule, convergence
 * bookkeeping and verification against whichever table dispatch
 * selected. L is therefore a runtime property here, not a template
 * parameter.
 *
 * Lanes are persistent (decodeAll): a lane retires when it verifies,
 * or after maxIterations check passes plus the epilogue posterior pass
 * and verification — BpDecoder::decode's schedule, per lane. A
 * callback reads its result, then the lane loads the next pending
 * syndrome in place, so no lane waits for a slow neighbour.
 *
 * Bit-exactness invariant: lanes never interact arithmetically. Each
 * lane performs the same float operations, in the same order, as
 * BpDecoder::decode on that lane's syndrome — on every rung. So the
 * passes run unmasked: a retired lane with nothing left to load keeps
 * iterating on its own stale (finite, clamped) state that nothing
 * reads — its result was copied out at retirement, and a refill
 * rewrites all lane state the next syndrome reads. Per-lane iteration
 * counts match too: verification runs every step here, and when the
 * scalar decoder skips it (no decision bit moved) the skipped result
 * provably equals the reused one. tests/test_wave_decoder.cc enforces
 * the equivalence on every rung and across refill patterns.
 */

#ifndef CYCLONE_DECODER_BP_WAVE_DECODER_H
#define CYCLONE_DECODER_BP_WAVE_DECODER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "common/bitvec.h"
#include "decoder/bp_decoder.h"
#include "decoder/bp_graph.h"
#include "decoder/decoder_backend.h"

namespace cyclone {

/**
 * Allocator for lane-major float rows: 64-byte aligned, so an L = 16
 * row (one zmm) never straddles two cache lines and L = 8 rows pack
 * two per line. Default vector storage is only 16-byte aligned, which
 * left the wave kernels' speed to where the heap put each array
 * (measured: the same L = 16 kernel ran 25% slower after an unrelated
 * allocation moved).
 */
template <typename T>
struct LaneRowAllocator
{
    using value_type = T;

    LaneRowAllocator() = default;

    template <typename U>
    LaneRowAllocator(const LaneRowAllocator<U>&)
    {}

    T*
    allocate(size_t n)
    {
        return static_cast<T*>(
            ::operator new(n * sizeof(T), std::align_val_t{64}));
    }

    void
    deallocate(T* p, size_t)
    {
        ::operator delete(p, std::align_val_t{64});
    }

    template <typename U>
    bool
    operator==(const LaneRowAllocator<U>&) const
    {
        return true;
    }
};

/** BP over L syndrome lanes at once. */
class BpWaveDecoder
{
  public:
    /**
     * Lane width runtime dispatch resolves a BpOptions::waveLanes
     * request to on this host (selectDecoderBackend(requested).lanes):
     * the widest supported rung at or below the request, honoring the
     * CYCLONE_WAVE_BACKEND override. Returns 1 when only the scalar
     * rung is available (pre-AVX2 host, a build without the x86
     * kernels, or a forced scalar override) — callers treat 1 as
     * "wave kernel disabled" and must not construct a BpWaveDecoder.
     */
    static size_t resolveLaneWidth(size_t requested);

    /**
     * Whether dispatch finds any wave rung this CPU can run (the
     * kernel functions are compiled with function-scoped target
     * attributes on x86-64 builds). When false, BpOsdDecoder silently
     * uses the scalar batch core instead; constructing or driving a
     * BpWaveDecoder directly is then undefined. Always false in
     * builds without the x86 kernels.
     */
    static bool runtimeSupported();

    /** Auto-dispatched backend (selectDecoderBackend). */
    BpWaveDecoder(std::shared_ptr<const BpGraph> graph,
                  BpOptions options);

    /**
     * Explicit backend, for forced-dispatch tests and per-rung
     * benches. `backend` must be a wave rung this host supports; it
     * decodes at its own lane width whatever options.waveLanes says.
     */
    BpWaveDecoder(std::shared_ptr<const BpGraph> graph,
                  BpOptions options, const DecoderBackend& backend);

    /** Lanes decoded per wave. */
    size_t laneWidth() const { return laneWidth_; }

    /** Name of the kernel backend driving this decoder. */
    const char* backendName() const { return backend_->name; }

    /** onRetire(index, lane): syndromes[index] retired from `lane`,
     *  whose accessors hold its result during the call only. */
    using RetireFn = std::function<void(size_t index, size_t lane)>;

    /**
     * Decode syndromes[0..count) (numChecks bits each), refilling each
     * lane from the list as it retires; onRetire runs once per
     * syndrome. Returns the check-pass steps run; each pays for
     * laneWidth() lane-iterations.
     */
    size_t decodeAll(const BitVec* const* syndromes, size_t count,
                     const RetireFn& onRetire);

    /**
     * One-shot wave: decode syndromes[0..count) (count in
     * [1, laneWidth()]) and keep syndrome i's result readable as lane
     * i through the accessors below until the next decode call.
     */
    void decodeWave(const BitVec* const* syndromes, size_t count);

    /** Whether lane's hard decision reproduced its syndrome. */
    bool
    laneConverged(size_t lane) const
    {
        return (convergedMask_ >> lane) & 1;
    }

    /** Iterations consumed by lane (== BpDecoder::lastIterations). */
    uint32_t laneIterations(size_t lane) const { return iterations_[lane]; }

    /** Copy lane's posterior LLRs into out (resized to numVars). */
    void lanePosterior(size_t lane, std::vector<float>& out) const;

    /** Copy lane's hard decision into out (resized to numVars bits). */
    void laneHardDecision(size_t lane, BitVec& out) const;

  private:
    /** Load `syndrome` into lane with zero messages, at iteration 0. */
    void loadLane(size_t lane, const BitVec& syndrome);
    /** Lane mask of lanes whose hard decision matches their syndrome. */
    uint64_t verifyWave() const;
    WaveKernelCtx kernelCtx();

    std::shared_ptr<const BpGraph> graph_;
    BpOptions options_;
    const DecoderBackend* backend_ = nullptr;
    size_t laneWidth_ = 0;
    float clamp_ = 50.0f;
    float minSumScale_ = 0.9f;

    // Lane-major state: element i*L + l is lane l's value of entity i.
    // Messages are stored compressed — two scaled minima per check
    // plus two packed lane-bit words per edge, see wave_kernels.h —
    // and decoded on read to exactly the scalar decoder's floats.
    using LaneRows = std::vector<float, LaneRowAllocator<float>>;
    LaneRows checkMin1_; ///< numChecks x L.
    LaneRows checkMin2_; ///< numChecks x L.
    std::vector<uint32_t> edgeSignBits_; ///< numEdges.
    std::vector<uint32_t> edgeMinBits_;  ///< numEdges.
    LaneRows posterior_; ///< numVars x L.
    std::vector<uint64_t> hardMask_; ///< per var: bit l = lane l's bit.
    std::vector<uint64_t> synMask_;  ///< per check: lane syndrome bits.
    LaneRows synSign_;     ///< numChecks x L: +-1 per lane.
    LaneRows msgScratch_;  ///< maxCheckDegree x L.

    /** Syndrome of the iteration-0 hard decision (prior signs). */
    BitVec initialSyndrome_;
    /** decodeWave's per-syndrome copies of posterior_/hardMask_. */
    LaneRows snapPosterior_;
    std::vector<uint64_t> snapHard_;

    uint64_t convergedMask_ = 0;
    /** Per lane: check passes since its syndrome was loaded. */
    uint32_t iterations_[64] = {};
};

} // namespace cyclone

#endif // CYCLONE_DECODER_BP_WAVE_DECODER_H
