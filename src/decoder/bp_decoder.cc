#include "decoder/bp_decoder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cyclone {

BpDecoder::BpDecoder(const DetectorErrorModel& dem, BpOptions options)
    : BpDecoder(std::make_shared<const BpGraph>(dem), options)
{}

BpDecoder::BpDecoder(std::shared_ptr<const BpGraph> graph,
                     BpOptions options)
    : graph_(std::move(graph)), options_(options),
      clamp_(static_cast<float>(options.clamp)),
      minSumScale_(static_cast<float>(options.minSumScale))
{
    msgCheckToVar_.assign(graph_->numEdges, 0.0f);
    posterior_.assign(graph_->numVars, 0.0f);
    hard_.resize(graph_->numVars);
    // Per-check scratch is bounded by the largest check degree; size
    // it once here so the check pass never reallocates.
    msgScratch_.resize(graph_->maxCheckDegree);
}

void
BpDecoder::posteriorUpdate()
{
    // The hard decision is maintained inline (it is just the posterior
    // sign), packed 64 variables per word; hardChanged_ lets decode()
    // skip the O(edges) syndrome verification on iterations where no
    // decision bit moved — the verification result could not differ
    // from the previous one. Change detection is word-granular: a
    // word compare per 64 variables instead of a byte compare per
    // variable.
    const BpGraph& g = *graph_;
    bool changed = false;
    uint64_t* hard_words = hard_.words().data();
    uint64_t word = 0;
    for (size_t v = 0; v < g.numVars; ++v) {
        float total = g.prior[v];
        for (size_t e = g.varOffset[v]; e < g.varOffset[v + 1]; ++e)
            total += msgCheckToVar_[g.checkSlotOfVarEdge[e]];
        posterior_[v] = total;
        word |= uint64_t{total < 0.0f} << (v & 63);
        if ((v & 63) == 63) {
            changed |= word != hard_words[v >> 6];
            hard_words[v >> 6] = word;
            word = 0;
        }
    }
    if (g.numVars & 63) {
        const size_t w = g.numVars >> 6;
        changed |= word != hard_words[w];
        hard_words[w] = word;
    }
    hardChanged_ = changed;
}

void
BpDecoder::checkToVarUpdate(const BitVec& syndrome)
{
    const BpGraph& g = *graph_;
    for (size_t c = 0; c < g.numChecks; ++c) {
        const size_t begin = g.checkOffset[c];
        const size_t end = g.checkOffset[c + 1];
        const float syndrome_sign = syndrome.get(c) ? -1.0f : 1.0f;
        // Materialize this check's incoming var-to-check messages into
        // sequential scratch: clamp(posterior - last outgoing message)
        // is float-identical to a stored var-pass message, and the
        // edge's old outgoing value is only overwritten below, after
        // every gather for this check has read it.
        for (size_t s = begin; s < end; ++s) {
            const float total = posterior_[g.checkEdgeVar[s]];
            msgScratch_[s - begin] = std::clamp(
                total - msgCheckToVar_[s], -clamp_, clamp_);
        }
        // Track the two smallest magnitudes and the sign product.
        float min1 = 3.0e38f, min2 = 3.0e38f;
        size_t argmin = begin;
        float sign_product = syndrome_sign;
        for (size_t s = begin; s < end; ++s) {
            const float m = msgScratch_[s - begin];
            const float mag = std::fabs(m);
            if (m < 0.0f)
                sign_product = -sign_product;
            if (mag < min1) {
                min2 = min1;
                min1 = mag;
                argmin = s;
            } else if (mag < min2) {
                min2 = mag;
            }
        }
        for (size_t s = begin; s < end; ++s) {
            const float m = msgScratch_[s - begin];
            const float mag = s == argmin ? min2 : min1;
            const float sign =
                sign_product * (m < 0.0f ? -1.0f : 1.0f);
            msgCheckToVar_[s] = sign * minSumScale_ * mag;
        }
    }
}

bool
BpDecoder::syndromeMatches(const BitVec& syndrome) const
{
    // Verify H e == syndrome for the current hard decision: check
    // parities are gathered bit-wise from the packed decision and
    // compared one 64-check word at a time.
    const BpGraph& g = *graph_;
    const uint64_t* hard_words = hard_.words().data();
    const uint64_t* syndrome_words = syndrome.words().data();
    uint64_t word = 0;
    for (size_t c = 0; c < g.numChecks; ++c) {
        uint64_t parity = 0;
        for (size_t s = g.checkOffset[c]; s < g.checkOffset[c + 1];
             ++s) {
            const uint32_t v = g.checkEdgeVar[s];
            parity ^= hard_words[v >> 6] >> (v & 63);
        }
        word |= (parity & 1) << (c & 63);
        if ((c & 63) == 63) {
            if (word != syndrome_words[c >> 6])
                return false;
            word = 0;
        }
    }
    if (g.numChecks & 63)
        return word == syndrome_words[g.numChecks >> 6];
    return true;
}

bool
BpDecoder::decode(const BitVec& syndrome)
{
    CYCLONE_ASSERT(syndrome.size() == graph_->numChecks,
                   "syndrome length mismatch: " << syndrome.size()
                   << " vs " << graph_->numChecks);
    std::fill(msgCheckToVar_.begin(), msgCheckToVar_.end(), 0.0f);
    hard_.clear();
    bool verified = false;
    for (size_t iter = 0; iter < options_.maxIterations; ++iter) {
        posteriorUpdate();
        // Posterior from the previous half-iteration is already
        // available; test convergence before the check update to catch
        // the trivial all-zero syndrome in one pass. When no decision
        // bit moved the verification result cannot have changed, so
        // the previous (failed) answer is reused.
        if (iter == 0 || hardChanged_)
            verified = syndromeMatches(syndrome);
        if (verified) {
            lastIterations_ = iter;
            return true;
        }
        checkToVarUpdate(syndrome);
    }
    posteriorUpdate();
    lastIterations_ = options_.maxIterations;
    // With maxIterations == 0 the loop never evaluated the syndrome;
    // otherwise re-verify only if a decision bit moved since the last
    // (failed) check.
    if (hardChanged_ || options_.maxIterations == 0)
        verified = syndromeMatches(syndrome);
    return verified;
}

} // namespace cyclone
