/**
 * @file
 * Tests for BP, OSD and the combined BP+OSD decoder.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "circuit/memory_circuit.h"
#include "decoder/bposd_decoder.h"
#include "decoder/exhaustive_decoder.h"
#include "dem/dem_builder.h"
#include "dem/dem_sampler.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"

namespace cyclone {
namespace {

/** Hand-built repetition-code DEM: chain of detectors. */
DetectorErrorModel
repetitionDem(size_t n, double p)
{
    // Data flips i: trigger detectors i-1 and i (boundary: one).
    // Flip on the last qubit also flips the observable.
    DetectorErrorModel dem;
    dem.numDetectors = n - 1;
    dem.numObservables = 1;
    for (size_t i = 0; i < n; ++i) {
        DemMechanism m;
        m.probability = p;
        if (i > 0)
            m.detectors.push_back(static_cast<uint32_t>(i - 1));
        if (i < n - 1)
            m.detectors.push_back(static_cast<uint32_t>(i));
        m.observables = i == n - 1 ? 1 : 0;
        dem.mechanisms.push_back(std::move(m));
    }
    return dem;
}

DetectorErrorModel
surface13Dem(double p, size_t rounds = 2)
{
    CssCode code = makeHgpCode(ClassicalCode::repetition(3), 3);
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = rounds;
    opts.noise = NoiseModel::uniform(p);
    Circuit circuit = buildZMemoryCircuit(code, sched, opts);
    return buildDetectorErrorModel(circuit);
}

TEST(BpDecoder, TrivialSyndromeConvergesToZero)
{
    auto dem = repetitionDem(9, 0.05);
    BpDecoder bp(dem);
    BitVec syndrome(dem.numDetectors);
    EXPECT_TRUE(bp.decode(syndrome));
    EXPECT_EQ(bp.hardDecision().popcount(), 0u);
    EXPECT_EQ(bp.lastIterations(), 0u);
}

TEST(BpDecoder, SingleFlipDecoded)
{
    auto dem = repetitionDem(9, 0.05);
    BpDecoder bp(dem);
    // Mechanism 3 fires: detectors 2 and 3.
    BitVec syndrome(dem.numDetectors);
    syndrome.set(2, true);
    syndrome.set(3, true);
    ASSERT_TRUE(bp.decode(syndrome));
    const BitVec& hard = bp.hardDecision();
    EXPECT_TRUE(hard.get(3));
    EXPECT_EQ(hard.popcount(), 1u);
}

TEST(BpDecoder, BoundaryFlipDecoded)
{
    auto dem = repetitionDem(7, 0.02);
    BpDecoder bp(dem);
    BitVec syndrome(dem.numDetectors);
    syndrome.set(0, true); // only mechanism 0 or a long chain explains
    ASSERT_TRUE(bp.decode(syndrome));
    EXPECT_TRUE(bp.hardDecision().get(0));
}

TEST(OsdDecoder, SolvesEverySingleMechanismSyndrome)
{
    auto dem = surface13Dem(0.003);
    OsdDecoder osd(dem);
    // Uniform priors: pass prior LLRs as posteriors.
    std::vector<float> llr(dem.mechanisms.size());
    for (size_t v = 0; v < llr.size(); ++v) {
        const double p = dem.mechanisms[v].probability;
        llr[v] = static_cast<float>(std::log((1.0 - p) / p));
    }
    std::vector<uint8_t> errors;
    for (size_t v = 0; v < dem.mechanisms.size(); v += 7) {
        BitVec syndrome(dem.numDetectors);
        for (uint32_t d : dem.mechanisms[v].detectors)
            syndrome.flip(d);
        ASSERT_TRUE(osd.decode(syndrome, llr, errors));
        // Verify the correction reproduces the syndrome.
        BitVec check(dem.numDetectors);
        for (size_t e = 0; e < errors.size(); ++e) {
            if (errors[e]) {
                for (uint32_t d : dem.mechanisms[e].detectors)
                    check.flip(d);
            }
        }
        EXPECT_EQ(check, syndrome);
    }
    EXPECT_GT(osd.discoveredRank(), 0u);
    EXPECT_LE(osd.discoveredRank(), dem.numDetectors);
}

TEST(BpOsd, CorrectsAllSingleMechanisms)
{
    // Every single fault must be decoded to its own observable
    // outcome: on the distance-3 surface code and on the paper's
    // [[72,12,6]] BB code (2 rounds each), whose degenerate qLDPC
    // detector graph is where min-sum posteriors would steer OSD to a
    // wrong coset if they were going to — a third of bb72's single
    // faults do not converge in BP and reach OSD. One shot per
    // mechanism, decoded as one batch (the wave kernel where the host
    // has one).
    const CssCode bb72 = catalog::bb72();
    MemoryCircuitOptions opts;
    opts.rounds = 2;
    opts.noise = NoiseModel::uniform(1e-3);
    const struct
    {
        const char* name;
        DetectorErrorModel dem;
    } models[] = {
        {"surface13", surface13Dem(0.003)},
        {"bb72", buildDetectorErrorModel(buildZMemoryCircuit(
                     bb72, makeXThenZSchedule(bb72), opts))},
    };
    for (const auto& [name, dem] : models) {
        ShotBatch batch;
        batch.reset(dem.numDetectors, dem.mechanisms.size());
        for (size_t v = 0; v < dem.mechanisms.size(); ++v) {
            for (uint32_t d : dem.mechanisms[v].detectors)
                batch.flipDetector(v, d);
        }
        BpOsdDecoder decoder(dem);
        std::vector<uint64_t> predicted;
        decoder.decodeBatch(batch, predicted);
        size_t failures = 0;
        for (size_t v = 0; v < dem.mechanisms.size(); ++v) {
            if (predicted[v] != dem.mechanisms[v].observables)
                ++failures;
        }
        EXPECT_EQ(failures, 0u)
            << name << ": " << failures << " of "
            << dem.mechanisms.size() << " single faults misdecoded";
    }
}

TEST(BpOsd, AgreesWithExhaustiveOnSmallModel)
{
    // A small hand model where ML decoding is enumerable.
    DetectorErrorModel dem;
    dem.numDetectors = 4;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.01, {0}, 0});
    dem.mechanisms.push_back({0.01, {0, 1}, 1});
    dem.mechanisms.push_back({0.02, {1, 2}, 0});
    dem.mechanisms.push_back({0.01, {2, 3}, 1});
    dem.mechanisms.push_back({0.015, {3}, 0});
    dem.mechanisms.push_back({0.001, {0, 3}, 1});

    BpOsdDecoder bposd(dem);
    ExhaustiveDecoder exact(dem, 3);
    Rng rng(23);
    auto shots = sampleDem(dem, 300, rng);
    size_t disagreements = 0;
    for (size_t s = 0; s < shots.syndromes.size(); ++s) {
        const uint64_t a = bposd.decode(shots.syndromes[s]);
        const uint64_t b = exact.decode(shots.syndromes[s]);
        if (a != b)
            ++disagreements;
    }
    // BP+OSD is near-ML on such tiny models.
    EXPECT_LE(disagreements, 6u);
}

TEST(BpOsd, StatsAreConsistent)
{
    auto dem = surface13Dem(0.01);
    BpOsdDecoder decoder(dem);
    Rng rng(31);
    auto shots = sampleDem(dem, 100, rng);
    for (const BitVec& s : shots.syndromes)
        decoder.decode(s);
    const BpOsdStats& st = decoder.stats();
    EXPECT_EQ(st.decodes, 100u);
    EXPECT_EQ(st.bpConverged + st.osdInvocations, 100u);
    EXPECT_LE(st.osdFailures, st.osdInvocations);
}

TEST(Exhaustive, FindsExactMatch)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.1, {0}, 1});
    dem.mechanisms.push_back({0.1, {1}, 0});
    ExhaustiveDecoder decoder(dem, 2);
    BitVec syndrome(2);
    syndrome.set(0, true);
    EXPECT_EQ(decoder.decode(syndrome), 1u);
    EXPECT_TRUE(decoder.lastDecodeMatched());
    syndrome.set(1, true);
    EXPECT_EQ(decoder.decode(syndrome), 1u);
}

} // namespace
} // namespace cyclone
