/**
 * @file
 * Tests for detector error model extraction and sampling.
 */

#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <string>

#include <gtest/gtest.h>

#include "campaign/artifact_cache.h"
#include "campaign/content_hash.h"
#include "circuit/frame_simulator.h"
#include "circuit/memory_circuit.h"
#include "dem/dem_builder.h"
#include "dem/dem_sampler.h"
#include "noise/pauli_twirl.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"

namespace cyclone {
namespace {

CssCode
surface13()
{
    return makeHgpCode(ClassicalCode::repetition(3), 3);
}

TEST(DemBuilder, SingleXErrorSingleMechanism)
{
    Circuit c(1);
    c.xError(0, 0.125);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_DOUBLE_EQ(dem.mechanisms[0].probability, 0.125);
    ASSERT_EQ(dem.mechanisms[0].detectors.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].detectors[0], 0u);
}

TEST(DemBuilder, IdenticalMechanismsMerge)
{
    // Two X errors at the same spot merge with OR-combined
    // probability p1 (1 - p2) + p2 (1 - p1).
    Circuit c(1);
    c.xError(0, 0.1);
    c.xError(0, 0.2);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_NEAR(dem.mechanisms[0].probability,
                0.1 * 0.8 + 0.2 * 0.9, 1e-12);
}

TEST(DemBuilder, InvisibleErrorsDropped)
{
    // A Z error before a Z measurement affects nothing.
    Circuit c(1);
    c.zError(0, 0.3);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    EXPECT_TRUE(dem.mechanisms.empty());
}

TEST(DemBuilder, Depolarize1SplitsIntoVisibleComponents)
{
    // On a Z measurement, X and Y components are visible and have
    // the same signature: they merge. Z is invisible.
    Circuit c(1);
    c.depolarize1(0, 0.3);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    const double p = 0.1; // each component
    EXPECT_NEAR(dem.mechanisms[0].probability,
                p * (1 - p) + p * (1 - p), 1e-12);
}

TEST(DemBuilder, ObservableTracking)
{
    Circuit c(2);
    c.xError(0, 0.1);
    c.measureZ(0);
    c.measureZ(1);
    c.addDetector({0});
    c.addObservable(2, {0, 1});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].observables, uint64_t(1) << 2);
    EXPECT_EQ(dem.numObservables, 3u);
}

/**
 * Copy of `c` with a Depolarize1 of strength p in front of every
 * Pauli1 (the per-round idle channel), so one memory circuit carries
 * every error-op kind the DEM builder decomposes.
 */
Circuit
withDepolarize1BeforeIdle(const Circuit& c, double p)
{
    Circuit out(c.numQubits());
    for (const Op& op : c.ops()) {
        switch (op.kind) {
          case OpKind::ResetZ: out.resetZ(op.targets[0]); break;
          case OpKind::ResetX: out.resetX(op.targets[0]); break;
          case OpKind::MeasureZ: out.measureZ(op.targets[0]); break;
          case OpKind::MeasureX: out.measureX(op.targets[0]); break;
          case OpKind::Cx: out.cx(op.targets[0], op.targets[1]); break;
          case OpKind::XError: out.xError(op.targets[0], op.params[0]); break;
          case OpKind::ZError: out.zError(op.targets[0], op.params[0]); break;
          case OpKind::Depolarize1:
            out.depolarize1(op.targets[0], op.params[0]);
            break;
          case OpKind::Depolarize2:
            out.depolarize2(op.targets[0], op.targets[1], op.params[0]);
            break;
          case OpKind::Pauli1:
            out.depolarize1(op.targets[0], p);
            out.pauli1(op.targets[0], op.params[0], op.params[1],
                       op.params[2]);
            break;
          case OpKind::Detector: out.addDetector(op.targets); break;
          case OpKind::Observable:
            out.addObservable(static_cast<size_t>(op.params[0]),
                              op.targets);
            break;
        }
    }
    return out;
}

TEST(DemBuilder, MechanismSignaturesMatchFramePropagation)
{
    // Independent physics check: propagate every component of every
    // error channel on its own through the frame simulator (a two-qubit
    // Pauli as the XOR of its two single-qubit parts). Every visible
    // component must be a DEM mechanism with the same detectors and
    // observables, whose probability ORs those of its components, and
    // the DEM must hold nothing else.
    const CssCode code = catalog::bb72();
    const SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = 3;
    opts.noise = NoiseModel::withLatency(1e-3, 150.0);
    const Circuit circuit = withDepolarize1BeforeIdle(
        buildZMemoryCircuit(code, sched, opts), 1e-3);
    const auto dem = buildDetectorErrorModel(circuit);
    const FrameSimulator sim(circuit);

    using Signature = std::pair<std::vector<uint32_t>, uint64_t>;
    struct Part
    {
        BitVec flips;
        uint64_t obs = 0;
    };
    auto fault = [&](size_t op, uint32_t q, bool x, bool z) {
        Part part;
        sim.propagateFault(op, q, x, z, part.flips, part.obs);
        return part;
    };
    auto signature = [](const Part& a, const Part* b) {
        BitVec flips = a.flips;
        uint64_t obs = a.obs;
        if (b != nullptr) {
            flips ^= b->flips;
            obs ^= b->obs;
        }
        const auto ones = flips.onesPositions();
        return Signature(std::vector<uint32_t>(ones.begin(), ones.end()),
                         obs);
    };

    // Visible signature -> OR-combined probability of its components.
    std::map<Signature, double> visible;
    std::map<OpKind, size_t> components;
    auto expect = [&](const Signature& sig, double p, OpKind kind) {
        if (p <= 0.0 || (sig.first.empty() && sig.second == 0))
            return;
        double& q = visible[sig];
        q = q * (1.0 - p) + p * (1.0 - q);
        ++components[kind];
    };
    for (size_t i = 0; i < circuit.ops().size(); ++i) {
        const Op& op = circuit.ops()[i];
        const uint32_t a = op.targets.empty() ? 0 : op.targets[0];
        switch (op.kind) {
          case OpKind::XError:
          case OpKind::ZError: {
            const bool x = op.kind == OpKind::XError;
            expect(signature(fault(i, a, x, !x), nullptr), op.params[0],
                   op.kind);
            break;
          }
          case OpKind::Depolarize1:
          case OpKind::Pauli1: {
            const bool dep = op.kind == OpKind::Depolarize1;
            const double px = dep ? op.params[0] / 3 : op.params[0];
            const double py = dep ? op.params[0] / 3 : op.params[1];
            const double pz = dep ? op.params[0] / 3 : op.params[2];
            expect(signature(fault(i, a, true, false), nullptr), px,
                   op.kind);
            expect(signature(fault(i, a, true, true), nullptr), py,
                   op.kind);
            expect(signature(fault(i, a, false, true), nullptr), pz,
                   op.kind);
            break;
          }
          case OpKind::Depolarize2: {
            const uint32_t b = op.targets[1];
            for (unsigned pa = 0; pa < 4; ++pa) {
                for (unsigned pb = 0; pb < 4; ++pb) {
                    if (pa == 0 && pb == 0)
                        continue;
                    // Pauli index bits: 1 = X part, 2 = Z part.
                    const Part fa = fault(i, a, pa & 1, pa & 2);
                    const Part fb = fault(i, b, pb & 1, pb & 2);
                    expect(signature(fa, &fb), op.params[0] / 15,
                           op.kind);
                }
            }
            break;
          }
          default:
            break;
        }
    }

    std::set<Signature> inDem;
    size_t missing = 0, wrongP = 0;
    for (const DemMechanism& m : dem.mechanisms) {
        const Signature sig(m.detectors, m.observables);
        inDem.insert(sig);
        const auto it = visible.find(sig);
        if (it == visible.end())
            ++missing;
        else if (std::abs(m.probability - it->second) >
                 1e-12 * it->second)
            ++wrongP;
    }
    EXPECT_EQ(inDem.size(), dem.mechanisms.size())
        << "duplicate mechanism signatures";
    EXPECT_EQ(dem.mechanisms.size(), visible.size());
    EXPECT_EQ(missing, 0u) << "DEM mechanisms no component explains";
    EXPECT_EQ(wrongP, 0u) << "mechanism probabilities differ from the "
                             "OR of their components";
    for (OpKind kind : {OpKind::XError, OpKind::ZError,
                        OpKind::Depolarize1, OpKind::Pauli1,
                        OpKind::Depolarize2})
        EXPECT_GT(components[kind], 0u)
            << "no visible component of op kind "
            << static_cast<int>(kind);
}

TEST(DemBuilder, ExpectedErrorsMatchesProbabilitySum)
{
    Circuit c(2);
    c.xError(0, 0.1);
    c.zError(1, 0.0); // skipped
    c.measureZ(0);
    c.measureZ(1);
    c.addDetector({0});
    c.addDetector({1});
    auto dem = buildDetectorErrorModel(c);
    EXPECT_NEAR(dem.expectedErrorsPerShot(), 0.1, 1e-12);
}

TEST(DemBuilder, Deterministic)
{
    CssCode code = surface13();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = 2;
    opts.noise = NoiseModel::uniform(0.01);
    Circuit circuit = buildZMemoryCircuit(code, sched, opts);
    auto a = buildDetectorErrorModel(circuit);
    auto b = buildDetectorErrorModel(circuit);
    ASSERT_EQ(a.mechanisms.size(), b.mechanisms.size());
    EXPECT_NEAR(a.expectedErrorsPerShot(), b.expectedErrorsPerShot(),
                1e-12);
    for (size_t i = 0; i < a.mechanisms.size(); ++i) {
        EXPECT_EQ(a.mechanisms[i].detectors,
                  b.mechanisms[i].detectors);
        EXPECT_EQ(a.mechanisms[i].observables,
                  b.mechanisms[i].observables);
    }
}

TEST(DemBuilder, LatencyChannelAddsMechanisms)
{
    CssCode code = surface13();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions quiet;
    quiet.rounds = 2;
    quiet.noise = NoiseModel::uniform(0.01);
    MemoryCircuitOptions slow = quiet;
    slow.noise = NoiseModel::withLatency(0.01, 200000.0);
    auto dem_quiet =
        buildDetectorErrorModel(buildZMemoryCircuit(code, sched, quiet));
    auto dem_slow =
        buildDetectorErrorModel(buildZMemoryCircuit(code, sched, slow));
    EXPECT_GT(dem_slow.expectedErrorsPerShot(),
              dem_quiet.expectedErrorsPerShot());
}

/** One golden DEM: a memory circuit and its serialized-bytes digest. */
struct GoldenDem
{
    const char* code;
    bool xBasis;
    const char* noise; ///< "uniform", "latency" or "perqubit".
    size_t mechanisms;
    uint64_t digest;
};

/**
 * Build the memory circuit a campaign task of this shape would fold:
 * the X-then-Z schedule over the code's nominal distance in rounds, at
 * p = 1e-3, with either no idle channel, the uniform per-round twirl
 * of a 150 us round, or per-qubit Pauli1 twirls of distinct idle
 * windows.
 */
Circuit
goldenCircuit(const GoldenDem& g)
{
    const CssCode code = std::string(g.code) == "surface3"
        ? catalog::surface(3)
        : catalog::byName(g.code);
    const SyndromeSchedule sched = makeXThenZSchedule(code);
    const double p = 1e-3;
    MemoryCircuitOptions opts;
    opts.rounds = code.nominalDistance() > 0 ? code.nominalDistance() : 3;
    const std::string noise = g.noise;
    if (noise == "latency") {
        opts.noise = NoiseModel::withLatency(p, 150.0);
    } else {
        opts.noise = NoiseModel::uniform(p);
        if (noise == "perqubit") {
            const double t = coherenceTimeSeconds(p);
            for (size_t q = 0; q < code.numQubits(); ++q)
                opts.perQubitIdle.push_back(twirlDecoherence(
                    20.0 + 13.0 * static_cast<double>(q % 7), t, t));
        }
    }
    return g.xBasis ? buildXMemoryCircuit(code, sched, opts)
                    : buildZMemoryCircuit(code, sched, opts);
}

uint64_t
demDigest(const DetectorErrorModel& dem)
{
    HashStream h;
    h.absorb(serializeDem(dem));
    return h.digest();
}

TEST(DemBuilder, GoldenDigests)
{
    // Recorded from the builder before the backward-sweep rewrite. Any
    // change to what a DEM contains (mechanism order, signatures or a
    // probability's last bit) must update this table and say why in
    // CHANGES.md.
    const GoldenDem kGolden[] = {
        {"bb72", false, "uniform", 15840, 0x9572f330212f32feull},
        {"bb72", false, "latency", 15840, 0xed2aca8e3bd33a77ull},
        {"bb72", false, "perqubit", 15840, 0x14ec556cd0b7bdf2ull},
        {"bb72", true, "uniform", 15840, 0xe151b81e4714474bull},
        {"bb72", true, "latency", 15840, 0x355c054ce0658aecull},
        {"bb72", true, "perqubit", 15840, 0xcf2ad828b626613full},
        {"bb144", false, "uniform", 67104, 0x8325dd65655d6907ull},
        {"bb144", false, "latency", 67104, 0x567fbb1dad425e01ull},
        {"bb144", false, "perqubit", 67104, 0x7f1f2ff06a56db4dull},
        {"bb144", true, "uniform", 67104, 0x105ac133eaeefbfdull},
        {"bb144", true, "latency", 67104, 0xb8015df001a318dbull},
        {"bb144", true, "perqubit", 67104, 0xbd9e7754da2918ebull},
        {"hgp225", false, "uniform", 57876, 0xa49483535b573235ull},
        {"hgp225", false, "latency", 57876, 0x137589ee0f00902cull},
        {"hgp225", false, "perqubit", 57876, 0xcf38f63129d9bb8bull},
        {"hgp225", true, "uniform", 57878, 0x719ae7fdb418403dull},
        {"hgp225", true, "latency", 57878, 0x0bf2af4b1af56d7bull},
        {"hgp225", true, "perqubit", 57878, 0x337df87a602c17d9ull},
        {"surface3", false, "uniform", 427, 0x55468d029c1ac1deull},
        {"surface3", false, "latency", 427, 0x7377d053690ee02dull},
        {"surface3", false, "perqubit", 427, 0xd7994d103072379eull},
        {"surface3", true, "uniform", 427, 0x2a11545b5834ce8dull},
        {"surface3", true, "latency", 427, 0xedfd941ca3ddca42ull},
        {"surface3", true, "perqubit", 427, 0xa4819c960e5ad6e4ull},
    };
    for (const GoldenDem& g : kGolden) {
        const auto dem = buildDetectorErrorModel(goldenCircuit(g));
        EXPECT_EQ(dem.mechanisms.size(), g.mechanisms)
            << g.code << (g.xBasis ? " X " : " Z ") << g.noise;
        EXPECT_EQ(demDigest(dem), g.digest)
            << g.code << (g.xBasis ? " X " : " Z ") << g.noise;
    }
}

TEST(DemSampler, ZeroProbabilityNeverFires)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.mechanisms.push_back({0.0, {0}, 0});
    Rng rng(3);
    auto shots = sampleDem(dem, 100, rng);
    for (const BitVec& s : shots.syndromes)
        EXPECT_TRUE(s.isZero());
}

TEST(DemSampler, CertainMechanismAlwaysFires)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms.push_back({1.0, {1}, 1});
    Rng rng(3);
    auto shots = sampleDem(dem, 50, rng);
    for (size_t i = 0; i < 50; ++i) {
        EXPECT_TRUE(shots.syndromes[i].get(1));
        EXPECT_EQ(shots.observables[i], 1u);
    }
}

TEST(DemSampler, FiringRateMatchesProbability)
{
    DetectorErrorModel dem;
    dem.numDetectors = 1;
    dem.mechanisms.push_back({0.3, {0}, 0});
    Rng rng(5);
    const size_t shots = 20000;
    auto s = sampleDem(dem, shots, rng);
    size_t fired = 0;
    for (const BitVec& v : s.syndromes)
        fired += v.get(0);
    EXPECT_NEAR(static_cast<double>(fired) / shots, 0.3, 0.02);
}

TEST(DemSampler, MarginalsMatchFrameSimulator)
{
    // End-to-end: per-detector flip rates from the DEM sampler track
    // the frame simulator on the same noisy circuit.
    CssCode code = surface13();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = 2;
    opts.noise = NoiseModel::uniform(0.01);
    Circuit circuit = buildZMemoryCircuit(code, sched, opts);

    const size_t shots = 4000;
    Rng rng_frame(7), rng_dem(9);
    FrameSimulator sim(circuit);
    auto frame_samples = sim.sample(shots, rng_frame);
    auto dem = buildDetectorErrorModel(circuit);
    auto dem_samples = sampleDem(dem, shots, rng_dem);

    double total_frame = 0.0, total_dem = 0.0;
    for (size_t s = 0; s < shots; ++s) {
        total_frame += frame_samples.detectors[s].popcount();
        total_dem += dem_samples.syndromes[s].popcount();
    }
    const double mean_frame = total_frame / shots;
    const double mean_dem = total_dem / shots;
    // Independent-mechanism decomposition differs from exact channel
    // sampling at O(p^2); allow 10% plus statistical slack.
    EXPECT_NEAR(mean_dem, mean_frame,
                0.1 * mean_frame + 0.3);
}

} // namespace
} // namespace cyclone
