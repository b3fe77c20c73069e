#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

using namespace cyclone;

void
addDecoderStats(BpOsdStats& into, const BpOsdStats& s)
{
    into.decodes += s.decodes;
    into.bpConverged += s.bpConverged;
    into.osdInvocations += s.osdInvocations;
    into.osdFailures += s.osdFailures;
    into.trivialShots += s.trivialShots;
    into.memoHits += s.memoHits;
    into.bpIterations += s.bpIterations;
    into.waveGroups += s.waveGroups;
    into.waveLaneSlots += s.waveLaneSlots;
    into.waveLanesFilled += s.waveLanesFilled;
    into.osdBatchGroups += s.osdBatchGroups;
    into.osdSharedPivots += s.osdSharedPivots;
    into.stagedChunks += s.stagedChunks;
    if (into.backend.empty())
        into.backend = s.backend;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
DecodeSplit::add(const DecodeSplit& o)
{
    bpSeconds += o.bpSeconds;
    osdSeconds += o.osdSeconds;
    usefulLaneIters += o.usefulLaneIters;
    paidLaneIters += o.paidLaneIters;
    osdSolves += o.osdSolves;
    osdGroups += o.osdGroups;
}

DecodeSplitter::DecodeSplitter(const DetectorErrorModel& dem,
                               const BpOptions& bp)
    : dem_(dem), osd_(dem)
{
    BpOptions options = bp;
    options.waveLanes = BpWaveDecoder::resolveLaneWidth(bp.waveLanes);
    if (options.waveLanes > 1)
        wave_ = std::make_unique<BpWaveDecoder>(
            std::make_shared<BpGraph>(dem), options);
}

void
DecodeSplitter::flushOsd(DecodeSplit& out)
{
    if (pendingSyndromes_.empty())
        return;
    const size_t vars = dem_.mechanisms.size();
    requests_.resize(pendingSyndromes_.size());
    for (size_t i = 0; i < requests_.size(); ++i) {
        requests_[i].syndrome = pendingSyndromes_[i];
        requests_[i].posteriorLlr = pendingPosteriors_.data() + i * vars;
    }
    const double t0 = nowSeconds();
    osd_.solveBatch(requests_.data(), requests_.size(), result_);
    out.osdSeconds += nowSeconds() - t0;
    out.osdSolves += requests_.size();
    out.osdGroups += result_.stats.groups;
    pendingSyndromes_.clear();
}

void
DecodeSplitter::run(const std::vector<BitVec>& syndromes, DecodeSplit& out)
{
    if (!wave_)
        return;

    // Distinct non-zero syndromes, as the decoder's per-group memo
    // sees them, in the decoder's stable weight order.
    distinct_.clear();
    std::unordered_map<uint64_t, std::vector<const BitVec*>> seen;
    for (const BitVec& s : syndromes) {
        if (s.isZero())
            continue;
        std::vector<const BitVec*>& bucket = seen[s.hash()];
        bool dup = false;
        for (const BitVec* other : bucket)
            dup = dup || *other == s;
        if (dup)
            continue;
        bucket.push_back(&s);
        distinct_.push_back(&s);
    }
    std::stable_sort(distinct_.begin(), distinct_.end(),
                     [](const BitVec* a, const BitVec* b) {
                         return a->popcount() < b->popcount();
                     });

    const size_t lanes = wave_->laneWidth();
    const size_t vars = dem_.mechanisms.size();
    pendingPosteriors_.resize(kOsdSlab * vars);
    for (size_t g = 0; g < distinct_.size(); g += lanes) {
        const size_t count = std::min(lanes, distinct_.size() - g);
        const double t0 = nowSeconds();
        wave_->decodeWave(distinct_.data() + g, count);
        out.bpSeconds += nowSeconds() - t0;
        uint32_t waveIters = 0;
        for (size_t l = 0; l < count; ++l) {
            out.usefulLaneIters += wave_->laneIterations(l);
            waveIters = std::max(waveIters, wave_->laneIterations(l));
        }
        out.paidLaneIters += static_cast<uint64_t>(lanes) * waveIters;
        // Non-converged lanes queue for the batched OSD stage in
        // 64-shot slabs, as BpOsdDecoder stages them.
        for (size_t l = 0; l < count; ++l) {
            if (wave_->laneConverged(l))
                continue;
            wave_->lanePosterior(l, posterior_);
            std::copy(posterior_.begin(), posterior_.end(),
                      pendingPosteriors_.begin() +
                          static_cast<std::ptrdiff_t>(
                              pendingSyndromes_.size() * vars));
            pendingSyndromes_.push_back(distinct_[g + l]);
            if (pendingSyndromes_.size() == kOsdSlab)
                flushOsd(out);
        }
    }
    flushOsd(out);
}

std::string
regimeLabel(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%.0e", p);
    // "p1e-03" -> "p1e-3"
    std::string s = buf;
    const size_t e = s.find("e-0");
    if (e != std::string::npos)
        s.erase(e + 2, 1);
    return s;
}

void
buildTracedArtifacts(ResolvedTask& rt, ArtifactCache& cache,
                     Tracer* tracer, ReplayResult& out)
{
    const TaskSpec& t = *rt.spec;
    if (t.idleNoise != IdleNoiseMode::UniformLatency)
        throw std::runtime_error(
            "traced artifact builds support uniform idle noise only");
    double latency = t.roundLatencyUs;
    if (t.compileLatency) {
        const std::string arch = architectureName(t.architecture);
        HashStream key;
        key.absorb(rt.codeHash)
            .absorb(rt.scheduleHash)
            .absorb(arch)
            .absorb(uint64_t{t.swap == SwapKind::IonSwap ? 1u : 0u})
            .absorb(uint64_t{t.gridCapacity});
        Tracer::Scope lookup(tracer, "ArtifactCache::getOrBuildCompile",
                             "campaign");
        rt.compiled = cache.getOrBuildCompile(key.digest(), [&] {
            CodesignConfig config;
            config.architecture = t.architecture;
            config.ejf.swap = t.swap;
            config.cyclone.swap = t.swap;
            config.gridCapacity = t.gridCapacity;
            const double t0 = nowSeconds();
            Tracer::Scope span(tracer, "compileCodesign", "compiler");
            CompileResult compiled =
                compileCodesign(*rt.code, *rt.schedule, config);
            out.compileMsByArch[arch] += (nowSeconds() - t0) * 1e3;
            out.opsByArch[arch] +=
                static_cast<double>(compiled.schedule.ops.size());
            return compiled;
        });
        latency = rt.compiled->execTimeUs;
    }
    latency *= t.latencyScale;
    rt.latencyUs = latency;

    HashStream key;
    key.absorb(rt.codeHash)
        .absorb(rt.scheduleHash)
        .absorb(t.physicalError)
        .absorb(latency)
        .absorb(uint64_t{rt.rounds})
        .absorb(uint64_t{t.xBasis ? 1u : 0u});
    Tracer::Scope lookup(tracer, "ArtifactCache::getOrBuildDem",
                         "campaign");
    rt.dem = cache.getOrBuildDem(key.digest(), [&] {
        MemoryCircuitOptions opts;
        opts.rounds = rt.rounds;
        opts.noise = latency > 0.0
            ? NoiseModel::withLatency(t.physicalError, latency)
            : NoiseModel::uniform(t.physicalError);
        Circuit circuit = [&] {
            Tracer::Scope span(tracer,
                               t.xBasis ? "buildXMemoryCircuit"
                                        : "buildZMemoryCircuit",
                               "circuit");
            return t.xBasis
                ? buildXMemoryCircuit(*rt.code, *rt.schedule, opts)
                : buildZMemoryCircuit(*rt.code, *rt.schedule, opts);
        }();
        Tracer::Scope span(tracer, "buildDetectorErrorModel", "dem");
        DetectorErrorModel dem = buildDetectorErrorModel(circuit);
        out.mechanisms += dem.mechanisms.size();
        return dem;
    });
}

namespace {

/** Sample and decode one staged group of chunks exactly as
 *  runChunkGroup does, timing the sampler and decoder calls. */
ChunkOutcome
replayGroup(const DetectorErrorModel& dem, const ChunkPlan* plans,
            size_t count, BpOsdDecoder& decoder,
            std::vector<ShotBatch>& batches, Tracer* tracer,
            ReplayResult& out, RegimeStats& regime)
{
    auto timed = [&](const char* name, const char* layer,
                     double& seconds, auto&& call) {
        const double t0 = nowSeconds();
        {
            Tracer::Scope span(tracer, name, layer);
            call();
        }
        seconds += nowSeconds() - t0;
    };
    if (batches.size() < count)
        batches.resize(count);
    Tracer::Scope groupSpan(tracer, "chunkGroup", "campaign");
    timed("BpOsdDecoder::beginStaged", "decoder", regime.decodeSeconds,
          [&] { decoder.beginStaged(); });
    for (size_t k = 0; k < count; ++k) {
        timed("sampleDemBatch", "dem", out.sampleSeconds, [&] {
            Rng rng(plans[k].seed);
            sampleDemBatch(dem, plans[k].shots, rng, batches[k]);
        });
        out.sampledShots += plans[k].shots;
        timed("BpOsdDecoder::stageBatch", "decoder", regime.decodeSeconds,
              [&] { decoder.stageBatch(batches[k]); });
    }
    timed("BpOsdDecoder::flushStaged", "decoder", regime.decodeSeconds,
          [&] { decoder.flushStaged(); });

    ChunkOutcome outcome;
    const std::vector<uint64_t>& predicted = decoder.stagedPredictions();
    for (size_t k = 0; k < count; ++k) {
        const size_t base = decoder.stagedBatchOffset(k);
        outcome.shots += plans[k].shots;
        for (size_t s = 0; s < plans[k].shots; ++s)
            outcome.failures +=
                predicted[base + s] != batches[k].observables[s] ? 1 : 0;
    }
    return outcome;
}

} // namespace

ReplayResult
replayCampaign(const CampaignSpec& spec, Tracer* tracer)
{
    ReplayResult out;
    std::vector<ResolvedTask> tasks;
    {
        Tracer::Scope span(tracer, "resolveTaskIdentities", "campaign");
        tasks = resolveTaskIdentities(spec);
    }
    ArtifactCache cache;
    out.failures.assign(tasks.size(), 0);
    out.shots.assign(tasks.size(), 0);

    std::vector<ShotBatch> batches;
    std::vector<BitVec> syndromes;
    for (size_t i = 0; i < tasks.size(); ++i) {
        ResolvedTask& rt = tasks[i];
        const TaskSpec& t = *rt.spec;
        RegimeStats& regime = out.regimes[regimeLabel(t.physicalError)];
        Tracer::Scope taskSpan(tracer, "task", "campaign");
        buildTracedArtifacts(rt, cache, tracer, out);

        BpOsdDecoder decoder(*rt.dem, t.bp);
        std::optional<DecodeSplitter> splitter;
        if (tracer != nullptr)
            splitter.emplace(*rt.dem, t.bp);
        AdaptiveSampler sampler(t.stop, rt.taskSeed);
        const size_t group = std::max<size_t>(1, t.stop.stagingChunks);
        for (std::vector<ChunkPlan> wave = sampler.nextWave();
             !wave.empty(); wave = sampler.nextWave()) {
            for (size_t g = 0; g < wave.size(); g += group) {
                const size_t count = std::min(group, wave.size() - g);
                const double g0 = nowSeconds();
                const ChunkOutcome outcome =
                    replayGroup(*rt.dem, wave.data() + g, count, decoder,
                                batches, tracer, out, regime);
                out.groupSeconds += nowSeconds() - g0;
                sampler.absorb(outcome);
                regime.shots += outcome.shots;
                if (!splitter)
                    continue;
                // The BP/OSD split re-decodes the group's syndromes
                // outside the replay's own spans.
                Tracer::Scope split(tracer, "decodeSplit", "analysis");
                syndromes.clear();
                for (size_t k = 0; k < count; ++k) {
                    for (size_t s = 0; s < wave[g + k].shots; ++s)
                        syndromes.push_back(batches[k].syndromeOf(s));
                }
                splitter->run(syndromes, regime.split);
            }
        }
        out.failures[i] = sampler.failures();
        out.shots[i] = sampler.shots();
        addDecoderStats(regime.decoder, decoder.stats());
    }
    out.cache = cache.stats();
    return out;
}

void
reportReplayLayers(Report& report, const ReplayResult& replay)
{
    RegimeStats all;
    for (const auto& [label, r] : replay.regimes) {
        const BpOsdStats& d = r.decoder;
        const double replaySeconds =
            r.decodeSeconds - r.split.bpSeconds - r.split.osdSeconds;
        report.info("decoder.decode_s." + label, r.decodeSeconds, "s");
        report.info("decoder.bp_wave_s." + label, r.split.bpSeconds, "s");
        report.info("decoder.osd_s." + label, r.split.osdSeconds, "s");
        report.info("decoder.replay_s." + label, replaySeconds, "s");
        report.info("decoder.lane_util." + label,
                    ratio(static_cast<double>(r.split.usefulLaneIters),
                          static_cast<double>(r.split.paidLaneIters)),
                    "ratio");
        report.info("decoder.wave_lane_occupancy." + label,
                    d.waveLaneOccupancy(), "ratio");
        report.info("decoder.bp_iters_mean." + label,
                    d.meanBpIterations(), "iters");
        report.info("decoder.nonconv_frac." + label,
                    ratio(static_cast<double>(d.osdInvocations),
                          static_cast<double>(d.decodes - d.trivialShots)),
                    "ratio");
        report.info("decoder.osd_groups_per_solve." + label,
                    ratio(static_cast<double>(r.split.osdGroups),
                          static_cast<double>(r.split.osdSolves)),
                    "ratio");
        report.info("decoder.trivial_frac." + label, d.trivialFraction(),
                    "ratio");
        report.info("decoder.memo_hit_rate." + label, d.memoHitRate(),
                    "ratio");
        report.info("decoder.shots_per_s." + label,
                    ratio(static_cast<double>(r.shots), r.decodeSeconds),
                    "shots/s");
        addDecoderStats(all.decoder, d);
        all.split.add(r.split);
        all.decodeSeconds += r.decodeSeconds;
    }
    reportDecoderTotals(report, all);

    report.metric("dem.sample_shots_per_s",
                  ratio(static_cast<double>(replay.sampledShots),
                        replay.sampleSeconds),
                  "shots/s");
    report.info("dem.sample_s", replay.sampleSeconds, "s");
    reportBuildLayers(report, replay);
}

void
reportDecoderTotals(Report& report, const RegimeStats& all)
{
    const BpOsdStats& d = all.decoder;
    const double decode = all.decodeSeconds;
    report.info("decoder.decode_s", decode, "s");
    report.metric("decoder.bp_wave_share",
                  ratio(all.split.bpSeconds, decode), "ratio");
    report.metric("decoder.osd_share", ratio(all.split.osdSeconds, decode),
                  "ratio");
    report.metric("decoder.replay_share",
                  ratio(decode - all.split.bpSeconds - all.split.osdSeconds,
                        decode),
                  "ratio");
    report.metric("decoder.lane_util",
                  ratio(static_cast<double>(all.split.usefulLaneIters),
                        static_cast<double>(all.split.paidLaneIters)),
                  "ratio");
    report.metric("decoder.wave_lane_occupancy", d.waveLaneOccupancy(),
                  "ratio");
    report.metric("decoder.bp_iters_mean", d.meanBpIterations(), "iters");
    report.metric("decoder.nonconv_frac",
                  ratio(static_cast<double>(d.osdInvocations),
                        static_cast<double>(d.decodes - d.trivialShots)),
                  "ratio");
    report.metric("decoder.osd_groups_per_solve",
                  ratio(static_cast<double>(all.split.osdGroups),
                        static_cast<double>(all.split.osdSolves)),
                  "ratio");
    report.metric("decoder.trivial_frac", d.trivialFraction(), "ratio");
    report.metric("decoder.memo_hit_rate", d.memoHitRate(), "ratio");
}

void
reportBuildLayers(Report& report, const ReplayResult& replay)
{
    double ops = 0.0;
    for (const auto& [arch, ms] : replay.compileMsByArch)
        report.info("compiler.compile_ms." + arch, ms, "ms");
    for (const auto& [arch, n] : replay.opsByArch) {
        report.info("compiler.ops." + arch, n, "count");
        ops += n;
    }
    report.metric("compiler.ops", ops, "count");
    report.metric("dem.mechanisms",
                  static_cast<double>(replay.mechanisms), "count");
    const CacheStats& c = replay.cache;
    report.metric("campaign.cache_compile_hits",
                  static_cast<double>(c.compileHits), "count");
    report.metric("campaign.cache_compile_misses",
                  static_cast<double>(c.compileMisses), "count");
    report.metric("campaign.cache_dem_hits",
                  static_cast<double>(c.demHits), "count");
    report.metric("campaign.cache_dem_misses",
                  static_cast<double>(c.demMisses), "count");
}

void
reportLayerShares(Report& report, const Tracer& tracer)
{
    const std::map<std::string, double> self = tracer.selfByLayer();
    const std::map<std::string, double> byName = tracer.totalByName();
    auto get = [](const std::map<std::string, double>& m,
                  const std::string& key) {
        auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
    };
    double total = 0.0;
    for (const auto& [layer, seconds] : self) {
        if (layer != "analysis")
            total += seconds;
    }
    for (const auto& [layer, seconds] : self)
        report.info(layer + ".self_s", seconds, "s");
    for (const char* layer : {"compiler", "circuit", "dem", "decoder",
                              "stream", "campaign", "spool"})
        report.metric(std::string(layer) + ".self_share",
                      ratio(get(self, layer), total), "ratio");
    report.metric("compiler.self_s", get(self, "compiler"), "s");
    report.metric("circuit.self_s", get(self, "circuit"), "s");
    report.metric("dem.build_s", get(byName, "buildDetectorErrorModel"),
                  "s");
    report.info("circuit.build_ms",
                (get(byName, "buildZMemoryCircuit") +
                 get(byName, "buildXMemoryCircuit")) *
                    1e3,
                "ms");
    report.info("dem.build_ms", get(byName, "buildDetectorErrorModel") * 1e3,
                "ms");
}

} // namespace perfbench
