/**
 * @file
 * stream_serve: the streaming decode service under an open-loop load,
 * then at maximum rate.
 *
 * bb72 on Cyclone at p = 5e-4, serving BP capped at 16 iterations,
 * deadline flush policy. One generator thread emits one round slice
 * per stream per compiled round period (52.8 ms) at absolute due
 * times. Streams are staggered by round, so every period some window
 * completes and the service forms partial slabs: a wave costs the same
 * however few lanes are filled, which is the behaviour this workload
 * exists to load. Each window's latency runs from when its final slice
 * was due, not from when pushRound was called: the generator and the
 * decoder share the thread, so a slow flush delays later pushes and
 * that wait counts. The unpaced phase then feeds full 128-window slabs
 * as fast as the service takes them.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace cyclone;

namespace {

/** Paced streams: 36 staggered over 6 rounds is 6 windows per round
 *  period, a load one core sustains with every window committed well
 *  inside the period (48 streams already missed ~9% of deadlines). */
constexpr size_t kStreams = 36;
/** Share of --seconds spent in the paced phase; the rest is max-rate. */
constexpr double kPacedShare = 0.7;
constexpr size_t kMaxRateStreams = 8;
/** Max-rate windows: eight full 128-window slabs. */
constexpr size_t kMaxRateWindows = 1024;
constexpr size_t kMaxRateSlabs = 8;
constexpr size_t kSetupRepeats = 3;

BpOptions
servingBp()
{
    BpOptions bp;
    bp.variant = BpOptions::Variant::MinSum;
    bp.maxIterations = 16;
    return bp;
}

/** Decoder counters accumulated since `before` was read. */
BpOsdStats
statsSince(const BpOsdStats& now, const BpOsdStats& before)
{
    BpOsdStats d = now;
    d.decodes -= before.decodes;
    d.bpConverged -= before.bpConverged;
    d.osdInvocations -= before.osdInvocations;
    d.osdFailures -= before.osdFailures;
    d.trivialShots -= before.trivialShots;
    d.memoHits -= before.memoHits;
    d.bpIterations -= before.bpIterations;
    d.waveGroups -= before.waveGroups;
    d.waveLaneSlots -= before.waveLaneSlots;
    d.waveLanesFilled -= before.waveLanesFilled;
    d.osdBatchGroups -= before.osdBatchGroups;
    d.osdSharedPivots -= before.osdSharedPivots;
    d.stagedChunks -= before.stagedChunks;
    return d;
}

struct Inputs
{
    std::shared_ptr<const DetectorErrorModel> dem;
    double periodUs = 0.0;
    size_t rounds = 0;
    double makespanUs = 0.0;
    size_t ticks = 0;
    /** Per stream: first tick, complete windows, first flat window. */
    std::vector<size_t> offset, windows, base;
    size_t pacedWindows = 0;
    /** Windows of the max-rate phase (a fixed count, sampled from its
     *  own stream so they do not depend on --seconds) and of the paced
     *  phase, with their offline reference predictions. */
    ShotBatch maxRate, paced;
    std::vector<uint64_t> maxRateExpected, pacedExpected;
    /** Max-rate windows whose offline prediction misses the flip. */
    size_t referenceFailures = 0;
    /** Hash of the max-rate offline predictions, in window order. */
    uint64_t predictionHash = 0;
    double sampleSeconds = 0.0;
    /** The paced phase's decoder, primed in set-up: a service serves
     *  for hours, so its first flush's lazy allocations and OSD rank
     *  discovery belong to start-up, not to one window's latency. */
    std::unique_ptr<BpOsdDecoder> servingDecoder;
    BpOsdStats primedStats;
};

Inputs
setUp(const Args& args, Tracer* tracer, ReplayResult* traced)
{
    Inputs in;
    CampaignSpec spec;
    spec.seed = args.seed;
    TaskSpec task;
    task.id = "bb72/cyclone/p5e-4";
    task.codeName = "bb72";
    task.architecture = Architecture::Cyclone;
    task.physicalError = 5e-4;
    spec.tasks.push_back(task);
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    ArtifactCache cache;
    if (tracer != nullptr) {
        buildTracedArtifacts(resolved[0], cache, tracer, *traced);
        traced->cache = cache.stats();
    } else {
        buildTaskArtifacts(resolved[0], cache);
    }
    in.dem = resolved[0].dem;
    in.periodUs = resolved[0].latencyUs;
    in.makespanUs = resolved[0].compiled->execTimeUs;
    in.rounds = resolved[0].rounds;

    in.ticks = static_cast<size_t>(args.seconds * kPacedShare * 1e6 /
                                   in.periodUs);
    for (size_t s = 0; s < kStreams; ++s) {
        const size_t offset = s % in.rounds;
        in.offset.push_back(offset);
        in.windows.push_back(
            in.ticks > offset ? (in.ticks - offset) / in.rounds : 0);
        in.base.push_back(in.pacedWindows);
        in.pacedWindows += in.windows.back();
    }

    const double s0 = nowSeconds();
    {
        Tracer::Scope span(tracer, "sampleDemBatch", "dem");
        Rng maxRateRng(chunkSeed(args.seed, 0));
        sampleDemBatch(*in.dem, kMaxRateWindows, maxRateRng, in.maxRate);
        Rng pacedRng(chunkSeed(args.seed, 1));
        sampleDemBatch(*in.dem, in.pacedWindows, pacedRng, in.paced);
    }
    in.sampleSeconds = nowSeconds() - s0;
    {
        Tracer::Scope span(tracer, "referenceDecodeBatch", "analysis");
        BpOsdDecoder reference(*in.dem, servingBp());
        reference.decodeBatch(in.maxRate, in.maxRateExpected);
        reference.decodeBatch(in.paced, in.pacedExpected);
    }
    in.servingDecoder = std::make_unique<BpOsdDecoder>(*in.dem, servingBp());
    {
        ShotBatch priming;
        std::vector<uint64_t> predicted;
        Rng rng(chunkSeed(args.seed, 2));
        sampleDemBatch(*in.dem, 64, rng, priming);
        in.servingDecoder->decodeBatch(priming, predicted);
        in.primedStats = in.servingDecoder->stats();
    }
    HashStream predictions;
    for (size_t i = 0; i < kMaxRateWindows; ++i) {
        in.referenceFailures +=
            in.maxRateExpected[i] != in.maxRate.observables[i] ? 1 : 0;
        predictions.absorb(in.maxRateExpected[i]);
    }
    // 52 bits, so the golden value is exact as a double.
    in.predictionHash = predictions.digest() >> 12;
    return in;
}

struct PacedResult
{
    /** Per paced window: due->commit latency, or -1 if never. */
    std::vector<double> latencyMs;
    /** Per paced window: committed with a wrong prediction. */
    std::vector<bool> wrong;
    /** Wrong predictions plus commits of unknown or repeated windows. */
    size_t mismatches = 0;
    /** Windows (flat ids) committed together, one entry per flush. */
    std::vector<std::vector<size_t>> groups;
    std::vector<double> lagMs;
    double busySeconds = 0.0;
    double wall = 0.0;
    StreamDecodeStats stream;
    BpOsdStats decoder;

    /** Windows never committed. */
    size_t
    never() const
    {
        return static_cast<size_t>(
            std::count(latencyMs.begin(), latencyMs.end(), -1.0));
    }

    /** Windows committed later than `limitMs`, wrongly, or never. */
    size_t
    missed(double limitMs) const
    {
        size_t n = 0;
        for (size_t i = 0; i < latencyMs.size(); ++i)
            n += latencyMs[i] < 0.0 || latencyMs[i] > limitMs || wrong[i];
        return n;
    }
};

PacedResult
runPaced(Inputs& in, Tracer* tracer)
{
    PacedResult out;
    BpOsdDecoder& decoder = *in.servingDecoder;
    StreamDecoderOptions options;
    options.streams = kStreams;
    options.roundsPerWindow = in.rounds;
    options.policy = FlushPolicy::Deadline;
    options.deadlineUs = in.periodUs;
    options.flushAfterUs = in.periodUs * 0.125;
    StreamDecoder stream(decoder, in.dem->numDetectors, options);

    const double period = in.periodUs * 1e-6;
    const double t0 = nowSeconds() + 0.005;
    auto due = [&](size_t tick) {
        return t0 + static_cast<double>(tick) * period;
    };
    out.latencyMs.assign(in.pacedWindows, -1.0);
    out.wrong.assign(in.pacedWindows, false);
    size_t committed = 0;

    auto drain = [&](double now) {
        std::vector<CommittedWindow>& done = stream.committed();
        if (done.empty())
            return;
        out.groups.emplace_back();
        for (const CommittedWindow& c : done) {
            if (c.stream >= kStreams || c.windowIndex >= in.windows[c.stream]) {
                ++out.mismatches;
                continue;
            }
            const size_t flat = in.base[c.stream] + c.windowIndex;
            const size_t lastTick = in.offset[c.stream] +
                (c.windowIndex + 1) * in.rounds - 1;
            if (out.latencyMs[flat] >= 0.0) {
                ++out.mismatches;
                continue;
            }
            out.latencyMs[flat] = (now - due(lastTick)) * 1e3;
            ++committed;
            if (c.prediction != in.pacedExpected[flat]) {
                out.wrong[flat] = true;
                ++out.mismatches;
            }
            out.groups.back().push_back(flat);
        }
        done.clear();
    };
    auto call = [&](const char* name, auto&& fn) {
        const double c0 = nowSeconds();
        {
            Tracer::Scope span(tracer, name, "stream");
            fn();
        }
        const double c1 = nowSeconds();
        out.busySeconds += c1 - c0;
        drain(c1);
    };
    auto pollUntil = [&](double deadline) {
        const double step = period / 64.0;
        for (double now = nowSeconds(); now < deadline; now = nowSeconds()) {
            call("StreamDecoder::poll", [&] { stream.poll(); });
            const double left = deadline - nowSeconds();
            if (left > 0.0)
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    std::min(left, step)));
        }
    };

    std::vector<BitVec> sources(kStreams);
    for (size_t tick = 0; tick < in.ticks; ++tick) {
        pollUntil(due(tick));
        out.lagMs.push_back((nowSeconds() - due(tick)) * 1e3);
        for (size_t s = 0; s < kStreams; ++s) {
            if (tick < in.offset[s])
                continue;
            const size_t k = tick - in.offset[s];
            const size_t w = k / in.rounds;
            if (w >= in.windows[s])
                continue;
            if (k % in.rounds == 0)
                sources[s] = in.paced.syndromeOf(in.base[s] + w);
            call("StreamDecoder::pushRound",
                 [&] { stream.pushRound(s, sources[s]); });
        }
        call("StreamDecoder::poll", [&] { stream.poll(); });
    }
    // Let the last windows' deadline flushes fire, then drain the rest.
    const double tailEnd = due(in.ticks);
    while (committed < in.pacedWindows && nowSeconds() < tailEnd)
        pollUntil(std::min(tailEnd, nowSeconds() + period / 64.0));
    call("StreamDecoder::finish", [&] { stream.finish(); });
    out.wall = nowSeconds() - t0;
    out.stream = stream.stats();
    out.decoder = statsSince(decoder.stats(), in.primedStats);
    return out;
}

/** What the unpaced phase measured. */
struct MaxRateResult
{
    /** Median wall seconds of each slab's repetitions, summed: the
     *  time to serve all kMaxRateWindows windows once. */
    double seconds = 0.0;
    size_t repetitions = 0;
};

/**
 * Unpaced full-wave phase. The kMaxRateWindows windows form
 * kMaxRateSlabs slabs of 128; each slab is pushed as fast as the
 * service takes it through a fresh StreamDecoder, slab after slab,
 * until `budget` seconds pass and every slab ran at least three times.
 * Taking each slab's median repetition keeps a burst of contention
 * from another process out of the figure.
 */
MaxRateResult
runMaxRate(const Inputs& in, Tracer* tracer, double budget,
           size_t& mismatches)
{
    BpOsdDecoder decoder(*in.dem, servingBp());
    std::vector<BitVec> syndromes;
    for (size_t i = 0; i < kMaxRateWindows; ++i)
        syndromes.push_back(in.maxRate.syndromeOf(i));
    const size_t slab = kMaxRateWindows / kMaxRateSlabs;
    const size_t cohorts = slab / kMaxRateStreams;

    MaxRateResult out;
    std::vector<std::vector<double>> walls(kMaxRateSlabs);
    const double start = nowSeconds();
    while (walls[0].size() < 3 || nowSeconds() - start < budget) {
        for (size_t j = 0; j < kMaxRateSlabs; ++j) {
            StreamDecoderOptions options;
            options.streams = kMaxRateStreams;
            options.roundsPerWindow = in.rounds;
            options.policy = FlushPolicy::FullWave;
            options.capacityChunks = slab / 64;
            StreamDecoder stream(decoder, in.dem->numDetectors, options);
            const BitVec* windows = syndromes.data() + j * slab;
            const double t0 = nowSeconds();
            for (size_t c = 0; c < cohorts; ++c) {
                for (size_t r = 0; r < in.rounds; ++r) {
                    for (size_t s = 0; s < kMaxRateStreams; ++s) {
                        Tracer::Scope span(tracer,
                                           "StreamDecoder::pushRound",
                                           "stream");
                        stream.pushRound(s, windows[c * kMaxRateStreams + s]);
                    }
                    Tracer::Scope span(tracer, "StreamDecoder::poll",
                                       "stream");
                    stream.poll();
                }
            }
            {
                Tracer::Scope span(tracer, "StreamDecoder::finish",
                                   "stream");
                stream.finish();
            }
            walls[j].push_back(nowSeconds() - t0);
            size_t seen = 0;
            for (const CommittedWindow& c : stream.committed()) {
                const size_t flat =
                    c.windowIndex * kMaxRateStreams + c.stream;
                if (flat >= slab ||
                    c.prediction != in.maxRateExpected[j * slab + flat])
                    ++mismatches;
                ++seen;
            }
            if (seen != slab)
                mismatches += slab;
        }
        ++out.repetitions;
    }
    for (const std::vector<double>& w : walls)
        out.seconds += median(w);
    return out;
}

} // namespace

int
runStreamServe(const Args& args)
{
    Report report(args);

    if (args.trace) {
        Tracer tracer;
        ReplayResult build;
        Inputs in = setUp(args, &tracer, &build);
        const PacedResult paced = runPaced(in, &tracer);
        size_t mismatches = paced.mismatches;
        const double budget = args.seconds * (1.0 - kPacedShare) * 0.5;
        const MaxRateResult plain =
            runMaxRate(in, nullptr, budget, mismatches);
        const MaxRateResult traced =
            runMaxRate(in, &tracer, budget, mismatches);

        // BP/OSD split of every commit group's windows.
        DecodeSplitter splitter(*in.dem, servingBp());
        RegimeStats all;
        all.decoder = paced.decoder;
        all.decodeSeconds = paced.busySeconds;
        {
            Tracer::Scope span(&tracer, "decodeSplit", "analysis");
            std::vector<BitVec> syndromes;
            for (const std::vector<size_t>& group : paced.groups) {
                syndromes.clear();
                for (size_t flat : group)
                    syndromes.push_back(in.paced.syndromeOf(flat));
                splitter.run(syndromes, all.split);
            }
        }
        report.check(mismatches == 0 && paced.never() == 0,
                     "every traced commit equals the offline prediction "
                     "and every offered window committed");
        report.attempted(in.pacedWindows +
                         kMaxRateWindows *
                             (plain.repetitions + traced.repetitions));
        report.failed(mismatches + paced.never());

        reportDecoderTotals(report, all);
        reportBuildLayers(report, build);
        reportLayerShares(report, tracer);
        report.metric("dem.sample_shots_per_s",
                      static_cast<double>(in.maxRate.numShots +
                                          in.paced.numShots) /
                          in.sampleSeconds,
                      "shots/s");
        report.metric("stream.slab_occupancy",
                      paced.stream.slabOccupancy(), "ratio");
        report.metric("stream.flushes_full",
                      static_cast<double>(paced.stream.flushesFull),
                      "count");
        report.metric("stream.flushes_deadline",
                      static_cast<double>(paced.stream.flushesDeadline),
                      "count");
        report.metric("stream.decoder_busy_frac",
                      paced.busySeconds / paced.wall, "ratio");
        report.metric("stream.deadline_miss_frac",
                      static_cast<double>(
                          paced.missed(in.periodUs * 1e-3)) /
                          static_cast<double>(in.pacedWindows),
                      "ratio");
        report.info("stream.generator_lag_p99_ms",
                    quantile(paced.lagMs, 0.99), "ms");
        report.metric("trace.overhead_frac",
                      traced.seconds / plain.seconds - 1.0, "ratio");
        const std::string path = args.outDir + "/stream_serve-seed" +
            std::to_string(args.seed) + ".trace.json";
        report.check(tracer.writeChromeTrace(path),
                     "trace written to " + path);
        return report.finish();
    }

    // Each set-up replaces the previous one whole: the serving decoder
    // refers to its own set-up's DEM and must go before it does.
    std::vector<double> setups;
    std::unique_ptr<Inputs> inputs;
    for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
        inputs.reset();
        const double t0 = nowSeconds();
        inputs = std::make_unique<Inputs>(setUp(args, nullptr, nullptr));
        setups.push_back(nowSeconds() - t0);
    }
    Inputs& in = *inputs;
    report.golden("stream_serve.makespan_us", in.makespanUs, false);
    report.golden("stream_serve.mechanisms",
                  static_cast<double>(in.dem->mechanisms.size()), false);
    report.golden("stream_serve.reference_failures",
                  static_cast<double>(in.referenceFailures), true);
    report.golden("stream_serve.prediction_hash",
                  static_cast<double>(in.predictionHash), true);

    const PacedResult paced = runPaced(in, nullptr);
    size_t mismatches = paced.mismatches;
    const MaxRateResult maxRate = runMaxRate(
        in, nullptr, args.seconds * (1.0 - kPacedShare), mismatches);
    const double windowsPerSecond =
        static_cast<double>(kMaxRateWindows) / maxRate.seconds;

    std::vector<double> latencies;
    for (double ms : paced.latencyMs) {
        if (ms >= 0.0)
            latencies.push_back(ms);
    }
    const size_t never = paced.never();

    report.check(mismatches == 0 && never == 0,
                 "every streamed commit equals the offline prediction and "
                 "every offered window committed");
    report.attempted(in.pacedWindows + kMaxRateWindows * maxRate.repetitions);
    report.failed(mismatches + never);

    report.metric("throughput_per_s", windowsPerSecond, "1/s");
    reportLatencies(report, latencies, "commit");
    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");

    report.info("windows_per_s", windowsPerSecond, "windows/s");
    // p99 with both sample counts: windows of one flush share a
    // latency, so the windows beyond p99 come from a few flushes.
    const double p99 = quantile(latencies, 0.99);
    size_t windowsBeyond = 0;
    size_t flushesBeyond = 0;
    for (const std::vector<size_t>& group : paced.groups) {
        size_t beyond = 0;
        for (size_t flat : group)
            beyond += paced.latencyMs[flat] > p99 ? 1 : 0;
        windowsBeyond += beyond;
        flushesBeyond += beyond > 0 ? 1 : 0;
    }
    report.info("commit_p50_ms", median(latencies), "ms");
    report.info("commit_p95_ms", quantile(latencies, 0.95), "ms");
    if (windowsBeyond >= 10)
        report.info("commit_p99_ms", p99, "ms");
    else
        std::printf("commit_p99_ms not reported: %zu windows beyond it\n",
                    windowsBeyond);
    report.info("commit_windows_beyond_p99",
                static_cast<double>(windowsBeyond), "count");
    report.info("commit_flushes_beyond_p99",
                static_cast<double>(flushesBeyond), "count");
    report.info("commit_max_ms", quantile(latencies, 1.0), "ms");
    report.info("commit_samples_windows",
                static_cast<double>(latencies.size()), "count");
    report.info("commit_samples_flushes",
                static_cast<double>(paced.groups.size()), "count");
    report.info("deadline_miss_frac",
                static_cast<double>(paced.missed(in.periodUs * 1e-3)) /
                    static_cast<double>(in.pacedWindows),
                "ratio");
    report.info("generator_lag_p99_ms", quantile(paced.lagMs, 0.99), "ms");
    report.info("round_period_ms", in.periodUs * 1e-3, "ms");
    report.info("decoder_busy_frac", paced.busySeconds / paced.wall,
                "ratio");
    report.info("paced_streams", static_cast<double>(kStreams), "count");
    return report.finish();
}

} // namespace perfbench
