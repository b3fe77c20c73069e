/**
 * @file
 * ler_sweep: a fixed-budget Monte-Carlo LER campaign through the
 * in-process CampaignEngine (the engine runCampaign wraps), plus the
 * campaign helpers spool_campaign shares.
 *
 * Tasks: bb72 x {cyclone, baseline-grid} x p in {1e-3, 1e-4} and
 * hgp225/cyclone at p = 1e-4, min-sum BP, target_rel_err = 0 so each
 * task's work is a function of the seed alone. p = 1e-3 tasks are
 * BP/OSD-bound (many syndromes never converge); p = 1e-4 tasks are
 * dominated by trivial shots and memo replay, so a BP-kernel change
 * and a trivial-path change each show on their own tasks.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"

namespace perfbench {

using namespace cyclone;

namespace {

/** Pool size: two threads measured far steadier than four on a
 *  shared 4-core host, and the spool workload runs two workers. */
constexpr size_t kThreads = 2;

/** Set-up runs this many times per run; setup_s is the median. */
constexpr size_t kSetupRepeats = 3;

} // namespace

std::string
lerSpecText(uint64_t seed, bool spoolSubset)
{
    // Budgets keep one pass near three seconds on two threads, so a
    // run holds several passes and reports their median. hgp225 takes
    // smaller chunks: its syndromes decode ~10x slower than bb72's, and
    // two small staged groups let both threads share the task.
    const char* common = "bp = minsum\nchunks_per_wave = 8\n"
                         "staging_chunks = 2\ntarget_rel_err = 0\n";
    std::string text = std::string("name = perfbench-") +
        (spoolSubset ? "spool_campaign" : "ler_sweep") +
        "\nseed = " + std::to_string(seed) +
        "\nthreads = " + std::to_string(kThreads) + "\n";
    text += "\n[task]\nid = bb72\ncode = bb72\n"
            "arch = cyclone, baseline-grid\np = 1e-3\n"
            "chunk_shots = 128\n";
    text += common;
    text += spoolSubset ? "max_shots = 512\n" : "max_shots = 256\n";
    if (spoolSubset)
        return text;
    text += "\n[task]\nid = bb72-low\ncode = bb72\n"
            "arch = cyclone, baseline-grid\np = 1e-4\n"
            "chunk_shots = 128\n";
    text += common;
    text += "max_shots = 1024\n";
    text += "\n[task]\nid = hgp225\ncode = hgp225\narch = cyclone\n"
            "p = 1e-4\nchunk_shots = 32\n";
    text += common;
    text += "max_shots = 128\n";
    return text;
}

double
setUpArtifacts(const CampaignSpec& spec, std::vector<ResolvedTask>& tasks,
               std::unique_ptr<ArtifactCache>& cache)
{
    std::vector<double> times;
    for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
        tasks.clear();
        cache.reset();
        const double t0 = nowSeconds();
        cache = std::make_unique<ArtifactCache>();
        tasks = resolveTaskIdentities(spec);
        for (ResolvedTask& rt : tasks)
            buildTaskArtifacts(rt, *cache);
        times.push_back(nowSeconds() - t0);
    }
    return median(times);
}

void
checkTaskArtifacts(Report& report, const std::string& workload,
                   const std::vector<ResolvedTask>& tasks)
{
    for (const ResolvedTask& rt : tasks) {
        const std::string key = workload + "." + rt.spec->id;
        report.golden(key + ".makespan_us",
                      rt.compiled ? rt.compiled->execTimeUs : 0.0, false);
        report.golden(key + ".mechanisms",
                      static_cast<double>(rt.dem->mechanisms.size()), false);
    }
}

void
reportLatencies(Report& report, const std::vector<double>& latenciesMs,
                const std::string& what)
{
    const double p95 = quantile(latenciesMs, 0.95);
    size_t beyond = 0;
    for (double v : latenciesMs)
        beyond += v > p95 ? 1 : 0;
    report.metric("latency_p50_ms", median(latenciesMs), "ms");
    report.metric("latency_p95_ms", p95, "ms");
    report.info(what + "_latency_samples",
                static_cast<double>(latenciesMs.size()), "count");
    report.info(what + "_latency_beyond_p95", static_cast<double>(beyond),
                "count");
}

bool
checkCampaignResult(Report& report, const CampaignResult& result,
                    const std::vector<size_t>& expectFailures,
                    const std::string& what)
{
    bool ok = result.tasks.size() == expectFailures.size();
    for (size_t i = 0; ok && i < result.tasks.size(); ++i) {
        const TaskResult& t = result.tasks[i];
        ok = t.error.empty() &&
            t.logicalErrorRate.successes == expectFailures[i];
    }
    report.check(ok, what);
    return ok;
}

std::vector<size_t>
taskFailures(const CampaignResult& result)
{
    std::vector<size_t> failures;
    for (const TaskResult& t : result.tasks)
        failures.push_back(t.logicalErrorRate.successes);
    return failures;
}

size_t
erroredTasks(const CampaignResult& result)
{
    size_t errored = 0;
    for (const TaskResult& t : result.tasks)
        errored += t.error.empty() ? 0 : 1;
    return errored;
}

void
replayAgainst(Report& report, const Args& args, const CampaignSpec& spec,
              const CampaignResult& reference, Tracer& tracer)
{
    auto matches = [&](const ReplayResult& replay) {
        bool same = replay.failures.size() == reference.tasks.size();
        for (size_t i = 0; same && i < reference.tasks.size(); ++i) {
            const RateEstimate& ler = reference.tasks[i].logicalErrorRate;
            same = replay.failures[i] == ler.successes &&
                replay.shots[i] == ler.trials;
        }
        return same;
    };
    const ReplayResult bare = replayCampaign(spec, nullptr);
    const ReplayResult traced = replayCampaign(spec, &tracer);
    report.check(matches(bare) && matches(traced),
                 "bare and traced replays' per-task failures and shots "
                 "equal the untraced campaign");
    reportReplayLayers(report, traced);
    reportLayerShares(report, tracer);
    report.metric("trace.overhead_frac",
                  traced.groupSeconds / bare.groupSeconds - 1.0, "ratio");
    const std::string path = args.outDir + "/" + args.workload + "-seed" +
        std::to_string(args.seed) + ".trace.json";
    report.check(tracer.writeChromeTrace(path), "trace written to " + path);
}

namespace {

/** Golden per-task counts and per-task rates of the first pass. */
void
checkFirstPass(Report& report, const CampaignResult& result)
{
    for (const TaskResult& t : result.tasks) {
        const std::string key = "ler_sweep." + t.id;
        report.golden(key + ".failures",
                      static_cast<double>(t.logicalErrorRate.successes),
                      true);
        report.golden(key + ".bp_iterations",
                      static_cast<double>(t.decoder.bpIterations), true);
        report.golden(key + ".osd_invocations",
                      static_cast<double>(t.decoder.osdInvocations), true);
        report.info("task." + t.id + ".shots_per_worker_s",
                    static_cast<double>(t.logicalErrorRate.trials) /
                        t.sampleSeconds,
                    "shots/s");
    }
    report.check(erroredTasks(result) == 0 &&
                     result.cache.compileMisses == 0 &&
                     result.cache.demMisses == 0,
                 "pass 1: no task errored; every artifact came from the "
                 "set-up cache");
}

} // namespace

int
runLerSweep(const Args& args)
{
    Report report(args);
    const CampaignSpec spec =
        parseCampaignSpec(lerSpecText(args.seed, false));

    if (args.trace) {
        const double t0 = nowSeconds();
        const CampaignResult reference = runCampaign(spec);
        const double wall = nowSeconds() - t0;
        report.attempted(reference.tasks.size());
        report.failed(erroredTasks(reference));
        double workerSeconds = 0.0;
        for (const TaskResult& t : reference.tasks)
            workerSeconds += t.sampleSeconds;
        report.metric("campaign.pool_busy_frac",
                      workerSeconds /
                          (wall * static_cast<double>(spec.threads)),
                      "ratio");
        Tracer tracer;
        replayAgainst(report, args, spec, reference, tracer);
        return report.finish();
    }

    std::vector<ResolvedTask> tasks;
    std::unique_ptr<ArtifactCache> cache;
    report.metric("setup_s", setUpArtifacts(spec, tasks, cache), "s");
    checkTaskArtifacts(report, "ler_sweep", tasks);

    ThreadPool pool(spec.threads);
    CampaignEngine engine(pool, *cache);
    std::vector<double> rates;
    std::vector<double> latenciesMs;
    std::vector<size_t> firstFailures;
    size_t shotsPerPass = 0;
    double bpIterationsPerPass = 0.0;
    const double start = nowSeconds();
    while (rates.empty() || nowSeconds() - start < args.seconds) {
        const double t0 = nowSeconds();
        const CampaignResult result = engine.run(spec);
        const double wall = nowSeconds() - t0;
        latenciesMs.push_back(wall * 1e3);
        shotsPerPass = result.totalShots();
        rates.push_back(static_cast<double>(shotsPerPass) / wall);
        report.attempted(result.tasks.size());
        report.failed(erroredTasks(result));
        if (firstFailures.empty()) {
            firstFailures = taskFailures(result);
            checkFirstPass(report, result);
            for (const TaskResult& t : result.tasks)
                bpIterationsPerPass +=
                    static_cast<double>(t.decoder.bpIterations);
        } else {
            checkCampaignResult(report, result, firstFailures,
                                "pass " + std::to_string(rates.size()) +
                                    ": failures equal pass 1");
        }
    }

    report.metric("throughput_per_s", median(rates), "1/s");
    reportLatencies(report, latenciesMs, "sweep");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.info("shots_per_s", median(rates), "shots/s");
    report.info("passes", static_cast<double>(rates.size()), "count");
    report.info("shots_per_pass", static_cast<double>(shotsPerPass),
                "shots");
    report.info("bp_iterations_per_pass", bpIterationsPerPass, "iters");
    report.info("threads", static_cast<double>(spec.threads), "count");
    return report.finish();
}

} // namespace perfbench
