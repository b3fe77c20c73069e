/**
 * @file
 * spool_campaign: ler_sweep's first task block (bb72 x {cyclone,
 * baseline-grid} at p = 1e-3) through runDistributedCampaign with a
 * thread-free coordinator in this process and two forked
 * single-thread runSpoolWorker processes. The same campaign layer as
 * ler_sweep through its other transport: spool publish/claim/record/
 * merge and the shared artifact store are what this workload adds.
 */

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"

namespace perfbench {

using namespace cyclone;

namespace {

constexpr size_t kWorkers = 2;

struct SpoolPass
{
    CampaignResult result;
    double wall = 0.0;
    size_t storeHits = 0;
    bool workersOk = true;
};

SpoolPass
runSpoolPass(const Args& args, const std::string& specText, size_t pass)
{
    CampaignSpec spec = parseCampaignSpec(specText);
    spec.spool = args.outDir + "/spool-" + std::to_string(::getpid()) +
        "-" + std::to_string(pass);
    std::filesystem::remove_all(spec.spool);

    // Fork before any thread exists in this process: the coordinator
    // is thread-free and set-up ran single-threaded.
    std::vector<pid_t> pids;
    for (size_t w = 0; w < kWorkers; ++w) {
        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            WorkerOptions opts;
            opts.spool = spec.spool;
            opts.threads = 1;
            opts.workerId = "w" + std::to_string(w);
            opts.pollSeconds = 0.002;
            int code = 0;
            try {
                runSpoolWorker(opts);
            } catch (const std::exception& ex) {
                std::fprintf(stderr, "worker error: %s\n", ex.what());
                code = 1;
            }
            ::_exit(code);
        }
        pids.push_back(pid);
    }

    SpoolPass out;
    const double t0 = nowSeconds();
    try {
        out.result = runDistributedCampaign(spec, specText);
    } catch (...) {
        for (pid_t pid : pids) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
        throw;
    }
    out.wall = nowSeconds() - t0;
    for (pid_t pid : pids) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        out.workersOk = out.workersOk && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0;
    }
    for (size_t w = 0; w < kWorkers; ++w) {
        std::ifstream in(spec.spool + "/stats-w" + std::to_string(w) +
                         ".txt");
        std::ostringstream text;
        text << in.rdbuf();
        try {
            const WorkerReport report = parseWorkerStats(text.str());
            out.storeHits +=
                report.cache.compileStoreHits + report.cache.demStoreHits;
        } catch (const std::exception&) {
            out.workersOk = false;
        }
    }
    std::filesystem::remove_all(spec.spool);
    return out;
}

size_t
spoolFaults(const SpoolStats& s)
{
    return s.shardsPoisoned + s.recordsQuarantined;
}

} // namespace

int
runSpoolCampaign(const Args& args)
{
    Report report(args);
    const std::string specText = lerSpecText(args.seed, true);
    const CampaignSpec spec = parseCampaignSpec(specText);

    if (args.trace) {
        Tracer tracer;
        SpoolPass spool;
        {
            Tracer::Scope span(&tracer, "runDistributedCampaign", "spool");
            spool = runSpoolPass(args, specText, 0);
        }
        const double t0 = nowSeconds();
        CampaignResult local;
        {
            Tracer::Scope span(&tracer, "runCampaign", "analysis");
            local = runCampaign(spec);
        }
        const double localWall = nowSeconds() - t0;
        report.check(spool.workersOk, "spool workers exited cleanly");
        checkCampaignResult(report, spool.result, taskFailures(local),
                            "spool failures equal the in-process run");
        report.attempted(spool.result.spool.shardsPublished);
        report.failed(spoolFaults(spool.result.spool) +
                      erroredTasks(spool.result));
        const double spoolRate =
            static_cast<double>(spool.result.totalShots()) / spool.wall;
        const double localRate =
            static_cast<double>(local.totalShots()) / localWall;
        report.metric("spool.over_local", spoolRate / localRate, "ratio");
        double workerSeconds = 0.0;
        for (const TaskResult& t : spool.result.tasks)
            workerSeconds += t.sampleSeconds;
        report.metric("campaign.pool_busy_frac",
                      workerSeconds /
                          (spool.wall * static_cast<double>(kWorkers)),
                      "ratio");
        report.metric("spool.shards_merged",
                      static_cast<double>(spool.result.spool.shardsMerged),
                      "count");
        report.metric("spool.store_hits",
                      static_cast<double>(spool.storeHits), "count");
        report.metric(
            "spool.transient_retries",
            static_cast<double>(spool.result.spool.transientRetries),
            "count");
        report.metric(
            "spool.records_quarantined",
            static_cast<double>(spool.result.spool.recordsQuarantined),
            "count");
        replayAgainst(report, args, spec, spool.result, tracer);
        return report.finish();
    }

    std::vector<ResolvedTask> tasks;
    std::unique_ptr<ArtifactCache> cache;
    report.metric("setup_s", setUpArtifacts(spec, tasks, cache), "s");
    checkTaskArtifacts(report, "spool_campaign", tasks);
    cache.reset();

    std::vector<double> rates;
    std::vector<double> latenciesMs;
    std::vector<SpoolPass> passes;
    const double start = nowSeconds();
    while (passes.empty() || nowSeconds() - start < args.seconds) {
        passes.push_back(runSpoolPass(args, specText, passes.size()));
        const SpoolPass& p = passes.back();
        rates.push_back(static_cast<double>(p.result.totalShots()) / p.wall);
        latenciesMs.push_back(p.wall * 1e3);
        report.attempted(p.result.spool.shardsPublished);
        report.failed(spoolFaults(p.result.spool) +
                      erroredTasks(p.result) + (p.workersOk ? 0 : 1));
    }

    // Peak memory of the spool passes, before the reference below.
    const double peakRss = peakRssMb();

    // The in-process reference: same tasks, same pool size.
    const double t0 = nowSeconds();
    const CampaignResult local = runCampaign(spec);
    const double localWall = nowSeconds() - t0;
    const std::vector<size_t> expected = taskFailures(local);
    for (size_t i = 0; i < local.tasks.size(); ++i)
        report.golden("spool_campaign." + local.tasks[i].id + ".failures",
                      static_cast<double>(expected[i]), true);
    bool allOk = true;
    for (size_t i = 0; i < passes.size(); ++i) {
        allOk = allOk && passes[i].workersOk &&
            spoolFaults(passes[i].result.spool) == 0;
        checkCampaignResult(report, passes[i].result, expected,
                            "spool pass " + std::to_string(i + 1) +
                                ": merged failures equal the in-process "
                                "run");
    }
    report.check(allOk, "no worker failed and no shard or record was "
                        "poisoned or quarantined");

    report.metric("throughput_per_s", median(rates), "1/s");
    reportLatencies(report, latenciesMs, "sweep");
    report.metric("peak_rss_mb", peakRss, "MB");
    report.info("shots_per_s", median(rates), "shots/s");
    report.info("local_shots_per_s",
                static_cast<double>(local.totalShots()) / localWall,
                "shots/s");
    report.info("passes", static_cast<double>(passes.size()), "count");
    report.info("workers", static_cast<double>(kWorkers), "count");
    return report.finish();
}

} // namespace perfbench
