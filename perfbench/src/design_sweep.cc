/**
 * @file
 * design_sweep: compile-only codesign exploration. Every pass resolves
 * {bb72, bb144, hgp225} x all six architectures x p in {1e-3, 1e-4}
 * (36 points) and builds each point's compile result and DEM through
 * one fresh ArtifactCache on one thread, in a seeded visiting order:
 * 18 compiles, 18 compile-cache hits, 36 DEM builds. Compiler, circuit
 * and DEM building are under 1% of ler_sweep but all of this workload;
 * no sampling or decoding runs here.
 */

#include <cstdio>
#include <map>
#include <random>
#include <string>

#include "bench.h"

namespace perfbench {

using namespace cyclone;

namespace {

constexpr const char* kCodes[] = {"bb72", "bb144", "hgp225"};
constexpr double kPs[] = {1e-3, 1e-4};

CampaignSpec
designSpec(uint64_t seed)
{
    CampaignSpec spec;
    spec.name = "perfbench-design_sweep";
    spec.seed = seed;
    for (const char* code : kCodes) {
        for (Architecture arch : kAllArchitectures) {
            for (double p : kPs) {
                TaskSpec t;
                t.codeName = code;
                t.architecture = arch;
                t.physicalError = p;
                t.id = std::string(code) + "/" + architectureName(arch) +
                    "/" + regimeLabel(p);
                spec.tasks.push_back(t);
            }
        }
    }
    // Seeded visiting order (Fisher-Yates over a portable generator):
    // which point of a (code, arch) pair pays the compile and which
    // hits the cache depends on the seed; the totals do not.
    std::mt19937_64 rng(seed);
    for (size_t i = spec.tasks.size(); i > 1; --i)
        std::swap(spec.tasks[i - 1], spec.tasks[rng() % i]);
    return spec;
}

/** Makespan of the cyclone point and of every baseline, per code. */
void
checkCycloneBeatsBaselines(Report& report,
                           const std::vector<ResolvedTask>& tasks)
{
    std::map<std::string, std::map<Architecture, double>> makespan;
    for (const ResolvedTask& rt : tasks)
        makespan[rt.spec->codeName][rt.spec->architecture] =
            rt.compiled->execTimeUs;
    for (const auto& [code, byArch] : makespan) {
        const double cyclone = byArch.at(Architecture::Cyclone);
        for (Architecture grid : {Architecture::BaselineGrid,
                                  Architecture::AlternateGrid,
                                  Architecture::DynamicGrid}) {
            const double other = byArch.at(grid);
            char what[160];
            std::snprintf(what, sizeof what,
                          "%s: cyclone makespan %.1fus < %s %.1fus",
                          code.c_str(), cyclone, architectureName(grid),
                          other);
            report.check(cyclone < other, what);
        }
    }
}

struct Pass
{
    std::vector<ResolvedTask> tasks;
    CacheStats cache;
    double wall = 0.0;
};

Pass
runPass(const CampaignSpec& spec, std::vector<double>* latenciesMs)
{
    Pass pass;
    ArtifactCache cache;
    const double t0 = nowSeconds();
    pass.tasks = resolveTaskIdentities(spec);
    for (ResolvedTask& rt : pass.tasks) {
        const double p0 = nowSeconds();
        buildTaskArtifacts(rt, cache);
        if (latenciesMs != nullptr)
            latenciesMs->push_back((nowSeconds() - p0) * 1e3);
    }
    pass.wall = nowSeconds() - t0;
    pass.cache = cache.stats();
    return pass;
}

} // namespace

int
runDesignSweep(const Args& args)
{
    Report report(args);

    // Set-up: the point list and its code constructions (resolving the
    // catalog codes and their syndrome schedules). It takes a few
    // milliseconds, so it is repeated more often than the other
    // workloads' set-ups to steady the median.
    std::vector<double> setups;
    CampaignSpec spec;
    size_t resolved = 0;
    for (int rep = 0; rep < 25; ++rep) {
        const double t0 = nowSeconds();
        spec = designSpec(args.seed);
        resolved = resolveTaskIdentities(spec).size();
        setups.push_back(nowSeconds() - t0);
    }
    report.check(resolved == 36, "set-up resolved all 36 points");

    if (args.trace) {
        const Pass untraced = runPass(spec, nullptr);
        Tracer tracer;
        ReplayResult replay;
        std::vector<ResolvedTask> tasks;
        const double t0 = nowSeconds();
        {
            Tracer::Scope span(&tracer, "resolveTaskIdentities",
                               "campaign");
            tasks = resolveTaskIdentities(spec);
        }
        ArtifactCache cache;
        for (ResolvedTask& rt : tasks)
            buildTracedArtifacts(rt, cache, &tracer, replay);
        const double tracedWall = nowSeconds() - t0;
        replay.cache = cache.stats();

        bool same = true;
        for (size_t i = 0; i < tasks.size(); ++i) {
            same = same &&
                tasks[i].compiled->execTimeUs ==
                    untraced.tasks[i].compiled->execTimeUs &&
                tasks[i].dem->mechanisms.size() ==
                    untraced.tasks[i].dem->mechanisms.size() &&
                tasks[i].dem->numDetectors ==
                    untraced.tasks[i].dem->numDetectors;
        }
        report.check(same, "traced builds equal buildTaskArtifacts "
                           "(makespans, DEM sizes)");
        report.attempted(tasks.size());
        reportBuildLayers(report, replay);
        reportLayerShares(report, tracer);
        report.metric("trace.overhead_frac",
                      tracedWall / untraced.wall - 1.0, "ratio");
        const std::string path = args.outDir + "/design_sweep-seed" +
            std::to_string(args.seed) + ".trace.json";
        report.check(tracer.writeChromeTrace(path),
                     "trace written to " + path);
        return report.finish();
    }

    report.metric("setup_s", median(setups), "s");
    std::vector<double> rates;
    std::vector<double> latenciesMs;
    const double start = nowSeconds();
    while (rates.empty() || nowSeconds() - start < args.seconds) {
        const Pass pass = runPass(spec, &latenciesMs);
        rates.push_back(static_cast<double>(pass.tasks.size()) / pass.wall);
        report.attempted(pass.tasks.size());
        const bool cacheOk = pass.cache.compileMisses == 18 &&
            pass.cache.compileHits == 18 && pass.cache.demMisses == 36 &&
            pass.cache.demHits == 0;
        if (!cacheOk)
            report.failed(pass.tasks.size());
        if (rates.size() > 1)
            continue;
        report.check(cacheOk, "pass 1: 18 compiles, 18 compile-cache hits, "
                              "36 DEM builds");
        checkCycloneBeatsBaselines(report, pass.tasks);
        for (const ResolvedTask& rt : pass.tasks) {
            const std::string key = "design_sweep." + rt.spec->id;
            report.golden(key + ".makespan_us", rt.compiled->execTimeUs,
                          false);
            report.golden(key + ".mechanisms",
                          static_cast<double>(rt.dem->mechanisms.size()),
                          false);
            report.golden(key + ".detectors",
                          static_cast<double>(rt.dem->numDetectors), false);
        }
    }
    report.metric("throughput_per_s", median(rates), "1/s");
    reportLatencies(report, latenciesMs, "point");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.info("points_per_s", median(rates), "points/s");
    report.info("passes", static_cast<double>(rates.size()), "count");
    return report.finish();
}

} // namespace perfbench
