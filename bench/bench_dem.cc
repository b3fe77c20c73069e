/**
 * @file
 * Detector-error-model build benchmark: for the Cyclone Z-memory
 * circuits of bb72, bb144 and hgp225 (compiled round latency, p =
 * 1e-3, the code's nominal distance in rounds), times building the
 * noisy circuit and folding it into a DEM.
 *
 * A plain main() in the style of bench_campaign: each stage repeats
 * until it has run for a fixed budget and reports its median. Every
 * row carries dem_over_circuit, the DEM build time in units of the
 * circuit build time of the same point. Both stages walk the same
 * ops, so the ratio cancels machine speed and CI gates on it rather
 * than on absolute times.
 *
 * Always writes BENCH_dem.json in the working directory.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/cyclone.h"

using namespace cyclone;

namespace {

constexpr const char* kCodes[] = {"bb72", "bb144", "hgp225"};
constexpr double kP = 1e-3;
constexpr double kStageBudgetSeconds = 0.5;
constexpr size_t kMinReps = 5;

struct Row
{
    std::string code;
    size_t rounds = 0;
    size_t ops = 0;
    size_t detectors = 0;
    size_t mechanisms = 0;
    double circuitMs = 0.0;
    double demMs = 0.0;
};

/** Median wall time in ms of `stage`, repeated for the budget. */
template <typename F>
double
medianMs(F&& stage)
{
    std::vector<double> ms;
    const auto start = std::chrono::steady_clock::now();
    while (ms.size() < kMinReps ||
           std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
                   .count() < kStageBudgetSeconds) {
        const auto t0 = std::chrono::steady_clock::now();
        stage();
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    return ms[ms.size() / 2];
}

Row
measure(const char* name)
{
    const CssCode code = catalog::byName(name);
    const SyndromeSchedule schedule = makeXThenZSchedule(code);
    CodesignConfig config;
    config.architecture = Architecture::Cyclone;
    const CompileResult compiled =
        compileCodesign(code, schedule, config);

    MemoryCircuitOptions opts;
    opts.rounds = code.nominalDistance();
    opts.noise = NoiseModel::withLatency(kP, compiled.execTimeUs);
    const Circuit circuit = buildZMemoryCircuit(code, schedule, opts);

    Row row;
    row.code = name;
    row.rounds = opts.rounds;
    row.ops = circuit.ops().size();
    row.detectors = circuit.numDetectors();
    row.circuitMs = medianMs([&] {
        const Circuit c = buildZMemoryCircuit(code, schedule, opts);
        if (c.ops().size() != row.ops)
            std::abort();
    });
    row.demMs = medianMs([&] {
        const DetectorErrorModel dem = buildDetectorErrorModel(circuit);
        row.mechanisms = dem.mechanisms.size();
    });
    return row;
}

} // namespace

int
main()
{
    std::vector<Row> rows;
    for (const char* name : kCodes) {
        rows.push_back(measure(name));
        const Row& r = rows.back();
        std::fprintf(stderr,
                     "%-7s %6zu ops %5zu dets %7zu mechanisms  "
                     "circuit %7.3f ms  dem %8.3f ms  (%.1fx)\n",
                     r.code.c_str(), r.ops, r.detectors, r.mechanisms,
                     r.circuitMs, r.demMs, r.demMs / r.circuitMs);
    }

    const std::string path = "BENCH_dem.json";
    std::FILE* out = std::fopen((path + ".tmp").c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"bench_dem\",\n"
                 "  \"architecture\": \"cyclone\",\n  \"basis\": \"Z\",\n"
                 "  \"p\": %g,\n  \"rows\": [\n",
                 kP);
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"rounds\": %zu, "
                     "\"ops\": %zu, \"detectors\": %zu, "
                     "\"mechanisms\": %zu, \"circuit_ms\": %.4g, "
                     "\"dem_ms\": %.4g, \"dem_over_circuit\": %.4g}%s\n",
                     r.code.c_str(), r.rounds, r.ops, r.detectors,
                     r.mechanisms, r.circuitMs, r.demMs,
                     r.demMs / r.circuitMs,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    if (std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "cannot publish %s\n", path.c_str());
        return 1;
    }
    return 0;
}
