/**
 * @file
 * Entry point of the end-to-end benchmark binary:
 *
 *   cyclone_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--out-dir DIR] [--golden FILE] [--emit-golden]
 *
 * Workloads: ler_sweep, design_sweep, stream_serve, spool_campaign
 * (see perfbench/WORKLOADS.md). The last line of standard output is
 * the JSON result; the exit code is non-zero when any correctness
 * check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: cyclone_perfbench --workload "
                 "ler_sweep|design_sweep|stream_serve|spool_campaign "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--golden FILE] [--emit-golden]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--emit-golden") {
            args.emitGolden = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--out-dir")
            args.outDir = value;
        else if (flag == "--golden")
            args.golden = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");

    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    if (ec)
        usage(("cannot create " + args.outDir).c_str());

    try {
        if (args.workload == "ler_sweep")
            return perfbench::runLerSweep(args);
        if (args.workload == "design_sweep")
            return perfbench::runDesignSweep(args);
        if (args.workload == "stream_serve")
            return perfbench::runStreamServe(args);
        if (args.workload == "spool_campaign")
            return perfbench::runSpoolCampaign(args);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 1;
    }
    usage(("unknown workload '" + args.workload + "'").c_str());
}
