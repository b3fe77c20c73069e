/**
 * @file
 * Campaign CLI: load a declarative spec, execute every task, and emit
 * the results as JSON (stdout or --json FILE) and optionally CSV.
 *
 * Three execution modes:
 *
 *  - In-process (default): every task runs on one local
 *    thread pool with adaptive shot allocation.
 *  - Coordinator (--spool DIR, or `spool =` in the spec): the run is
 *    sharded through a filesystem spool. The coordinator compiles
 *    every artifact once into the spool's shared store, publishes
 *    chunk-range shards, and merges worker records — bit-identical
 *    to an in-process run. --workers N forks N local worker
 *    processes alongside the coordinator; external workers on any
 *    machine sharing the directory may join at any time.
 *  - Worker (--worker --spool DIR): claim and execute shards until
 *    the coordinator marks the spool DONE.
 *
 * With --checkpoint FILE the runner resumes completed tasks from a
 * previous interrupted run and re-saves the checkpoint after every
 * finished task, so long sweeps survive preemption. A checkpoint that
 * exists but is rejected (corrupt, or written by an older version) is
 * reported on stderr and the run starts fresh.
 *
 * Run: ./campaign_runner [spec-file] [--threads N] [--json FILE]
 *      [--csv FILE] [--checkpoint FILE] [--quiet]
 *      [--spool DIR] [--workers N] [--lease SECONDS]
 *      [--max-claim-reclaims N] [--retry-attempts N]
 *      [--retry-base-ms MS] [--self-execute]
 *      [--worker] [--worker-id NAME] [--worker-shards N] [--promote]
 *
 * Failover: `--coordinator-takeover --spool DIR` resumes a crashed
 * coordinator's campaign. The spec is read back from the spool
 * itself (no spec file needed), the stale coordinator lease is
 * waited out and stolen, finalized tasks are restored from the merge
 * journal, surviving records are re-merged, and any missing shards
 * are re-executed in-process (self-execute is implied). Workers may
 * keep running throughout; `--promote` makes a worker perform the
 * same takeover automatically when the coordinator dies.
 *
 * Without a spec file a built-in demo campaign runs the paper's
 * [[72,12,6]] BB code under Cyclone vs the baseline grid across three
 * physical error rates (six tasks).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/cyclone.h"

using namespace cyclone;

namespace {

const char* kDemoSpec = R"(# Built-in demo: fig14-style Cyclone-vs-baseline sweep on bb72.
name = demo-bb72
seed = 7

[task]
code = bb72
arch = cyclone, baseline
p = 1e-3, 2e-3, 4e-3
chunk_shots = 128
chunks_per_wave = 2
max_shots = 800
target_rel_err = 0.1
bp = minsum
)";

void
usage(const char* prog)
{
    std::fprintf(stderr,
                 "usage: %s [spec-file] [--threads N] [--json FILE] "
                 "[--csv FILE] [--checkpoint FILE] [--quiet]\n"
                 "       [--spool DIR] [--workers N] [--lease SECONDS]"
                 " [--max-claim-reclaims N]\n"
                 "       [--retry-attempts N] [--retry-base-ms MS] "
                 "[--self-execute]\n"
                 "       %s --worker --spool DIR [--threads N] "
                 "[--worker-id NAME] [--worker-shards N] [--promote]\n"
                 "       %s --coordinator-takeover --spool DIR "
                 "[spec-file] [--threads N] [--json FILE]\n",
                 prog, prog, prog);
}

/** One stderr summary line, `[tag] name value ...`, over a table. */
template <typename T, typename V, size_t N>
void
printCounters(const char* tag, const T& obj,
              const StatField<T, V> (&table)[N])
{
    std::fprintf(stderr, "[%s]", tag);
    for (const auto& f : table) {
        if constexpr (std::is_floating_point_v<V>)
            std::fprintf(stderr, " %s %.1f", f.name, obj.*f.member);
        else
            std::fprintf(stderr, " %s %zu", f.name, obj.*f.member);
    }
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char** argv)
{
    std::string spec_path;
    std::string json_path;
    std::string csv_path;
    std::string checkpoint_path;
    std::string spool_dir;
    std::string worker_id;
    size_t threads_override = 0;
    bool has_threads_override = false;
    size_t workers_override = 0;
    bool has_workers_override = false;
    double lease_override = 0.0;
    size_t worker_shards = 0;
    bool worker_mode = false;
    bool promote = false;
    bool takeover = false;
    bool self_execute = false;
    size_t max_claim_reclaims = 0;
    bool has_max_claim_reclaims = false;
    size_t retry_attempts = 0;
    double retry_base_ms = -1.0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--threads") {
            threads_override =
                static_cast<size_t>(std::atoll(next()));
            has_threads_override = true;
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--checkpoint") {
            checkpoint_path = next();
        } else if (arg == "--spool") {
            spool_dir = next();
        } else if (arg == "--workers") {
            workers_override =
                static_cast<size_t>(std::atoll(next()));
            has_workers_override = true;
        } else if (arg == "--lease") {
            lease_override = std::atof(next());
        } else if (arg == "--worker") {
            worker_mode = true;
        } else if (arg == "--worker-id") {
            worker_id = next();
        } else if (arg == "--worker-shards") {
            worker_shards = static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--promote") {
            promote = true;
        } else if (arg == "--coordinator-takeover") {
            takeover = true;
        } else if (arg == "--self-execute") {
            self_execute = true;
        } else if (arg == "--max-claim-reclaims") {
            max_claim_reclaims =
                static_cast<size_t>(std::atoll(next()));
            has_max_claim_reclaims = true;
        } else if (arg == "--retry-attempts") {
            retry_attempts = static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--retry-base-ms") {
            retry_base_ms = std::atof(next());
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        } else {
            spec_path = arg;
        }
    }

    if (worker_mode) {
        if (spool_dir.empty()) {
            std::fprintf(stderr,
                         "error: --worker needs --spool DIR\n");
            return 2;
        }
        WorkerOptions opts;
        opts.spool = spool_dir;
        opts.threads = threads_override;
        opts.workerId = worker_id;
        opts.maxShards = worker_shards;
        opts.promote = promote;
        try {
            const WorkerReport report = runSpoolWorker(opts);
            if (!quiet) {
                printCounters("worker", report, WorkerReport::kCounters);
                printCounters("cache", report.cache, CacheStats::kCounters);
            }
        } catch (const std::exception& ex) {
            std::fprintf(stderr, "worker error: %s\n", ex.what());
            return 1;
        }
        return 0;
    }

    if (takeover && spool_dir.empty()) {
        std::fprintf(stderr,
                     "error: --coordinator-takeover needs --spool "
                     "DIR\n");
        return 2;
    }

    CampaignSpec spec;
    std::string spec_text;
    try {
        if (takeover && spec_path.empty()) {
            // Take over with nothing but the spool: the dead
            // coordinator published the verbatim spec text there.
            Spool spool(spool_dir);
            if (!spool.initialized())
                throw std::runtime_error(
                    "no initialized spool to take over at " +
                    spool_dir);
            spec_text = spool.readSpecText();
        } else {
            spec_text = spec_path.empty() ? kDemoSpec
                                          : spoolReadFile(spec_path);
        }
        spec = parseCampaignSpec(spec_text);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 1;
    }
    // CLI overrides touch only campaign-level scheduling fields, so
    // workers re-parsing the published spec text still resolve the
    // same task identities and content hashes.
    if (has_threads_override)
        spec.threads = threads_override;
    if (!spool_dir.empty())
        spec.spool = spool_dir;
    if (has_workers_override)
        spec.workers = workers_override;
    if (lease_override > 0.0)
        spec.leaseSeconds = lease_override;
    if (has_max_claim_reclaims)
        spec.maxClaimReclaims = max_claim_reclaims;
    if (retry_attempts > 0)
        spec.retryAttempts = retry_attempts;
    if (retry_base_ms >= 0.0)
        spec.retryBaseMs = retry_base_ms;
    if (takeover) {
        // A takeover must be able to finish alone: the workers that
        // served the dead coordinator may be gone too.
        self_execute = true;
        spec.spool = spool_dir;
        spec.workers = 0;
    }

    CampaignCheckpoint checkpoint;
    const CampaignCheckpoint* resume = nullptr;
    try {
        if (!checkpoint_path.empty() &&
            loadCheckpoint(checkpoint_path, checkpoint)) {
            resume = &checkpoint;
            if (!quiet)
                std::fprintf(stderr, "resuming %zu tasks from %s\n",
                             checkpoint.tasks.size(),
                             checkpoint_path.c_str());
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr,
                     "warning: ignoring checkpoint %s (%s); starting "
                     "fresh\n",
                     checkpoint_path.c_str(), ex.what());
    }

    // Incremental checkpointing: re-save after every finished task.
    CampaignResult partial;
    auto on_task_done = [&](const TaskResult& t) {
        if (!quiet)
            std::fprintf(
                stderr,
                "  %-32s %s shots=%zu failures=%zu ler=%.3g "
                "trivial=%.0f%% memo=%.1f%% bp_iters=%.1f%s\n",
                t.id.c_str(),
                t.error.empty() ? "done " : "FAIL ",
                t.logicalErrorRate.trials,
                t.logicalErrorRate.successes, t.logicalErrorRate.rate,
                100.0 * t.decoder.trivialFraction(),
                100.0 * t.decoder.memoHitRate(),
                t.decoder.meanBpIterations(),
                t.fromCheckpoint
                    ? " (checkpoint)"
                    : (t.stoppedEarly ? " (early stop)" : ""));
        if (!checkpoint_path.empty()) {
            partial.tasks.push_back(t);
            saveCheckpoint(partial, checkpoint_path);
        }
    };

    CampaignResult result;
    std::vector<pid_t> children;
    try {
        if (!spec.spool.empty()) {
            // Fork local workers BEFORE the coordinator runs: the
            // coordinator is deliberately thread-free, so forking
            // here is safe, and the children never return into the
            // coordinator path.
            for (size_t w = 0; w < spec.workers; ++w) {
                const pid_t pid = ::fork();
                if (pid == 0) {
                    WorkerOptions opts;
                    opts.spool = spec.spool;
                    opts.threads = spec.threads;
                    opts.workerId =
                        "local" + std::to_string(w);
                    int rc = 0;
                    try {
                        runSpoolWorker(opts);
                    } catch (const std::exception& ex) {
                        std::fprintf(stderr, "worker error: %s\n",
                                     ex.what());
                        rc = 1;
                    }
                    ::_exit(rc);
                }
                if (pid > 0)
                    children.push_back(pid);
            }
            CoordinatorOptions copts;
            copts.selfExecute = self_execute;
            copts.threads = spec.threads;
            result = runDistributedCampaign(spec, spec_text, resume,
                                            on_task_done, copts);
        } else {
            result = runCampaign(spec, resume, on_task_done);
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        for (const pid_t pid : children)
            ::waitpid(pid, nullptr, 0);
        return 1;
    }
    for (const pid_t pid : children)
        ::waitpid(pid, nullptr, 0);

    if (!quiet) {
        BpOsdStats decoder;
        for (const TaskResult& t : result.tasks)
            decoder.merge(t.decoder);
        std::fprintf(stderr,
                     "[%s] %zu tasks, %zu shots, wall %.1fs, decoder "
                     "trivial %.1f%% / memo %.1f%% / mean BP iters "
                     "%.1f / wave occupancy %.0f%% / lane utilization "
                     "%.0f%% [backend %s]\n",
                     result.name.c_str(), result.tasks.size(),
                     result.totalShots(), result.wallSeconds,
                     100.0 * decoder.trivialFraction(),
                     100.0 * decoder.memoHitRate(),
                     decoder.meanBpIterations(),
                     100.0 * decoder.waveLaneOccupancy(),
                     100.0 * decoder.waveLaneUtilization(),
                     decoder.backend.empty() ? "none"
                                             : decoder.backend.c_str());
        printCounters("cache", result.cache, CacheStats::kCounters);
        printCounters("decoder", decoder, BpOsdStats::kCounters);
        StreamDecodeStats streaming;
        bool streamed = false;
        for (const TaskResult& t : result.tasks) {
            if (t.streamed)
                streaming.merge(t.stream);
            streamed = streamed || t.streamed;
        }
        if (streamed) {
            streaming.computePercentiles();
            printCounters("streaming", streaming,
                          StreamDecodeStats::kCounters);
            printCounters("streaming", streaming,
                          StreamDecodeStats::kScalars);
        }
        if (!spec.spool.empty())
            printCounters("spool", result.spool, SpoolStats::kCounters);
    }

    const std::string json = campaignResultToJson(result);
    if (json_path.empty()) {
        std::fputs(json.c_str(), stdout);
    } else if (!writeTextFile(json_path, json)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    if (!csv_path.empty() &&
        !writeTextFile(csv_path, campaignResultToCsv(result))) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     csv_path.c_str());
        return 1;
    }

    int failures = 0;
    for (const TaskResult& t : result.tasks)
        if (!t.error.empty())
            ++failures;
    return failures > 0 ? 1 : 0;
}
