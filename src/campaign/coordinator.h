/**
 * @file
 * Distributed campaigns: the spool transport of the one campaign
 * executor (executor.h), and the worker loop on the far side of the
 * spool.
 *
 * runDistributedCampaign drives the same WaveExecutor as the
 * in-process engine, so waves, stopping decisions and merges are the
 * same; only the transport differs. Each wave is cut into
 * staging-aligned chunk-range shards published through the spool
 * (spool.h), and each record a worker posts back is absorbed like an
 * in-memory group result. Chunk RNG streams depend only on (task
 * seed, chunk index), so merged results are bit-identical to an
 * in-process run at any worker count. The coordinator is
 * thread-free: it prebuilds every artifact in sequence into the
 * spool's shared store, so callers may fork workers around it.
 *
 * Workers are stateless: they re-parse the spool's spec text, check
 * each claimed shard's content hash against the task they
 * re-resolve, load artifacts from the store, and run the shard's
 * staging groups through the same ChunkGroupRunner the in-process
 * engine uses. A worker that dies mid-shard stops heartbeating, and
 * the coordinator reclaims the shard once its lease expires. The
 * coordinator role is leased and journaled too, so any process can
 * take a dead coordinator over (spool.h).
 */

#ifndef CYCLONE_CAMPAIGN_COORDINATOR_H
#define CYCLONE_CAMPAIGN_COORDINATOR_H

#include <cstddef>
#include <string>

#include "campaign/adaptive_sampler.h"
#include "campaign/campaign.h"
#include "campaign/campaign_spec.h"
#include "campaign/spool.h"

namespace cyclone {

/**
 * Effective chunks-per-shard for a stopping rule: `shardChunks`
 * rounded up to a multiple of `stagingChunks` (so worker-side staging
 * groups coincide exactly with a single-process run's), or about a
 * quarter wave when 0 (auto).
 */
size_t effectiveShardChunks(const StoppingRule& rule);

/** Coordinator-role configuration. */
struct CoordinatorOptions
{
    /**
     * Let the coordinator claim and execute open shards itself when
     * a merge pass makes no progress (lazy local thread pool). Off
     * by default: the production topology forks dedicated workers
     * around the (thread-free) coordinator, and benchmarks gate on
     * that split. Takeover and promotion turn it on so a lone
     * surviving process can always finish a campaign.
     */
    bool selfExecute = false;
    /** Thread-pool size for self-executed shards (0 = hardware). */
    size_t threads = 0;
    /** Lease owner tag ("" = "pid<pid>"). */
    std::string owner;
};

/**
 * Run `spec` as the coordinator of the spool at `spec.spool`.
 * `specText` is the verbatim spec document, published into the spool
 * for workers to re-parse; it must parse to `spec`. Blocks until all
 * tasks complete (some worker must be draining the spool — see
 * campaign_runner's forked local workers — unless
 * `options.selfExecute` is set) and returns a result bit-identical
 * to an in-process run of the same spec.
 *
 * If the spool already has a live coordinator, waits for its lease
 * to go stale, then steals it — so pointing a second coordinator at
 * a crashed one's spool performs a failover takeover.
 *
 * @param resume checkpointed tasks to skip, as CampaignEngine::run
 * @param onTaskDone per-task completion hook
 */
CampaignResult
runDistributedCampaign(const CampaignSpec& spec,
                       const std::string& specText,
                       const CampaignCheckpoint* resume = nullptr,
                       const CampaignEngine::TaskCallback& onTaskDone =
                           nullptr,
                       const CoordinatorOptions& options = {});

/** Configuration of one worker process/loop. */
struct WorkerOptions
{
    /** Spool directory (required). */
    std::string spool;
    /** Local decode threads (0 = hardware concurrency). */
    size_t threads = 0;
    /** Label for the worker's stats file ("" = "pid<pid>"). */
    std::string workerId;
    /** Stop after this many shards (0 = run until spool DONE). */
    size_t maxShards = 0;
    /** Seconds between idle polls of open/. */
    double pollSeconds = 0.05;
    /**
     * Promote this worker to coordinator if it is idle (nothing to
     * claim, spool not DONE) and the coordinator lease has been
     * stale for a full lease period — i.e. the coordinator died.
     * The promoted worker re-parses the spec and finishes the
     * campaign with selfExecute on.
     */
    bool promote = false;
};

/** What one worker loop did (also written to the spool as
 *  stats-<workerId>.txt for cross-process accounting). */
struct WorkerReport
{
    size_t shardsRun = 0;
    size_t shots = 0;
    size_t failures = 0;
    /** Transient I/O failures absorbed by the spool retry policy. */
    size_t transientRetries = 0;
    /** 1 if this worker promoted itself to coordinator. */
    size_t promotions = 0;
    /** This process's artifact-cache activity (store hits vs local
     *  builds prove the fleet compiled each point exactly once). */
    CacheStats cache;

    /** Serialized counters besides `cache`. */
    static constexpr StatField<WorkerReport, size_t> kCounters[] = {
        {"shards", &WorkerReport::shardsRun},
        {"shots", &WorkerReport::shots},
        {"failures", &WorkerReport::failures},
        {"retries", &WorkerReport::transientRetries},
        {"promotions", &WorkerReport::promotions},
    };
};

/** Text round-trip of a worker stats file (stats-<id>.txt;
 *  record_codec.h document, CRC-protected). */
std::string formatWorkerStats(const WorkerReport& report);
/** Throws std::runtime_error on malformed input, unknown, duplicate
 *  or missing keys, or an older version. */
WorkerReport parseWorkerStats(const std::string& text);

/**
 * Run the worker loop against `opts.spool` until the coordinator's
 * DONE marker appears (or `maxShards` is reached). Waits for the
 * spool to be initialized first, so workers may start before the
 * coordinator. Maintains a health file (spool workers/<id>:
 * healthy/degraded/done, degraded once transient retries occur) that
 * the coordinator folds into the final summary. Throws
 * std::runtime_error on a spec/shard content-hash mismatch (the
 * spool holds a different campaign than the shard expects).
 */
WorkerReport runSpoolWorker(const WorkerOptions& opts);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_COORDINATOR_H
