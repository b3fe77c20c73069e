#include "campaign/coordinator.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include <unistd.h>

#include "campaign/adaptive_sampler.h"
#include "campaign/campaign_io.h"
#include "campaign/executor.h"
#include "campaign/fault_plan.h"
#include "campaign/record_codec.h"
#include "campaign/thread_pool.h"

namespace cyclone {

namespace {

constexpr const char* kWorkerStatsMagic = "cyclone-worker-stats v2";
constexpr const char* kHealthMagic = "cyclone-worker-health v2";

/** Install the spec's fault plan unless the environment already
 *  provided one (the env var wins so CI can inject without editing
 *  spec files). */
void
maybeInstallSpecFaultPlan(const CampaignSpec& spec)
{
    if (!spec.faultPlan.empty() &&
        std::getenv("CYCLONE_FAULT_PLAN") == nullptr)
        installFaultPlan(FaultPlan::parse(spec.faultPlan));
}

/** Build a retry policy from spec/manifest knobs. */
RetryPolicy
retryPolicyFrom(size_t attempts, double baseMs)
{
    RetryPolicy p;
    p.maxAttempts = std::max<size_t>(1, attempts);
    p.baseDelaySeconds = std::max(0.0, baseMs) / 1000.0;
    return p;
}

/**
 * Execute one claimed shard on `pool` through the task's runner and
 * publish its record — the one shard-execution path, shared by
 * worker loops and self-executing coordinators so both produce
 * byte-identical records. Heartbeats the claim (and
 * `extraHeartbeat`, e.g. the coordinator lease) while the pool
 * decodes.
 */
ShardRecord
executeShard(Spool& spool, const std::string& id, const ShardDescriptor& d,
             const ResolvedTask& rt, ChunkGroupRunner& runner,
             ThreadPool& pool, double leaseSeconds,
             const std::function<void()>& extraHeartbeat)
{
    // Rebuild the shard's exact ChunkPlans from its chunk range: the
    // same shot formula and seed derivation the coordinator's
    // sampler used when it planned the wave.
    const StoppingRule& rule = rt.spec->stop;
    std::vector<ChunkPlan> plans(d.numChunks);
    for (size_t k = 0; k < d.numChunks; ++k) {
        plans[k].index = d.firstChunk + k;
        plans[k].shots = chunkShotsAt(rule, plans[k].index);
        plans[k].seed = chunkSeed(rt.taskSeed, plans[k].index);
    }

    CompletionQueue<GroupResult> done;
    size_t groups = 0;
    forEachStagingGroup(rule, plans.size(), [&](size_t g, size_t count) {
        ++groups;
        pool.submit([&done, &runner, &plans, g, count] {
            done.push(runner.run(plans.data() + g, count));
        });
    });

    // Merge groups as they finish, and heartbeat the claim every beat
    // meanwhile, so a healthy worker's lease never expires mid-shard.
    ShardRecord rec;
    rec.task = d.task;
    rec.shard = d.shard;
    rec.contentHash = d.contentHash;
    std::string error;
    const double beat = std::min(0.05, leaseSeconds / 8.0);
    double lastBeat = monotonicSeconds();
    for (size_t merged = 0; merged < groups;) {
        GroupResult r;
        const bool finished = done.pop(r, beat);
        if (monotonicSeconds() - lastBeat >= beat) {
            spool.heartbeat(id);
            if (extraHeartbeat)
                extraHeartbeat();
            lastBeat = monotonicSeconds();
        }
        if (!finished)
            continue;
        ++merged;
        rec.shots += r.outcome.shots;
        rec.failures += r.outcome.failures;
        rec.seconds += r.seconds;
        rec.decoder.merge(r.decoder);
        if (error.empty())
            error = r.error;
    }
    if (!error.empty())
        throw std::runtime_error(error);
    spool.completeShard(id, rec);
    return rec;
}

} // namespace

size_t
effectiveShardChunks(const StoppingRule& rule)
{
    const size_t staging = std::max<size_t>(1, rule.stagingChunks);
    size_t chunks = rule.shardChunks;
    if (chunks == 0) {
        // Auto: about four claimable shards per wave, so a handful of
        // workers can share even a single-task campaign's wave.
        const size_t wave = std::max<size_t>(1, rule.chunksPerWave);
        chunks = (wave + 3) / 4;
    }
    // Round up to a staging-group multiple: worker-side groups then
    // coincide exactly with a single-process run's wave partition.
    return ((chunks + staging - 1) / staging) * staging;
}

CampaignResult
runDistributedCampaign(const CampaignSpec& spec,
                       const std::string& specText,
                       const CampaignCheckpoint* resume,
                       const CampaignEngine::TaskCallback& onTaskDone,
                       const CoordinatorOptions& options)
{
    if (spec.spool.empty())
        throw std::invalid_argument(
            "runDistributedCampaign needs spec.spool");
    for (const TaskSpec& t : spec.tasks) {
        if (t.stream.enabled)
            throw std::invalid_argument(
                "streaming tasks run in-process only: task '" + t.id +
                "' sets streaming = on, which the spool coordinator "
                "does not support (drop the spool, or disable "
                "streaming)");
    }

    maybeInstallSpecFaultPlan(spec);

    const double t0 = monotonicSeconds();
    // Resolving first fails a bad spec before any spool state exists.
    WaveExecutor ex(spec, resume, onTaskDone);
    CampaignResult& result = ex.result;
    const size_t n = ex.tasks.size();
    Spool spool(spec.spool);
    spool.setRetryPolicy(
        retryPolicyFrom(spec.retryAttempts, spec.retryBaseMs));
    SpoolManifest manifest;
    manifest.name = spec.name;
    manifest.seed = spec.seed;
    manifest.leaseSeconds = spec.leaseSeconds;
    manifest.retryAttempts = spec.retryAttempts;
    manifest.retryBaseMs = spec.retryBaseMs;
    spool.initialize(manifest, specText);

    // Become THE coordinator: create the lease, or wait out a live
    // one and steal it once stale. A fresh lease is heartbeated by
    // its owner, so the steal only ever fires on a dead coordinator
    // (monotonic age: a wall-clock step cannot fake staleness).
    const std::string owner = !options.owner.empty()
        ? options.owner
        : "pid" + std::to_string(::getpid());
    while (!spool.acquireCoordinatorLease(owner)) {
        const double age = spool.coordinatorLeaseAge();
        if (age < 0.0)
            continue; // lease vanished; retry the acquire
        if (age > spec.leaseSeconds) {
            if (spool.stealCoordinatorLease(owner)) {
                ++result.spool.coordinatorTakeovers;
                break;
            }
            continue; // another stealer won; wait on its lease
        }
        retrySleep(std::min(0.05, spec.leaseSeconds / 8.0));
    }
    faultMilestone("coord.lease.acquired");

    ArtifactCache cache;
    cache.attachStore(spool.cacheDir());

    // A dead predecessor's merge journal (the checkpoint document of
    // the tasks it finalized): those tasks restore below without
    // re-merging a single record.
    CampaignCheckpoint journal;
    {
        std::string text;
        if (spool.readJournal(text)) {
            try {
                journal = parseCheckpoint(text);
            } catch (const std::exception&) {
                // Torn or older-version journal: quarantine it and
                // fall back to re-merging from records, which is
                // merely slower.
                spool.quarantineFile("journal.txt");
                ++result.spool.recordsQuarantined;
            }
        }
    }

    // Resolve all artifacts up front, sequentially and thread-free
    // (callers fork worker processes around this function; a live
    // pool would make that unsafe). Every compile and DEM publishes
    // to the spool store before any shard exists, so workers always
    // store-hit and the fleet builds each distinct artifact once. A
    // task that fails to build finalizes with its error below.
    for (size_t i = 0; i < n; ++i) {
        if (ex.tasks[i].finished)
            continue;
        spool.heartbeatCoordinator();
        try {
            buildTaskArtifacts(ex.tasks[i].rt, cache);
        } catch (const std::exception& err) {
            result.tasks[i].error = err.what();
        }
    }
    faultMilestone("coord.prebuilt");

    // Rewrite the whole journal (tmp+rename, like shard records)
    // after every finalize: the journal is always a consistent
    // prefix of the finalized tasks, no matter where we die.
    ex.onFinalized = [&](size_t) {
        std::vector<TaskResult> finalized;
        for (size_t i = 0; i < n; ++i)
            if (ex.tasks[i].finished && !result.tasks[i].fromCheckpoint)
                finalized.push_back(result.tasks[i]);
        spool.writeJournal(formatCheckpoint(finalized));
        faultMilestone("coord.task.finalized");
    };

    // Shard ids of each task's current wave still awaiting records,
    // with their descriptors, so a shard whose record was quarantined
    // can be republished even if every on-disk copy of its
    // descriptor is gone.
    std::vector<std::map<std::string, ShardDescriptor>> outstanding(n);
    std::vector<size_t> nextShard(n, 0);

    // Publish one wave as contiguous chunk-range shards.
    ex.dispatch = [&](size_t i, const std::vector<ChunkPlan>& wave) {
        const size_t step = effectiveShardChunks(ex.tasks[i].rt.spec->stop);
        size_t shards = 0;
        for (size_t g = 0; g < wave.size(); g += step, ++shards) {
            ShardDescriptor d;
            d.task = i;
            d.shard = nextShard[i]++;
            d.firstChunk = wave[g].index;
            d.numChunks = std::min(step, wave.size() - g);
            d.contentHash = ex.tasks[i].rt.contentHash;
            const std::string id = shardId(d.task, d.shard);
            if (spool.publishShard(d)) {
                ++result.spool.shardsPublished;
            } else if (spool.hasRecord(id)) {
                // A previous coordinator run already collected this
                // shard; the merge scan below absorbs it directly.
                ++result.spool.recordsReused;
            }
            outstanding[i].emplace(id, d);
        }
        faultMilestone("coord.wave.published");
        return shards;
    };

    // Fail a task outright: its lost shards never report, so nothing
    // is left to drain.
    auto abandon = [&](size_t i, const std::string& error) {
        outstanding[i].clear();
        ex.tasks[i].outstanding = 0;
        ex.fail(i, error);
    };

    for (size_t i = 0; i < n; ++i) {
        if (ex.tasks[i].finished)
            continue;
        if (ex.restore(i, journal))
            ++result.spool.journalRestores;
        else
            ex.advance(i);
    }

    std::unique_ptr<ThreadPool> selfPool;

    while (ex.remaining > 0) {
        spool.heartbeatCoordinator();
        bool progress = false;
        // Merge every record that has landed, in shard-id order.
        for (size_t i = 0; i < n; ++i) {
            auto& pending = outstanding[i];
            for (auto it = pending.begin(); it != pending.end();) {
                const std::string id = it->first;
                if (!spool.hasRecord(id)) {
                    ++it;
                    continue;
                }
                progress = true;
                ShardRecord rec;
                try {
                    rec = spool.readRecord(id);
                } catch (const CorruptSpoolError&) {
                    // Torn or rotted record: quarantine it and make
                    // sure the shard is executable again — revive
                    // its done/ tombstone, or republish from our
                    // copy of its descriptor if every on-disk copy
                    // is gone. (If the claim is still in claimed/,
                    // the lease sweep below recycles it.)
                    spool.quarantineRecord(id);
                    ++result.spool.recordsQuarantined;
                    if (!spool.reviveShard(id) &&
                        spool.publishShard(it->second))
                        ++result.spool.shardsPublished;
                    ++it;
                    continue;
                }
                if (rec.contentHash != ex.tasks[i].rt.contentHash)
                    throw std::runtime_error(
                        "spool record " + id +
                        " does not match this campaign's task "
                        "(content hash mismatch)");
                it = pending.erase(it);
                ++result.spool.shardsMerged;
                faultMilestone("coord.record.merged");
                // The wave's last record plans the next wave, whose
                // fresh shard ids sort after every merged one.
                ex.absorb(i, {{rec.shots, rec.failures}, rec.seconds,
                              rec.decoder, {}});
            }
        }

        // Lease sweep: claims whose heartbeat went stale go back to
        // open/ so surviving workers re-execute them. Records are
        // deterministic, so a worker that was merely slow (not dead)
        // racing its reclaimed twin is harmless. The per-shard
        // reclaim counter persists in the spool, so a shard that
        // keeps killing workers is caught even across coordinator
        // failovers; its task is finalized with an error instead of
        // livelocking the fleet re-publishing it forever.
        for (const std::string& id : spool.claimedShards()) {
            const double age = spool.claimAge(id);
            if (age <= spec.leaseSeconds)
                continue;
            const size_t count = spool.bumpReclaimCount(id);
            if (count > spec.maxClaimReclaims) {
                if (spool.quarantineShard(id)) {
                    ++result.spool.shardsPoisoned;
                    for (size_t i = 0; i < n; ++i)
                        if (outstanding[i].count(id) != 0)
                            abandon(i, "poison shard " + id +
                                           ": claim reclaimed " +
                                           std::to_string(count - 1) +
                                           " times; shard quarantined");
                    progress = true;
                }
            } else if (spool.reclaimShard(id)) {
                ++result.spool.shardsReclaimed;
            }
        }

        // Observe every worker health file each pass so its age is
        // measured on CLOCK_MONOTONIC from the last mtime change we
        // saw, exactly like shard claims. Without this history the
        // end-of-run classification would fall back to wall-clock
        // mtime arithmetic, and an NTP step during the campaign
        // would report live workers as lost.
        for (const std::string& name : spool.list("workers"))
            spool.workerHealthAge(name);

        // Self-execution: with no dedicated workers (takeover,
        // promotion, single-process operation) the coordinator
        // claims an open shard itself whenever a pass made no
        // progress, on a lazily created local pool.
        if (options.selfExecute && !progress && ex.remaining > 0) {
            for (const std::string& id : spool.openShards()) {
                ShardDescriptor d;
                if (!spool.claimShard(id, d))
                    continue;
                if (d.task >= n || ex.tasks[d.task].finished) {
                    spool.retireClaim(id);
                    continue;
                }
                if (!selfPool)
                    selfPool =
                        std::make_unique<ThreadPool>(options.threads);
                WaveExecutor::Task& st = ex.tasks[d.task];
                if (!st.runner)
                    st.runner = std::make_unique<ChunkGroupRunner>(
                        st.rt, selfPool->size());
                try {
                    executeShard(spool, id, d, st.rt, *st.runner,
                                 *selfPool, spec.leaseSeconds,
                                 [&] { spool.heartbeatCoordinator(); });
                } catch (const std::exception& err) {
                    abandon(d.task, err.what());
                }
                progress = true;
                break; // merge the fresh record before claiming more
            }
        }

        if (!progress)
            retrySleep(0.02);
    }

    spool.markDone();

    // Fold worker health files into the summary: done => healthy,
    // degraded (transient retries) => degraded, a live-looking file
    // that stopped updating => lost.
    for (const std::string& name : spool.list("workers")) {
        std::string state;
        try {
            state = KvReader(spool.readFile("workers/" + name),
                             kHealthMagic, "worker health")
                        .text("state");
        } catch (const CorruptSpoolError&) {
            // A damaged or foreign file: judge the worker by its age.
        } catch (const std::exception&) {
            ++result.spool.workersLost;
            continue;
        }
        if (state == "done")
            ++result.spool.workersHealthy;
        else if (state == "degraded")
            ++result.spool.workersDegraded;
        else if (spool.workerHealthAge(name) > spec.leaseSeconds)
            ++result.spool.workersLost;
        else
            ++result.spool.workersHealthy;
    }

    result.cache = cache.stats();
    result.spool.transientRetries = spool.transientRetries();
    result.wallSeconds = monotonicSeconds() - t0;

    WorkerReport coordStats;
    coordStats.cache = result.cache;
    coordStats.transientRetries = spool.transientRetries();
    spool.writeFile("stats-coordinator.txt",
                    formatWorkerStats(coordStats),
                    "spool.stats.commit");
    // Publish the merged result into the spool too, so a promoted
    // worker's campaign (whose stdout nobody owns) is not lost.
    spool.writeFile("result.json", campaignResultToJson(result),
                    "spool.result.commit");
    spool.releaseCoordinatorLease(owner);
    return std::move(result);
}

std::string
formatWorkerStats(const WorkerReport& r)
{
    std::string out = std::string(kWorkerStatsMagic) + "\n";
    putFields(out, r, WorkerReport::kCounters);
    putFields(out, r.cache, CacheStats::kCounters);
    return withCrcLine(std::move(out));
}

WorkerReport
parseWorkerStats(const std::string& text)
{
    KvReader in(text, kWorkerStatsMagic, "worker stats");
    WorkerReport r;
    in.fields(r, WorkerReport::kCounters);
    in.fields(r.cache, CacheStats::kCounters);
    in.finish();
    return r;
}

WorkerReport
runSpoolWorker(const WorkerOptions& opts)
{
    if (opts.spool.empty())
        throw std::invalid_argument("runSpoolWorker needs a spool dir");

    Spool spool(opts.spool);
    while (!spool.initialized())
        retrySleep(opts.pollSeconds);

    const SpoolManifest manifest = spool.readManifest();
    spool.setRetryPolicy(retryPolicyFrom(manifest.retryAttempts,
                                         manifest.retryBaseMs));
    const CampaignSpec spec = parseCampaignSpec(spool.readSpecText());
    maybeInstallSpecFaultPlan(spec);
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    // The runner of the task last claimed: its decoders carry over to
    // the task's next shard, and only one task's decoders are alive
    // at a time, as many as a shard needs.
    std::unique_ptr<ChunkGroupRunner> runner;
    size_t runnerTask = resolved.size();

    ArtifactCache cache;
    cache.attachStore(spool.cacheDir());
    ThreadPool pool(opts.threads);

    WorkerReport report;

    const std::string workerId = !opts.workerId.empty()
        ? opts.workerId
        : "pid" + std::to_string(::getpid());
    const std::string healthFile = "workers/" + workerId;

    auto writeHealth = [&](const char* state) {
        std::string out = std::string(kHealthMagic) + "\n";
        putKv(out, "state", std::string(state));
        putKv(out, "retries", spool.transientRetries());
        putKv(out, "shards", report.shardsRun);
        try {
            spool.writeFile(healthFile, withCrcLine(std::move(out)),
                            "spool.health.commit");
        } catch (const std::exception&) {
            // Health is advisory; never kill a worker over it.
        }
    };
    writeHealth("healthy");

    // Promotion bookkeeping: how long the coordinator lease has
    // looked dead (stale or absent) from this worker's seat.
    double leaseAbsentSince = -1.0;

    while (!spool.done()) {
        bool claimed = false;
        for (const std::string& id : spool.openShards()) {
            ShardDescriptor d;
            if (!spool.claimShard(id, d))
                continue;
            claimed = true;
            if (d.task >= resolved.size() ||
                resolved[d.task].contentHash != d.contentHash)
                throw std::runtime_error(
                    "shard " + id +
                    " does not match the spool's campaign spec "
                    "(content hash mismatch)");
            if (runnerTask != d.task) {
                runner.reset();
                if (!resolved[d.task].dem)
                    buildTaskArtifacts(resolved[d.task], cache);
                runner = std::make_unique<ChunkGroupRunner>(
                    resolved[d.task], pool.size());
                runnerTask = d.task;
            }
            const ShardRecord rec =
                executeShard(spool, id, d, resolved[d.task], *runner,
                             pool, manifest.leaseSeconds, nullptr);
            ++report.shardsRun;
            report.shots += rec.shots;
            report.failures += rec.failures;
            writeHealth(spool.transientRetries() > 0 ? "degraded"
                                                     : "healthy");
            break; // rescan open/ for the freshest view
        }
        if (opts.maxShards > 0 && report.shardsRun >= opts.maxShards)
            break;
        if (!claimed) {
            // Keep the health file's mtime fresh while idle, so the
            // coordinator can tell idle from dead.
            spool.touch(healthFile);

            // Promotion: nothing to claim, campaign unfinished, and
            // the coordinator has looked dead for a full lease
            // period — take over and finish the campaign ourselves.
            bool coordinatorDead = false;
            if (opts.promote) {
                if (!spool.hasCoordinatorLease()) {
                    const double now = monotonicSeconds();
                    if (leaseAbsentSince < 0.0)
                        leaseAbsentSince = now;
                    coordinatorDead = now - leaseAbsentSince >
                        manifest.leaseSeconds;
                } else {
                    leaseAbsentSince = -1.0;
                    coordinatorDead = spool.coordinatorLeaseAge() >
                        manifest.leaseSeconds;
                }
            }
            if (coordinatorDead) {
                ++report.promotions;
                CampaignSpec promoted = spec;
                promoted.spool = opts.spool;
                CoordinatorOptions copts;
                copts.selfExecute = true;
                copts.threads = opts.threads;
                copts.owner = workerId;
                runDistributedCampaign(promoted,
                                       spool.readSpecText(), nullptr,
                                       nullptr, copts);
                continue; // the loop exits on the DONE marker
            }
            retrySleep(opts.pollSeconds);
        }
    }

    report.cache = cache.stats();
    report.transientRetries = spool.transientRetries();
    writeHealth(report.transientRetries > 0 ? "degraded" : "done");
    spool.writeFile("stats-" + workerId + ".txt",
                    formatWorkerStats(report), "spool.stats.commit");
    return report;
}

} // namespace cyclone
