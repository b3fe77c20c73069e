#include "campaign/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "campaign/adaptive_sampler.h"
#include "campaign/content_hash.h"
#include "campaign/executor.h"
#include "campaign/spool.h"
#include "campaign/thread_pool.h"
#include "circuit/memory_circuit.h"
#include "dem/dem_builder.h"
#include "noise/noise_model.h"
#include "noise/schedule_noise.h"
#include "qec/code_catalog.h"

namespace cyclone {

namespace {

uint64_t
taskContentHash(const ResolvedTask& rt)
{
    const TaskSpec& t = *rt.spec;
    HashStream h;
    h.absorb(rt.codeHash).absorb(rt.scheduleHash);
    h.absorb(uint64_t{t.compileLatency ? 1u : 0u});
    if (t.compileLatency)
        h.absorb(std::string(architectureName(t.architecture)));
    else
        h.absorb(t.roundLatencyUs);
    h.absorb(uint64_t{t.swap == SwapKind::IonSwap ? 1u : 0u});
    h.absorb(uint64_t{t.gridCapacity});
    h.absorb(uint64_t{
        t.idleNoise == IdleNoiseMode::PerQubitSchedule ? 1u : 0u});
    for (const PauliTwirl& twirl : t.perQubitIdle)
        h.absorb(twirl.px).absorb(twirl.py).absorb(twirl.pz);
    h.absorb(t.latencyScale).absorb(t.physicalError);
    h.absorb(uint64_t{rt.rounds}).absorb(uint64_t{t.xBasis ? 1u : 0u});
    h.absorb(uint64_t{static_cast<unsigned>(t.bp.variant)});
    h.absorb(uint64_t{t.bp.maxIterations});
    h.absorb(t.bp.minSumScale).absorb(t.bp.clamp);
    h.absorb(uint64_t{t.stop.chunkShots});
    h.absorb(uint64_t{t.stop.chunksPerWave});
    h.absorb(uint64_t{t.stop.maxShots});
    h.absorb(t.stop.targetRelErr);
    h.absorb(uint64_t{t.stop.minFailures});
    h.absorb(rt.taskSeed);
    return h.digest();
}

/**
 * Map a task's StreamSpec onto StreamDecoderOptions. The deadline
 * defaults to one window period — rounds x the task's (compiled or
 * explicit) round latency, the time the hardware takes to produce
 * the next window — so deadline misses mean "the decoder fell behind
 * the machine". Requires built artifacts (rt.latencyUs).
 */
StreamDecoderOptions
streamOptionsFor(const ResolvedTask& rt)
{
    const StreamSpec& ss = rt.spec->stream;
    StreamDecoderOptions o;
    o.streams = ss.streams > 0 ? ss.streams : 1;
    o.roundsPerWindow = rt.rounds > 0 ? rt.rounds : 1;
    o.policy = ss.deadlineFlush ? FlushPolicy::Deadline
                                : FlushPolicy::FullWave;
    o.deadlineUs = ss.deadlineUs > 0.0
        ? ss.deadlineUs
        : rt.latencyUs * static_cast<double>(o.roundsPerWindow);
    o.flushAfterUs = ss.flushAfterUs;
    o.capacityChunks =
        std::max<size_t>(size_t{1}, rt.spec->stop.stagingChunks);
    return o;
}

/** Copy DEM/compile-derived metadata of a built task into a result. */
void
fillResolvedMetadata(TaskResult& r, const ResolvedTask& rt)
{
    r.roundLatencyUs = rt.latencyUs;
    if (rt.dem) {
        r.demDetectors = rt.dem->numDetectors;
        r.demMechanisms = rt.dem->mechanisms.size();
    }
    if (rt.compiled) {
        r.compileMakespanUs = rt.compiled->execTimeUs;
        r.compileBreakdown = rt.compiled->serialized;
        r.compileParallelFraction = rt.compiled->parallelFraction();
        r.trapRoadblocks = rt.compiled->trapRoadblocks;
        r.junctionRoadblocks = rt.compiled->junctionRoadblocks;
        r.roadblockWaits = rt.compiled->schedule.waitHistogram();
    }
}

/**
 * If `saved` holds a completed task with `r.contentHash`, replace `r`
 * with it — keeping `r`'s identity fields, marking fromCheckpoint —
 * and return true.
 */
bool
applyCheckpoint(TaskResult& r, const CampaignCheckpoint& saved)
{
    auto it = saved.tasks.find(r.contentHash);
    if (it == saved.tasks.end())
        return false;
    TaskResult restored = it->second;
    restored.id = std::move(r.id);
    restored.codeName = std::move(r.codeName);
    restored.architecture = std::move(r.architecture);
    restored.physicalError = r.physicalError;
    restored.xBasis = r.xBasis;
    restored.fromCheckpoint = true;
    r = std::move(restored);
    return true;
}

} // namespace

CssCode
resolveCampaignCode(const std::string& name)
{
    if (name.rfind("surface", 0) == 0 && name.size() > 7) {
        char* end = nullptr;
        const long d = std::strtol(name.c_str() + 7, &end, 10);
        if (end != nullptr && *end == '\0' && d >= 2)
            return catalog::surface(static_cast<size_t>(d));
    }
    return catalog::byName(name);
}

size_t
CampaignResult::totalShots() const
{
    size_t total = 0;
    for (const TaskResult& t : tasks)
        total += t.logicalErrorRate.trials;
    return total;
}

std::vector<ResolvedTask>
resolveTaskIdentities(const CampaignSpec& spec)
{
    const size_t n = spec.tasks.size();
    std::vector<ResolvedTask> resolved(n);
    std::unordered_map<std::string, std::shared_ptr<const CssCode>>
        codeByName;
    std::unordered_map<const CssCode*,
                       std::shared_ptr<const SyndromeSchedule>>
        schedByCode;

    for (size_t i = 0; i < n; ++i) {
        const TaskSpec& t = spec.tasks[i];
        ResolvedTask& rt = resolved[i];
        rt.spec = &t;
        if (t.code) {
            rt.code = t.code;
        } else {
            if (t.codeName.empty())
                throw std::invalid_argument(
                    "TaskSpec needs codeName or an inline code");
            auto& code = codeByName[t.codeName];
            if (!code)
                code = std::make_shared<const CssCode>(
                    resolveCampaignCode(t.codeName));
            rt.code = code;
        }
        if (t.schedule) {
            rt.schedule = t.schedule;
        } else {
            auto& schedule = schedByCode[rt.code.get()];
            if (!schedule)
                schedule = std::make_shared<const SyndromeSchedule>(
                    makeXThenZSchedule(*rt.code));
            rt.schedule = schedule;
        }
        rt.rounds = t.rounds > 0
            ? t.rounds
            : (rt.code->nominalDistance() > 0
                   ? rt.code->nominalDistance()
                   : 3);
        rt.codeHash = hashCode(*rt.code);
        rt.scheduleHash = hashSchedule(*rt.schedule);
        HashStream seedMix;
        seedMix.absorb(spec.seed).absorb(uint64_t{i}).absorb(t.seed);
        rt.taskSeed = seedMix.digest();
        rt.contentHash = taskContentHash(rt);
    }
    return resolved;
}

void
buildTaskArtifacts(ResolvedTask& rt, ArtifactCache& cache)
{
    const TaskSpec& t = *rt.spec;
    double latency = t.roundLatencyUs;
    if (t.compileLatency) {
        HashStream ch;
        ch.absorb(rt.codeHash)
            .absorb(rt.scheduleHash)
            .absorb(std::string(architectureName(t.architecture)))
            .absorb(uint64_t{t.swap == SwapKind::IonSwap ? 1u : 0u})
            .absorb(uint64_t{t.gridCapacity});
        rt.compiled = cache.getOrBuildCompile(ch.digest(), [&] {
            CodesignConfig config;
            config.architecture = t.architecture;
            config.ejf.swap = t.swap;
            config.cyclone.swap = t.swap;
            config.gridCapacity = t.gridCapacity;
            return compileCodesign(*rt.code, *rt.schedule, config);
        });
        latency = rt.compiled->execTimeUs;
    }
    latency *= t.latencyScale;
    rt.latencyUs = latency;

    // Schedule-derived per-qubit idle twirls: explicit ones win;
    // otherwise measure the compiled IR. Only PerQubitSchedule mode
    // consumes them — the twirls are part of the DEM identity, so
    // uniform-mode tasks must not carry unhashed ones into the
    // circuit.
    std::vector<PauliTwirl> perQubitIdle;
    if (t.idleNoise == IdleNoiseMode::PerQubitSchedule) {
        perQubitIdle = t.perQubitIdle;
        if (perQubitIdle.empty()) {
            if (!rt.compiled) {
                throw std::invalid_argument(
                    "per-qubit idle noise needs a compiled "
                    "architecture (or explicit perQubitIdle twirls)");
            }
            perQubitIdle = perQubitIdleFromSchedule(
                rt.compiled->schedule, rt.code->numQubits(),
                t.physicalError, t.latencyScale);
        }
    }

    HashStream dh;
    dh.absorb(rt.codeHash)
        .absorb(rt.scheduleHash)
        .absorb(t.physicalError)
        .absorb(latency)
        .absorb(uint64_t{rt.rounds})
        .absorb(uint64_t{t.xBasis ? 1u : 0u});
    if (t.idleNoise == IdleNoiseMode::PerQubitSchedule) {
        // The DEM now depends on the exact timeline, not just its
        // makespan: key on the IR's content hash (or the explicit
        // twirl values).
        dh.absorb(uint64_t{1});
        if (!t.perQubitIdle.empty()) {
            for (const PauliTwirl& twirl : perQubitIdle)
                dh.absorb(twirl.px)
                    .absorb(twirl.py)
                    .absorb(twirl.pz);
        } else {
            dh.absorb(hashTimedSchedule(rt.compiled->schedule));
            dh.absorb(t.latencyScale);
        }
    }
    rt.dem = cache.getOrBuildDem(dh.digest(), [&] {
        MemoryCircuitOptions opts;
        opts.rounds = rt.rounds;
        opts.perQubitIdle = perQubitIdle;
        opts.noise = latency > 0.0 && perQubitIdle.empty()
            ? NoiseModel::withLatency(t.physicalError, latency)
            : NoiseModel::uniform(t.physicalError);
        const Circuit circuit = t.xBasis
            ? buildXMemoryCircuit(*rt.code, *rt.schedule, opts)
            : buildZMemoryCircuit(*rt.code, *rt.schedule, opts);
        return buildDetectorErrorModel(circuit);
    });
}

void
setShotCounts(TaskResult& r, size_t failures, size_t shots)
{
    r.logicalErrorRate = estimateRate(failures, shots);
    r.wilson = wilsonHalfWidth(failures, shots);
    if (r.rounds > 0 && shots > 0) {
        const double ler =
            std::min(r.logicalErrorRate.rate, 1.0 - 1e-12);
        r.perRoundErrorRate =
            1.0 - std::pow(1.0 - ler, 1.0 / static_cast<double>(r.rounds));
    }
}

GroupResult
ChunkGroupRunner::run(const ChunkPlan* plans, size_t count)
{
    const double c0 = monotonicSeconds();
    const DetectorErrorModel& dem = *task_.dem;
    const int w = ThreadPool::workerIndex();
    std::unique_ptr<Worker>& worker =
        workers_[w >= 0 ? static_cast<size_t>(w) : 0];
    GroupResult g;
    BpOsdStats before;
    try {
        if (!worker) {
            worker = std::make_unique<Worker>(dem, task_.spec->bp);
            if (task_.spec->stream.enabled)
                worker->stream = std::make_unique<StreamDecoder>(
                    worker->decoder, dem.numDetectors,
                    streamOptionsFor(task_));
        }
        before = worker->decoder.stats();
        g.outcome = worker->stream
            ? runChunkGroupStreamed(dem, plans, count, *worker->stream,
                                    worker->batches)
            : runChunkGroup(dem, plans, count, worker->decoder,
                            worker->batches);
    } catch (const std::exception& ex) {
        g.error = ex.what();
    } catch (...) {
        g.error = "unknown sampling error";
    }
    if (worker) {
        const BpOsdStats& after = worker->decoder.stats();
        g.decoder.backend = after.backend;
        for (const auto& c : BpOsdStats::kCounters)
            g.decoder.*c.member = after.*c.member - before.*c.member;
    }
    g.seconds = monotonicSeconds() - c0;
    return g;
}

void
ChunkGroupRunner::mergeStreamStats(TaskResult& r) const
{
    for (const auto& worker : workers_) {
        if (worker && worker->stream) {
            r.streamed = true;
            r.stream.merge(worker->stream->stats());
        }
    }
    if (r.streamed)
        r.stream.computePercentiles();
}

WaveExecutor::WaveExecutor(const CampaignSpec& spec,
                           const CampaignCheckpoint* resume,
                           CampaignEngine::TaskCallback onTaskDone)
    : onTaskDone_(std::move(onTaskDone))
{
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    const size_t n = resolved.size();
    result.name = spec.name;
    result.seed = spec.seed;
    result.tasks.resize(n);
    tasks.resize(n);
    remaining = n;
    for (size_t i = 0; i < n; ++i) {
        tasks[i].rt = std::move(resolved[i]);
        const ResolvedTask& rt = tasks[i].rt;
        const TaskSpec& t = *rt.spec;
        TaskResult& r = result.tasks[i];
        r.id = !t.id.empty() ? t.id : "task" + std::to_string(i);
        r.codeName = !t.codeName.empty() ? t.codeName : rt.code->name();
        r.architecture = t.compileLatency
            ? architectureName(t.architecture)
            : "explicit";
        r.physicalError = t.physicalError;
        r.rounds = rt.rounds;
        r.xBasis = t.xBasis;
        r.contentHash = rt.contentHash;
        if (resume != nullptr && applyCheckpoint(r, *resume))
            complete(i);
    }
}

void
WaveExecutor::advance(size_t i)
{
    Task& st = tasks[i];
    if (!st.sampler && st.rt.dem && !st.failed)
        st.sampler.emplace(st.rt.spec->stop, st.rt.taskSeed);
    if (st.sampler && !st.failed) {
        const std::vector<ChunkPlan> wave = st.sampler->nextWave();
        if (!wave.empty()) {
            st.outstanding = dispatch(i, wave);
            return;
        }
    }
    finalize(i);
}

void
WaveExecutor::absorb(size_t i, const GroupResult& unit)
{
    Task& st = tasks[i];
    st.sampleSeconds += unit.seconds;
    result.tasks[i].decoder.merge(unit.decoder);
    --st.outstanding;
    if (!unit.error.empty()) {
        fail(i, unit.error);
        return;
    }
    st.sampler->absorb(unit.outcome);
    if (st.outstanding == 0)
        advance(i);
}

void
WaveExecutor::fail(size_t i, const std::string& error)
{
    if (result.tasks[i].error.empty())
        result.tasks[i].error = error;
    tasks[i].failed = true;
    if (tasks[i].outstanding == 0)
        finalize(i);
}

bool
WaveExecutor::restore(size_t i, const CampaignCheckpoint& journal)
{
    TaskResult& r = result.tasks[i];
    if (!tasks[i].rt.dem || !applyCheckpoint(r, journal))
        return false;
    // The journal holds exactly what finalize derived; the built
    // artifacts supply the compile metadata.
    fillResolvedMetadata(r, tasks[i].rt);
    r.fromCheckpoint = false;
    complete(i);
    return true;
}

void
WaveExecutor::finalize(size_t i)
{
    Task& st = tasks[i];
    TaskResult& r = result.tasks[i];
    if (st.sampler) {
        setShotCounts(r, st.sampler->failures(), st.sampler->shots());
        r.chunks = st.sampler->chunksPlanned();
        r.stoppedEarly = st.sampler->stoppedEarly();
    }
    fillResolvedMetadata(r, st.rt);
    r.sampleSeconds = st.sampleSeconds;
    if (st.runner)
        st.runner->mergeStreamStats(r);
    complete(i);
    if (onFinalized)
        onFinalized(i);
}

void
WaveExecutor::complete(size_t i)
{
    tasks[i].finished = true;
    --remaining;
    if (onTaskDone_)
        onTaskDone_(result.tasks[i]);
}

CampaignEngine::CampaignEngine(ThreadPool& pool, ArtifactCache& cache)
    : pool_(pool), cache_(cache)
{}

CampaignResult
CampaignEngine::run(const CampaignSpec& spec,
                    const CampaignCheckpoint* resume,
                    const TaskCallback& onTaskDone)
{
    const double t0 = monotonicSeconds();
    const CacheStats before = cache_.stats();
    // Resolves identities up front on the coordinator: cheap, and bad
    // specs fail before any job launches.
    WaveExecutor ex(spec, resume, onTaskDone);
    // Pool jobs report (task, result): a build (its error, if any),
    // or one staging group.
    CompletionQueue<std::pair<size_t, GroupResult>> events;

    // Cross-chunk syndrome staging: one decode job per group of
    // `stagingChunks` consecutive plans. Group boundaries depend only
    // on the wave's chunk indices — never on worker count or
    // completion order — so every decoder statistic stays
    // deterministic.
    ex.dispatch = [&](size_t i, const std::vector<ChunkPlan>& wave) {
        WaveExecutor::Task& st = ex.tasks[i];
        if (!st.runner)
            st.runner =
                std::make_unique<ChunkGroupRunner>(st.rt, pool_.size());
        size_t jobs = 0;
        forEachStagingGroup(
            st.rt.spec->stop, wave.size(), [&](size_t g, size_t count) {
                ++jobs;
                pool_.submit([&events, i, runner = st.runner.get(),
                              plans = std::vector<ChunkPlan>(
                                  wave.begin() + g,
                                  wave.begin() + g + count)] {
                    events.push(
                        {i, runner->run(plans.data(), plans.size())});
                });
            });
        return jobs;
    };

    // Every task not restored from the checkpoint gets a build job
    // (compile + DEM through the shared cache).
    for (size_t i = 0; i < ex.tasks.size(); ++i) {
        if (ex.tasks[i].finished)
            continue;
        pool_.submit([this, &events, &rt = ex.tasks[i].rt, i] {
            GroupResult built;
            try {
                buildTaskArtifacts(rt, cache_);
            } catch (const std::exception& err) {
                built.error = err.what();
            } catch (...) {
                built.error = "unknown build error";
            }
            events.push({i, std::move(built)});
        });
    }

    while (ex.remaining > 0) {
        const auto [i, unit] = events.pop();
        if (ex.tasks[i].sampler) // sampling: one of its groups is done
            ex.absorb(i, unit);
        else if (!unit.error.empty()) // its build failed
            ex.fail(i, unit.error);
        else // built: plan the first wave
            ex.advance(i);
    }

    CampaignResult result = std::move(ex.result);
    const CacheStats after = cache_.stats();
    for (const auto& c : CacheStats::kCounters)
        result.cache.*c.member = after.*c.member - before.*c.member;
    result.wallSeconds = monotonicSeconds() - t0;
    return result;
}

CampaignResult
runCampaign(const CampaignSpec& spec, const CampaignCheckpoint* resume,
            const CampaignEngine::TaskCallback& onTaskDone)
{
    ThreadPool pool(spec.threads);
    ArtifactCache cache;
    CampaignEngine engine(pool, cache);
    return engine.run(spec, resume, onTaskDone);
}

} // namespace cyclone
