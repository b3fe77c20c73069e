/**
 * @file
 * Tests for the campaign engine: thread pool, deterministic adaptive
 * sampling, artifact-cache accounting, serialization, checkpoints,
 * and the spec-file format.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/campaign_io.h"
#include "campaign/thread_pool.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"

namespace cyclone {
namespace {

std::shared_ptr<const CssCode>
surface13()
{
    return std::make_shared<const CssCode>(
        makeHgpCode(ClassicalCode::repetition(3), 3));
}

TaskSpec
surfaceTask(double p, size_t max_shots, double target_rel_err = 0.0)
{
    TaskSpec task;
    task.code = surface13();
    task.compileLatency = false;
    task.physicalError = p;
    task.rounds = 3;
    task.stop.chunkShots = 100;
    task.stop.chunksPerWave = 2;
    task.stop.maxShots = max_shots;
    task.stop.targetRelErr = target_rel_err;
    return task;
}

TEST(ThreadPool, RunsEverySubmittedJob)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
        EXPECT_EQ(ThreadPool::workerIndex(), -1);
        for (int i = 0; i < 500; ++i)
            pool.submit([&] { ++count; });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 500);
        // Jobs submitted from workers land on the submitter's deque.
        pool.submit([&] {
            EXPECT_GE(ThreadPool::workerIndex(), 0);
            pool.submit([&] { ++count; });
        });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 501);
    }
}

TEST(Campaign, FixedBudgetRunsExactly)
{
    CampaignSpec spec;
    spec.seed = 11;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.02, 500));
    const CampaignResult result = runCampaign(spec);
    ASSERT_EQ(result.tasks.size(), 1u);
    const TaskResult& t = result.tasks[0];
    EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_EQ(t.logicalErrorRate.trials, 500u);
    EXPECT_EQ(t.decoder.decodes, 500u);
    EXPECT_FALSE(t.stoppedEarly);
    EXPECT_EQ(t.rounds, 3u);
    EXPECT_GT(t.demDetectors, 0u);
}

TEST(Campaign, DeterministicAcrossThreadCounts)
{
    CampaignSpec spec;
    spec.seed = 99;
    for (double p : {0.01, 0.03, 0.08})
        spec.tasks.push_back(surfaceTask(p, 600, 0.25));

    spec.threads = 1;
    const CampaignResult one = runCampaign(spec);
    spec.threads = 4;
    const CampaignResult four = runCampaign(spec);

    ASSERT_EQ(one.tasks.size(), four.tasks.size());
    for (size_t i = 0; i < one.tasks.size(); ++i) {
        EXPECT_EQ(one.tasks[i].logicalErrorRate.trials,
                  four.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].logicalErrorRate.successes,
                  four.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].chunks, four.tasks[i].chunks);
        // Decoder totals are sums over chunks, so they match too —
        // including the batch-pipeline counters (the memo is scoped
        // per chunk, never per worker).
        EXPECT_EQ(one.tasks[i].decoder.decodes,
                  four.tasks[i].decoder.decodes);
        EXPECT_EQ(one.tasks[i].decoder.bpConverged,
                  four.tasks[i].decoder.bpConverged);
        EXPECT_EQ(one.tasks[i].decoder.trivialShots,
                  four.tasks[i].decoder.trivialShots);
        EXPECT_EQ(one.tasks[i].decoder.memoHits,
                  four.tasks[i].decoder.memoHits);
        EXPECT_EQ(one.tasks[i].decoder.bpIterations,
                  four.tasks[i].decoder.bpIterations);
    }
}

TEST(Campaign, StagedPoolingIsDeterministicAndBitExact)
{
    // Pooling several chunks into one staged decode group is a pure
    // perf knob: staged groups are contiguous chunk-index slices of a
    // wave, so the estimate and every decoder counter must match at
    // any thread count — and the estimate must equal the unstaged
    // run's exactly (staging never changes a prediction).
    CampaignSpec unstaged;
    unstaged.seed = 99;
    unstaged.threads = 2;
    for (double p : {0.01, 0.03, 0.08})
        unstaged.tasks.push_back(surfaceTask(p, 600, 0.25));
    for (TaskSpec& t : unstaged.tasks)
        t.stop.chunksPerWave = 4;
    const CampaignResult plain = runCampaign(unstaged);

    CampaignSpec staged = unstaged;
    for (TaskSpec& t : staged.tasks)
        t.stop.stagingChunks = 2;
    staged.threads = 1;
    const CampaignResult one = runCampaign(staged);
    staged.threads = 4;
    const CampaignResult four = runCampaign(staged);

    ASSERT_EQ(one.tasks.size(), plain.tasks.size());
    for (size_t i = 0; i < one.tasks.size(); ++i) {
        // Staged vs unstaged: identical physics.
        EXPECT_EQ(one.tasks[i].logicalErrorRate.trials,
                  plain.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].logicalErrorRate.successes,
                  plain.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(plain.tasks[i].decoder.stagedChunks, 0u);
        EXPECT_GT(one.tasks[i].decoder.stagedChunks, 0u);

        // Staged at one thread vs staged at four: identical, down to
        // the memo counters (groups are sliced by chunk index, never
        // by worker).
        EXPECT_EQ(one.tasks[i].logicalErrorRate.trials,
                  four.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].logicalErrorRate.successes,
                  four.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].decoder.decodes,
                  four.tasks[i].decoder.decodes);
        EXPECT_EQ(one.tasks[i].decoder.memoHits,
                  four.tasks[i].decoder.memoHits);
        EXPECT_EQ(one.tasks[i].decoder.bpIterations,
                  four.tasks[i].decoder.bpIterations);
        EXPECT_EQ(one.tasks[i].decoder.stagedChunks,
                  four.tasks[i].decoder.stagedChunks);
        EXPECT_EQ(one.tasks[i].decoder.backend,
                  four.tasks[i].decoder.backend);
        EXPECT_FALSE(one.tasks[i].decoder.backend.empty());
    }
}

TEST(Campaign, EarlyStopHonorsRelativeErrorTarget)
{
    const double target = 0.25;
    CampaignSpec spec;
    spec.seed = 5;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.08, 50000, target));
    const CampaignResult result = runCampaign(spec);
    const TaskResult& t = result.tasks[0];
    EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_TRUE(t.stoppedEarly);
    EXPECT_LT(t.logicalErrorRate.trials, 50000u);
    EXPECT_GE(t.logicalErrorRate.successes, 8u);
    EXPECT_LE(t.wilson, target * t.logicalErrorRate.rate + 1e-12);
}

TEST(Campaign, AdaptiveUsesFewerShotsThanFixedAtEqualWidth)
{
    // Fig. 5-style sweep: several points of very different difficulty.
    // The fixed-budget baseline must give every point the budget the
    // hardest point needs; adaptive stops each point at its own
    // convergence, so the sweep total shrinks at equal CI target.
    const double target = 0.2;
    CampaignSpec adaptive;
    adaptive.seed = 42;
    adaptive.threads = 2;
    for (double p : {0.02, 0.05, 0.12})
        adaptive.tasks.push_back(surfaceTask(p, 30000, target));
    const CampaignResult a = runCampaign(adaptive);

    size_t hardest = 0;
    for (const TaskResult& t : a.tasks) {
        EXPECT_TRUE(t.error.empty()) << t.error;
        EXPECT_TRUE(t.stoppedEarly);
        EXPECT_LE(t.wilson, target * t.logicalErrorRate.rate + 1e-12);
        hardest = std::max(hardest, t.logicalErrorRate.trials);
    }

    CampaignSpec fixed = adaptive;
    for (TaskSpec& t : fixed.tasks) {
        t.stop.maxShots = hardest;
        t.stop.targetRelErr = 0.0;
    }
    const CampaignResult f = runCampaign(fixed);
    EXPECT_EQ(f.totalShots(), hardest * fixed.tasks.size());
    EXPECT_LT(a.totalShots(), f.totalShots());

    // The point that needed the full budget replays the same chunk
    // streams in the fixed run: identical estimate, not just close.
    for (size_t i = 0; i < a.tasks.size(); ++i) {
        if (a.tasks[i].logicalErrorRate.trials == hardest)
            EXPECT_EQ(a.tasks[i].logicalErrorRate.successes,
                      f.tasks[i].logicalErrorRate.successes);
    }
}

TEST(Campaign, CacheAccounting)
{
    // Tasks A and B are identical points; C differs only in p. All
    // three share one architecture compile; A and B share a DEM.
    CampaignSpec spec;
    spec.seed = 3;
    spec.threads = 2;
    auto code = surface13();
    for (double p : {0.02, 0.02, 0.05}) {
        TaskSpec task;
        task.code = code;
        task.architecture = Architecture::BaselineGrid;
        task.compileLatency = true;
        task.physicalError = p;
        task.rounds = 2;
        task.stop.maxShots = 100;
        spec.tasks.push_back(std::move(task));
    }
    const CampaignResult result = runCampaign(spec);
    for (const TaskResult& t : result.tasks) {
        EXPECT_TRUE(t.error.empty()) << t.error;
        EXPECT_GT(t.roundLatencyUs, 0.0);
    }
    EXPECT_EQ(result.cache.compileMisses, 1u);
    EXPECT_EQ(result.cache.compileHits, 2u);
    EXPECT_EQ(result.cache.demMisses, 2u);
    EXPECT_EQ(result.cache.demHits, 1u);
    // Identical tasks get distinct seeds, not identical streams.
    EXPECT_NE(result.tasks[0].contentHash, result.tasks[1].contentHash);
}

TEST(Campaign, JsonAndCsvOutputs)
{
    CampaignSpec spec;
    spec.name = "io-check";
    spec.seed = 8;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.05, 200));
    spec.tasks.back().id = "point-a";
    const CampaignResult result = runCampaign(spec);

    const std::string json = campaignResultToJson(result);
    EXPECT_NE(json.find("\"campaign\": \"io-check\""), std::string::npos);
    EXPECT_NE(json.find("\"id\": \"point-a\""), std::string::npos);
    EXPECT_NE(json.find("\"shots\": 200"), std::string::npos);
    EXPECT_NE(json.find("\"trivial_fraction\""), std::string::npos);
    EXPECT_NE(json.find("\"memo_hit_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"mean_bp_iterations\""), std::string::npos);
    EXPECT_NE(json.find("\"staged_chunks\""), std::string::npos);
    EXPECT_NE(json.find("\"backend\": \""), std::string::npos);
    EXPECT_EQ(json.find("\"error\""), std::string::npos);
    // Cache byte/store accounting and spool stats are part of the
    // document even for purely local runs (zeros, but present).
    EXPECT_NE(json.find("\"compile_store_hits\""), std::string::npos);
    EXPECT_NE(json.find("\"compile_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"dem_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"spool\": {\"shards_published\": 0"),
              std::string::npos);

    const std::string csv = campaignResultToCsv(result);
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + result.tasks.size());
    EXPECT_NE(csv.find("point-a"), std::string::npos);
    EXPECT_NE(csv.find("staged_chunks,backend,"), std::string::npos);
    // Counters without an inline column follow `error`, in table
    // order.
    EXPECT_NE(csv.find(",error,decodes,bp_converged,osd_invocations,"),
              std::string::npos);
}

TEST(Campaign, CheckpointRoundtrip)
{
    const std::string path = "test_campaign_checkpoint.tmp";
    CampaignSpec spec;
    spec.seed = 21;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.03, 300));
    spec.tasks.push_back(surfaceTask(0.06, 300));

    const CampaignResult first = runCampaign(spec);
    ASSERT_TRUE(saveCheckpoint(first, path));

    CampaignCheckpoint checkpoint;
    ASSERT_TRUE(loadCheckpoint(path, checkpoint));
    EXPECT_EQ(checkpoint.tasks.size(), 2u);

    const CampaignResult resumed = runCampaign(spec, &checkpoint);
    for (size_t i = 0; i < resumed.tasks.size(); ++i) {
        EXPECT_TRUE(resumed.tasks[i].fromCheckpoint);
        EXPECT_EQ(resumed.tasks[i].logicalErrorRate.successes,
                  first.tasks[i].logicalErrorRate.successes);
        EXPECT_EQ(resumed.tasks[i].logicalErrorRate.trials,
                  first.tasks[i].logicalErrorRate.trials);
        EXPECT_EQ(resumed.tasks[i].logicalErrorRate.rate,
                  first.tasks[i].logicalErrorRate.rate);
        EXPECT_EQ(resumed.tasks[i].wilson, first.tasks[i].wilson);
        EXPECT_EQ(resumed.tasks[i].perRoundErrorRate,
                  first.tasks[i].perRoundErrorRate);
        EXPECT_EQ(resumed.tasks[i].sampleSeconds,
                  first.tasks[i].sampleSeconds);
        for (const auto& c : BpOsdStats::kCounters)
            EXPECT_EQ(resumed.tasks[i].decoder.*c.member,
                      first.tasks[i].decoder.*c.member)
                << c.name;
        // The backend that ran the shots rides the checkpoint too.
        EXPECT_FALSE(resumed.tasks[i].decoder.backend.empty());
        EXPECT_EQ(resumed.tasks[i].decoder.backend,
                  first.tasks[i].decoder.backend);
    }
    // Nothing re-sampled, so the caches never got touched.
    EXPECT_EQ(resumed.cache.demMisses, 0u);
    EXPECT_EQ(resumed.totalShots(), first.totalShots());

    // Changing a task's definition invalidates only that task.
    CampaignSpec edited = spec;
    edited.tasks[1].physicalError = 0.07;
    const CampaignResult partial = runCampaign(edited, &checkpoint);
    EXPECT_TRUE(partial.tasks[0].fromCheckpoint);
    EXPECT_FALSE(partial.tasks[1].fromCheckpoint);

    // The staging knob is a perf knob, not physics: changing it must
    // not invalidate checkpointed results.
    CampaignSpec restaged = spec;
    for (TaskSpec& t : restaged.tasks)
        t.stop.stagingChunks = 3;
    const CampaignResult reused = runCampaign(restaged, &checkpoint);
    EXPECT_TRUE(reused.tasks[0].fromCheckpoint);
    EXPECT_TRUE(reused.tasks[1].fromCheckpoint);

    std::remove(path.c_str());
}

TEST(Campaign, SpecParsingExpandsSweeps)
{
    const char* text = R"(
name = sweep
seed = 123
threads = 2

[task]
id = pt
code = bb72
arch = cyclone, baseline
p = 1e-3, 2e-3, 4e-3
max_shots = 50
target_rel_err = 0.1
staging_chunks = 4

[task]
code = surface3
arch = none
latency_us = 100
p = 5e-3
)";
    const CampaignSpec spec = parseCampaignSpec(text);
    EXPECT_EQ(spec.name, "sweep");
    EXPECT_EQ(spec.seed, 123u);
    EXPECT_EQ(spec.threads, 2u);
    ASSERT_EQ(spec.tasks.size(), 7u);
    EXPECT_EQ(spec.tasks[0].id, "pt/cyclone/p=0.001");
    EXPECT_EQ(spec.tasks[0].architecture, Architecture::Cyclone);
    EXPECT_TRUE(spec.tasks[0].compileLatency);
    EXPECT_EQ(spec.tasks[3].architecture, Architecture::BaselineGrid);
    EXPECT_DOUBLE_EQ(spec.tasks[4].physicalError, 2e-3);
    EXPECT_EQ(spec.tasks[0].stop.maxShots, 50u);
    EXPECT_DOUBLE_EQ(spec.tasks[0].stop.targetRelErr, 0.1);
    EXPECT_EQ(spec.tasks[0].stop.stagingChunks, 4u);
    const TaskSpec& explicitTask = spec.tasks[6];
    EXPECT_FALSE(explicitTask.compileLatency);
    EXPECT_DOUBLE_EQ(explicitTask.roundLatencyUs, 100.0);
    EXPECT_EQ(explicitTask.codeName, "surface3");
    EXPECT_EQ(explicitTask.stop.stagingChunks, 1u);

    EXPECT_THROW(parseCampaignSpec("[task]\narch = warp\ncode = bb72\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec(
                     "[task]\ncode = bb72\nstaging_chunks = 0\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec(
                     "[task]\ncode = bb72\nstaging_chunks = -2\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec("nonsense\n"), std::runtime_error);
    EXPECT_THROW(parseCampaignSpec(""), std::runtime_error);
}

TEST(Campaign, SpecParsesSwapCapacityAndIdleNoiseKeys)
{
    const char* text = R"(
[task]
code = bb72
arch = cyclone
swap = ion
grid-capacity = 7
idle_noise = per-qubit
max_shots = 10
)";
    const CampaignSpec spec = parseCampaignSpec(text);
    ASSERT_EQ(spec.tasks.size(), 1u);
    EXPECT_EQ(spec.tasks[0].swap, SwapKind::IonSwap);
    EXPECT_EQ(spec.tasks[0].gridCapacity, 7u);
    EXPECT_EQ(spec.tasks[0].idleNoise, IdleNoiseMode::PerQubitSchedule);

    // Underscore alias and defaults.
    const CampaignSpec alias = parseCampaignSpec(
        "[task]\ncode = bb72\nswap = gate\ngrid_capacity = 3\n"
        "idle_noise = uniform\n");
    EXPECT_EQ(alias.tasks[0].swap, SwapKind::GateSwap);
    EXPECT_EQ(alias.tasks[0].gridCapacity, 3u);
    EXPECT_EQ(alias.tasks[0].idleNoise, IdleNoiseMode::UniformLatency);

    EXPECT_THROW(parseCampaignSpec("[task]\ncode = bb72\nswap = warp\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parseCampaignSpec("[task]\ncode = bb72\ngrid-capacity = 0\n"),
        std::runtime_error);
    // stoull would silently wrap a negative value; it must throw.
    EXPECT_THROW(
        parseCampaignSpec("[task]\ncode = bb72\ngrid-capacity = -3\n"),
        std::runtime_error);
    EXPECT_THROW(
        parseCampaignSpec("[task]\ncode = bb72\nidle_noise = maybe\n"),
        std::runtime_error);
}

TEST(Campaign, SwapAndCapacityReachTheCompiler)
{
    // Fig. 13 / Fig. 21 mechanics from spec keys alone: capacity and
    // swap kind change the compiled latency, and distinct settings get
    // distinct compile-cache entries.
    CampaignSpec spec;
    spec.seed = 31;
    spec.threads = 2;
    auto code = surface13();
    for (size_t capacity : {size_t(3), size_t(5)}) {
        TaskSpec task;
        task.code = code;
        task.architecture = Architecture::BaselineGrid;
        task.compileLatency = true;
        task.gridCapacity = capacity;
        task.physicalError = 0.02;
        task.rounds = 2;
        task.stop.maxShots = 100;
        spec.tasks.push_back(std::move(task));
    }
    for (SwapKind swap : {SwapKind::GateSwap, SwapKind::IonSwap}) {
        TaskSpec task;
        task.code = code;
        task.architecture = Architecture::Cyclone;
        task.compileLatency = true;
        task.swap = swap;
        task.physicalError = 0.02;
        task.rounds = 2;
        task.stop.maxShots = 100;
        spec.tasks.push_back(std::move(task));
    }
    const CampaignResult result = runCampaign(spec);
    for (const TaskResult& t : result.tasks)
        EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_NE(result.tasks[0].roundLatencyUs,
              result.tasks[1].roundLatencyUs);
    EXPECT_NE(result.tasks[2].roundLatencyUs,
              result.tasks[3].roundLatencyUs);
    // Four distinct (arch, swap, capacity) points: no compile sharing.
    EXPECT_EQ(result.cache.compileMisses, 4u);
    // The compile profile surfaces per task.
    EXPECT_GT(result.tasks[0].compileMakespanUs, 0.0);
    EXPECT_GT(result.tasks[0].compileBreakdown.total(), 0.0);
    EXPECT_GT(result.tasks[0].compileParallelFraction, 0.0);
}

TEST(Campaign, PerQubitIdleRunsEndToEndFromSpecText)
{
    // The acceptance path: compile -> IR -> per-qubit twirls -> DEM ->
    // decode, selected from the INI.
    const char* text = R"(
name = per-qubit-e2e
seed = 13
threads = 2

[task]
code = surface3
arch = cyclone
idle_noise = per-qubit
p = 5e-3
rounds = 3
max_shots = 200
chunk_shots = 100
)";
    const CampaignResult result = runCampaign(parseCampaignSpec(text));
    ASSERT_EQ(result.tasks.size(), 1u);
    const TaskResult& t = result.tasks[0];
    EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_EQ(t.logicalErrorRate.trials, 200u);
    EXPECT_GT(t.roundLatencyUs, 0.0);
    EXPECT_GT(t.demMechanisms, 0u);
    EXPECT_EQ(t.decoder.decodes, 200u);
}

TEST(Campaign, PerQubitIdleWithoutCompileFails)
{
    CampaignSpec spec;
    spec.threads = 1;
    TaskSpec task = surfaceTask(0.02, 100);
    task.idleNoise = IdleNoiseMode::PerQubitSchedule;
    spec.tasks.push_back(std::move(task));
    const CampaignResult result = runCampaign(spec);
    ASSERT_EQ(result.tasks.size(), 1u);
    EXPECT_FALSE(result.tasks[0].error.empty());
    EXPECT_NE(result.tasks[0].error.find("per-qubit"),
              std::string::npos);
}

TEST(Campaign, PerQubitIdleDegeneratesToUniformOnEqualWindows)
{
    // Identical idle windows must reproduce the uniform-latency model
    // exactly: same DEM, same chunk streams, same counts.
    const double latency = 60000.0;
    const double p = 0.004;
    auto code = surface13();

    CampaignSpec uniform;
    uniform.seed = 77;
    uniform.threads = 2;
    {
        TaskSpec task;
        task.code = code;
        task.compileLatency = false;
        task.roundLatencyUs = latency;
        task.physicalError = p;
        task.rounds = 3;
        task.stop.maxShots = 400;
        task.stop.chunkShots = 100;
        uniform.tasks.push_back(std::move(task));
    }

    CampaignSpec perQubit = uniform;
    {
        TaskSpec& task = perQubit.tasks[0];
        task.idleNoise = IdleNoiseMode::PerQubitSchedule;
        const double t_coh = coherenceTimeSeconds(p);
        task.perQubitIdle.assign(
            code->numQubits(), twirlDecoherence(latency, t_coh, t_coh));
    }

    const CampaignResult a = runCampaign(uniform);
    const CampaignResult b = runCampaign(perQubit);
    ASSERT_TRUE(a.tasks[0].error.empty()) << a.tasks[0].error;
    ASSERT_TRUE(b.tasks[0].error.empty()) << b.tasks[0].error;
    EXPECT_EQ(a.tasks[0].demMechanisms, b.tasks[0].demMechanisms);
    EXPECT_EQ(a.tasks[0].logicalErrorRate.trials,
              b.tasks[0].logicalErrorRate.trials);
    EXPECT_EQ(a.tasks[0].logicalErrorRate.successes,
              b.tasks[0].logicalErrorRate.successes);
    EXPECT_EQ(a.tasks[0].decoder.bpIterations,
              b.tasks[0].decoder.bpIterations);
}

TEST(Campaign, ResolvesSurfaceCodeNames)
{
    const CssCode code = resolveCampaignCode("surface3");
    EXPECT_EQ(code.numQubits(), 13u);
    EXPECT_THROW(resolveCampaignCode("surfaceX"), std::exception);
    EXPECT_THROW(resolveCampaignCode("nope"), std::exception);
}

TEST(Campaign, BadSpecsThrowBeforeAnyWorkLaunches)
{
    CampaignSpec spec;
    spec.tasks.push_back(surfaceTask(0.02, 50));
    spec.tasks[0].code = nullptr;
    spec.tasks[0].codeName = "";
    EXPECT_THROW(runCampaign(spec), std::invalid_argument);
    spec.tasks[0].codeName = "not-a-code";
    EXPECT_THROW(runCampaign(spec), std::exception);
}

TEST(Campaign, SpecParsesSpoolAndShardKeys)
{
    const CampaignSpec spec = parseCampaignSpec(
        "name = dist\n"
        "spool = /tmp/my-spool\n"
        "workers = 3\n"
        "lease_seconds = 12.5\n"
        "[task]\n"
        "code = surface3\n"
        "shard_chunks = 8\n");
    EXPECT_EQ(spec.spool, "/tmp/my-spool");
    EXPECT_EQ(spec.workers, 3u);
    EXPECT_EQ(spec.leaseSeconds, 12.5);
    ASSERT_EQ(spec.tasks.size(), 1u);
    EXPECT_EQ(spec.tasks[0].stop.shardChunks, 8u);

    EXPECT_THROW(parseCampaignSpec("name = x\nlease_seconds = 0\n"
                                   "[task]\ncode = surface3\n"),
                 std::runtime_error);
}

TEST(Campaign, ShardChunksIsAPerfKnobNotAnIdentity)
{
    // Like staging_chunks, shard_chunks only changes how distributed
    // waves are sliced — never which results come out — so it must
    // not perturb the task content hash that keys checkpoints.
    CampaignSpec a;
    a.tasks.push_back(surfaceTask(0.02, 100));
    CampaignSpec b = a;
    b.tasks[0].stop.shardChunks = 16;
    const uint64_t ha = resolveTaskIdentities(a)[0].contentHash;
    const uint64_t hb = resolveTaskIdentities(b)[0].contentHash;
    EXPECT_EQ(ha, hb);
}

TEST(Campaign, SpecRejectsUnknownKeysWithLineNumbers)
{
    // New campaign/task keys must never be silently ignored: a typo'd
    // "spool" or "shard_chunks" would otherwise quietly run the whole
    // sweep in the wrong mode.
    try {
        parseCampaignSpec("name = x\nspoool = /tmp/z\n"
                          "[task]\ncode = surface3\n");
        FAIL() << "expected unknown-key error";
    } catch (const std::runtime_error& ex) {
        EXPECT_NE(std::string(ex.what()).find("line 2"),
                  std::string::npos)
            << ex.what();
        EXPECT_NE(std::string(ex.what()).find("spoool"),
                  std::string::npos)
            << ex.what();
    }
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "shard_chunk = 4\n");
        FAIL() << "expected unknown-key error";
    } catch (const std::runtime_error& ex) {
        EXPECT_NE(std::string(ex.what()).find("line 4"),
                  std::string::npos)
            << ex.what();
    }
}

TEST(Campaign, SpecBpKeyAcceptsOnlyMinSum)
{
    // Min-sum is the only BP variant: any other value — including the
    // retired "productsum" — must fail at its own line, never fall
    // back silently to a different decoder.
    const std::pair<const char*, const char*> bad[] = {
        {"name = x\n[task]\ncode = surface3\nbp = productsum\n",
         "line 4"},
        {"name = x\n[task]\ncode = surface3\np = 1e-2\nbp = bogus\n",
         "line 5"},
    };
    for (const auto& [text, line] : bad) {
        try {
            parseCampaignSpec(text);
            FAIL() << "expected bp error for: " << text;
        } catch (const std::runtime_error& ex) {
            const std::string what = ex.what();
            EXPECT_NE(what.find(line), std::string::npos) << what;
            EXPECT_NE(what.find("bp"), std::string::npos) << what;
        }
    }

    // "bp = minsum" names the default: the task identity (and so its
    // checkpoint key) is the one a spec without the key gets.
    const CampaignSpec named = parseCampaignSpec(
        "name = x\n[task]\ncode = surface3\np = 1e-2\nbp = minsum\n");
    const CampaignSpec plain = parseCampaignSpec(
        "name = x\n[task]\ncode = surface3\np = 1e-2\n");
    ASSERT_EQ(named.tasks.size(), 1u);
    EXPECT_EQ(named.tasks[0].bp.variant, BpOptions::Variant::MinSum);
    EXPECT_EQ(resolveTaskIdentities(named)[0].contentHash,
              resolveTaskIdentities(plain)[0].contentHash);
}

TEST(Campaign, SpecParsesStreamingKeys)
{
    const CampaignSpec spec = parseCampaignSpec(
        "name = serve\n"
        "[task]\n"
        "code = surface3\n"
        "streaming = on\n"
        "streams = 12\n"
        "stream_flush = deadline\n"
        "stream_deadline_us = 250\n"
        "stream_flush_after_us = 80\n");
    ASSERT_EQ(spec.tasks.size(), 1u);
    const StreamSpec& s = spec.tasks[0].stream;
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.streams, 12u);
    EXPECT_TRUE(s.deadlineFlush);
    EXPECT_DOUBLE_EQ(s.deadlineUs, 250.0);
    EXPECT_DOUBLE_EQ(s.flushAfterUs, 80.0);

    // Defaults: off, full-wave, auto deadline.
    const CampaignSpec plain =
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n");
    EXPECT_FALSE(plain.tasks[0].stream.enabled);
    EXPECT_FALSE(plain.tasks[0].stream.deadlineFlush);
    EXPECT_DOUBLE_EQ(plain.tasks[0].stream.deadlineUs, 0.0);

    EXPECT_THROW(parseCampaignSpec("name = x\n[task]\n"
                                   "code = surface3\nstreaming = up\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec("name = x\n[task]\n"
                                   "code = surface3\nstreams = 0\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec("name = x\n[task]\n"
                                   "code = surface3\n"
                                   "stream_flush = sometimes\n"),
                 std::runtime_error);
}

TEST(Campaign, StreamingIsAServingKnobNotAnIdentity)
{
    // Streaming changes how shots are served, never what comes out:
    // the content hash that keys checkpoints must ignore it.
    CampaignSpec a;
    a.tasks.push_back(surfaceTask(0.02, 100));
    CampaignSpec b = a;
    b.tasks[0].stream.enabled = true;
    b.tasks[0].stream.streams = 16;
    b.tasks[0].stream.deadlineFlush = true;
    const uint64_t ha = resolveTaskIdentities(a)[0].contentHash;
    const uint64_t hb = resolveTaskIdentities(b)[0].contentHash;
    EXPECT_EQ(ha, hb);
}

TEST(Campaign, StreamedCampaignBitIdenticalToOffline)
{
    // The whole engine path: a streamed run must produce exactly the
    // offline run's shot/failure counts at any stream count — the
    // end-to-end form of the decoder-level bit-identity guarantee —
    // while reporting streaming telemetry.
    CampaignSpec offline;
    offline.seed = 31;
    offline.threads = 2;
    offline.tasks.push_back(surfaceTask(0.03, 400));
    offline.tasks.push_back(surfaceTask(0.06, 400, 0.25));
    // A real round period, so the auto deadline (rounds x latency)
    // is meaningful. Set in both specs: it feeds the idle-noise
    // model, and the comparison needs identical physics.
    for (TaskSpec& t : offline.tasks)
        t.roundLatencyUs = 12.0;
    const CampaignResult want = runCampaign(offline);

    CampaignSpec streamed = offline;
    for (TaskSpec& t : streamed.tasks) {
        t.stream.enabled = true;
        t.stream.streams = 5;
        t.stop.stagingChunks = 2;
    }
    const CampaignResult got = runCampaign(streamed);

    ASSERT_EQ(got.tasks.size(), want.tasks.size());
    for (size_t i = 0; i < got.tasks.size(); ++i) {
        EXPECT_TRUE(got.tasks[i].error.empty()) << got.tasks[i].error;
        EXPECT_EQ(got.tasks[i].logicalErrorRate.trials,
                  want.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(got.tasks[i].logicalErrorRate.successes,
                  want.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(got.tasks[i].chunks, want.tasks[i].chunks);
        EXPECT_EQ(got.tasks[i].stoppedEarly, want.tasks[i].stoppedEarly);

        EXPECT_FALSE(want.tasks[i].streamed);
        EXPECT_TRUE(got.tasks[i].streamed);
        const StreamDecodeStats& s = got.tasks[i].stream;
        EXPECT_EQ(s.windows, got.tasks[i].logicalErrorRate.trials);
        EXPECT_GT(s.roundsPushed, s.windows);
        EXPECT_GT(s.slabSlots, 0u);
        EXPECT_GT(s.slabFilled, 0u);
        EXPECT_GT(s.deadlineUs, 0.0)
            << "deadline must default to the window period";
        EXPECT_GT(s.p50Us, 0.0);
        EXPECT_GE(s.p99Us, s.p50Us);
        EXPECT_GE(s.p999Us, s.p99Us);
        EXPECT_GE(s.latencyMaxUs, s.p999Us * 0.8);
    }

    // And streamed results are thread-count independent too.
    streamed.threads = 4;
    const CampaignResult wide = runCampaign(streamed);
    for (size_t i = 0; i < wide.tasks.size(); ++i) {
        EXPECT_EQ(wide.tasks[i].logicalErrorRate.successes,
                  got.tasks[i].logicalErrorRate.successes);
        EXPECT_EQ(wide.tasks[i].stream.windows,
                  got.tasks[i].stream.windows);
    }
}

TEST(Campaign, StreamedTaskSurvivesCheckpointRoundtrip)
{
    const std::string path = "test_campaign_stream_checkpoint.tmp";
    CampaignSpec spec;
    spec.seed = 77;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.04, 300));
    spec.tasks[0].stream.enabled = true;
    spec.tasks[0].stream.streams = 4;

    const CampaignResult first = runCampaign(spec);
    ASSERT_TRUE(first.tasks[0].streamed);
    ASSERT_TRUE(saveCheckpoint(first, path));

    CampaignCheckpoint checkpoint;
    ASSERT_TRUE(loadCheckpoint(path, checkpoint));
    const CampaignResult resumed = runCampaign(spec, &checkpoint);
    std::remove(path.c_str());

    ASSERT_EQ(resumed.tasks.size(), 1u);
    const TaskResult& t = resumed.tasks[0];
    EXPECT_TRUE(t.fromCheckpoint);
    EXPECT_TRUE(t.streamed);
    EXPECT_EQ(t.stream.windows, first.tasks[0].stream.windows);
    EXPECT_EQ(t.stream.deadlineMisses,
              first.tasks[0].stream.deadlineMisses);
    for (const auto& c : StreamDecodeStats::kCounters)
        EXPECT_EQ(t.stream.*c.member, first.tasks[0].stream.*c.member)
            << c.name;
    for (const auto& c : StreamDecodeStats::kScalars)
        EXPECT_EQ(t.stream.*c.member, first.tasks[0].stream.*c.member)
            << c.name;
    EXPECT_EQ(t.sampleSeconds, first.tasks[0].sampleSeconds);
}

TEST(Campaign, StreamingStatsReachJsonAndCsv)
{
    CampaignSpec spec;
    spec.name = "stream-io";
    spec.seed = 5;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.05, 200));
    spec.tasks[0].stream.enabled = true;
    spec.tasks[0].stream.streams = 3;
    const CampaignResult result = runCampaign(spec);

    const std::string json = campaignResultToJson(result);
    EXPECT_NE(json.find("\"streaming\": {\"windows\": 200"),
              std::string::npos);
    EXPECT_NE(json.find("\"latency_p50_us\""), std::string::npos);
    EXPECT_NE(json.find("\"latency_p99_us\""), std::string::npos);
    EXPECT_NE(json.find("\"slab_occupancy\""), std::string::npos);
    EXPECT_NE(json.find("\"deadline_misses\""), std::string::npos);
    EXPECT_NE(json.find("\"flushes_full\""), std::string::npos);

    const std::string csv = campaignResultToCsv(result);
    EXPECT_NE(csv.find("stream_windows,stream_p50_us"),
              std::string::npos);
    EXPECT_NE(csv.find("stream_slab_occupancy"), std::string::npos);

    // An offline task emits no streaming JSON object.
    CampaignSpec plain = spec;
    plain.tasks[0].stream.enabled = false;
    const std::string plainJson =
        campaignResultToJson(runCampaign(plain));
    EXPECT_EQ(plainJson.find("\"streaming\""), std::string::npos);
}

TEST(Campaign, SpecNumericErrorsNameLineAndKey)
{
    // A malformed count must fail naming the offending line AND key —
    // "bad number" alone sends spec authors grepping.
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "staging_chunks = banana\n");
        FAIL() << "expected numeric-diagnostic error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("staging_chunks"), std::string::npos)
            << what;
        EXPECT_NE(what.find("banana"), std::string::npos) << what;
    }

    // Trailing garbage must be rejected, not silently truncated —
    // std::stoull would happily read "12abc" as 12.
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "rounds = 12abc\n");
        FAIL() << "expected trailing-garbage error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("rounds"), std::string::npos) << what;
    }

    // Negative counts (stoull would wrap them to huge values).
    try {
        parseCampaignSpec("name = x\nthreads = -2\n");
        FAIL() << "expected negative-count error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("threads"), std::string::npos) << what;
    }

    // Out-of-range reals keep the same diagnostic shape.
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "latency_us = 1e999\n");
        FAIL() << "expected out-of-range error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("latency_us"), std::string::npos) << what;
    }

    // Bad items inside a p-list get the list's line and key too.
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "p = 1e-3, oops, 4e-3\n");
        FAIL() << "expected p-list error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("oops"), std::string::npos) << what;
    }
}

TEST(Campaign, SpecRejectsDuplicateTaskIds)
{
    // Two explicit duplicates: the error names the clashing id and
    // both offending [task] lines.
    try {
        parseCampaignSpec("name = x\n"
                          "[task]\n"
                          "id = point\n"
                          "code = surface3\n"
                          "[task]\n"
                          "id = point\n"
                          "code = surface3\n");
        FAIL() << "expected duplicate-id error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("duplicate task id 'point'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("line 5"), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }

    // An explicit id colliding with another task's auto id
    // ("task<N>") is caught too.
    EXPECT_THROW(parseCampaignSpec("name = x\n"
                                   "[task]\n"
                                   "code = surface3\n"
                                   "[task]\n"
                                   "id = task0\n"
                                   "code = surface3\n"),
                 std::runtime_error);

    // Sweep-expanded ids stay distinct, so sweeps still parse.
    const CampaignSpec ok = parseCampaignSpec(
        "name = x\n[task]\nid = s\ncode = surface3\n"
        "p = 1e-3, 2e-3\n");
    EXPECT_EQ(ok.tasks.size(), 2u);
}

TEST(Campaign, LogicalBasisIsSafeToRequestConcurrently)
{
    // Pool threads building DEMs for two tasks that share one code
    // request its lazily computed logical basis concurrently.
    const CssCode code = catalog::bb72();
    const CssCode copy = code; // copies share the one lazy basis
    std::atomic<size_t> ready{0};
    std::vector<size_t> sizes(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sizes.size(); ++i) {
        threads.emplace_back([&, i] {
            ready.fetch_add(1);
            while (ready.load() < sizes.size()) {
            }
            const CssCode& c = i % 2 == 0 ? code : copy;
            sizes[i] = i < 2 ? c.logicalZ().size() : c.logicalX().size();
        });
    }
    for (std::thread& t : threads)
        t.join();
    for (size_t size : sizes)
        EXPECT_EQ(size, code.numLogical());
    EXPECT_EQ(&code.logicalZ(), &copy.logicalZ());
}

} // namespace
} // namespace cyclone
