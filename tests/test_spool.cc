/**
 * @file
 * Tests for distributed campaign execution: spool serde and claim
 * protocol, shareable artifact serialization, coordinator/worker
 * bit-identity against single-process runs, lease expiry and reclaim
 * after a killed worker, and fleet-wide exactly-once compile
 * accounting through the shared store.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/artifact_cache.h"
#include "campaign/campaign.h"
#include "campaign/campaign_io.h"
#include "campaign/content_hash.h"
#include "campaign/coordinator.h"
#include "campaign/fault_plan.h"
#include "campaign/spool.h"
#include "dem/dem.h"

namespace cyclone {
namespace {

/** Fresh scratch directory under TMPDIR, removed on destruction. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const char* tag)
    {
        const char* base = std::getenv("TMPDIR");
        path = std::string(base != nullptr ? base : "/tmp") +
            "/cyclone-" + tag + "-" + std::to_string(::getpid());
        std::string cmd = "rm -rf '" + path + "'";
        std::system(cmd.c_str());
    }

    ~ScratchDir()
    {
        std::string cmd = "rm -rf '" + path + "'";
        std::system(cmd.c_str());
    }
};

/**
 * A spec exercised both in-process and through a spool. Explicit
 * latency (arch = none) keeps it compile-free; two p points on two
 * codes give four tasks with distinct DEMs; staging_chunks = 2 with
 * chunks_per_wave = 4 exercises shard/staging alignment; the second
 * task's adaptive target stops early, exercising multi-wave merging.
 */
const char* kSpoolSpec = R"(name = spool-suite
seed = 13

[task]
id = s3
code = surface3
arch = none
p = 0.02, 0.05
chunk_shots = 50
chunks_per_wave = 4
max_shots = 600
staging_chunks = 2
bp = minsum

[task]
id = s3adapt
code = surface3
arch = none
p = 0.08
chunk_shots = 64
chunks_per_wave = 3
max_shots = 5000
target_rel_err = 0.3
bp = minsum
)";

/** Fork `count` worker processes against `spool`, each with
 *  `faultPlan` installed if given. Children never return: they run
 *  the worker loop and _exit. */
std::vector<pid_t>
forkWorkers(const std::string& spool, size_t count,
            double startDelaySeconds = 0.0,
            const char* faultPlan = nullptr)
{
    std::vector<pid_t> pids;
    for (size_t w = 0; w < count; ++w) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            if (startDelaySeconds > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(startDelaySeconds));
            WorkerOptions opts;
            opts.spool = spool;
            opts.threads = 2;
            opts.workerId = "w" + std::to_string(::getpid());
            opts.pollSeconds = 0.01;
            if (faultPlan != nullptr)
                installFaultPlan(FaultPlan::parse(faultPlan));
            int rc = 0;
            try {
                runSpoolWorker(opts);
            } catch (...) {
                rc = 1;
            }
            ::_exit(rc);
        }
        pids.push_back(pid);
    }
    return pids;
}

void
reapWorkers(const std::vector<pid_t>& pids, int exitCode = 0)
{
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), exitCode);
    }
}

void
expectTasksIdentical(const CampaignResult& a, const CampaignResult& b)
{
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t i = 0; i < a.tasks.size(); ++i) {
        const TaskResult& x = a.tasks[i];
        const TaskResult& y = b.tasks[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.contentHash, y.contentHash);
        EXPECT_EQ(x.logicalErrorRate.trials, y.logicalErrorRate.trials);
        EXPECT_EQ(x.logicalErrorRate.successes,
                  y.logicalErrorRate.successes);
        EXPECT_EQ(x.logicalErrorRate.rate, y.logicalErrorRate.rate);
        EXPECT_EQ(x.wilson, y.wilson);
        EXPECT_EQ(x.perRoundErrorRate, y.perRoundErrorRate);
        EXPECT_EQ(x.chunks, y.chunks);
        EXPECT_EQ(x.stoppedEarly, y.stoppedEarly);
        EXPECT_EQ(x.demDetectors, y.demDetectors);
        EXPECT_EQ(x.demMechanisms, y.demMechanisms);
        for (const auto& c : BpOsdStats::kCounters)
            EXPECT_EQ(x.decoder.*c.member, y.decoder.*c.member)
                << c.name;
        EXPECT_EQ(x.error, y.error);
    }
}

TEST(SpoolSerde, ShardDescriptorRoundTrip)
{
    ShardDescriptor d;
    d.task = 3;
    d.shard = 17;
    d.firstChunk = 42;
    d.numChunks = 6;
    d.contentHash = 0xdeadbeefcafef00dull;
    const ShardDescriptor r =
        parseShardDescriptor(formatShardDescriptor(d));
    EXPECT_EQ(r.task, d.task);
    EXPECT_EQ(r.shard, d.shard);
    EXPECT_EQ(r.firstChunk, d.firstChunk);
    EXPECT_EQ(r.numChunks, d.numChunks);
    EXPECT_EQ(r.contentHash, d.contentHash);
    EXPECT_THROW(parseShardDescriptor("garbage"), std::runtime_error);
    EXPECT_THROW(parseShardDescriptor("cyclone-shard v1\nshard 1 2\n"),
                 std::runtime_error);
}

/** A record with every counter distinct and non-zero. */
ShardRecord
sampleRecord()
{
    ShardRecord r;
    r.task = 2;
    r.shard = 9;
    r.contentHash = 0xfeedface12345678ull;
    r.shots = 640;
    r.failures = 13;
    r.seconds = 0.6251397;
    size_t v = 100;
    for (const auto& c : BpOsdStats::kCounters)
        r.decoder.*c.member = v++;
    r.decoder.backend = "avx512";
    return r;
}

TEST(SpoolSerde, ShardRecordRoundTrip)
{
    const ShardRecord r = sampleRecord();
    const ShardRecord p = parseShardRecord(formatShardRecord(r));
    EXPECT_EQ(p.task, r.task);
    EXPECT_EQ(p.shard, r.shard);
    EXPECT_EQ(p.contentHash, r.contentHash);
    EXPECT_EQ(p.shots, r.shots);
    EXPECT_EQ(p.failures, r.failures);
    EXPECT_EQ(p.seconds, r.seconds);
    for (const auto& c : BpOsdStats::kCounters)
        EXPECT_EQ(p.decoder.*c.member, r.decoder.*c.member) << c.name;
    EXPECT_EQ(p.decoder.backend, "avx512");

    // An un-checksummed record (a write torn inside the payload) is
    // corrupt, not merely unversioned: torn-write detection hangs on
    // the CRC line being mandatory.
    std::string bare = formatShardRecord(r);
    bare.resize(bare.rfind("crc "));
    EXPECT_THROW(parseShardRecord(bare), CorruptSpoolError);

    // Flipping one payload byte fails the checksum.
    std::string flipped = formatShardRecord(r);
    flipped[flipped.find("640")] = '9';
    EXPECT_THROW(parseShardRecord(flipped), CorruptSpoolError);

    // Truncation anywhere inside the payload fails the checksum (or
    // removes it entirely); only trailing-newline loss can survive,
    // and that leaves a complete, valid record.
    const std::string whole = formatShardRecord(r);
    for (size_t cut = 1; cut + 1 < whole.size(); cut += 7)
        EXPECT_THROW(parseShardRecord(whole.substr(0, cut)),
                     std::runtime_error)
            << "cut at " << cut;
}

/** Re-seal `doc` after applying `edit` to its payload, so only the
 *  edit (never the checksum) can make it invalid. */
std::string
resealed(const std::string& doc,
         const std::function<std::string(std::string)>& edit)
{
    return withCrcLine(edit(checkCrcLine(doc, "test document")));
}

/** `doc` with the value of the first `key` line replaced. */
std::string
withValue(std::string doc, const std::string& key,
          const std::string& value)
{
    const size_t at = doc.find("\n" + key + " ") + 1;
    const size_t end = doc.find('\n', at);
    return doc.replace(at, end - at, key + " " + value);
}

/** `doc` with the first `key` line duplicated (or, with `drop`,
 *  removed). */
std::string
editLine(std::string doc, const std::string& key, bool drop)
{
    const size_t at = doc.find("\n" + key + " ") + 1;
    const size_t end = doc.find('\n', at) + 1;
    const std::string line = doc.substr(at, end - at);
    return drop ? doc.erase(at, end - at) : doc.insert(at, line);
}

/**
 * The strict codec boundary, one table over every document kind:
 * shard records, worker stats, checkpoints, and the coordinator
 * journal (a checkpoint document read through the spool). Each
 * malformed variant must throw std::runtime_error, and loading a
 * rejected checkpoint must leave the destination untouched.
 */
TEST(SpoolSerde, StrictParsingRejectsMalformedDocuments)
{
    TaskResult task;
    task.contentHash = 0x00000000deadbeefull;
    task.rounds = 6;
    task.logicalErrorRate = estimateRate(7, 1000);
    task.decoder = sampleRecord().decoder;
    const std::string checkpoint = formatCheckpoint({task});

    WorkerReport report;
    report.shots = 4200;
    report.cache.demMisses = 4;

    ShardDescriptor descriptor;
    descriptor.task = 1;
    descriptor.shard = 2;
    descriptor.numChunks = 4;
    descriptor.contentHash = 0x00000000deadbeefull;

    struct Kind
    {
        const char* name;
        std::string valid;
        const char* numberKey; ///< a decimal count field
        const char* hashKey;   ///< a hex field (null: none)
        std::string oldMagic;  ///< the previous version's magic line
        std::function<void(const std::string&)> parse;
    };
    const std::vector<Kind> kinds = {
        {"shard record", formatShardRecord(sampleRecord()), "shots",
         "content_hash", "cyclone-shard-result v2",
         [](const std::string& t) { parseShardRecord(t); }},
        {"shard descriptor", formatShardDescriptor(descriptor),
         "num_chunks", "content_hash", "cyclone-shard v2",
         [](const std::string& t) { parseShardDescriptor(t); }},
        {"worker stats", formatWorkerStats(report), "shots", nullptr,
         "cyclone-worker-stats v1",
         [](const std::string& t) { parseWorkerStats(t); }},
        {"checkpoint", checkpoint, "failures", "task",
         "cyclone-campaign-checkpoint v1",
         [](const std::string& t) { parseCheckpoint(t); }},
        {"journal", checkpoint, "decodes", "task",
         "cyclone-coord-journal v1",
         [](const std::string& t) {
             ScratchDir scratch("spool-strict-journal");
             Spool spool(scratch.path);
             SpoolManifest m;
             spool.initialize(m, "name = journal\n");
             spool.writeJournal(t);
             std::string text;
             ASSERT_TRUE(spool.readJournal(text));
             parseCheckpoint(text);
         }},
    };

    using Edit = std::function<std::string(std::string)>;
    for (const Kind& k : kinds) {
        ASSERT_NO_THROW(k.parse(k.valid)) << k.name;
        const std::string n = k.numberKey;
        std::vector<std::pair<std::string, Edit>> cases = {
            {"trailing garbage",
             [&](std::string d) { return withValue(d, n, "100abc"); }},
            {"negative",
             [&](std::string d) { return withValue(d, n, "-1"); }},
            {"plus sign",
             [&](std::string d) { return withValue(d, n, "+1"); }},
            {"overflow", [&](std::string d) {
                 return withValue(d, n, "99999999999999999999999");
             }},
            {"empty value",
             [&](std::string d) { return withValue(d, n, ""); }},
            {"not a number",
             [&](std::string d) { return withValue(d, n, "oops"); }},
            {"duplicate key",
             [&](std::string d) { return editLine(d, n, false); }},
            {"missing key",
             [&](std::string d) { return editLine(d, n, true); }},
            {"unknown key",
             [&](std::string d) { return d + "bogus 1\n"; }},
            {"old version", [&](std::string d) {
                 return k.oldMagic + d.substr(d.find('\n'));
             }},
        };
        if (k.hashKey != nullptr) {
            const std::string h = k.hashKey;
            cases.push_back({"bad hash", [h](std::string d) {
                                 return withValue(d, h, "zz00ff");
                             }});
            cases.push_back({"hex prefix", [h](std::string d) {
                                 return withValue(d, h, "0xdeadbeef");
                             }});
        }
        for (const auto& [label, edit] : cases)
            EXPECT_THROW(k.parse(resealed(k.valid, edit)),
                         std::runtime_error)
                << k.name << ": " << label;
        std::string flipped = k.valid;
        flipped[flipped.find('\n') + 2] ^= 1;
        EXPECT_THROW(k.parse(flipped), CorruptSpoolError) << k.name;
    }

    // A rejected checkpoint file loads nothing.
    ScratchDir scratch("spool-strict-checkpoint");
    ASSERT_EQ(::mkdir(scratch.path.c_str(), 0777), 0);
    const std::string path = scratch.path + "/sweep.ckpt";
    ASSERT_TRUE(writeTextFile(path, resealed(checkpoint, [](std::string d) {
        return withValue(d, "shots", "-1");
    })));
    CampaignCheckpoint out;
    out.tasks[1] = task;
    EXPECT_THROW(loadCheckpoint(path, out), std::runtime_error);
    ASSERT_EQ(out.tasks.size(), 1u);
    EXPECT_EQ(out.tasks.count(1), 1u);
    EXPECT_FALSE(loadCheckpoint(path + ".missing", out));
}

TEST(SpoolSerde, ManifestRoundTrip)
{
    SpoolManifest m;
    m.name = "spool suite campaign";
    m.seed = 0xabcdef;
    m.specHash = 0x1122334455667788ull;
    m.leaseSeconds = 2.5;
    m.retryAttempts = 9;
    m.retryBaseMs = 12.5;
    const SpoolManifest p = parseManifest(formatManifest(m));
    EXPECT_EQ(p.name, m.name);
    EXPECT_EQ(p.seed, m.seed);
    EXPECT_EQ(p.specHash, m.specHash);
    EXPECT_EQ(p.leaseSeconds, m.leaseSeconds);
    EXPECT_EQ(p.retryAttempts, m.retryAttempts);
    EXPECT_EQ(p.retryBaseMs, m.retryBaseMs);
}

TEST(SpoolSerde, WorkerStatsRoundTrip)
{
    WorkerReport r;
    size_t v = 1;
    for (const auto& c : WorkerReport::kCounters)
        r.*c.member = v++;
    for (const auto& c : CacheStats::kCounters)
        r.cache.*c.member = v++;
    const WorkerReport p = parseWorkerStats(formatWorkerStats(r));
    for (const auto& c : WorkerReport::kCounters)
        EXPECT_EQ(p.*c.member, r.*c.member) << c.name;
    for (const auto& c : CacheStats::kCounters)
        EXPECT_EQ(p.cache.*c.member, r.cache.*c.member) << c.name;
}

TEST(SpoolSerde, ShardPlanningHelpers)
{
    StoppingRule rule;
    rule.chunkShots = 100;
    rule.chunksPerWave = 8;
    rule.maxShots = 1050;
    rule.stagingChunks = 3;
    rule.shardChunks = 4;
    // 4 rounded up to a multiple of staging (3) is 6.
    EXPECT_EQ(effectiveShardChunks(rule), 6u);
    rule.shardChunks = 0; // auto: ceil(8/4)=2 -> rounded to 3
    EXPECT_EQ(effectiveShardChunks(rule), 3u);
    rule.stagingChunks = 1;
    EXPECT_EQ(effectiveShardChunks(rule), 2u);

    // Chunk shots mirror AdaptiveSampler: full chunks until the
    // budget, then a short tail, then zero.
    EXPECT_EQ(chunkShotsAt(rule, 0), 100u);
    EXPECT_EQ(chunkShotsAt(rule, 9), 100u);
    EXPECT_EQ(chunkShotsAt(rule, 10), 50u);
    EXPECT_EQ(chunkShotsAt(rule, 11), 0u);
}

TEST(SpoolProtocol, ClaimCompleteAndRecords)
{
    ScratchDir scratch("spool-proto");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "proto";
    m.seed = 1;
    m.leaseSeconds = 30.0;
    spool.initialize(m, "name = proto\n[task]\ncode = surface3\n");
    EXPECT_TRUE(spool.initialized());
    EXPECT_FALSE(spool.done());

    // Re-initializing with the same spec is idempotent; a different
    // spec is a hard error (two campaigns, one directory).
    spool.initialize(m, "name = proto\n[task]\ncode = surface3\n");
    EXPECT_THROW(spool.initialize(m, "name = other\n"),
                 std::runtime_error);

    ShardDescriptor d;
    d.task = 0;
    d.shard = 0;
    d.firstChunk = 0;
    d.numChunks = 4;
    d.contentHash = 0x42;
    EXPECT_TRUE(spool.publishShard(d));
    EXPECT_FALSE(spool.publishShard(d)) << "already open";
    ASSERT_EQ(spool.openShards().size(), 1u);
    const std::string id = spool.openShards()[0];
    EXPECT_EQ(id, shardId(0, 0));

    ShardDescriptor claimed;
    ASSERT_TRUE(spool.claimShard(id, claimed));
    EXPECT_EQ(claimed.numChunks, 4u);
    EXPECT_EQ(claimed.contentHash, 0x42u);
    ShardDescriptor loser;
    EXPECT_FALSE(spool.claimShard(id, loser)) << "second claim";
    EXPECT_TRUE(spool.openShards().empty());
    EXPECT_GE(spool.claimAge(id), 0.0);
    spool.heartbeat(id);
    EXPECT_LT(spool.claimAge(id), 5.0);

    ShardRecord rec;
    rec.task = 0;
    rec.shard = 0;
    rec.contentHash = 0x42;
    rec.shots = 400;
    rec.failures = 7;
    EXPECT_FALSE(spool.hasRecord(id));
    spool.completeShard(id, rec);
    EXPECT_TRUE(spool.hasRecord(id));
    EXPECT_TRUE(spool.claimedShards().empty());
    EXPECT_FALSE(spool.publishShard(d)) << "already has a record";
    const ShardRecord loaded = spool.readRecord(id);
    EXPECT_EQ(loaded.shots, 400u);
    EXPECT_EQ(loaded.failures, 7u);

    // Reclaim path: publish, claim, reclaim -> open again.
    d.shard = 1;
    ASSERT_TRUE(spool.publishShard(d));
    const std::string id2 = shardId(0, 1);
    ASSERT_TRUE(spool.claimShard(id2, claimed));
    EXPECT_TRUE(spool.reclaimShard(id2));
    EXPECT_FALSE(spool.reclaimShard(id2)) << "second reclaim";
    ASSERT_EQ(spool.openShards().size(), 1u);
    EXPECT_EQ(spool.openShards()[0], id2);
    EXPECT_LT(spool.claimAge(id2), 0.0) << "no longer claimed";

    spool.markDone();
    EXPECT_TRUE(spool.done());
}

TEST(SpoolProtocol, CoordinatorLeaseHasExactlyOneWinner)
{
    ScratchDir scratch("spool-lease-proto");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "lease";
    m.seed = 1;
    spool.initialize(m, "name = lease\n");

    EXPECT_FALSE(spool.hasCoordinatorLease());
    EXPECT_LT(spool.coordinatorLeaseAge(), 0.0);
    EXPECT_TRUE(spool.acquireCoordinatorLease("alice"));
    EXPECT_TRUE(spool.hasCoordinatorLease());
    EXPECT_FALSE(spool.acquireCoordinatorLease("bob"))
        << "O_EXCL create must have exactly one winner";
    EXPECT_GE(spool.coordinatorLeaseAge(), 0.0);

    // Releasing someone else's lease is a no-op.
    spool.releaseCoordinatorLease("bob");
    EXPECT_TRUE(spool.hasCoordinatorLease());

    // A steal replaces the (presumed dead) owner's lease.
    EXPECT_TRUE(spool.stealCoordinatorLease("bob"));
    EXPECT_TRUE(spool.hasCoordinatorLease());
    spool.releaseCoordinatorLease("bob");
    EXPECT_FALSE(spool.hasCoordinatorLease());
    EXPECT_TRUE(spool.acquireCoordinatorLease("carol"));
}

TEST(SpoolProtocol, QuarantineReviveAndRetire)
{
    ScratchDir scratch("spool-quarantine");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "quarantine";
    m.seed = 1;
    spool.initialize(m, "name = quarantine\n");

    ShardDescriptor d;
    d.task = 0;
    d.shard = 0;
    d.numChunks = 1;
    d.contentHash = 0x1;
    ASSERT_TRUE(spool.publishShard(d));
    const std::string id = shardId(0, 0);

    ShardDescriptor got;
    ASSERT_TRUE(spool.claimShard(id, got));
    ShardRecord rec;
    rec.task = 0;
    rec.shard = 0;
    rec.contentHash = 0x1;
    rec.shots = 10;
    spool.completeShard(id, rec);

    // Quarantining the record revives nothing by itself; the revive
    // moves the done/ tombstone back to open/ so the shard can be
    // claimed and re-executed.
    ASSERT_TRUE(spool.hasRecord(id));
    EXPECT_TRUE(spool.quarantineRecord(id));
    EXPECT_FALSE(spool.hasRecord(id));
    EXPECT_FALSE(spool.quarantineRecord(id)) << "already moved";
    EXPECT_TRUE(spool.reviveShard(id));
    EXPECT_FALSE(spool.reviveShard(id)) << "already revived";
    ASSERT_EQ(spool.openShards().size(), 1u);

    // Re-execute and retire without a record (task finished).
    ASSERT_TRUE(spool.claimShard(id, got));
    EXPECT_TRUE(spool.retireClaim(id));
    EXPECT_TRUE(spool.openShards().empty());
    EXPECT_TRUE(spool.claimedShards().empty());

    // Quarantine the shard outright (claimed/ first, then open/).
    EXPECT_TRUE(spool.reviveShard(id));
    EXPECT_TRUE(spool.quarantineShard(id));
    EXPECT_FALSE(spool.quarantineShard(id)) << "nothing left";
    const std::vector<std::string> q = spool.quarantined();
    ASSERT_EQ(q.size(), 2u) << "descriptor + record";
}

TEST(SpoolProtocol, ReclaimCountPersistsAcrossHandles)
{
    ScratchDir scratch("spool-reclaims");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "reclaims";
    m.seed = 1;
    spool.initialize(m, "name = reclaims\n");

    const std::string id = shardId(0, 7);
    EXPECT_EQ(spool.reclaimCount(id), 0u);
    EXPECT_EQ(spool.bumpReclaimCount(id), 1u);
    EXPECT_EQ(spool.bumpReclaimCount(id), 2u);
    EXPECT_EQ(spool.reclaimCount(id), 2u);

    // A takeover coordinator (fresh handle) sees the same counter —
    // poison shards survive coordinator failover.
    Spool other(scratch.path);
    EXPECT_EQ(other.reclaimCount(id), 2u);
    EXPECT_EQ(other.bumpReclaimCount(id), 3u);
}

TEST(SpoolProtocol, ClaimAgeSurvivesWallClockStep)
{
    ScratchDir scratch("spool-monotonic");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "monotonic";
    m.seed = 1;
    spool.initialize(m, "name = monotonic\n");

    ShardDescriptor d;
    d.task = 0;
    d.shard = 0;
    d.numChunks = 1;
    d.contentHash = 0x1;
    ASSERT_TRUE(spool.publishShard(d));
    const std::string id = shardId(0, 0);
    ShardDescriptor got;
    ASSERT_TRUE(spool.claimShard(id, got));

    EXPECT_GE(spool.claimAge(id), 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_GE(spool.claimAge(id), 0.05);

    // Simulate a wall-clock step: rewrite the claim's mtime one hour
    // into the past, as an NTP correction (or a worker on a skewed
    // clock heartbeating) would. A wall-clock implementation would
    // read ~3600s and instantly expire the live lease; the monotonic
    // observation scheme just sees "heartbeat changed" and restarts
    // the age from zero.
    const std::string claimPath = scratch.path + "/claimed/" + id;
    struct timespec past[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &past[0]), 0);
    past[0].tv_sec -= 3600;
    past[1] = past[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, claimPath.c_str(), past, 0), 0);
    EXPECT_LT(spool.claimAge(id), 1.0)
        << "a clock step must not expire a live lease";
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const double aged = spool.claimAge(id);
    EXPECT_GE(aged, 0.05);
    EXPECT_LT(aged, 1.0);

    // Same for a step into the future (age must never go negative).
    struct timespec future[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &future[0]), 0);
    future[0].tv_sec += 3600;
    future[1] = future[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, claimPath.c_str(), future, 0), 0);
    EXPECT_GE(spool.claimAge(id), 0.0);
    EXPECT_LT(spool.claimAge(id), 1.0);

    // A vanished claim still reads negative.
    ASSERT_TRUE(spool.reclaimShard(id));
    EXPECT_LT(spool.claimAge(id), 0.0);
}

TEST(SpoolProtocol, WorkerHealthAgeSurvivesWallClockStep)
{
    // End-of-run health classification ("did this worker's heartbeat
    // file stop updating?") must use the same monotonic observation
    // history as shard claims. With wall-clock mtime arithmetic an
    // NTP step during the campaign would misreport every live worker
    // as lost.
    ScratchDir scratch("spool-health-monotonic");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "health";
    m.seed = 1;
    spool.initialize(m, "name = health\n");

    EXPECT_LT(spool.workerHealthAge("w1"), 0.0)
        << "missing health file must read negative";

    spool.writeFile("workers/w1", "health-v1\nstate running\n");
    EXPECT_GE(spool.workerHealthAge("w1"), 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_GE(spool.workerHealthAge("w1"), 0.05);

    // Wall-clock step one hour into the past: a wall-clock
    // implementation reads ~3600s and classifies the worker as lost;
    // the monotonic scheme sees "file changed" and restarts from 0.
    const std::string healthPath = scratch.path + "/workers/w1";
    struct timespec past[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &past[0]), 0);
    past[0].tv_sec -= 3600;
    past[1] = past[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, healthPath.c_str(), past, 0), 0);
    EXPECT_LT(spool.workerHealthAge("w1"), 1.0)
        << "a clock step must not mark a live worker lost";
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const double aged = spool.workerHealthAge("w1");
    EXPECT_GE(aged, 0.05);
    EXPECT_LT(aged, 1.0);

    // A step into the future must not produce negative ages either.
    struct timespec future[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &future[0]), 0);
    future[0].tv_sec += 3600;
    future[1] = future[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, healthPath.c_str(), future, 0), 0);
    EXPECT_GE(spool.workerHealthAge("w1"), 0.0);
    EXPECT_LT(spool.workerHealthAge("w1"), 1.0);

    // A fresh heartbeat (mtime change) restarts the age again.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    spool.writeFile("workers/w1", "health-v1\nstate running\n");
    EXPECT_LT(spool.workerHealthAge("w1"), 0.02);
}

TEST(SpoolProtocol, JournalIsACheckpointThroughSpool)
{
    ScratchDir scratch("spool-journal");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "journal";
    m.seed = 1;
    spool.initialize(m, "name = journal\n");

    std::string out;
    EXPECT_FALSE(spool.readJournal(out));

    TaskResult t;
    t.contentHash = 0xabcdef0123456789ull;
    t.rounds = 3;
    t.logicalErrorRate = estimateRate(17, 1200);
    t.chunks = 24;
    t.stoppedEarly = true;
    t.sampleSeconds = 0.1 + 0.2; // not exactly representable in %.6f
    t.decoder = sampleRecord().decoder;
    spool.writeJournal(formatCheckpoint({t}));

    ASSERT_TRUE(spool.readJournal(out));
    const CampaignCheckpoint back = parseCheckpoint(out);
    ASSERT_EQ(back.tasks.size(), 1u);
    const TaskResult& r = back.tasks.at(t.contentHash);
    EXPECT_EQ(r.logicalErrorRate.trials, 1200u);
    EXPECT_EQ(r.logicalErrorRate.successes, 17u);
    EXPECT_EQ(r.chunks, t.chunks);
    EXPECT_EQ(r.stoppedEarly, t.stoppedEarly);
    EXPECT_EQ(r.sampleSeconds, t.sampleSeconds);
    for (const auto& c : BpOsdStats::kCounters)
        EXPECT_EQ(r.decoder.*c.member, t.decoder.*c.member) << c.name;
    EXPECT_EQ(r.decoder.backend, "avx512");
}

TEST(ArtifactSerde, DemRoundTripIsBitExact)
{
    DetectorErrorModel dem;
    dem.numDetectors = 5;
    dem.numObservables = 2;
    dem.mechanisms.push_back({0.001, {0, 3}, 0b01});
    dem.mechanisms.push_back({0.25, {1}, 0});
    dem.mechanisms.push_back({1e-9, {0, 1, 2, 3, 4}, 0b11});
    const DetectorErrorModel r = deserializeDem(serializeDem(dem));
    EXPECT_EQ(r.numDetectors, dem.numDetectors);
    EXPECT_EQ(r.numObservables, dem.numObservables);
    ASSERT_EQ(r.mechanisms.size(), dem.mechanisms.size());
    for (size_t i = 0; i < dem.mechanisms.size(); ++i) {
        EXPECT_EQ(r.mechanisms[i].probability,
                  dem.mechanisms[i].probability);
        EXPECT_EQ(r.mechanisms[i].detectors,
                  dem.mechanisms[i].detectors);
        EXPECT_EQ(r.mechanisms[i].observables,
                  dem.mechanisms[i].observables);
    }
    EXPECT_THROW(deserializeDem("not a blob"), std::runtime_error);
    EXPECT_THROW(deserializeDem(serializeDem(dem).substr(0, 20)),
                 std::runtime_error);
}

TEST(ArtifactSerde, CompileResultRoundTripPreservesScheduleHash)
{
    CompileResult c;
    c.compilerName = "test-compiler";
    c.topologyName = "test-topology";
    c.serialized.gateUs = 12.5;
    c.serialized.shuttleUs = 3.25;
    c.serialized.junctionUs = 0.125;
    c.serialized.swapUs = 7.75;
    c.serialized.measureUs = 80.0;
    c.serialized.prepUs = 1.0;
    c.numTraps = 9;
    c.numJunctions = 4;
    c.numAncilla = 12;
    c.trapRoadblocks = 3;
    c.junctionRoadblocks = 1;
    c.rebalances = 2;
    c.gateOps = 30;
    c.shuttleOps = 20;
    c.swapOps = 5;
    c.schedule.numResources = 13;
    c.schedule.numIons = 25;
    c.schedule.ops.push_back({OpCategory::Gate, 2, 1, 7, 0.0,
                              0.0314159265358979312, 0.0, true});
    c.schedule.ops.push_back({OpCategory::Shuttle, kNoResource, 3,
                              kNoIon, 1.0 / 3.0, 86.0, 0.5, false});
    c.schedule.ops.push_back({OpCategory::Measure, 12, 24, kNoIon,
                              99.25, 120.0, 1e-17, true});
    c.deriveTimingFromSchedule();

    const CompileResult r =
        deserializeCompileResult(serializeCompileResult(c));
    EXPECT_EQ(r.compilerName, c.compilerName);
    EXPECT_EQ(r.topologyName, c.topologyName);
    EXPECT_EQ(r.execTimeUs, c.execTimeUs);
    EXPECT_EQ(r.serialized.gateUs, c.serialized.gateUs);
    EXPECT_EQ(r.serialized.prepUs, c.serialized.prepUs);
    EXPECT_EQ(r.numTraps, c.numTraps);
    EXPECT_EQ(r.numAncilla, c.numAncilla);
    EXPECT_EQ(r.trapRoadblocks, c.trapRoadblocks);
    EXPECT_EQ(r.rebalances, c.rebalances);
    EXPECT_EQ(r.gateOps, c.gateOps);
    EXPECT_EQ(r.swapOps, c.swapOps);
    ASSERT_EQ(r.schedule.ops.size(), c.schedule.ops.size());
    EXPECT_EQ(r.schedule.ops[1].resource, kNoResource);
    EXPECT_EQ(r.schedule.ops[1].counted, false);
    EXPECT_EQ(r.schedule.ops[2].waitUs, 1e-17);
    // The IR's content hash keys per-qubit idle DEMs: it must
    // round-trip bit-exactly or store-loaded compiles would rebuild
    // (or worse, mis-key) schedule-derived artifacts.
    EXPECT_EQ(hashTimedSchedule(r.schedule),
              hashTimedSchedule(c.schedule));
    EXPECT_THROW(deserializeCompileResult("bogus"),
                 std::runtime_error);
}

TEST(ArtifactSerde, CountedSizeEqualsBlobSize)
{
    // Without a store the cache counts artifact bytes instead of
    // serializing; the count must equal the blob it would have written.
    CampaignSpec spec;
    TaskSpec t;
    t.codeName = "bb72";
    t.architecture = Architecture::Cyclone;
    t.physicalError = 1e-3;
    spec.tasks.push_back(t);
    std::vector<ResolvedTask> tasks = resolveTaskIdentities(spec);
    ArtifactCache cache;
    buildTaskArtifacts(tasks[0], cache);
    const size_t compileBlob =
        serializeCompileResult(*tasks[0].compiled).size();
    const size_t demBlob = serializeDem(*tasks[0].dem).size();
    EXPECT_EQ(serializedCompileResultSize(*tasks[0].compiled),
              compileBlob);
    EXPECT_EQ(serializedDemSize(*tasks[0].dem), demBlob);
    EXPECT_EQ(cache.stats().compileBytes, compileBlob);
    EXPECT_EQ(cache.stats().demBytes, demBlob);
    EXPECT_GT(tasks[0].dem->mechanisms.size(), 0u);

    const DetectorErrorModel empty;
    EXPECT_EQ(serializedDemSize(empty), serializeDem(empty).size());
    const CompileResult blank;
    EXPECT_EQ(serializedCompileResultSize(blank),
              serializeCompileResult(blank).size());
}

TEST(ArtifactStore, SecondCacheLoadsInsteadOfBuilding)
{
    ScratchDir scratch("artifact-store");
    ::mkdir(scratch.path.c_str(), 0777);

    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.01, {0, 1}, 1});

    int builds = 0;
    auto build = [&] {
        ++builds;
        return dem;
    };

    ArtifactCache first;
    first.attachStore(scratch.path);
    EXPECT_EQ(first.storeDir(), scratch.path);
    const auto a = first.getOrBuildDem(0x7777, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.stats().demMisses, 1u);
    EXPECT_EQ(first.stats().demStoreHits, 0u);
    EXPECT_GT(first.stats().demBytes, 0u);

    // A different cache (as another process would have) must satisfy
    // the miss from the store without running the builder.
    ArtifactCache second;
    second.attachStore(scratch.path);
    const auto b = second.getOrBuildDem(0x7777, build);
    EXPECT_EQ(builds, 1) << "store hit must not rebuild";
    EXPECT_EQ(second.stats().demMisses, 1u);
    EXPECT_EQ(second.stats().demStoreHits, 1u);
    EXPECT_EQ(second.stats().demBytes, first.stats().demBytes);
    EXPECT_EQ(b->mechanisms[0].probability,
              a->mechanisms[0].probability);

    // A corrupt store blob falls through to a rebuild.
    const std::string blobPath = scratch.path + "/dem-" +
        []() {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%016llx",
                          0x7777ull);
            return std::string(buf);
        }() +
        ".bin";
    spoolWriteAtomic(blobPath, "corrupted");
    ArtifactCache third;
    third.attachStore(scratch.path);
    const auto c = third.getOrBuildDem(0x7777, build);
    EXPECT_EQ(builds, 2) << "corrupt blob must rebuild";
    EXPECT_EQ(third.stats().demStoreHits, 0u);
    EXPECT_EQ(c->numDetectors, 2u);
}

CampaignResult
runDistributed(const std::string& spoolDir, size_t workers)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = spoolDir;
    spec.leaseSeconds = 30.0;
    const std::vector<pid_t> pids = forkWorkers(spoolDir, workers);
    CampaignResult result;
    try {
        result = runDistributedCampaign(spec, kSpoolSpec);
    } catch (...) {
        for (const pid_t pid : pids)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    for (const pid_t pid : pids) {
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    return result;
}

TEST(DistributedCampaign, TwoWorkersBitIdenticalToSingleProcess)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.threads = 2;
    const CampaignResult reference = runCampaign(spec);
    for (const TaskResult& t : reference.tasks)
        ASSERT_TRUE(t.error.empty()) << t.error;

    ScratchDir scratch("spool-2w");
    const CampaignResult dist = runDistributed(scratch.path, 2);
    expectTasksIdentical(reference, dist);
    EXPECT_GT(dist.spool.shardsPublished, 0u);
    EXPECT_EQ(dist.spool.shardsMerged, dist.spool.shardsPublished);
    EXPECT_EQ(dist.spool.recordsReused, 0u);
}

TEST(DistributedCampaign, FourWorkersBitIdenticalToSingleProcess)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.threads = 4;
    const CampaignResult reference = runCampaign(spec);

    ScratchDir scratch("spool-4w");
    const CampaignResult dist = runDistributed(scratch.path, 4);
    expectTasksIdentical(reference, dist);
}

TEST(DistributedCampaign, LeaseExpiryReclaimsKilledWorkersShard)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.threads = 2;
    const CampaignResult reference = runCampaign(spec);

    ScratchDir scratch("spool-lease");
    CampaignSpec dspec = parseCampaignSpec(kSpoolSpec);
    dspec.spool = scratch.path;
    dspec.leaseSeconds = 0.5;

    // Worker A crashes right after its first claim, leaving it
    // unfinished and unheartbeated. Worker B starts 2s later (after
    // A's lease lapsed) and drains the whole spool.
    const std::vector<pid_t> dying = forkWorkers(
        scratch.path, 1, 0.0, "spool.claim.commit:crash_after");
    const std::vector<pid_t> healthy =
        forkWorkers(scratch.path, 1, 2.0);

    CampaignResult dist;
    try {
        dist = runDistributedCampaign(dspec, kSpoolSpec);
    } catch (...) {
        for (const pid_t pid : dying)
            ::waitpid(pid, nullptr, 0);
        for (const pid_t pid : healthy)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    reapWorkers(dying, kFaultCrashExitCode);
    reapWorkers(healthy);

    EXPECT_GE(dist.spool.shardsReclaimed, 1u)
        << "the dead worker's claim must have been reclaimed";
    expectTasksIdentical(reference, dist);

    // Health roll-up: the killed worker's file went stale mid-state,
    // the survivor checked out cleanly.
    EXPECT_GE(dist.spool.workersLost, 1u);
    EXPECT_GE(dist.spool.workersHealthy, 1u);
    EXPECT_EQ(dist.spool.shardsPoisoned, 0u);
}

TEST(DistributedCampaign, SharedCacheCompilesEachPointExactlyOnce)
{
    // A compiled campaign (arch = cyclone): one distinct compile and
    // one distinct DEM per p, shared fleet-wide through the store.
    const char* spec_text = R"(name = spool-compile
seed = 21

[task]
code = surface3
arch = cyclone
p = 0.02, 0.04
chunk_shots = 50
chunks_per_wave = 2
max_shots = 200
bp = minsum
)";
    ScratchDir scratch("spool-once");
    CampaignSpec spec = parseCampaignSpec(spec_text);
    spec.spool = scratch.path;

    const std::vector<pid_t> pids = forkWorkers(scratch.path, 2);
    CampaignResult dist;
    try {
        dist = runDistributedCampaign(spec, spec_text);
    } catch (...) {
        for (const pid_t pid : pids)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    reapWorkers(pids);
    for (const TaskResult& t : dist.tasks)
        ASSERT_TRUE(t.error.empty()) << t.error;

    // Sum builder runs (misses not satisfied by the store) across
    // every process's stats file: the whole fleet must have compiled
    // exactly one architecture and built exactly two DEMs.
    size_t compileBuilds = 0;
    size_t demBuilds = 0;
    size_t statsFiles = 0;
    {
        std::string cmd =
            "ls '" + scratch.path + "' | grep '^stats-'";
        FILE* pipe = ::popen(cmd.c_str(), "r");
        ASSERT_NE(pipe, nullptr);
        char name[256];
        while (std::fgets(name, sizeof name, pipe) != nullptr) {
            std::string file(name);
            while (!file.empty() &&
                   (file.back() == '\n' || file.back() == '\r'))
                file.pop_back();
            const WorkerReport r = parseWorkerStats(
                spoolReadFile(scratch.path + "/" + file));
            compileBuilds +=
                r.cache.compileMisses - r.cache.compileStoreHits;
            demBuilds += r.cache.demMisses - r.cache.demStoreHits;
            ++statsFiles;
        }
        ::pclose(pipe);
    }
    EXPECT_EQ(statsFiles, 3u) << "coordinator + two workers";
    EXPECT_EQ(compileBuilds, 1u)
        << "one distinct architecture compile fleet-wide";
    EXPECT_EQ(demBuilds, 2u) << "one DEM per p fleet-wide";
    EXPECT_EQ(dist.cache.compileMisses, 1u);
    EXPECT_EQ(dist.cache.compileStoreHits, 0u);
    EXPECT_GT(dist.cache.compileBytes, 0u);
    EXPECT_GT(dist.cache.demBytes, 0u);
}

TEST(DistributedCampaign, SpoolResumeReusesRecords)
{
    // Run a campaign to completion, wipe the DONE marker AND the
    // merge journal, and rerun the coordinator with no workers:
    // every shard it republishes is already satisfied by a record,
    // so it must finish alone and report the reuse.
    ScratchDir scratch("spool-resume");
    const CampaignResult first = runDistributed(scratch.path, 2);

    std::string cmd = "rm -f '" + scratch.path + "/DONE' '" +
        scratch.path + "/journal.txt'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = scratch.path;
    const CampaignResult second =
        runDistributedCampaign(spec, kSpoolSpec);
    expectTasksIdentical(first, second);
    EXPECT_EQ(second.spool.shardsPublished, 0u);
    EXPECT_EQ(second.spool.recordsReused, second.spool.shardsMerged);
    EXPECT_EQ(second.spool.journalRestores, 0u);

    // With the journal intact, a rerun restores every finalized task
    // directly from it without touching a single record.
    cmd = "rm -f '" + scratch.path + "/DONE'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const CampaignResult third =
        runDistributedCampaign(spec, kSpoolSpec);
    expectTasksIdentical(first, third);
    EXPECT_EQ(third.spool.journalRestores, first.tasks.size());
    EXPECT_EQ(third.spool.shardsMerged, 0u);
    EXPECT_EQ(third.spool.shardsPublished, 0u);
}

TEST(DistributedCampaign, FailingTaskMatchesInProcessRun)
{
    // A task whose build fails (per-qubit idle noise needs a compiled
    // schedule, and arch = none has none) next to a good one: both
    // transports must report the same error and shot counts, and the
    // good task must not notice its neighbour.
    const char* spec_text = R"(name = spool-failing
seed = 17

[task]
id = broken
code = surface3
arch = none
idle_noise = per-qubit
p = 0.03
max_shots = 200

[task]
id = good
code = surface3
arch = none
p = 0.03
chunk_shots = 50
chunks_per_wave = 4
max_shots = 400
staging_chunks = 2
)";
    CampaignSpec spec = parseCampaignSpec(spec_text);
    spec.threads = 2;
    const CampaignResult local = runCampaign(spec);
    ASSERT_EQ(local.tasks.size(), 2u);
    EXPECT_NE(local.tasks[0].error.find("per-qubit idle noise"),
              std::string::npos)
        << local.tasks[0].error;
    EXPECT_EQ(local.tasks[0].logicalErrorRate.trials, 0u);
    EXPECT_TRUE(local.tasks[1].error.empty()) << local.tasks[1].error;
    EXPECT_EQ(local.tasks[1].logicalErrorRate.trials, 400u);

    ScratchDir scratch("spool-failing");
    spec.spool = scratch.path;
    CoordinatorOptions copts;
    copts.selfExecute = true;
    copts.threads = 2;
    const CampaignResult dist =
        runDistributedCampaign(spec, spec_text, nullptr, nullptr, copts);
    expectTasksIdentical(local, dist);
    EXPECT_GT(dist.spool.shardsMerged, 0u);
}

TEST(DistributedCampaign, StreamingTasksAreRejectedUpFront)
{
    // The streaming decode service is in-process only for now: the
    // coordinator must refuse a streaming spec with a clear error
    // before creating any spool state, not silently drop the
    // telemetry.
    ScratchDir scratch("spool-streaming-reject");
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = scratch.path;
    spec.tasks[0].stream.enabled = true;
    spec.tasks[0].id = "served";
    try {
        runDistributedCampaign(spec, kSpoolSpec);
        FAIL() << "expected streaming rejection";
    } catch (const std::invalid_argument& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("streaming"), std::string::npos) << what;
        EXPECT_NE(what.find("in-process"), std::string::npos) << what;
        EXPECT_NE(what.find("served"), std::string::npos) << what;
    }
}

TEST(DistributedCampaign, PoisonShardQuarantinedAndSurfaced)
{
    // One task, zero reclaim tolerance, one worker that dies holding
    // its claim: the first lease expiry must quarantine the shard as
    // poison and finalize the task with an error instead of
    // republishing it forever.
    const char* spec_text = R"(name = spool-poison
seed = 5

[task]
id = poison
code = surface3
arch = none
p = 0.05
chunk_shots = 50
chunks_per_wave = 4
max_shots = 400
bp = minsum
)";
    ScratchDir scratch("spool-poison");
    CampaignSpec spec = parseCampaignSpec(spec_text);
    spec.spool = scratch.path;
    spec.leaseSeconds = 0.3;
    spec.maxClaimReclaims = 0;

    const std::vector<pid_t> dying = forkWorkers(
        scratch.path, 1, 0.0, "spool.claim.commit:crash_after");
    CampaignResult dist;
    try {
        dist = runDistributedCampaign(spec, spec_text);
    } catch (...) {
        for (const pid_t pid : dying)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    reapWorkers(dying, kFaultCrashExitCode);

    EXPECT_EQ(dist.spool.shardsPoisoned, 1u);
    ASSERT_EQ(dist.tasks.size(), 1u);
    EXPECT_NE(dist.tasks[0].error.find("poison shard"),
              std::string::npos)
        << dist.tasks[0].error;

    Spool spool(scratch.path);
    EXPECT_TRUE(spool.done());
    EXPECT_FALSE(spool.quarantined().empty());
}

TEST(DistributedCampaign, IdleWorkerPromotesOverDeadCoordinator)
{
    // The coordinator crashes at its first record merge (injected
    // fault, installed only in the forked coordinator child). The
    // lone promote-enabled worker drains the published wave, finds
    // nothing left to claim, watches the coordinator lease go stale,
    // promotes itself, and finishes the campaign — bit-identically.
    CampaignSpec reference_spec = parseCampaignSpec(kSpoolSpec);
    reference_spec.threads = 2;
    const CampaignResult reference = runCampaign(reference_spec);

    ScratchDir scratch("spool-promote");
    const pid_t coord = ::fork();
    if (coord == 0) {
        installFaultPlan(
            FaultPlan::parse("coord.record.merged:crash_before@1"));
        CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
        spec.spool = scratch.path;
        spec.leaseSeconds = 0.4;
        int rc = 0;
        try {
            runDistributedCampaign(spec, kSpoolSpec);
        } catch (...) {
            rc = 3;
        }
        ::_exit(rc);
    }
    ASSERT_GT(coord, 0);

    const pid_t worker = ::fork();
    if (worker == 0) {
        WorkerOptions opts;
        opts.spool = scratch.path;
        opts.threads = 2;
        opts.workerId = "promoter";
        opts.pollSeconds = 0.01;
        opts.promote = true;
        int rc = 0;
        try {
            runSpoolWorker(opts);
        } catch (...) {
            rc = 1;
        }
        ::_exit(rc);
    }
    ASSERT_GT(worker, 0);

    int status = 0;
    ASSERT_EQ(::waitpid(coord, &status, 0), coord);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), kFaultCrashExitCode)
        << "the coordinator must die at the injected fault";
    ASSERT_EQ(::waitpid(worker, &status, 0), worker);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    Spool spool(scratch.path);
    EXPECT_TRUE(spool.done())
        << "the promoted worker must have finished the campaign";
    const WorkerReport stats =
        parseWorkerStats(spool.readFile("stats-promoter.txt"));
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_TRUE(spool.exists("result.json"));

    // A post-hoc takeover of the finished spool restores everything
    // from the promoted worker's journal, bit-identically.
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = scratch.path;
    std::string cmd = "rm -f '" + scratch.path + "/DONE'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const CampaignResult merged =
        runDistributedCampaign(spec, kSpoolSpec);
    expectTasksIdentical(reference, merged);
    EXPECT_EQ(merged.spool.journalRestores, reference.tasks.size());
}

} // namespace
} // namespace cyclone
