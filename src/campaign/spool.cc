#include "campaign/spool.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/content_hash.h"
#include "campaign/fault_plan.h"

namespace cyclone {

namespace {

constexpr const char* kDescriptorMagic = "cyclone-shard v3";
constexpr const char* kRecordMagic = "cyclone-shard-result v4";
constexpr const char* kManifestMagic = "cyclone-spool v2";
constexpr const char* kLeaseFile = "coord.lease";
constexpr const char* kJournalFile = "journal.txt";

/** Errno values worth retrying: the transient I/O family (flaky
 *  disks, NFS hiccups, brief out-of-space). */
bool
transientErrno(int err)
{
    return err == EIO || err == ENOSPC || err == EAGAIN ||
           err == EINTR || err == ESTALE
#ifdef EDQUOT
           || err == EDQUOT
#endif
        ;
}

[[noreturn]] void
throwIo(const std::string& message, int err)
{
    std::string full = message;
    if (err != 0)
        full += " (" + std::string(std::strerror(err)) + ")";
    if (transientErrno(err))
        throw TransientIoError(full);
    throw std::runtime_error(full);
}

void
makeDir(const std::string& path)
{
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error("cannot create directory: " + path +
                                 " (" + std::strerror(errno) + ")");
}

std::vector<std::string>
listDir(const std::string& path)
{
    std::vector<std::string> names;
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr)
        return names;
    while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        // Skip in-flight (dot-prefixed) tmp files of atomic writers,
        // and any stray suffix-style tmp, so neither can ever be
        // claimed and executed as if it were a published shard.
        if (name.find(".tmp-") != std::string::npos ||
            name.rfind(".", 0) == 0)
            continue;
        names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

bool
fileExists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

double
monotonicSeconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool
moveToQuarantine(const std::string& dir, const std::string& relative)
{
    // Best effort: if the directory cannot be made, the rename fails.
    ::mkdir((dir + "/quarantine").c_str(), 0777);
    const size_t slash = relative.find_last_of('/');
    const std::string base = slash == std::string::npos
        ? relative
        : relative.substr(slash + 1);
    return std::rename((dir + "/" + relative).c_str(),
                       (dir + "/quarantine/" + base).c_str()) == 0;
}

std::string
shardId(size_t task, size_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "t%04zu-s%05zu", task, shard);
    return buf;
}

std::string
formatShardDescriptor(const ShardDescriptor& d)
{
    std::string out = std::string(kDescriptorMagic) + "\n";
    putKv(out, "task", d.task);
    putKv(out, "shard", d.shard);
    putKv(out, "first_chunk", d.firstChunk);
    putKv(out, "num_chunks", d.numChunks);
    putKv(out, "content_hash", formatHex(d.contentHash));
    return withCrcLine(std::move(out));
}

ShardDescriptor
parseShardDescriptor(const std::string& text)
{
    KvReader in(text, kDescriptorMagic, "shard descriptor");
    ShardDescriptor d;
    d.task = in.number<size_t>("task");
    d.shard = in.number<size_t>("shard");
    d.firstChunk = in.number<size_t>("first_chunk");
    d.numChunks = in.number<size_t>("num_chunks");
    d.contentHash = in.number<uint64_t>("content_hash", 16);
    in.finish();
    return d;
}

std::string
formatShardRecord(const ShardRecord& r)
{
    std::string out = std::string(kRecordMagic) + "\n";
    putKv(out, "task", r.task);
    putKv(out, "shard", r.shard);
    putKv(out, "content_hash", formatHex(r.contentHash));
    putKv(out, "shots", r.shots);
    putKv(out, "failures", r.failures);
    putKv(out, "seconds", r.seconds);
    putKv(out, "backend", r.decoder.backend);
    putFields(out, r.decoder, BpOsdStats::kCounters);
    return withCrcLine(std::move(out));
}

ShardRecord
parseShardRecord(const std::string& text)
{
    KvReader in(text, kRecordMagic, "shard record");
    ShardRecord r;
    r.task = in.number<size_t>("task");
    r.shard = in.number<size_t>("shard");
    r.contentHash = in.number<uint64_t>("content_hash", 16);
    r.shots = in.number<size_t>("shots");
    r.failures = in.number<size_t>("failures");
    r.seconds = in.number<double>("seconds");
    r.decoder.backend = in.text("backend");
    in.fields(r.decoder, BpOsdStats::kCounters);
    in.finish();
    return r;
}

std::string
formatManifest(const SpoolManifest& m)
{
    std::string out = std::string(kManifestMagic) + "\n";
    putKv(out, "name", m.name);
    putKv(out, "seed", formatHex(m.seed));
    putKv(out, "spec", formatHex(m.specHash));
    putKv(out, "lease", m.leaseSeconds);
    putKv(out, "retry_attempts", m.retryAttempts);
    putKv(out, "retry_base_ms", m.retryBaseMs);
    return withCrcLine(std::move(out));
}

SpoolManifest
parseManifest(const std::string& text)
{
    KvReader in(text, kManifestMagic, "spool manifest");
    SpoolManifest m;
    m.name = in.text("name");
    m.seed = in.number<uint64_t>("seed", 16);
    m.specHash = in.number<uint64_t>("spec", 16);
    m.leaseSeconds = in.number<double>("lease");
    m.retryAttempts = in.number<size_t>("retry_attempts");
    m.retryBaseMs = in.number<double>("retry_base_ms");
    in.finish();
    return m;
}

void
spoolWriteAtomic(const std::string& path, const std::string& text,
                 const char* point)
{
    FaultDecision f;
    if (point != nullptr) {
        f = faultPoint(point);
        if (f.transient)
            throw TransientIoError(
                std::string("injected transient fault at ") + point +
                ": " + path);
    }
    // The temp name must be a DOT-PREFIXED basename in the same
    // directory: directory scans (listDir) skip dotted tmp entries,
    // so an in-flight publish can never be claimed before its final
    // rename lands, and rename stays same-filesystem atomic.
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, ".tmp-%ld-",
                  static_cast<long>(::getpid()));
    const size_t slash = path.find_last_of('/');
    const std::string tmp = slash == std::string::npos
        ? prefix + path
        : path.substr(0, slash + 1) + prefix + path.substr(slash + 1);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throwIo("cannot open for write: " + tmp, errno);
        out << text;
        out.flush();
        if (!out) {
            const int err = errno;
            std::remove(tmp.c_str());
            throwIo("write failed: " + tmp, err);
        }
    }
    if (f.torn) {
        // Model a non-atomic writer dying mid-write: a truncated
        // prefix of the payload lands on the FINAL path and the
        // process is gone. Readers must detect this via the crc.
        const size_t n = faultTornLength(point, text.size());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(text.data(), static_cast<std::streamsize>(n));
        out.flush();
        std::remove(tmp.c_str());
        faultCrash(point);
    }
    if (f.crashBefore)
        faultCrash(point);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        throwIo("rename failed: " + tmp + " -> " + path, err);
    }
    if (f.crashAfter)
        faultCrash(point);
}

std::string
spoolReadFile(const std::string& path, const char* point)
{
    if (point != nullptr && faultPoint(point).transient)
        throw TransientIoError("injected transient read fault: " +
                               path);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIo("cannot read: " + path, errno);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

Spool::Spool(std::string dir) : dir_(std::move(dir)) {}

void
Spool::initialize(const SpoolManifest& manifest,
                  const std::string& specText)
{
    makeDir(dir_);
    for (const char* sub : {"open", "claimed", "done", "results",
                            "reclaims", "quarantine", "workers", "cache"})
        makeDir(dir_ + "/" + sub);
    SpoolManifest m = manifest;
    m.specHash = HashStream().absorb(specText).digest();
    if (initialized()) {
        const SpoolManifest existing = readManifest();
        if (existing.specHash != m.specHash)
            throw std::runtime_error(
                "spool " + dir_ +
                " already holds a different campaign (spec hash " +
                formatHex(existing.specHash) + " != " +
                formatHex(m.specHash) +
                "); use a fresh directory");
        return;
    }
    // Spec first, manifest last: initialized() implies both exist.
    writeFile("spec.ini", specText, "spool.spec.commit");
    writeFile("manifest.txt", formatManifest(m),
              "spool.manifest.commit");
}

bool
Spool::initialized() const
{
    return fileExists(dir_ + "/manifest.txt");
}

SpoolManifest
Spool::readManifest() const
{
    return parseManifest(readFile("manifest.txt"));
}

std::string
Spool::readSpecText() const
{
    return readFile("spec.ini");
}

std::string
Spool::cacheDir() const
{
    return dir_ + "/cache";
}

bool
Spool::publishShard(const ShardDescriptor& d)
{
    const std::string id = shardId(d.task, d.shard);
    if (fileExists(dir_ + "/open/" + id) ||
        fileExists(dir_ + "/claimed/" + id) ||
        fileExists(dir_ + "/done/" + id) ||
        fileExists(dir_ + "/results/" + id + ".rec"))
        return false;
    writeFile("open/" + id, formatShardDescriptor(d),
              "spool.descriptor.commit");
    return true;
}

bool
Spool::claimShard(const std::string& id, ShardDescriptor& out)
{
    const std::string from = dir_ + "/open/" + id;
    const std::string to = dir_ + "/claimed/" + id;
    if (std::rename(from.c_str(), to.c_str()) != 0)
        return false;
    try {
        out = parseShardDescriptor(withRetry(
            "read", to, [&] { return spoolReadFile(to,
                                                   "spool.io.read"); }));
    } catch (const SpoolIoError&) {
        throw;
    } catch (const std::exception&) {
        // Corrupt descriptor (torn publish): never execute it.
        // Quarantine so the coordinator can republish cleanly.
        quarantineShard(id);
        return false;
    }
    // A crash here leaves a live-looking claim nobody will finish:
    // the lease sweep must reclaim it.
    faultMilestone("spool.claim.commit");
    return true;
}

std::vector<std::string>
Spool::openShards() const
{
    return listDir(dir_ + "/open");
}

std::vector<std::string>
Spool::claimedShards() const
{
    return listDir(dir_ + "/claimed");
}

void
Spool::touch(const std::string& relative) const
{
    // Refresh both timestamps to "now"; cheap and race-free (a file
    // that moved meanwhile just makes this a no-op ENOENT).
    ::utimensat(AT_FDCWD, (dir_ + "/" + relative).c_str(), nullptr, 0);
}

void
Spool::heartbeat(const std::string& id) const
{
    if (!faultPoint("spool.heartbeat").freeze)
        touch("claimed/" + id);
}

double
Spool::monotonicAge(const std::string& path) const
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
        std::lock_guard<std::mutex> lock(agesMutex_);
        ages_.erase(path);
        return -1.0;
    }
    const long long mtimeNs =
        static_cast<long long>(st.st_mtim.tv_sec) * 1000000000ll +
        static_cast<long long>(st.st_mtim.tv_nsec);
    const double now = monotonicSeconds();
    std::lock_guard<std::mutex> lock(agesMutex_);
    const auto [it, inserted] = ages_.try_emplace(path);
    AgeObservation& obs = it->second;
    if (inserted || obs.mtimeNs != mtimeNs) {
        // First sighting, or the heartbeat advanced: restart the
        // local monotonic age from zero. Wall-clock steps change
        // neither the stored mtime nor CLOCK_MONOTONIC, so they
        // cannot expire (or immortalize) a lease.
        obs.mtimeNs = mtimeNs;
        obs.monoSeconds = now;
        return 0.0;
    }
    return now - obs.monoSeconds;
}

double
Spool::claimAge(const std::string& id) const
{
    return monotonicAge(dir_ + "/claimed/" + id);
}

bool
Spool::reclaimShard(const std::string& id)
{
    const std::string from = dir_ + "/claimed/" + id;
    const std::string to = dir_ + "/open/" + id;
    return std::rename(from.c_str(), to.c_str()) == 0;
}

size_t
Spool::bumpReclaimCount(const std::string& id)
{
    const size_t count = reclaimCount(id) + 1;
    try {
        writeFile("reclaims/" + id, std::to_string(count) + "\n");
    } catch (const std::exception&) {
        // Best effort: a lost counter update only delays poison
        // detection by one reclaim.
    }
    return count;
}

size_t
Spool::reclaimCount(const std::string& id) const
{
    try {
        return static_cast<size_t>(
            std::stoull(spoolReadFile(dir_ + "/reclaims/" + id)));
    } catch (const std::exception&) {
        return 0; // never reclaimed (or an unreadable counter)
    }
}

bool
Spool::quarantineShard(const std::string& id)
{
    return quarantineFile("claimed/" + id) || quarantineFile("open/" + id);
}

bool
Spool::quarantineRecord(const std::string& id)
{
    return quarantineFile("results/" + id + ".rec");
}

bool
Spool::quarantineFile(const std::string& relative)
{
    return moveToQuarantine(dir_, relative);
}

std::vector<std::string>
Spool::quarantined() const
{
    return listDir(dir_ + "/quarantine");
}

bool
Spool::reviveShard(const std::string& id)
{
    return std::rename((dir_ + "/done/" + id).c_str(),
                       (dir_ + "/open/" + id).c_str()) == 0;
}

bool
Spool::retireClaim(const std::string& id)
{
    return std::rename((dir_ + "/claimed/" + id).c_str(),
                       (dir_ + "/done/" + id).c_str()) == 0;
}

void
Spool::completeShard(const std::string& id, const ShardRecord& r)
{
    writeFile("results/" + id + ".rec", formatShardRecord(r),
              "spool.record.commit");
    // Retire the descriptor. The claim may have been reclaimed to
    // open/ meanwhile (slow heartbeat); move it to done/ from either
    // place so nobody re-executes a shard that already has a record.
    const std::string done = dir_ + "/done/" + id;
    if (std::rename((dir_ + "/claimed/" + id).c_str(), done.c_str()) !=
        0)
        std::rename((dir_ + "/open/" + id).c_str(), done.c_str());
}

bool
Spool::hasRecord(const std::string& id) const
{
    return fileExists(dir_ + "/results/" + id + ".rec");
}

ShardRecord
Spool::readRecord(const std::string& id) const
{
    return parseShardRecord(readFile("results/" + id + ".rec"));
}

bool
Spool::acquireCoordinatorLease(const std::string& owner)
{
    const std::string path = dir_ + "/" + kLeaseFile;
    const int fd = ::open(path.c_str(),
                          O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                          0666);
    if (fd < 0)
        return false;
    const std::string text = "owner " + owner + "\n";
    (void)!::write(fd, text.data(), text.size());
    ::close(fd);
    return true;
}

bool
Spool::stealCoordinatorLease(const std::string& owner)
{
    static std::atomic<unsigned> counter{0};
    char suffix[64];
    std::snprintf(suffix, sizeof suffix, ".dead-%ld-%u",
                  static_cast<long>(::getpid()),
                  counter.fetch_add(1));
    const std::string path = dir_ + "/" + kLeaseFile;
    // Exactly one stealer wins this rename; losers see ENOENT and go
    // back to waiting on the new owner's lease.
    if (std::rename(path.c_str(), (path + suffix).c_str()) != 0)
        return false;
    return acquireCoordinatorLease(owner);
}

void
Spool::heartbeatCoordinator() const
{
    if (!faultPoint("coord.lease.heartbeat").freeze)
        touch(kLeaseFile);
}

double
Spool::coordinatorLeaseAge() const
{
    return monotonicAge(dir_ + "/" + kLeaseFile);
}

bool
Spool::hasCoordinatorLease() const
{
    return fileExists(dir_ + "/" + kLeaseFile);
}

void
Spool::releaseCoordinatorLease(const std::string& owner)
{
    const std::string path = dir_ + "/" + kLeaseFile;
    try {
        const std::string text = spoolReadFile(path);
        if (text.rfind("owner " + owner + "\n", 0) != 0)
            return; // someone stole it; not ours to remove
    } catch (const std::exception&) {
        return;
    }
    ::unlink(path.c_str());
}

void
Spool::writeJournal(const std::string& text)
{
    writeFile(kJournalFile, text, "spool.journal.commit");
}

bool
Spool::readJournal(std::string& out) const
{
    if (!exists(kJournalFile))
        return false;
    out = readFile(kJournalFile);
    return true;
}

void
Spool::writeFile(const std::string& relative, const std::string& text,
                 const char* point)
{
    const std::string path = dir_ + "/" + relative;
    withRetry("write", path, [&] {
        if (faultPoint("spool.io.write").transient)
            throw TransientIoError("injected transient write fault: " +
                                   path);
        spoolWriteAtomic(path, text, point);
    });
}

std::string
Spool::readFile(const std::string& relative) const
{
    const std::string path = dir_ + "/" + relative;
    return withRetry("read", path, [&] {
        return spoolReadFile(path, "spool.io.read");
    });
}

bool
Spool::exists(const std::string& relative) const
{
    return fileExists(dir_ + "/" + relative);
}

std::vector<std::string>
Spool::list(const std::string& subdir) const
{
    return listDir(dir_ + "/" + subdir);
}

double
Spool::workerHealthAge(const std::string& name) const
{
    return monotonicAge(dir_ + "/workers/" + name);
}

void
Spool::markDone()
{
    writeFile("DONE", "done\n", "spool.done.commit");
}

bool
Spool::done() const
{
    return fileExists(dir_ + "/DONE");
}

} // namespace cyclone
