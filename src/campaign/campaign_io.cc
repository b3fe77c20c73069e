#include "campaign/campaign_io.h"

#include <cctype>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "campaign/record_codec.h"
#include "campaign/spool.h"
#include "compiler/architecture.h"

namespace cyclone {

namespace {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

constexpr const char* kCheckpointMagic = "cyclone-campaign-checkpoint v3";

/**
 * Decoder counters the CSV carried before the counter table: they
 * keep their columns before `backend`. Every other counter is
 * appended after `error`, in table order.
 */
bool
inlineCsvCounter(std::string_view name)
{
    return name == "osd_batch_groups" || name == "osd_shared_pivots" ||
           name == "staged_chunks";
}

/** `{"name": value, ...}` over a counter table. */
template <typename T, size_t N>
void
jsonCounters(std::ostream& out, const T& obj,
             const StatField<T, size_t> (&table)[N])
{
    const char* sep = "{";
    for (const auto& c : table) {
        out << sep << '"' << c.name << "\": " << obj.*c.member;
        sep = ", ";
    }
    out << '}';
}

std::string
csvField(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
trim(const std::string& s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(s);
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

[[noreturn]] void
specError(size_t line, const std::string& message)
{
    throw std::runtime_error("campaign spec line " +
                             std::to_string(line) + ": " + message);
}

/**
 * Every numeric spec key routes through the one strict number parser
 * (record_codec.h), so a malformed value — a sign, trailing garbage
 * ("12abc"), overflow — reports the offending line AND key
 * ("staging_chunks = banana" names both).
 */
template <typename V>
V
parseSpec(size_t line, const std::string& key, const std::string& value)
{
    try {
        return parseNumber<V>(value, "campaign spec");
    } catch (const std::runtime_error&) {
        specError(line, "key '" + key + "': expected a non-negative "
                        "number, got '" + value + "'");
    }
}

/** One [task] block before arch/p expansion. */
struct TaskBlock
{
    TaskSpec base;
    std::vector<std::string> archs{"cyclone"};
    std::vector<double> ps{1e-3};
    size_t line = 0;
};

bool
parseTaskArchitecture(const std::string& name, TaskSpec& task)
{
    if (name == "none" || name == "explicit") {
        task.compileLatency = false;
        return true;
    }
    const std::optional<Architecture> arch = parseArchitecture(name);
    if (!arch)
        return false;
    task.compileLatency = true;
    task.architecture = *arch;
    return true;
}

void
expandBlock(const TaskBlock& block, CampaignSpec& spec,
            std::vector<size_t>& taskLines)
{
    const bool multi = block.archs.size() * block.ps.size() > 1;
    for (const std::string& archName : block.archs) {
        for (double p : block.ps) {
            TaskSpec task = block.base;
            if (!parseTaskArchitecture(archName, task))
                specError(block.line,
                          "unknown architecture '" + archName + "'");
            task.physicalError = p;
            if (!task.id.empty() && multi) {
                char suffix[48];
                std::snprintf(suffix, sizeof suffix, "/%s/p=%.3g",
                              archName.c_str(), p);
                task.id += suffix;
            }
            spec.tasks.push_back(std::move(task));
            taskLines.push_back(block.line);
        }
    }
}

/**
 * Reject duplicate effective task ids. Results, checkpoints and spool
 * shards all key tasks by id or index; two tasks sharing an id would
 * silently shadow each other in every report. Auto ids ("task<N>")
 * participate too, so an explicit "task3" colliding with the third
 * anonymous task is caught as well.
 */
void
checkDuplicateTaskIds(const CampaignSpec& spec,
                      const std::vector<size_t>& taskLines)
{
    std::unordered_map<std::string, size_t> seen;
    for (size_t i = 0; i < spec.tasks.size(); ++i) {
        const std::string id = !spec.tasks[i].id.empty()
            ? spec.tasks[i].id
            : "task" + std::to_string(i);
        const auto [it, inserted] = seen.emplace(id, i);
        if (!inserted)
            specError(taskLines[i],
                      "duplicate task id '" + id +
                          "' (first defined by the [task] section at "
                          "line " +
                          std::to_string(taskLines[it->second]) + ")");
    }
}

} // namespace

std::string
campaignResultToJson(const CampaignResult& result)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"campaign\": \"" << jsonEscape(result.name) << "\",\n";
    out << "  \"seed\": " << result.seed << ",\n";
    out << "  \"wall_seconds\": " << num(result.wallSeconds) << ",\n";
    out << "  \"total_shots\": " << result.totalShots() << ",\n";
    out << "  \"cache\": ";
    jsonCounters(out, result.cache, CacheStats::kCounters);
    out << ",\n  \"spool\": ";
    jsonCounters(out, result.spool, SpoolStats::kCounters);
    out << ",\n";
    out << "  \"tasks\": [\n";
    for (size_t i = 0; i < result.tasks.size(); ++i) {
        const TaskResult& t = result.tasks[i];
        out << "    {\"id\": \"" << jsonEscape(t.id) << "\", \"code\": \""
            << jsonEscape(t.codeName) << "\", \"architecture\": \""
            << jsonEscape(t.architecture) << "\", \"p\": "
            << num(t.physicalError) << ", \"rounds\": " << t.rounds
            << ", \"basis\": \"" << (t.xBasis ? 'x' : 'z')
            << "\", \"round_latency_us\": " << num(t.roundLatencyUs)
            << ",\n     \"shots\": " << t.logicalErrorRate.trials
            << ", \"failures\": " << t.logicalErrorRate.successes
            << ", \"ler\": " << num(t.logicalErrorRate.rate)
            << ", \"stderr\": " << num(t.logicalErrorRate.stderr)
            << ", \"wilson\": " << num(t.wilson)
            << ", \"per_round_ler\": " << num(t.perRoundErrorRate)
            << ",\n     \"dem_detectors\": " << t.demDetectors
            << ", \"dem_mechanisms\": " << t.demMechanisms
            << ", \"chunks\": " << t.chunks << ", \"stopped_early\": "
            << (t.stoppedEarly ? "true" : "false")
            << ", \"from_checkpoint\": "
            << (t.fromCheckpoint ? "true" : "false")
            << ", \"sample_seconds\": " << num(t.sampleSeconds)
            << ",\n     \"decoder\": {";
        for (const auto& c : BpOsdStats::kCounters)
            out << '"' << c.name << "\": " << t.decoder.*c.member << ", ";
        out << "\"backend\": \"" << jsonEscape(t.decoder.backend)
            << "\",\n                 \"trivial_fraction\": "
            << num(t.decoder.trivialFraction())
            << ", \"memo_hit_rate\": " << num(t.decoder.memoHitRate())
            << ", \"mean_bp_iterations\": "
            << num(t.decoder.meanBpIterations())
            << ", \"wave_lane_occupancy\": "
            << num(t.decoder.waveLaneOccupancy())
            << ", \"wave_lane_utilization\": "
            << num(t.decoder.waveLaneUtilization()) << "}";
        if (t.streamed) {
            const StreamDecodeStats& s = t.stream;
            out << ",\n     \"streaming\": {\"windows\": " << s.windows
                << ", \"rounds_pushed\": " << s.roundsPushed
                << ", \"truncated_rounds\": " << s.truncatedRounds
                << ", \"deadline_us\": " << num(s.deadlineUs)
                << ", \"deadline_misses\": " << s.deadlineMisses
                << ", \"miss_fraction\": "
                << num(s.deadlineMissFraction())
                << ",\n                   \"latency_p50_us\": "
                << num(s.p50Us) << ", \"latency_p99_us\": "
                << num(s.p99Us) << ", \"latency_p999_us\": "
                << num(s.p999Us) << ", \"latency_mean_us\": "
                << num(s.meanLatencyUs()) << ", \"latency_min_us\": "
                << num(s.latencyMinUs) << ", \"latency_max_us\": "
                << num(s.latencyMaxUs)
                << ",\n                   \"slab_slots\": "
                << s.slabSlots << ", \"slab_filled\": " << s.slabFilled
                << ", \"slab_occupancy\": " << num(s.slabOccupancy())
                << ", \"flushes_full\": " << s.flushesFull
                << ", \"flushes_deadline\": " << s.flushesDeadline
                << ", \"flushes_final\": " << s.flushesFinal << "}";
        }
        if (t.compileMakespanUs > 0.0) {
            const double span = t.compileMakespanUs;
            const TimeBreakdown& b = t.compileBreakdown;
            out << ",\n     \"compile\": {\"makespan_us\": " << num(span)
                << ", \"parallel_fraction\": "
                << num(t.compileParallelFraction)
                << ", \"trap_roadblocks\": " << t.trapRoadblocks
                << ", \"junction_roadblocks\": " << t.junctionRoadblocks
                << ",\n       \"serialized_us\": {\"gate\": "
                << num(b.gateUs) << ", \"shuttle\": " << num(b.shuttleUs)
                << ", \"junction\": " << num(b.junctionUs)
                << ", \"swap\": " << num(b.swapUs) << ", \"measure\": "
                << num(b.measureUs) << ", \"prep\": " << num(b.prepUs)
                << "},\n       \"utilization\": {\"gate\": "
                << num(b.gateUs / span) << ", \"shuttle\": "
                << num(b.shuttleUs / span) << ", \"junction\": "
                << num(b.junctionUs / span) << ", \"swap\": "
                << num(b.swapUs / span) << "}"
                << ",\n       \"roadblock_waits\": {\"count\": "
                << t.roadblockWaits.waits << ", \"total_us\": "
                << num(t.roadblockWaits.totalWaitUs) << ", \"bins\": [";
            for (size_t b2 = 0; b2 < WaitHistogram::kBins; ++b2) {
                if (b2 > 0)
                    out << ", ";
                out << t.roadblockWaits.bins[b2];
            }
            out << "]}}";
        }
        if (!t.error.empty())
            out << ", \"error\": \"" << jsonEscape(t.error) << "\"";
        out << "}";
        if (i + 1 < result.tasks.size())
            out << ",";
        out << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

std::string
campaignResultToCsv(const CampaignResult& result)
{
    std::ostringstream out;
    out << "id,code,architecture,p,rounds,basis,round_latency_us,shots,"
           "failures,ler,wilson,per_round_ler,chunks,stopped_early,"
           "from_checkpoint,sample_seconds,trivial_fraction,"
           "memo_hit_rate,mean_bp_iterations,wave_lane_occupancy,"
           "wave_lane_utilization,";
    for (const auto& c : BpOsdStats::kCounters)
        if (inlineCsvCounter(c.name))
            out << c.name << ',';
    out << "backend,"
           "stream_windows,stream_p50_us,stream_p99_us,stream_p999_us,"
           "stream_deadline_misses,stream_slab_occupancy,"
           "util_gate,util_shuttle,"
           "util_junction,util_swap,parallel_fraction,trap_roadblocks,"
           "junction_roadblocks,roadblock_wait_us,error";
    for (const auto& c : BpOsdStats::kCounters)
        if (!inlineCsvCounter(c.name))
            out << ',' << c.name;
    out << '\n';
    for (const TaskResult& t : result.tasks) {
        const double span = t.compileMakespanUs;
        auto util = [&](double component_us) {
            return span > 0.0 ? component_us / span : 0.0;
        };
        out << csvField(t.id) << ',' << csvField(t.codeName) << ','
            << csvField(t.architecture) << ','
            << num(t.physicalError) << ',' << t.rounds << ','
            << (t.xBasis ? 'x' : 'z') << ',' << num(t.roundLatencyUs)
            << ',' << t.logicalErrorRate.trials << ','
            << t.logicalErrorRate.successes << ','
            << num(t.logicalErrorRate.rate) << ',' << num(t.wilson)
            << ',' << num(t.perRoundErrorRate) << ',' << t.chunks << ','
            << (t.stoppedEarly ? 1 : 0) << ','
            << (t.fromCheckpoint ? 1 : 0) << ',' << num(t.sampleSeconds)
            << ',' << num(t.decoder.trivialFraction()) << ','
            << num(t.decoder.memoHitRate()) << ','
            << num(t.decoder.meanBpIterations()) << ','
            << num(t.decoder.waveLaneOccupancy()) << ','
            << num(t.decoder.waveLaneUtilization()) << ',';
        for (const auto& c : BpOsdStats::kCounters)
            if (inlineCsvCounter(c.name))
                out << t.decoder.*c.member << ',';
        out << csvField(t.decoder.backend) << ','
            << t.stream.windows << ',' << num(t.stream.p50Us) << ','
            << num(t.stream.p99Us) << ',' << num(t.stream.p999Us)
            << ',' << t.stream.deadlineMisses << ','
            << num(t.stream.slabOccupancy()) << ','
            << num(util(t.compileBreakdown.gateUs)) << ','
            << num(util(t.compileBreakdown.shuttleUs)) << ','
            << num(util(t.compileBreakdown.junctionUs)) << ','
            << num(util(t.compileBreakdown.swapUs)) << ','
            << num(t.compileParallelFraction) << ','
            << t.trapRoadblocks << ',' << t.junctionRoadblocks << ','
            << num(t.roadblockWaits.totalWaitUs) << ','
            << csvField(t.error);
        for (const auto& c : BpOsdStats::kCounters)
            if (!inlineCsvCounter(c.name))
                out << ',' << t.decoder.*c.member;
        out << '\n';
    }
    return out.str();
}

bool
writeTextFile(const std::string& path, const std::string& content)
{
    try {
        spoolWriteAtomic(path, content);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

std::string
formatCheckpoint(const std::vector<TaskResult>& tasks)
{
    std::string out = std::string(kCheckpointMagic) + "\n";
    for (const TaskResult& t : tasks) {
        if (!t.error.empty() || t.logicalErrorRate.trials == 0)
            continue;
        putKv(out, "task", formatHex(t.contentHash));
        putKv(out, "rounds", t.rounds);
        putKv(out, "round_latency_us", t.roundLatencyUs);
        putKv(out, "dem_detectors", t.demDetectors);
        putKv(out, "dem_mechanisms", t.demMechanisms);
        putKv(out, "shots", t.logicalErrorRate.trials);
        putKv(out, "failures", t.logicalErrorRate.successes);
        putKv(out, "chunks", t.chunks);
        putKv(out, "stopped_early", uint64_t{t.stoppedEarly});
        putKv(out, "sample_seconds", t.sampleSeconds);
        putKv(out, "backend", t.decoder.backend);
        putFields(out, t.decoder, BpOsdStats::kCounters);
        putKv(out, "streamed", uint64_t{t.streamed});
        putFields(out, t.stream, StreamDecodeStats::kCounters);
        putFields(out, t.stream, StreamDecodeStats::kScalars);
    }
    return withCrcLine(std::move(out));
}

CampaignCheckpoint
parseCheckpoint(const std::string& text)
{
    KvReader in(text, kCheckpointMagic, "campaign checkpoint");
    CampaignCheckpoint out;
    while (!in.atEnd()) {
        TaskResult t;
        t.contentHash = in.number<uint64_t>("task", 16);
        t.rounds = in.number<size_t>("rounds");
        t.roundLatencyUs = in.number<double>("round_latency_us");
        t.demDetectors = in.number<size_t>("dem_detectors");
        t.demMechanisms = in.number<size_t>("dem_mechanisms");
        const size_t shots = in.number<size_t>("shots");
        setShotCounts(t, in.number<size_t>("failures"), shots);
        t.chunks = in.number<size_t>("chunks");
        t.stoppedEarly = in.number<size_t>("stopped_early") != 0;
        t.sampleSeconds = in.number<double>("sample_seconds");
        t.decoder.backend = in.text("backend");
        in.fields(t.decoder, BpOsdStats::kCounters);
        t.streamed = in.number<size_t>("streamed") != 0;
        in.fields(t.stream, StreamDecodeStats::kCounters);
        in.fields(t.stream, StreamDecodeStats::kScalars);
        t.fromCheckpoint = true;
        const uint64_t hash = t.contentHash;
        if (!out.tasks.emplace(hash, std::move(t)).second)
            throw std::runtime_error("campaign checkpoint: duplicate "
                                     "task " + formatHex(hash));
    }
    return out;
}

bool
saveCheckpoint(const CampaignResult& result, const std::string& path)
{
    return writeTextFile(path, formatCheckpoint(result.tasks));
}

bool
loadCheckpoint(const std::string& path, CampaignCheckpoint& out)
{
    std::string text;
    try {
        text = spoolReadFile(path);
    } catch (const std::exception&) {
        return false;
    }
    out = parseCheckpoint(text);
    return true;
}

CampaignSpec
parseCampaignSpec(const std::string& text)
{
    CampaignSpec spec;
    std::vector<TaskBlock> blocks;
    TaskBlock* current = nullptr;

    std::istringstream in(text);
    std::string raw;
    size_t lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        const size_t comment = raw.find('#');
        if (comment != std::string::npos)
            raw.resize(comment);
        const std::string line = trim(raw);
        if (line.empty())
            continue;
        if (line == "[task]") {
            blocks.emplace_back();
            blocks.back().line = lineno;
            current = &blocks.back();
            continue;
        }
        if (line.front() == '[')
            specError(lineno, "unknown section '" + line + "'");
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            specError(lineno, "expected key = value");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            specError(lineno, "expected key = value");

        if (current == nullptr) {
            if (key == "name")
                spec.name = value;
            else if (key == "seed")
                spec.seed = parseSpec<size_t>(lineno, key, value);
            else if (key == "threads")
                spec.threads = parseSpec<size_t>(lineno, key, value);
            else if (key == "spool")
                spec.spool = value;
            else if (key == "workers")
                spec.workers = parseSpec<size_t>(lineno, key, value);
            else if (key == "lease_seconds") {
                spec.leaseSeconds = parseSpec<double>(lineno, key, value);
                if (!(spec.leaseSeconds > 0.0))
                    specError(lineno, "lease_seconds must be > 0");
            } else if (key == "max_claim_reclaims")
                spec.maxClaimReclaims =
                    parseSpec<size_t>(lineno, key, value);
            else if (key == "retry_attempts") {
                spec.retryAttempts = parseSpec<size_t>(lineno, key, value);
                if (spec.retryAttempts == 0)
                    specError(lineno, "retry_attempts must be >= 1");
            } else if (key == "retry_base_ms") {
                spec.retryBaseMs = parseSpec<double>(lineno, key, value);
            } else if (key == "fault_plan")
                spec.faultPlan = value;
            else
                specError(lineno,
                          "unknown campaign key '" + key + "'");
            continue;
        }
        TaskSpec& t = current->base;
        if (key == "id") {
            t.id = value;
        } else if (key == "code") {
            t.codeName = value;
        } else if (key == "arch") {
            current->archs = splitList(value);
            if (current->archs.empty())
                specError(lineno, "empty arch list");
        } else if (key == "p") {
            current->ps.clear();
            for (const std::string& item : splitList(value))
                current->ps.push_back(
                    parseSpec<double>(lineno, key, item));
            if (current->ps.empty())
                specError(lineno, "empty p list");
        } else if (key == "rounds") {
            t.rounds = parseSpec<size_t>(lineno, key, value);
        } else if (key == "basis") {
            if (value == "z")
                t.xBasis = false;
            else if (value == "x")
                t.xBasis = true;
            else
                specError(lineno, "basis must be z or x");
        } else if (key == "latency_us") {
            t.roundLatencyUs = parseSpec<double>(lineno, key, value);
        } else if (key == "latency_scale") {
            t.latencyScale = parseSpec<double>(lineno, key, value);
        } else if (key == "swap") {
            if (value == "gate")
                t.swap = SwapKind::GateSwap;
            else if (value == "ion")
                t.swap = SwapKind::IonSwap;
            else
                specError(lineno, "swap must be gate or ion");
        } else if (key == "grid-capacity" || key == "grid_capacity") {
            t.gridCapacity = parseSpec<size_t>(lineno, key, value);
            if (t.gridCapacity == 0)
                specError(lineno, "grid-capacity must be >= 1");
        } else if (key == "idle_noise" || key == "idle-noise") {
            if (value == "uniform")
                t.idleNoise = IdleNoiseMode::UniformLatency;
            else if (value == "per-qubit" || value == "per_qubit" ||
                     value == "schedule")
                t.idleNoise = IdleNoiseMode::PerQubitSchedule;
            else
                specError(lineno,
                          "idle_noise must be uniform or per-qubit");
        } else if (key == "chunk_shots") {
            t.stop.chunkShots = parseSpec<size_t>(lineno, key, value);
        } else if (key == "chunks_per_wave") {
            t.stop.chunksPerWave = parseSpec<size_t>(lineno, key, value);
        } else if (key == "max_shots") {
            t.stop.maxShots = parseSpec<size_t>(lineno, key, value);
        } else if (key == "target_rel_err") {
            t.stop.targetRelErr = parseSpec<double>(lineno, key, value);
        } else if (key == "min_failures") {
            t.stop.minFailures = parseSpec<size_t>(lineno, key, value);
        } else if (key == "staging_chunks") {
            t.stop.stagingChunks = parseSpec<size_t>(lineno, key, value);
            if (t.stop.stagingChunks == 0)
                specError(lineno, "staging_chunks must be >= 1");
        } else if (key == "shard_chunks") {
            t.stop.shardChunks = parseSpec<size_t>(lineno, key, value);
        } else if (key == "streaming") {
            if (value == "on" || value == "true")
                t.stream.enabled = true;
            else if (value == "off" || value == "false")
                t.stream.enabled = false;
            else
                specError(lineno, "streaming must be on or off");
        } else if (key == "streams") {
            t.stream.streams = parseSpec<size_t>(lineno, key, value);
            if (t.stream.streams == 0)
                specError(lineno, "streams must be >= 1");
        } else if (key == "stream_flush") {
            if (value == "full-wave" || value == "full_wave" ||
                value == "fullwave")
                t.stream.deadlineFlush = false;
            else if (value == "deadline")
                t.stream.deadlineFlush = true;
            else
                specError(lineno,
                          "stream_flush must be full-wave or deadline");
        } else if (key == "stream_deadline_us") {
            t.stream.deadlineUs = parseSpec<double>(lineno, key, value);
        } else if (key == "stream_flush_after_us") {
            t.stream.flushAfterUs = parseSpec<double>(lineno, key, value);
        } else if (key == "seed") {
            t.seed = parseSpec<size_t>(lineno, key, value);
        } else if (key == "bp") {
            if (value != "minsum")
                specError(lineno, "bp must be minsum (the only BP "
                                  "variant)");
            t.bp.variant = BpOptions::Variant::MinSum;
        } else if (key == "bp_iters") {
            t.bp.maxIterations = parseSpec<size_t>(lineno, key, value);
        } else {
            specError(lineno, "unknown task key '" + key + "'");
        }
    }

    std::vector<size_t> taskLines;
    for (const TaskBlock& block : blocks) {
        if (block.base.codeName.empty())
            specError(block.line, "[task] section needs a code");
        expandBlock(block, spec, taskLines);
    }
    if (spec.tasks.empty())
        throw std::runtime_error("campaign spec defines no tasks");
    checkDuplicateTaskIds(spec, taskLines);
    return spec;
}

} // namespace cyclone
