#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "bench.h"

namespace perfbench {

namespace {

struct MetricSpec
{
    const char* name;
    const char* unit;
};

/** The end-to-end metrics every untraced run reports (BENCHMARK.json
 *  end_to_end, same order). */
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics every traced run reports (BENCHMARK.json
 *  per_layer, same order). */
constexpr MetricSpec kPerLayer[] = {
    {"compiler.self_s", "s"},
    {"compiler.ops", "count"},
    {"circuit.self_s", "s"},
    {"dem.build_s", "s"},
    {"dem.mechanisms", "count"},
    {"dem.sample_shots_per_s", "shots/s"},
    {"decoder.bp_wave_share", "ratio"},
    {"decoder.osd_share", "ratio"},
    {"decoder.replay_share", "ratio"},
    {"decoder.lane_util", "ratio"},
    {"decoder.wave_lane_occupancy", "ratio"},
    {"decoder.bp_iters_mean", "iters"},
    {"decoder.nonconv_frac", "ratio"},
    {"decoder.osd_groups_per_solve", "ratio"},
    {"decoder.trivial_frac", "ratio"},
    {"decoder.memo_hit_rate", "ratio"},
    {"stream.slab_occupancy", "ratio"},
    {"stream.flushes_full", "count"},
    {"stream.flushes_deadline", "count"},
    {"stream.decoder_busy_frac", "ratio"},
    {"stream.deadline_miss_frac", "ratio"},
    {"campaign.pool_busy_frac", "ratio"},
    {"campaign.cache_compile_hits", "count"},
    {"campaign.cache_compile_misses", "count"},
    {"campaign.cache_dem_hits", "count"},
    {"campaign.cache_dem_misses", "count"},
    {"spool.over_local", "ratio"},
    {"spool.shards_merged", "count"},
    {"spool.store_hits", "count"},
    {"spool.transient_retries", "count"},
    {"spool.records_quarantined", "count"},
    {"compiler.self_share", "ratio"},
    {"circuit.self_share", "ratio"},
    {"dem.self_share", "ratio"},
    {"decoder.self_share", "ratio"},
    {"stream.self_share", "ratio"},
    {"campaign.self_share", "ratio"},
    {"spool.self_share", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
median(const std::vector<double>& samples)
{
    return quantile(samples, 0.5);
}

double
peakRssMb()
{
    struct rusage self{};
    struct rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
        1024.0;
}

Report::Report(const Args& args) : args_(args)
{
    std::ifstream in(args.golden);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        std::string value;
        if (fields >> key >> value)
            goldenValues_[key] = value;
    }
}

void
Report::metric(const std::string& name, double value,
               const std::string& unit)
{
    lines_.push_back({name, value, unit, true});
}

void
Report::info(const std::string& name, double value,
             const std::string& unit)
{
    lines_.push_back({name, value, unit, false});
}

void
Report::check(bool ok, const std::string& what)
{
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        ++checksFailed_;
}

void
Report::golden(const std::string& key, double value, bool seedDependent)
{
    const std::string text = formatNumber(value);
    if (seedDependent && args_.seed != kDefaultSeed)
        return;
    if (args_.emitGolden) {
        goldenOut_.push_back(key + " " + text);
        return;
    }
    auto it = goldenValues_.find(key);
    if (it == goldenValues_.end()) {
        check(false, "golden " + key + " missing from " + args_.golden);
        return;
    }
    check(std::strtod(it->second.c_str(), nullptr) == value,
          "golden " + key + " = " + it->second + " (got " + text + ")");
}

int
Report::finish()
{
    const MetricSpec* table = args_.trace ? kPerLayer : kEndToEnd;
    const size_t count = args_.trace
        ? sizeof kPerLayer / sizeof kPerLayer[0]
        : sizeof kEndToEnd / sizeof kEndToEnd[0];

    for (const Line& l : lines_)
        std::printf("%-8s %-40s %s %s\n", l.json ? "metric" : "info",
                    l.name.c_str(), formatNumber(l.value).c_str(),
                    l.unit.c_str());
    for (const std::string& g : goldenOut_)
        std::printf("golden %s\n", g.c_str());

    std::string json = "{\"correct\": ";
    json += checksFailed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < count; ++i) {
        double value = 0.0;
        bool found = false;
        for (const Line& l : lines_) {
            if (l.json && l.name == table[i].name) {
                value = l.value;
                found = true;
            }
        }
        // Untraced runs must measure every end-to-end metric; a
        // per-layer metric of a layer the workload never calls is 0.
        if (!found && !args_.trace)
            check(false, std::string("metric ") + table[i].name +
                      " was not measured");
        if (i > 0)
            json += ", ";
        json.append("\"").append(table[i].name);
        json.append("\": {\"value\": ").append(formatNumber(value));
        json.append(", \"unit\": \"").append(table[i].unit).append("\"}");
    }
    json += "}}";
    for (const Line& l : lines_) {
        if (!l.json)
            continue;
        bool listed = false;
        for (size_t i = 0; i < count; ++i)
            listed = listed || l.name == table[i].name;
        if (!listed)
            check(false, std::string("metric ").append(l.name).append(
                             " is not in the table"));
    }
    if (checksFailed_ > 0)
        std::printf("%zu check(s) failed\n", checksFailed_);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return checksFailed_ == 0 ? 0 : 1;
}

} // namespace perfbench
