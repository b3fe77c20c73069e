#include "campaign/fault_plan.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include <unistd.h>

#include "campaign/content_hash.h"

namespace cyclone {

namespace {

struct GlobalPlan
{
    std::mutex mutex;
    FaultPlan plan;
    std::unordered_map<std::string, size_t> hits;
    bool loadedEnv = false;
};

GlobalPlan&
globalPlan()
{
    static GlobalPlan g;
    return g;
}

/** Fast-path flag: false until a non-empty plan is installed. */
std::atomic<bool> gArmed{false};
std::atomic<bool> gEnvChecked{false};

FaultAction
parseAction(const std::string& name)
{
    if (name == "crash_before" || name == "crash")
        return FaultAction::CrashBefore;
    if (name == "crash_after")
        return FaultAction::CrashAfter;
    if (name == "torn")
        return FaultAction::Torn;
    if (name == "transient")
        return FaultAction::Transient;
    if (name == "freeze")
        return FaultAction::Freeze;
    throw std::runtime_error("fault plan: unknown action '" + name +
                             "'");
}

size_t
parseCount(const std::string& text, const char* what)
{
    try {
        const unsigned long long v = std::stoull(text);
        if (v == 0)
            throw std::runtime_error("zero");
        return static_cast<size_t>(v);
    } catch (...) {
        throw std::runtime_error(std::string("fault plan: bad ") +
                                 what + " '" + text + "'");
    }
}

void
loadEnvPlanLocked(GlobalPlan& g)
{
    if (g.loadedEnv)
        return;
    g.loadedEnv = true;
    const char* env = std::getenv("CYCLONE_FAULT_PLAN");
    if (env != nullptr && env[0] != '\0') {
        g.plan = FaultPlan::parse(env);
        g.hits.clear();
        gArmed.store(!g.plan.empty(), std::memory_order_release);
    }
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string& text)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t end = text.find(';', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string item = text.substr(pos, end - pos);
        pos = end + 1;
        const size_t first = item.find_first_not_of(" \t\r\n");
        if (first == std::string::npos)
            continue; // empty rule
        item = item.substr(first,
                           item.find_last_not_of(" \t\r\n") - first + 1);
        if (item.rfind("seed=", 0) == 0) {
            plan.seed = parseCount(item.substr(5), "seed");
            continue;
        }
        const size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0)
            throw std::runtime_error(
                "fault plan: expected point:action, got '" + item +
                "'");
        FaultRule rule;
        rule.point = item.substr(0, colon);
        std::string action = item.substr(colon + 1);
        // Optional *COUNT and @HIT suffixes, in either order.
        for (int i = 0; i < 2; ++i) {
            const size_t star = action.find_last_of('*');
            const size_t at = action.find_last_of('@');
            if (star != std::string::npos &&
                (at == std::string::npos || star > at)) {
                rule.count =
                    parseCount(action.substr(star + 1), "count");
                action.erase(star);
            } else if (at != std::string::npos) {
                rule.firstHit =
                    parseCount(action.substr(at + 1), "hit");
                action.erase(at);
            }
        }
        rule.action = parseAction(action);
        if (rule.action == FaultAction::Freeze && rule.count == 1)
            rule.count = static_cast<size_t>(-1); // freeze: forever
        plan.rules.push_back(std::move(rule));
    }
    return plan;
}

void
installFaultPlan(FaultPlan plan)
{
    GlobalPlan& g = globalPlan();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.loadedEnv = true; // an explicit install overrides the env
    g.plan = std::move(plan);
    g.hits.clear();
    gArmed.store(!g.plan.empty(), std::memory_order_release);
}

FaultDecision
faultPoint(const char* point)
{
    if (!gEnvChecked.load(std::memory_order_acquire)) {
        GlobalPlan& g = globalPlan();
        std::lock_guard<std::mutex> lock(g.mutex);
        loadEnvPlanLocked(g);
        gEnvChecked.store(true, std::memory_order_release);
    }
    FaultDecision d;
    if (!gArmed.load(std::memory_order_acquire))
        return d;
    GlobalPlan& g = globalPlan();
    std::lock_guard<std::mutex> lock(g.mutex);
    const size_t hit = ++g.hits[point];
    for (const FaultRule& rule : g.plan.rules) {
        if (rule.point != point)
            continue;
        if (hit < rule.firstHit ||
            hit - rule.firstHit >= rule.count)
            continue;
        switch (rule.action) {
        case FaultAction::CrashBefore: d.crashBefore = true; break;
        case FaultAction::CrashAfter: d.crashAfter = true; break;
        case FaultAction::Torn: d.torn = true; break;
        case FaultAction::Transient: d.transient = true; break;
        case FaultAction::Freeze: d.freeze = true; break;
        }
    }
    return d;
}

void
faultCrash(const char* point)
{
    (void)point;
    ::_exit(kFaultCrashExitCode);
}

void
faultMilestone(const char* point)
{
    const FaultDecision d = faultPoint(point);
    if (d.crashBefore || d.crashAfter)
        faultCrash(point);
}

size_t
faultTornLength(const char* point, size_t size)
{
    if (size == 0)
        return 0;
    uint64_t seed;
    {
        GlobalPlan& g = globalPlan();
        std::lock_guard<std::mutex> lock(g.mutex);
        seed = g.plan.seed;
    }
    const uint64_t h =
        HashStream().absorb(seed).absorb(std::string(point)).digest();
    return static_cast<size_t>(h % size);
}

} // namespace cyclone
