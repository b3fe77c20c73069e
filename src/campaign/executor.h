/**
 * @file
 * The one campaign executor: a wave planner/merger over every task's
 * AdaptiveSampler, and the chunk-group runner that decodes one
 * staging group on a pool thread. The in-memory transport
 * (CampaignEngine::run) and the spool transport
 * (runDistributedCampaign, whose workers use the same runner) both
 * drive it, so both make every stopping decision at the same wave
 * boundaries on the same cumulative counts and agree bit for bit.
 */

#ifndef CYCLONE_CAMPAIGN_EXECUTOR_H
#define CYCLONE_CAMPAIGN_EXECUTOR_H

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/adaptive_sampler.h"
#include "campaign/campaign.h"

namespace cyclone {

/** What one staging group (or one shard of them) produced. */
struct GroupResult
{
    ChunkOutcome outcome;
    /** Worker seconds spent sampling and decoding. */
    double seconds = 0.0;
    /** Decoder counters the work added (a delta, not a total). */
    BpOsdStats decoder;
    /** Non-empty when the work threw. */
    std::string error;
};

/**
 * Decodes one task's staging groups with one decoder (plus shot
 * buffers and, for streamed tasks, a streaming front-end) per pool
 * thread, created on that thread's first group and reused for every
 * later group of the task.
 */
class ChunkGroupRunner
{
  public:
    /** `task` must be built and outlive the runner. */
    ChunkGroupRunner(const ResolvedTask& task, size_t threads)
        : task_(task), workers_(std::max<size_t>(1, threads))
    {}

    /** Run `count` plans on the calling pool thread's decoder. Never
     *  throws: a failure is reported in GroupResult::error. */
    GroupResult run(const ChunkPlan* plans, size_t count);

    /** Merge every thread's streaming telemetry into `result`. */
    void mergeStreamStats(TaskResult& result) const;

  private:
    struct Worker
    {
        BpOsdDecoder decoder;
        std::vector<ShotBatch> batches;
        std::unique_ptr<StreamDecoder> stream;

        Worker(const DetectorErrorModel& dem, const BpOptions& bp)
            : decoder(dem, bp)
        {}
    };

    const ResolvedTask& task_;
    std::vector<std::unique_ptr<Worker>> workers_;
};

/** Completion channel from pool jobs to the one thread waiting on
 *  them; waiting never polls. */
template <typename T>
class CompletionQueue
{
  public:
    void push(T item)
    {
        // Notify under the lock: the waiter may pop this item, return
        // and destroy the queue; holding the mutex through the notify
        // keeps the cv alive for the whole call.
        std::lock_guard<std::mutex> lock(mutex_);
        items_.push_back(std::move(item));
        cv_.notify_one();
    }

    /** Wait for the next item. */
    T pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !items_.empty(); });
        T item = std::move(items_.front());
        items_.pop_front();
        return item;
    }

    /** Wait up to `seconds` for the next item; false if none came. */
    bool pop(T& out, double seconds)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                          [&] { return !items_.empty(); }))
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<T> items_;
};

/** Call `fn(first, count)` for each `stagingChunks`-aligned group of
 *  `chunks` consecutive plans. */
template <typename Fn>
void
forEachStagingGroup(const StoppingRule& rule, size_t chunks, Fn&& fn)
{
    const size_t group = std::max<size_t>(1, rule.stagingChunks);
    for (size_t g = 0; g < chunks; g += group)
        fn(g, std::min(group, chunks - g));
}

/**
 * The wave planner and merger both transports share. It resolves the
 * spec and restores checkpointed tasks; the transport then builds
 * each task's artifacts, calls advance(), and reports each executed
 * unit of a wave (a staging group in memory, a shard record on the
 * spool) through absorb(). Implemented in campaign.cc.
 */
class WaveExecutor
{
  public:
    struct Task
    {
        ResolvedTask rt;
        /** Set by the first advance() of a built task. */
        std::optional<AdaptiveSampler> sampler;
        std::unique_ptr<ChunkGroupRunner> runner;
        /** Units of the current wave not yet absorbed. */
        size_t outstanding = 0;
        double sampleSeconds = 0.0;
        bool failed = false;
        bool finished = false;
    };

    /** Send task `i`'s next wave out; returns how many units it was
     *  cut into. */
    std::function<size_t(size_t i, const std::vector<ChunkPlan>& wave)>
        dispatch;
    /** Called after each finalize (the spool rewrites its journal). */
    std::function<void(size_t i)> onFinalized;

    CampaignResult result;
    std::vector<Task> tasks;
    /** Tasks not finished yet. */
    size_t remaining = 0;

    /** Resolves `spec` (throws on a bad one) and finishes every task
     *  `resume` holds. */
    WaveExecutor(const CampaignSpec& spec,
                 const CampaignCheckpoint* resume,
                 CampaignEngine::TaskCallback onTaskDone);

    /** At a wave boundary (the first one once the task is built):
     *  dispatch the next wave, or finalize the task if it failed,
     *  never built, or its sampler is done. */
    void advance(size_t i);

    /** Merge one unit of the current wave; the last one advances. */
    void absorb(size_t i, const GroupResult& unit);

    /** Record `error` (the first one wins) and finalize the task once
     *  no unit of its wave is outstanding. */
    void fail(size_t i, const std::string& error);

    /** Finish built task `i` from `journal` if it holds the task (a
     *  dead coordinator finalized it); returns whether it did. */
    bool restore(size_t i, const CampaignCheckpoint& journal);

  private:
    void finalize(size_t i);
    void complete(size_t i);

    CampaignEngine::TaskCallback onTaskDone_;
};

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_EXECUTOR_H
