/**
 * @file
 * The thread pool every campaign shares.
 *
 * Each worker owns a deque: jobs from outside the pool are dealt to
 * the deques in turn, a worker's own jobs go to its deque, and a worker
 * runs its newest job or else steals the oldest from the next deque.
 * Dealing keeps each worker's share of a wave even whatever order its
 * jobs arrive in; one shared newest-first queue left a worker idle for
 * a wider, order-dependent tail of each perfbench ler_sweep pass.
 *
 * The pool never executes jobs on the submitting thread; campaign
 * coordination stays on the caller while all sampling, compiling and
 * DEM building runs on workers.
 */

#ifndef CYCLONE_CAMPAIGN_THREAD_POOL_H
#define CYCLONE_CAMPAIGN_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cyclone {

/** Fixed-size pool of per-worker deques with stealing. */
class ThreadPool
{
  public:
    /** @param threads worker count (0 = hardware concurrency). */
    explicit ThreadPool(size_t threads = 0);

    /** Waits for all submitted jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /** Enqueue a job; never runs inline on the calling thread. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void waitIdle();

    /**
     * Index of the current pool worker in [0, size()), or -1 when
     * called from a thread the pool does not own. Lets jobs address
     * per-worker scratch state (decoders, sample buffers) without
     * locking.
     */
    static int workerIndex();

  private:
    void workerLoop(size_t self);

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::vector<std::deque<std::function<void()>>> queues_;
    /** Deque of the next job submitted from outside the pool. */
    size_t nextQueue_ = 0;
    /** Jobs in the deques, and jobs popped but not finished. */
    size_t queued_ = 0;
    size_t running_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_THREAD_POOL_H
