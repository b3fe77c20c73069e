#include "campaign/thread_pool.h"

#include <algorithm>
#include <utility>

namespace cyclone {

namespace {
thread_local int tls_worker_index = -1;
} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    const size_t n = threads > 0
        ? threads
        : std::max<size_t>(1, std::thread::hardware_concurrency());
    queues_.resize(n);
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        workers_.emplace_back(&ThreadPool::workerLoop, this, i);
}

ThreadPool::~ThreadPool()
{
    waitIdle();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_)
        w.join();
}

int
ThreadPool::workerIndex()
{
    return tls_worker_index;
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const int self = tls_worker_index;
        const size_t q = self >= 0 ? static_cast<size_t>(self)
                                   : nextQueue_++ % queues_.size();
        queues_[q].push_back(std::move(job));
        ++queued_;
    }
    wake_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
}

void
ThreadPool::workerLoop(size_t self)
{
    tls_worker_index = static_cast<int>(self);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] { return stop_ || queued_ > 0; });
        if (queued_ == 0)
            return; // stopping, and nothing left to run
        // Own newest job, else the oldest of the next non-empty deque.
        size_t q = self;
        while (queues_[q].empty())
            q = (q + 1) % queues_.size();
        std::function<void()> job =
            std::move(q == self ? queues_[q].back() : queues_[q].front());
        if (q == self)
            queues_[q].pop_back();
        else
            queues_[q].pop_front();
        --queued_;
        ++running_;
        lock.unlock();
        job();
        job = nullptr;
        lock.lock();
        if (--running_ == 0 && queued_ == 0)
            idle_.notify_all();
    }
}

} // namespace cyclone
