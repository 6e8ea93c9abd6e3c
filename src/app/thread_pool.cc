#include "app/thread_pool.h"

namespace dadu::app {

ThreadPool::ThreadPool(int threads)
{
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::runIndexed(void (*task)(void *, int), void *ctx, int count)
{
    if (count <= 0)
        return;
    if (workers_.empty()) {
        for (int i = 0; i < count; ++i)
            task(ctx, i);
        return;
    }
    // One bulk dispatch owns the pool at a time; concurrent callers
    // queue up here instead of corrupting each other's bulk_* state.
    std::lock_guard<std::mutex> gate(bulk_gate_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bulk_task_ = task;
        bulk_ctx_ = ctx;
        bulk_count_ = count;
        bulk_next_ = 0;
        bulk_done_ = 0;
    }
    cv_.notify_all();
    // The calling thread claims indices alongside the workers.
    while (true) {
        int idx;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (bulk_next_ >= bulk_count_)
                break;
            idx = bulk_next_++;
        }
        task(ctx, idx);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (++bulk_done_ == bulk_count_)
                done_cv_.notify_all();
        }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return bulk_done_ == bulk_count_; });
    bulk_task_ = nullptr;
    bulk_ctx_ = nullptr;
    bulk_count_ = 0;
    bulk_next_ = 0;
    bulk_done_ = 0;
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        cv_.wait(lock,
                 [this] { return stop_ || bulk_next_ < bulk_count_; });
        if (bulk_next_ >= bulk_count_)
            return; // stop_ with no bulk work left
        const int idx = bulk_next_++;
        void (*fn)(void *, int) = bulk_task_;
        void *ctx = bulk_ctx_;
        lock.unlock();
        fn(ctx, idx);
        lock.lock();
        if (++bulk_done_ == bulk_count_)
            done_cv_.notify_all();
    }
}

} // namespace dadu::app
