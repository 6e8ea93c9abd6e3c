#include "app/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dadu::app {

namespace {

/** Spin-wait hint: yields the core's pipeline to its SMT sibling. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Spin until @p ready() holds or ThreadPool::kSpinBeforePark has
 * elapsed; returns whether it holds. The clock is read once every 16
 * relax hints, so the budget costs no syscall and little overshoot.
 */
template <class Ready>
bool
spinUntil(Ready ready)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + ThreadPool::kSpinBeforePark;
    for (unsigned i = 1;; ++i) {
        if (ready())
            return true;
        cpuRelax();
        if ((i & 15u) == 0 && Clock::now() >= deadline)
            return ready();
    }
}

} // namespace

ThreadPool::ThreadPool(int threads)
{
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this, slot = i + 1] { workerLoop(slot); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        epoch_.fetch_add(1, std::memory_order_release); // end any spin
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::runIndexed(Task task, void *ctx, int count)
{
    if (count <= 0)
        return;
    if (workers_.empty() || count == 1) {
        for (int i = 0; i < count; ++i)
            task(ctx, i, 0);
        return;
    }
    // One bulk dispatch owns the pool at a time; concurrent callers
    // queue up here instead of corrupting each other's batch state.
    std::lock_guard<std::mutex> gate(bulk_gate_);
    bool wake;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        task_ = task;
        ctx_ = ctx;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        open_ = true;
        epoch_.fetch_add(1, std::memory_order_release);
        wake = parked_ > 0;
    }
    // Spinning workers see the new epoch on their own; only parked
    // ones need the futex.
    if (wake)
        work_cv_.notify_all();
    for (int i = next_.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next_.fetch_add(1, std::memory_order_relaxed))
        task(ctx, i, 0);
    // Every index is claimed. Close the batch so a worker that wakes
    // late cannot join it (or the next one's counter), then wait for
    // the joined workers to finish their last claims.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = false;
    }
    if (!spinUntil([this] {
            return active_.load(std::memory_order_acquire) == 0;
        })) {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_cv_.wait(lock, [this] {
            return active_.load(std::memory_order_acquire) == 0;
        });
    }
}

void
ThreadPool::workerLoop(int slot)
{
    std::uint64_t seen = 0;
    while (true) {
        spinUntil([this, seen] {
            return epoch_.load(std::memory_order_acquire) != seen;
        });
        std::unique_lock<std::mutex> lock(mutex_);
        if (epoch_.load(std::memory_order_relaxed) == seen) {
            ++parked_;
            work_cv_.wait(lock, [this, seen] {
                return epoch_.load(std::memory_order_relaxed) != seen;
            });
            --parked_;
        }
        if (stop_)
            return;
        seen = epoch_.load(std::memory_order_relaxed);
        if (!open_)
            continue; // woke after the batch closed: nothing to join
        active_.fetch_add(1, std::memory_order_relaxed);
        const Task task = task_;
        void *const ctx = ctx_;
        const int count = count_;
        lock.unlock();
        for (int i = next_.fetch_add(1, std::memory_order_relaxed);
             i < count; i = next_.fetch_add(1, std::memory_order_relaxed))
            task(ctx, i, slot);
        lock.lock();
        if (active_.fetch_sub(1, std::memory_order_release) == 1)
            idle_cv_.notify_one();
    }
}

} // namespace dadu::app
