/**
 * @file
 * Minimal fixed-size thread pool for the multi-threaded CPU baseline
 * (the paper's Fig. 2b experiment runs the LQ-approximation tasks on
 * 1-12 threads).
 */

#ifndef DADU_APP_THREAD_POOL_H
#define DADU_APP_THREAD_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace dadu::app {

/** Fixed-size worker pool running indexed bulk dispatches. */
class ThreadPool
{
  public:
    /**
     * One unit of an indexed dispatch. @p slot names the executing
     * thread: 0 is the thread that called runIndexed(), worker k is
     * slot k, so slot is in [0, threadCount()]. Callers index
     * per-thread scratch (one workspace per slot) with it.
     */
    using Task = void (*)(void *ctx, int index, int slot);

    /**
     * How long an idle worker spins on the dispatch epoch, and the
     * caller on the joined-worker count, before parking on a
     * condition variable. Back-to-back batches of a closed loop then
     * hand off through shared memory instead of a futex wake-up.
     */
    static constexpr std::chrono::microseconds kSpinBeforePark{50};

    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run task(ctx, index, slot) for every index in [0, count) and
     * block until all of them have completed. The calling thread
     * runs as slot 0 and claims indices alongside the workers; each
     * claim is one atomic increment, so many small indices balance
     * across threads (a late worker's share is absorbed by the
     * others). A single index, or a pool without workers, runs
     * inline on the caller without waking anyone. Dispatch is
     * allocation-free — no std::function, no queue nodes — which
     * keeps the batched dynamics hot loop heap-silent.
     *
     * Within one dispatch no slot is used by two threads at once.
     * Safe to call from multiple threads: concurrent dispatches are
     * serialized on an internal gate (each caller is slot 0 of its
     * own dispatch, so per-slot scratch belongs to the ctx, not the
     * pool). Do NOT call from inside one of the pool's own tasks — a
     * worker blocking on the gate would deadlock the batch it
     * belongs to.
     */
    void runIndexed(Task task, void *ctx, int count);

    int threadCount() const { return static_cast<int>(workers_.size()); }

  private:
    void workerLoop(int slot);

    std::vector<std::thread> workers_;

    // Serializes concurrent runIndexed() callers for their whole
    // dispatch; never taken while holding mutex_.
    std::mutex bulk_gate_;

    // Guards the published batch (task_, ctx_, count_, open_), stop_
    // and parked_, and every change of active_: a worker joins a
    // batch (++active_) only while it is open, and leaves under the
    // same lock, so once the caller closes the batch and sees
    // active_ == 0 no thread can still touch it.
    std::mutex mutex_;
    std::condition_variable work_cv_; ///< parked workers
    std::condition_variable idle_cv_; ///< parked caller (active_ -> 0)
    Task task_ = nullptr;
    void *ctx_ = nullptr;
    int count_ = 0;
    bool open_ = false;
    bool stop_ = false;
    int parked_ = 0; ///< workers waiting on work_cv_

    // Read lock-free by spinning threads, each on its own line.
    alignas(64) std::atomic<std::uint64_t> epoch_{0}; ///< bumped per batch
    alignas(64) std::atomic<int> next_{0};            ///< index claims
    alignas(64) std::atomic<int> active_{0};          ///< joined workers
};

} // namespace dadu::app

#endif // DADU_APP_THREAD_POOL_H
