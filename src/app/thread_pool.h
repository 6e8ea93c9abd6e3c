/**
 * @file
 * Minimal fixed-size thread pool for the multi-threaded CPU baseline
 * (the paper's Fig. 2b experiment runs the LQ-approximation tasks on
 * 1-12 threads).
 */

#ifndef DADU_APP_THREAD_POOL_H
#define DADU_APP_THREAD_POOL_H

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace dadu::app {

/** Fixed-size worker pool running indexed bulk dispatches. */
class ThreadPool
{
  public:
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run task(ctx, index) for every index in [0, count) across the
     * worker threads (the calling thread participates) and block
     * until all of them have completed. Dispatch is allocation-free
     * — no std::function, no queue nodes — which keeps the batched
     * dynamics hot loop heap-silent.
     *
     * Safe to call from multiple threads: concurrent bulk dispatches
     * are serialized on an internal gate (the pool runs one indexed
     * batch at a time; later callers block until the earlier batch
     * completes). Do NOT call from inside one of the pool's own
     * tasks — a worker blocking on the gate would deadlock the batch
     * it belongs to.
     */
    void runIndexed(void (*task)(void *ctx, int index), void *ctx,
                    int count);

    int threadCount() const { return static_cast<int>(workers_.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    bool stop_ = false;

    // Bulk (indexed) dispatch state, guarded by mutex_. The state is
    // one-dispatch-at-a-time; bulk_gate_ serializes concurrent
    // runIndexed() callers so they cannot clobber it (it is held for
    // the caller's whole dispatch, so it must never be taken while
    // holding mutex_).
    std::mutex bulk_gate_;
    void (*bulk_task_)(void *, int) = nullptr;
    void *bulk_ctx_ = nullptr;
    int bulk_count_ = 0;
    int bulk_next_ = 0;
    int bulk_done_ = 0;
};

} // namespace dadu::app

#endif // DADU_APP_THREAD_POOL_H
