/**
 * @file
 * Tests for the end-to-end MPC workload, the thread pool and the
 * Fig. 13 scheduler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "accel/accelerator.h"
#include "app/mpc_workload.h"
#include "app/scheduler.h"
#include "app/thread_pool.h"
#include "model/builders.h"

namespace {

using namespace dadu::app;
using dadu::accel::Accelerator;
using dadu::model::makeQuadrupedArm;

/** Per-dispatch bookkeeping for the slot-contract tests. */
struct SlotProbe
{
    explicit SlotProbe(int count, int slots)
        : hits(static_cast<std::size_t>(count)),
          in_use(static_cast<std::size_t>(slots))
    {
        for (auto &h : hits)
            h.store(0);
        for (auto &u : in_use)
            u.store(false);
    }

    std::vector<std::atomic<int>> hits;
    std::vector<std::atomic<bool>> in_use;
    std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> bad_slot{0};      ///< slot outside [0, threads]
    std::atomic<int> shared_slot{0};   ///< slot entered twice at once
    std::atomic<int> slot0_foreign{0}; ///< slot 0 off the caller

    static void task(void *ctx, int i, int slot)
    {
        auto &p = *static_cast<SlotProbe *>(ctx);
        if (slot < 0 || slot >= static_cast<int>(p.in_use.size())) {
            ++p.bad_slot;
            return;
        }
        if (p.in_use[slot].exchange(true))
            ++p.shared_slot;
        if (slot == 0 && std::this_thread::get_id() != p.caller)
            ++p.slot0_foreign;
        // A little work per index so several threads overlap.
        volatile double sink = 0.0;
        for (int k = 0; k < 200; ++k)
            sink = sink + k;
        ++p.hits[i];
        p.in_use[slot].store(false);
    }
};

TEST(ThreadPool, RunIndexedCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    for (int count : {1, 2, 257, 4096}) {
        SCOPED_TRACE(testing::Message() << "count " << count);
        SlotProbe probe(count, pool.threadCount() + 1);
        pool.runIndexed(&SlotProbe::task, &probe, count);
        for (int i = 0; i < count; ++i)
            ASSERT_EQ(probe.hits[i].load(), 1) << "index " << i;
        EXPECT_EQ(probe.bad_slot.load(), 0);
        EXPECT_EQ(probe.shared_slot.load(), 0);
        EXPECT_EQ(probe.slot0_foreign.load(), 0);
    }
}

TEST(ThreadPool, WorkerlessPoolRunsInlineAsSlotZero)
{
    ThreadPool pool(0);
    SlotProbe probe(5, 1);
    pool.runIndexed(&SlotProbe::task, &probe, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(probe.hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(probe.bad_slot.load(), 0);
    EXPECT_EQ(probe.slot0_foreign.load(), 0);
}

TEST(ThreadPool, BackToBackSmallDispatchesComplete)
{
    // Tiny batches in a tight loop keep the workers spinning between
    // them; a pause every 1000 lets their spin budget lapse, so both
    // spin-to-park and park-to-spin transitions are crossed.
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(3);
    for (auto &h : hits)
        h.store(0);
    constexpr int kDispatches = 10000;
    for (int rep = 0; rep < kDispatches; ++rep) {
        pool.runIndexed(
            [](void *ctx, int i, int) {
                ++(*static_cast<std::vector<std::atomic<int>> *>(ctx))[i];
            },
            &hits, 3);
        if (rep % 1000 == 999)
            std::this_thread::sleep_for(ThreadPool::kSpinBeforePark * 4);
    }
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), kDispatches) << "index " << i;
}

TEST(ThreadPool, DestroyWhileWorkersSpinJoins)
{
    // Destroyed right after a dispatch, while the workers are still
    // inside their spin budget; and destroyed with parked workers.
    for (int rep = 0; rep < 50; ++rep) {
        std::atomic<int> sum{0};
        {
            ThreadPool pool(3);
            pool.runIndexed(
                [](void *ctx, int i, int) {
                    *static_cast<std::atomic<int> *>(ctx) += i;
                },
                &sum, 64);
        }
        EXPECT_EQ(sum.load(), 64 * 63 / 2);
    }
    ThreadPool parked(3);
    std::this_thread::sleep_for(ThreadPool::kSpinBeforePark * 4);
}

TEST(ThreadPool, ConcurrentRunIndexedCallersDoNotInterfere)
{
    // Regression: runIndexed's dispatch state was shared and
    // unguarded across callers, so two concurrent bulk dispatches
    // clobbered each other's task/ctx/count and silently corrupted
    // the index space. Dispatches are now serialized on an internal
    // gate: each caller must see every one of ITS indices exactly
    // once, run with ITS context, and be slot 0 of its own dispatch.
    ThreadPool pool(3);
    constexpr int kCallers = 4, kCount = 512, kReps = 8;
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
        threads.emplace_back([&pool, c] {
            for (int rep = 0; rep < kReps; ++rep) {
                SlotProbe probe(kCount, pool.threadCount() + 1);
                pool.runIndexed(&SlotProbe::task, &probe, kCount);
                for (int i = 0; i < kCount; ++i)
                    ASSERT_EQ(probe.hits[i].load(), 1)
                        << "caller " << c << " rep " << rep
                        << " index " << i;
                ASSERT_EQ(probe.bad_slot.load(), 0);
                ASSERT_EQ(probe.shared_slot.load(), 0);
                ASSERT_EQ(probe.slot0_foreign.load(), 0);
            }
        });
    }
    for (auto &t : threads)
        t.join();
}

TEST(Scheduler, ShardedMakespanHalvesAndReducesToSerial)
{
    // shards = 1 is exactly the serial-stage model; sharding divides
    // the streamed portion but pays the per-stage latency in full.
    const double serial =
        scheduleSerialStagesUs(100, 4, 24.0, 120.0, 125.0);
    EXPECT_NEAR(scheduleShardedUs(100, 4, 1, 24.0, 120.0, 125.0),
                serial, 1e-12);
    const double two = scheduleShardedUs(100, 4, 2, 24.0, 120.0, 125.0);
    EXPECT_NEAR(two,
                scheduleSerialStagesUs(50, 4, 24.0, 120.0, 125.0),
                1e-12);
    EXPECT_LT(two, serial);
    EXPECT_GT(2.0 * two, serial); // latency share does not shard away
}

TEST(Scheduler, PipelineBeatsCpuOnParallelStages)
{
    // 100 points x 4 serial stages: the pipeline pays latency per
    // stage boundary, the CPU pays the full task time per stage.
    const double accel_us =
        scheduleSerialStagesUs(100, 4, 24.0, 120.0, 125.0);
    const double cpu_us = scheduleCpuUs(100, 4, 8.0, 4);
    EXPECT_LT(accel_us, cpu_us);
}

TEST(Scheduler, SerialStagesScaleLinearly)
{
    const double two = scheduleSerialStagesUs(100, 2, 24.0, 120.0, 125.0);
    const double four = scheduleSerialStagesUs(100, 4, 24.0, 120.0, 125.0);
    EXPECT_NEAR(four / two, 2.0, 1e-9);
}

TEST(Scheduler, CpuRoundsUpToThreadGranularity)
{
    EXPECT_DOUBLE_EQ(scheduleCpuUs(5, 1, 10.0, 4), 20.0);
    EXPECT_DOUBLE_EQ(scheduleCpuUs(4, 1, 10.0, 4), 10.0);
}

TEST(MpcBreakdown, DerivativeShareIsZeroOnEmptyBreakdown)
{
    // A default (all-zero) breakdown must not divide by zero.
    const MpcBreakdown empty;
    EXPECT_EQ(empty.derivativeShare(), 0.0);
}

TEST(MpcWorkload, BreakdownDominatedByDynamics)
{
    // Fig. 2c: the LQ approximation (dynamics derivatives) is the
    // largest share of the iteration.
    const auto robot = makeQuadrupedArm();
    MpcConfig cfg;
    cfg.horizon_points = 10; // keep the test fast
    MpcWorkload workload(robot, cfg);
    const MpcBreakdown b = workload.measureCpu();
    EXPECT_GT(b.lq_us, 0.0);
    EXPECT_GT(b.rollout_us, 0.0);
    EXPECT_GT(b.solver_us, 0.0);
    EXPECT_GT(b.derivativeShare(), 0.3);
}

TEST(MpcWorkload, MoreThreadsReduceIterationTime)
{
    const auto robot = makeQuadrupedArm();
    MpcConfig cfg;
    cfg.horizon_points = 8;
    MpcWorkload workload(robot, cfg);
    // One measurement, two thread counts: comparing separate
    // wall-clock measurements is load-sensitive (parallel ctest on a
    // small container), while the scaling model is deterministic.
    const MpcBreakdown b = workload.measureCpu();
    const double t1 = MpcWorkload::cpuIterationUsFrom(b, 1);
    const double t4 = MpcWorkload::cpuIterationUsFrom(b, 4);
    EXPECT_LT(t4, t1);
}

TEST(MpcWorkload, AcceleratorBeatsFourThreadCpu)
{
    // Section VI-B: the accelerated tasks speed up ~11x and the
    // control frequency rises vs a 4-thread CPU. The accelerated
    // dynamics phases are real simulated batches (deterministic);
    // the measured CPU phases are shared between both sides so
    // wall-clock jitter under parallel test load cannot flip the
    // comparison.
    const auto robot = makeQuadrupedArm();
    MpcConfig cfg;
    cfg.horizon_points = 16;
    MpcWorkload workload(robot, cfg);
    Accelerator accel(robot);
    dadu::runtime::AcceleratorBackend backend(accel);

    const MpcBreakdown cpu = workload.measureCpu();
    const MpcBreakdown sim = workload.backendBreakdown(backend);
    const double cpu4 = MpcWorkload::cpuIterationUsFrom(cpu, 4);
    const double accelerated = MpcWorkload::iterationUsFrom(
        MpcBreakdown{sim.lq_us, sim.rollout_us, cpu.solver_us},
        /*offloaded=*/true);
    EXPECT_LT(accelerated, cpu4);
}

} // namespace
