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

TEST(ThreadPool, RunIndexedCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h.store(0);
    pool.runIndexed(
        [](void *ctx, int i) {
            ++(*static_cast<std::vector<std::atomic<int>> *>(ctx))[i];
        },
        &hits, 257);
    for (int i = 0; i < 257; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ConcurrentRunIndexedCallersDoNotInterfere)
{
    // Regression: runIndexed's bulk_* dispatch state was shared and
    // unguarded across callers, so two concurrent bulk dispatches
    // clobbered each other's task/ctx/count and silently corrupted
    // the index space. Dispatches are now serialized on an internal
    // gate: each caller must see every one of ITS indices exactly
    // once, run with ITS context.
    ThreadPool pool(3);
    constexpr int kCallers = 4, kCount = 512, kReps = 8;
    struct Caller
    {
        std::vector<std::atomic<int>> hits =
            std::vector<std::atomic<int>>(kCount);
    };
    std::vector<Caller> callers(kCallers);
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
        threads.emplace_back([&pool, &callers, c] {
            for (int rep = 0; rep < kReps; ++rep) {
                for (auto &h : callers[c].hits)
                    h.store(0);
                pool.runIndexed(
                    [](void *ctx, int i) {
                        ++(*static_cast<Caller *>(ctx)).hits[i];
                    },
                    &callers[c], kCount);
                for (int i = 0; i < kCount; ++i)
                    ASSERT_EQ(callers[c].hits[i].load(), 1)
                        << "caller " << c << " rep " << rep
                        << " index " << i;
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
