/**
 * @file
 * Experiment E5/E9 — Fig. 16: batched ∆iFD (iiwa) against the
 * platforms of [33]: i7-7700 (4 threads), RTX 2080, and the
 * Robomorphic FPGA, for batch sizes 16/32/64/128.
 *
 * Also prints the single-task latency comparison of Section VI-A:
 * Dadu-RBD 0.76 µs vs Robomorphic 0.61 µs for iiwa ∆iFD (Dadu
 * trades a little latency for much higher throughput).
 */

#include "bench_util.h"
#include "seed_reference.h"

#include <memory>
#include <thread>

#include "algorithms/batched.h"
#include "algorithms/dynamics.h"
#include "algorithms/soa/kernels.h"
#include "algorithms/workspace.h"
#include "runtime/backends.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

/**
 * Measured host-CPU ∆FD: the seed's allocating single-point loop
 * against the workspace single-point loop (the scalar reference) and
 * the zero-allocation batched engine, at 1 thread (the SoA lane
 * contribution alone) and at 2/4/8 threads. The configurations are
 * timed in interleaved rounds — one sweep of each per round, best
 * sweep kept — so load spikes hit every configuration alike instead
 * of skewing whichever happened to be running.
 */
void
measuredCpuSection(const RobotModel &robot, JsonReport &report)
{
    banner("measured CPU ∆FD throughput (points/sec), higher is better");
    const int points = 128;
    const int rounds = 31;
    std::mt19937 rng(17);
    std::vector<linalg::VectorX> qs, qds, taus;
    for (int i = 0; i < points; ++i) {
        qs.push_back(robot.randomConfiguration(rng));
        qds.push_back(robot.randomVelocity(rng));
        taus.push_back(robot.randomVelocity(rng));
    }

    // Environment stamps: the committed numbers are meaningless
    // without them (a 1-core container shows 4t ≈ 1t, and the SoA
    // speedup depends on the build's lane width).
    const double hw =
        static_cast<double>(std::thread::hardware_concurrency());
    report.add("hardware_concurrency", hw);
    report.add("lane_width", algo::soa::kLaneWidth);

    algo::DynamicsWorkspace ws(robot);
    algo::FdDerivatives d;
    std::vector<std::unique_ptr<algo::BatchedDynamics>> engines;
    const std::vector<int> engine_threads = {2, 4, 8};
    for (int threads : engine_threads)
        engines.push_back(
            std::make_unique<algo::BatchedDynamics>(robot, threads));

    // Single-thread engine: against the workspace loop it isolates
    // the SIMD lane contribution from threading.
    algo::BatchedDynamics soa_engine(robot, 1);

    // Sweeps: seed loop, workspace loop, one per engine config.
    const auto seed_sweep = [&] {
        volatile double sink = 0.0;
        for (int i = 0; i < points; ++i) {
            const auto fd = seedref::fdDerivatives(robot, qs[i], qds[i],
                                                   taus[i]);
            sink = fd.dqdd_dq(0, 0);
        }
        (void)sink;
    };
    const auto ws_sweep = [&] {
        volatile double sink = 0.0;
        for (int i = 0; i < points; ++i) {
            algo::fdDerivatives(robot, ws, qs[i], qds[i], taus[i], d);
            sink = d.dqdd_dq(0, 0);
        }
        (void)sink;
    };
    const auto engine_sweep = [&](algo::BatchedDynamics &engine) {
        const auto &out = engine.batchFdDerivatives(qs, qds, taus);
        volatile double sink = out[0].dqdd_dq(0, 0);
        (void)sink;
    };

    // Warm-up once, then interleaved timed rounds, best-of kept.
    seed_sweep();
    ws_sweep();
    for (auto &e : engines)
        engine_sweep(*e);
    engine_sweep(soa_engine);
    double seed_us = 0.0, ws_us = 0.0, soa_us = 0.0;
    std::vector<double> engine_us(engines.size(), 0.0);
    for (int rep = 0; rep < rounds; ++rep) {
        double t0 = nowUs();
        seed_sweep();
        double dt = nowUs() - t0;
        if (rep == 0 || dt < seed_us)
            seed_us = dt;
        t0 = nowUs();
        ws_sweep();
        dt = nowUs() - t0;
        if (rep == 0 || dt < ws_us)
            ws_us = dt;
        for (std::size_t e = 0; e < engines.size(); ++e) {
            t0 = nowUs();
            engine_sweep(*engines[e]);
            dt = nowUs() - t0;
            if (rep == 0 || dt < engine_us[e])
                engine_us[e] = dt;
        }
        t0 = nowUs();
        engine_sweep(soa_engine);
        dt = nowUs() - t0;
        if (rep == 0 || dt < soa_us)
            soa_us = dt;
    }

    const double seed_pps = points / (seed_us * 1e-6);
    const double ws_pps = points / (ws_us * 1e-6);
    std::printf("%-34s %12.0f pts/s\n",
                "seed single-point loop (1t):", seed_pps);
    report.add("seed_pts_per_sec", seed_pps);
    std::printf("%-34s %12.0f pts/s   (%.2fx seed)\n",
                "scalar per-point loop (1t):", ws_pps, ws_pps / seed_pps);
    report.add("workspace_1t_pts_per_sec", ws_pps);

    // SoA over scalar on the same thread and points: the
    // hardware-normalized kernel ratio tools/bench_compare.py gates.
    const double soa_pps = points / (soa_us * 1e-6);
    char label[64];
    std::snprintf(label, sizeof label, "engine 1t, SoA lanes (W=%d):",
                  algo::soa::kLaneWidth);
    std::printf("%-34s %12.0f pts/s   (%.2fx seed, %.2fx scalar)\n",
                label, soa_pps, soa_pps / seed_pps, soa_pps / ws_pps);
    report.add("soa_1t_pts_per_sec", soa_pps);
    report.add("soa_speedup", soa_pps / ws_pps);

    for (std::size_t e = 0; e < engines.size(); ++e) {
        const int threads = engine_threads[e];
        const double pps = points / (engine_us[e] * 1e-6);
        std::snprintf(label, sizeof label, "batched engine (%dt, eff %dt):",
                      threads, engines[e]->threadCount());
        std::printf("%-34s %12.0f pts/s   (%.2fx seed, %.2fx 1t)\n",
                    label, pps, pps / seed_pps, pps / ws_pps);
        char key[64];
        std::snprintf(key, sizeof key, "batched_%dt_pts_per_sec", threads);
        report.add(key, pps);
        std::snprintf(key, sizeof key, "batched_%dt_threads_effective",
                      threads);
        report.add(key, engines[e]->threadCount());
        if (threads == 4) {
            report.add("batched_4t_speedup_vs_seed", pps / seed_pps);
            report.add("batched_4t_speedup_vs_1t", pps / ws_pps);
            // Multi-core scaling of the engine itself: 4-thread rate
            // over the 1-thread engine's, per effective thread (so a
            // 2-core runner is judged against 2x, not 4x).
            const double eff =
                pps / (soa_pps * engines[e]->threadCount());
            std::printf("%-34s %12.2f       (4t engine / (1t engine x "
                        "%d threads))\n",
                        "engine 4t efficiency:", eff,
                        engines[e]->threadCount());
            report.add("engine_4t_efficiency", eff);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Fig. 16 — batched iiwa ∆iFD time (us), lower is better");
    const RobotModel robot = model::makeIiwa();
    Accelerator accel(robot);
    runtime::AcceleratorBackend backend(accel);
    std::vector<runtime::DynamicsResult> outputs;

    // ∆iFD inputs include q̈ and M⁻¹ (computed up front, as in the
    // Robomorphic protocol where the CPU supplies them).
    auto make_batch = [&](int n) {
        auto batch = randomBatch(robot, n);
        for (auto &t : batch) {
            const auto pre =
                algo::fdDerivatives(robot, t.q, t.qd, t.qdd_or_tau);
            t.qdd_or_tau = pre.qdd;
            t.minv = pre.minv;
        }
        return batch;
    };

    std::printf("%8s %14s %14s %14s %14s\n", "batch", "i7-7700(4t)",
                "RTX2080", "Robomorphic", "Dadu(sim)");
    for (int batch : {16, 32, 64, 128}) {
        const double cpu = perf::batchedTimeUs(
            perf::Platform::CpuOf33, perf::EvalRobot::Iiwa,
            FunctionType::DeltaiFD, batch);
        const double gpu = perf::batchedTimeUs(
            perf::Platform::GpuOf33, perf::EvalRobot::Iiwa,
            FunctionType::DeltaiFD, batch);
        const double robo = perf::batchedTimeUs(
            perf::Platform::Robomorphic, perf::EvalRobot::Iiwa,
            FunctionType::DeltaiFD, batch);
        accel::BatchStats stats;
        backend.submit(FunctionType::DeltaiFD, make_batch(batch), outputs,
                       &stats);
        std::printf("%8d %14.2f %14.2f %14.2f %14.2f   "
                    "(speedup: %4.1fx cpu, %4.1fx gpu, %4.1fx fpga)\n",
                    batch, cpu, gpu, robo, stats.total_us,
                    cpu / stats.total_us, gpu / stats.total_us,
                    robo / stats.total_us);
    }
    std::printf("\npaper speedups: 10.3x-13.0x cpu, 3.4x-11.3x gpu, "
                "6.3x-7.0x fpga\n");

    banner("Section VI-A — single-task iiwa ∆iFD latency");
    accel::BatchStats single;
    backend.submit(FunctionType::DeltaiFD, make_batch(1), outputs,
                   &single);
    std::printf("Dadu-RBD (sim):    %.2f us  (paper: 0.76 us)\n",
                single.latency_us);
    std::printf("Robomorphic model: %.2f us  (paper: 0.61 us)\n",
                perf::paperLatencyUs(perf::Platform::Robomorphic,
                                     perf::EvalRobot::Iiwa,
                                     FunctionType::DeltaiFD));

    JsonReport report;
    measuredCpuSection(robot, report);
    maybeWriteJson(argc, argv, report, "BENCH_batched.json");
    return 0;
}
