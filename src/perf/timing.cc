#include "perf/timing.h"

#include <ctime>
#include <random>
#include <vector>

#include "algorithms/aba.h"
#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/rnea.h"
#include "algorithms/rnea_derivatives.h"

namespace dadu::perf {

using linalg::VectorX;

namespace {

/** CPU time consumed by the calling thread, in microseconds. */
double
threadCpuUs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e6 + ts.tv_nsec / 1000.0;
}

} // namespace

double
hostLatencyUs(const RobotModel &robot, FunctionType fn, int tasks,
              int reps)
{
    std::mt19937 rng(99);
    std::vector<VectorX> qs, qds, us;
    for (int i = 0; i < tasks; ++i) {
        qs.push_back(robot.randomConfiguration(rng));
        qds.push_back(robot.randomVelocity(rng));
        us.push_back(robot.randomVelocity(rng));
    }
    volatile double sink = 0.0;
    // Best of reps, each rep timed in this thread's CPU time: a
    // preemption or a co-scheduled process stalls the wall clock but
    // not the thread's CPU clock, and the minimum drops reps that hit
    // cold caches.
    auto loop = [&](auto &&body) {
        auto pass = [&] {
            for (int i = 0; i < tasks; ++i)
                body(i);
        };
        pass(); // warm-up
        double best = 0.0;
        for (int r = 0; r < reps; ++r) {
            const double t0 = threadCpuUs();
            pass();
            const double us = threadCpuUs() - t0;
            if (r == 0 || us < best)
                best = us;
        }
        return best / tasks;
    };
    switch (fn) {
      case FunctionType::ID:
        return loop([&](int i) {
            sink = algo::rnea(robot, qs[i], qds[i], us[i]).tau[0];
        });
      case FunctionType::FD:
        return loop([&](int i) {
            sink = algo::aba(robot, qs[i], qds[i], us[i])[0];
        });
      case FunctionType::M:
        return loop([&](int i) {
            sink = algo::crba(robot, qs[i])(0, 0);
        });
      case FunctionType::Minv:
        return loop([&](int i) {
            sink = algo::massMatrixInverse(robot, qs[i])(0, 0);
        });
      case FunctionType::DeltaID:
        return loop([&](int i) {
            sink = algo::rneaDerivatives(robot, qs[i], qds[i], us[i])
                       .dtau_dq(0, 0);
        });
      case FunctionType::DeltaFD:
        return loop([&](int i) {
            sink = algo::fdDerivatives(robot, qs[i], qds[i], us[i])
                       .dqdd_dq(0, 0);
        });
      case FunctionType::DeltaiFD: {
        // Precompute q̈ and M⁻¹ outside the timed region.
        std::vector<algo::FdDerivatives> pre;
        for (int i = 0; i < tasks; ++i)
            pre.push_back(
                algo::fdDerivatives(robot, qs[i], qds[i], us[i]));
        return loop([&](int i) {
            sink = algo::fdDerivativesGivenAccel(robot, qs[i], qds[i],
                                                 pre[i].qdd,
                                                 pre[i].minv)
                       .dqdd_dq(0, 0);
        });
      }
    }
    (void)sink;
    return 0.0;
}

double
threadScaling(int threads)
{
    // Saturating curve fit to Fig. 2b: near-linear to 4 threads,
    // flattening beyond 8 (memory-bound forward/backward sweeps).
    const double t = threads;
    return t / (1.0 + 0.09 * (t - 1.0) + 0.012 * (t - 1.0) * (t - 1.0));
}

double
hostThroughputMtasks(const RobotModel &robot, FunctionType fn,
                     int threads)
{
    const double lat = hostLatencyUs(robot, fn);
    return threadScaling(threads) / lat;
}

} // namespace dadu::perf
