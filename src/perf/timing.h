/**
 * @file
 * Measured host-CPU timing utilities.
 *
 * The paper measures Pinocchio with -O3 on real CPUs; here the
 * equivalent is our reference library measured on the build host.
 */

#ifndef DADU_PERF_TIMING_H
#define DADU_PERF_TIMING_H

#include <chrono>

#include "accel/function.h"
#include "model/robot_model.h"

namespace dadu::perf {

using accel::FunctionType;
using model::RobotModel;

/**
 * Monotonic wall clock in microseconds — the one timing source for
 * every measured path (workload phases, CPU-backend batch stats,
 * bench harness rounds).
 */
inline double
nowUs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() /
           1000.0;
}

/**
 * Measured single-thread latency of the reference library for one
 * dynamics function on the host CPU (the paper's "latency" protocol:
 * many different tasks, single thread, averaged per task). Each of
 * @p reps passes over the tasks is timed in thread CPU time and the
 * fastest pass is reported, so the result does not depend on what
 * else the machine runs.
 */
double hostLatencyUs(const RobotModel &robot, FunctionType fn,
                     int tasks = 32, int reps = 20);

/**
 * Host-CPU throughput model in million tasks/s for @p threads
 * threads: measured single-thread rate scaled by a saturating
 * parallel-efficiency curve (Fig. 2b behaviour: dynamics is
 * memory-bound, so scaling flattens). On this container only one
 * core is available, so multi-thread numbers are a documented model
 * on top of the measured single-thread rate.
 */
double hostThroughputMtasks(const RobotModel &robot, FunctionType fn,
                            int threads);

/** The saturating thread-scaling factor used above. */
double threadScaling(int threads);

} // namespace dadu::perf

#endif // DADU_PERF_TIMING_H
