/**
 * @file
 * The benchmark's workloads. Each runs a fixed amount of closed-loop
 * work derived from --seconds (never a fixed duration, so faster
 * code finishes the same work sooner), checks its outputs, and fills
 * the report with the end-to-end metrics (untraced run) or the
 * per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** Two HyQ MPC clients, gated, EDF + coalesce + steal on two lanes. */
void runServe2HyqGated(const Args &args, Report &report);

/** One client repeating a seeded 256-point iiwa ∆FD batch. */
void runBatchDfdIiwa(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
