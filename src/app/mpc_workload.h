/**
 * @file
 * The end-to-end robot application of Fig. 2 / Section VI-B.
 *
 * A whole-body MPC iteration in the OCS2 style: along a horizon of N
 * sample points, each iteration performs
 *
 *  - an LQ approximation: forward dynamics, its derivatives (∆FD)
 *    and the mass-matrix inverse at every sample point — the
 *    parallelizable dark-blue share of Fig. 2c, dominated by rigid
 *    body dynamics;
 *  - RK4 integration with sensitivity propagation: four *serial*
 *    dynamics stages per sample point (the partially-parallelizable
 *    workload of Fig. 13);
 *  - a backward Riccati-style solver sweep (inherently serial).
 *
 * The workload runs the real reference algorithms, so CPU timings
 * are measured; the offloaded variants submit the dynamics tasks
 * through the unified runtime::DynamicsBackend interface, with the
 * Fig. 13 serial-stage scheduling executed by a
 * runtime::DynamicsServer (one full-width batch per RK4 stage).
 */

#ifndef DADU_APP_MPC_WORKLOAD_H
#define DADU_APP_MPC_WORKLOAD_H

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/accelerator.h"
#include "algorithms/batched.h"
#include "ctrl/problem.h"
#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "model/robot_model.h"
#include "runtime/backends.h"
#include "runtime/server.h"

namespace dadu::app {

using accel::Accelerator;
using model::RobotModel;

/** Workload dimensions. */
struct MpcConfig
{
    int horizon_points = 100; ///< ~1 s horizon at 0.01 s steps
    double dt = 0.01;         ///< integration step
    int threads = 4;          ///< batched-engine parallelism (Fig. 2b)
};

/**
 * Aggregate accounting of the multi-client serving scenario: M MPC
 * clients submitting their dynamics phases concurrently to one
 * DynamicsServer (all times in backend time, so the numbers compose
 * across measured CPU and modeled accelerator backends).
 */
struct MultiClientReport
{
    double makespan_us = 0.0; ///< busiest backend lane over the run
    double busy_us = 0.0;     ///< total backend busy time, all lanes
    std::size_t jobs = 0;     ///< jobs served (2 per client round)
    std::size_t tasks = 0;    ///< individual dynamics requests
    double throughput_mtasks = 0.0; ///< tasks per makespan µs
    // QoS outcome of deadline-tagged rounds (zero when untagged):
    // every tagged job lands in exactly one bucket — completed by
    // its deadline or completed late and reported as a miss.
    std::size_t deadline_met = 0;
    std::size_t deadline_misses = 0;
    std::size_t coalesced_batches = 0; ///< merged submissions served
    std::size_t steals = 0;            ///< items run off their home lane
};

/**
 * Outcome of a closed-loop MPC run (solveClosedLoop /
 * serveClosedLoopClients): real iLQR receding-horizon control, the
 * plant stepped with the reference dynamics, every solver dynamics
 * request served by the runtime.
 */
struct ClosedLoopReport
{
    std::size_t ticks = 0;      ///< control ticks served (all clients)
    double wall_us = 0.0;       ///< wall time of the tick stream
    double ticks_per_s = 0.0;   ///< ticks / wall seconds
    double final_cost = 0.0;    ///< solver horizon cost, last tick (sum)
    double tracking_err = 0.0;  ///< plant state error vs reference (max)
    bool converged = true;      ///< every client's priming solve converged
    // Server-side accounting over the run:
    std::size_t jobs = 0;       ///< dynamics jobs served
    std::size_t tasks = 0;      ///< individual dynamics requests
    double busy_us = 0.0;       ///< backend busy time, all lanes
    std::size_t deadline_met = 0;
    std::size_t deadline_misses = 0;
    std::size_t coalesced_batches = 0;
    std::size_t steals = 0;
    // Fault-tolerance outcome of the run (zero on a healthy server):
    std::size_t degraded_ticks = 0; ///< ticks served from the stale plan
    std::size_t rejected_jobs = 0;  ///< jobs shed by admission control
    std::size_t failed_jobs = 0;    ///< jobs lost to dead lanes
    std::size_t lane_deaths = 0;    ///< lanes quarantined during the run
    std::size_t transient_faults = 0; ///< faulted submits (incl. retried)
    std::size_t retries = 0;          ///< resubmissions that recovered work
    // Column-gating engagement of the solver(s) over the run (all
    // zero when gating is off): dense ∆FD refreshes, gated ∆iFD
    // refreshes, refreshes skipped outright (nothing drifted past
    // tolerance), and the mean live-column density of the gated ones.
    long long dense_refreshes = 0;
    long long gated_refreshes = 0;
    long long skipped_refreshes = 0;
    double mean_live_density = 0.0;

    /** Fraction of tagged jobs that completed by their deadline
     *  (1.0 when nothing was tagged). */
    double
    deadlineHitRate() const
    {
        const std::size_t tagged = deadline_met + deadline_misses;
        return tagged == 0
                   ? 1.0
                   : static_cast<double>(deadline_met) / tagged;
    }
};

/** Wall-clock shares of one MPC iteration (Fig. 2c). */
struct MpcBreakdown
{
    double lq_us = 0.0;       ///< LQ approximation (parallelizable)
    double rollout_us = 0.0;  ///< RK4 rollout with sensitivities
    double solver_us = 0.0;   ///< serial Riccati sweep
    double total() const { return lq_us + rollout_us + solver_us; }

    /** Fraction of the iteration spent in derivatives of dynamics. */
    double
    derivativeShare() const
    {
        const double t = total();
        return t > 0.0 ? lq_us / t : 0.0;
    }
};

/** One MPC iteration driver. */
class MpcWorkload
{
  public:
    MpcWorkload(const RobotModel &robot, MpcConfig cfg = {});

    /**
     * Run one LQ-approximation + rollout iteration single-threaded on
     * the host and return the measured per-phase times. Dynamics
     * evaluations reuse the workload's workspace, so steady-state
     * iterations perform no heap allocation in the dynamics phases.
     */
    MpcBreakdown measureCpu();

    /**
     * Like measureCpu(), but the LQ-approximation phase — ∆FD at
     * every horizon point, the dominant share of Fig. 2c — is
     * submitted through the workload's CpuBatchedBackend (the
     * runtime interface over the BatchedDynamics engine across
     * cfg.threads workspaces). The rollout (serial per point) and
     * Riccati sweep are unchanged, so lq_us is the directly measured
     * batched wall-clock time.
     */
    MpcBreakdown measureCpuBatched();

    /**
     * Modeled iteration time with @p threads CPU threads: measured
     * single-thread phases, parallel phases scaled by the saturating
     * curve of perf::threadScaling (Fig. 2b).
     */
    double cpuIterationUs(int threads);

    /**
     * The thread-scaling model of cpuIterationUs() applied to an
     * already-measured breakdown — lets callers compare thread
     * counts from ONE measurement instead of re-measuring per count
     * (wall-clock jitter between measurements would otherwise leak
     * into the comparison).
     */
    static double cpuIterationUsFrom(const MpcBreakdown &b, int threads);

    /**
     * Per-phase times with the dynamics tasks served by @p backend
     * through a DynamicsServer: lq is one ∆FD batch over the
     * horizon, rollout is the Fig. 13 serial-stage job (four chained
     * full-width FD batches with the RK4 half-step advance between
     * stages), and solver is the measured CPU sweep. lq/rollout are
     * in backend time (measured for CPU backends, modeled
     * microseconds for the accelerator paths); the stage outputs are
     * really computed, so every backend returns the same rollout
     * trajectory.
     */
    MpcBreakdown backendBreakdown(runtime::DynamicsBackend &backend);

    /**
     * Iteration time with the dynamics on @p backend. Offloaded
     * backends overlap the CPU-kept solver sweep except for the
     * data dependency at the end of the iteration; host backends
     * share the CPU with the solver, so their phases add up.
     */
    double backendIterationUs(runtime::DynamicsBackend &backend);

    /**
     * Combine an already-computed backendBreakdown() into the
     * iteration time under backendIterationUs()'s overlap rule,
     * without re-running the workload.
     */
    static double
    iterationUsFrom(const MpcBreakdown &b, bool offloaded)
    {
        if (offloaded)
            return std::max(b.lq_us + b.rollout_us, b.solver_us);
        return b.total();
    }

    /**
     * Heavy-traffic scenario: @p clients MPC clients, each on its
     * own thread, submit @p rounds iterations of their dynamics
     * phases to @p server concurrently — the LQ ∆FD batch sharded
     * across every registered backend, the Fig. 13 rollout as a
     * serial-stage job on the least-loaded lane — and block on their
     * own jobs, exactly as latency-critical MPC loops would. Client
     * c perturbs the horizon samples by a per-client offset so the
     * traffic is not identical. Starts the server's workers if not
     * already running (and stops them again in that case); the
     * server's accounting interval is drained into the report.
     *
     * @p deadline_slack > 0 turns the clients into deadline-tagged
     * (EDF-schedulable) traffic: from its second round on, each
     * client predicts its jobs' makespan with the closed-form
     * runtime::sched::predictedAdmissionUs — per-task time
     * calibrated from its own previous round's BatchStats, queued
     * work read from the server's lane load — and tags them with
     * deadline = now + slack x prediction. The report's deadline
     * buckets then account every tagged job.
     */
    MultiClientReport serveMultiClient(runtime::DynamicsServer &server,
                                       int clients, int rounds = 1,
                                       double deadline_slack = 0.0);

    /**
     * Closed-loop MPC with a REAL trajectory optimizer — the path
     * that supersedes the synthetic Riccati sweep of measureCpu()'s
     * solver phase for the bench_mpc_solve workload. One
     * ctrl::MpcSession (reaching scenario for this robot) runs
     * @p ticks receding-horizon control ticks against a plant
     * stepped with the reference dynamics; every solver dynamics
     * request is served by @p backend through a synchronous
     * DynamicsServer. @p options tunes the session's solver — the
     * column-sparsity gating knobs in particular, so the gated and
     * dense closed loops can be compared on one workload.
     */
    ClosedLoopReport solveClosedLoop(runtime::DynamicsBackend &backend,
                                     int ticks,
                                     ctrl::IlqrOptions options = {});

    /**
     * Heavy-traffic closed-loop scenario: @p clients MPC sessions on
     * their own threads (scenario mix: reaching / gait /
     * disturbance-recovery, phase-shifted per client) tick
     * concurrently against @p server for @p ticks control steps
     * each. With @p deadline_slack > 0 every dynamics job is
     * deadline-tagged (EDF-schedulable) via the session's
     * predictedAdmissionUs admission path, and the report's deadline
     * buckets account the outcome. Starts the server's workers when
     * not already running (stopping them again in that case); the
     * server's accounting interval is drained into the report.
     */
    ClosedLoopReport serveClosedLoopClients(
        runtime::DynamicsServer &server, int clients, int ticks,
        double deadline_slack = 0.0);

    const MpcConfig &config() const { return cfg_; }

    /** The CPU runtime backend driving the LQ-approximation phase. */
    runtime::CpuBatchedBackend &cpuBackend() { return cpu_backend_; }

    /** The batched engine behind cpuBackend(). */
    algo::BatchedDynamics &engine() { return cpu_backend_.engine(); }

  private:
    /**
     * Per-job context of the RK4 stage-boundary advance: every
     * concurrently-served rollout needs its own integration scratch
     * (concurrent serial-stage jobs run their advances on different
     * server worker threads).
     */
    struct RolloutCtx
    {
        const RobotModel *robot = nullptr;
        double half_dt = 0.0;
        linalg::VectorX step, q_next;
    };

    /** RK4 rollout shared by the measured variants (workspace-based). */
    double measureRolloutUs();

    /**
     * Serial SYNTHETIC Riccati-style sweep (nv x nv factorization
     * work shaped like a solver, solving nothing). Kept as the
     * solver-phase stand-in of the Fig. 2c breakdown benches;
     * deprecated for bench_mpc_solve, which runs the real iLQR
     * backward pass via solveClosedLoop() instead.
     */
    double measureSolverUs();

    /** Stage-boundary RK4 half-step advance (DynamicsServer hook);
     *  @p ctx is the job's RolloutCtx. */
    static void advanceRollout(void *ctx, int next_stage,
                               const runtime::DynamicsResult *results,
                               runtime::DynamicsRequest *requests,
                               std::size_t points);

    const RobotModel &robot_;
    MpcConfig cfg_;
    std::vector<linalg::VectorX> qs_, qds_, taus_;
    algo::DynamicsWorkspace ws_;
    runtime::CpuBatchedBackend cpu_backend_;
    algo::FdDerivatives fd_tmp_;
    linalg::VectorX qdd_tmp_, step_tmp_, q_cur_, q_next_, qd_cur_;
    // Runtime staging (grow-only, reused across backend iterations).
    std::vector<runtime::DynamicsRequest> lq_req_, ro_req_;
    std::vector<runtime::DynamicsResult> lq_res_, ro_res_;
    RolloutCtx ro_ctx_; ///< backendBreakdown's (single) rollout job
};

} // namespace dadu::app

#endif // DADU_APP_MPC_WORKLOAD_H
