/**
 * @file
 * BatchedDynamics: multi-point dynamics evaluation across a thread
 * pool with one DynamicsWorkspace per pool slot.
 *
 * The MPC application layer (Fig. 2/13 of the paper) evaluates
 * forward dynamics, its derivatives and the mass-matrix inverse at
 * ~100 independent horizon points per iteration — the
 * parallelizable dark-blue share of Fig. 2c. This engine is the CPU
 * analogue of the accelerator's batch pipelines: N independent
 * (q, q̇, τ) sample points are cut into lane groups of the build's
 * one lane width (soa::kLaneWidth; see src/algorithms/soa/), and
 * the groups are claimed dynamically by the threads of
 * app::ThreadPool — like tasks streaming into whichever function
 * unit is free, a thread that is late or descheduled leaves its
 * groups to the others instead of stalling the batch. Each group is
 * evaluated through the workspace of the pool slot that claimed it,
 * so the steady-state hot loop performs zero heap allocations
 * (dispatch included: the pool's runIndexed path has no
 * std::function or queue-node allocation, and all outputs are
 * engine-owned storage reused across calls). Idle workers spin
 * briefly before parking, so back-to-back batches of a closed loop
 * hand off without a futex wake-up; a batch of one group runs on
 * the caller alone.
 *
 * A full group is packed into SIMD lanes and evaluated by the
 * lane-parallel SoA kernels; the ragged last group falls back to
 * the scalar workspace kernels. The SoA kernels mirror the scalar
 * algorithms expression by expression, so results stay bitwise
 * identical to the single-point reference regardless of thread
 * count: grouping and claiming only change which thread and which
 * register lane (not in which order, per point) the arithmetic
 * runs.
 */

#ifndef DADU_ALGORITHMS_BATCHED_H
#define DADU_ALGORITHMS_BATCHED_H

#include <atomic>
#include <memory>
#include <vector>

#include "algorithms/dynamics.h"
#include "algorithms/soa/kernels.h"
#include "algorithms/workspace.h"
#include "app/thread_pool.h"
#include "linalg/matrixx.h"
#include "model/robot_model.h"

namespace dadu::algo {

/**
 * Batched evaluation of independent dynamics sample points.
 *
 * Not thread-safe: one batch call at a time per engine (the batch
 * methods stage the inputs in engine state and the pool's indexed
 * dispatch is non-reentrant). Use one engine per producer thread,
 * or serialize calls externally.
 */
class BatchedDynamics
{
  public:
    /**
     * @param robot   model every batch entry is evaluated against.
     * @param threads total parallelism (>= 1), clamped to the
     *                hardware thread count (oversubscribing a
     *                CPU-bound batch never helps). The engine spawns
     *                threads - 1 pool workers; the calling thread
     *                participates in every batch, so up to
     *                threadCount() lane groups run concurrently,
     *                each through its slot's workspace.
     */
    BatchedDynamics(const RobotModel &robot, int threads);

    /**
     * Share an existing worker pool instead of owning one: several
     * engines over one host (e.g. CpuBatchedBackend clones serving
     * DynamicsServer lanes) then fan out over ONE set of workers —
     * concurrent dispatches serialize on the pool's bulk gate rather
     * than oversubscribing the cores with per-engine worker sets.
     * Each engine still owns its workspaces, so sharing the pool
     * never shares mutable numeric state.
     */
    BatchedDynamics(const RobotModel &robot,
                    std::shared_ptr<app::ThreadPool> pool);

    /** The worker pool (shared across engines cloned for one host). */
    const std::shared_ptr<app::ThreadPool> &pool() const { return pool_; }

    /** Total parallelism (pool workers + the calling thread). */
    int threadCount() const { return pool_->threadCount() + 1; }

    /** Number of per-slot workspaces (== threadCount()). */
    int workspaceCount() const
    {
        return static_cast<int>(workspaces_.size());
    }

    /**
     * Forward dynamics q̈ = FD(q, q̇, τ) at every sample point.
     * Input vectors must have equal length N; returns the engine's
     * output array (valid until the next batch call, reused across
     * calls). Only the first N entries are meaningful — the array
     * is grow-only so a smaller batch after a larger one does not
     * free and reallocate per-point storage.
     */
    const std::vector<VectorX> &
    batchForwardDynamics(const std::vector<VectorX> &q,
                         const std::vector<VectorX> &qd,
                         const std::vector<VectorX> &tau);

    /**
     * Span overload: @p n sample points read from raw arrays, so
     * callers staging inputs in grow-only storage (the runtime's CPU
     * backend) can batch fewer points than their staging capacity.
     */
    const std::vector<VectorX> &
    batchForwardDynamics(const VectorX *q, const VectorX *qd,
                         const VectorX *tau, int n);

    /**
     * ∆FD (q̈, ∂q̈/∂q, ∂q̈/∂q̇, M⁻¹) at every sample point.
     *
     * @param plan optional column gating shared by the whole batch
     *             (must stay valid for the duration of the call):
     *             live columns of ∂q̈/∂u are bitwise identical to the
     *             dense batch, dead columns exactly 0.0, on both the
     *             SoA and the scalar-remainder path. Null = dense.
     */
    const std::vector<FdDerivatives> &
    batchFdDerivatives(const std::vector<VectorX> &q,
                       const std::vector<VectorX> &qd,
                       const std::vector<VectorX> &tau,
                       const ColumnPlan *plan = nullptr);

    /** Span overload of batchFdDerivatives. */
    const std::vector<FdDerivatives> &
    batchFdDerivatives(const VectorX *q, const VectorX *qd,
                       const VectorX *tau, int n,
                       const ColumnPlan *plan = nullptr);

    /**
     * ∆iFD at every sample point: steps ④⑤⑥ of ∆FD with q̈ and M⁻¹
     * supplied per point (@p minv is an array of @p n pointers that
     * must stay valid for the call), mirroring the scalar
     * fdDerivativesGivenAccel. Because the dense ①②③ prefix is
     * skipped, a gated batch's cost scales with the live-column
     * count alone — this is the fast path for derivative refreshes
     * that reuse q̈/M⁻¹ held from an earlier dense ∆FD evaluation.
     * Gating semantics match batchFdDerivatives.
     */
    const std::vector<FdDerivatives> &
    batchFdDerivativesGivenAccel(const VectorX *q, const VectorX *qd,
                                 const VectorX *qdd,
                                 const linalg::MatrixX *const *minv,
                                 int n, const ColumnPlan *plan = nullptr);

    /** M⁻¹(q) at every sample point. */
    const std::vector<linalg::MatrixX> &
    batchMinv(const std::vector<VectorX> &q);

    /** Span overload of batchMinv. */
    const std::vector<linalg::MatrixX> &batchMinv(const VectorX *q, int n);

    /** SIMD lane width of the SoA packs (soa::kLaneWidth). */
    static constexpr int laneWidth() { return soa::kLaneWidth; }

  private:
    enum class Mode
    {
        Fd,
        FdDerivatives,
        FdGivenAccel,
        Minv,
    };

    /** Build the lane arena of workspaces_[slot] on its own thread. */
    static void prepareSlot(void *ctx, int index, int slot);
    /** Evaluate lane group @p group through workspaces_[slot]. */
    static void runGroup(void *ctx, int group, int slot);
    void dispatch(Mode mode, const VectorX *q, const VectorX *qd,
                  const VectorX *tau, int n,
                  const ColumnPlan *plan = nullptr,
                  const linalg::MatrixX *const *minv = nullptr);

    const RobotModel &robot_;
    std::shared_ptr<app::ThreadPool> pool_;
    std::vector<DynamicsWorkspace> workspaces_;

    // Current batch (valid during dispatch).
    std::atomic<bool> in_dispatch_{false}; ///< misuse guard (debug)
    Mode mode_ = Mode::Fd;
    int n_ = 0;
    const VectorX *in_q_ = nullptr;
    const VectorX *in_qd_ = nullptr;
    const VectorX *in_tau_ = nullptr;    ///< τ (∆FD) or q̈ (∆iFD)
    const ColumnPlan *in_plan_ = nullptr; ///< ∆FD/∆iFD column gating.
    const linalg::MatrixX *const *in_minv_ = nullptr; ///< ∆iFD M⁻¹ inputs.

    // Engine-owned outputs, reused across calls.
    std::vector<VectorX> qdd_out_;
    std::vector<FdDerivatives> fd_out_;
    std::vector<linalg::MatrixX> minv_out_;
};

} // namespace dadu::algo

#endif // DADU_ALGORITHMS_BATCHED_H
