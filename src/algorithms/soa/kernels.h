/**
 * @file
 * Lane-parallel (SoA) dynamics kernels.
 *
 * Each pack* entry point evaluates one lane pack: up to kLaneWidth
 * independent sample points whose fields are interleaved per lane
 * (structure of arrays) so the link-by-link sweeps vectorize across
 * the batch dimension. The kernels mirror the scalar workspace
 * algorithms expression by expression (see soa/pack.h for the
 * bitwise contract): lane l's outputs are bitwise identical to the
 * scalar kernel run on point l.
 *
 * Masking: `LaneBatch::mask` marks the active lanes. Inactive lanes
 * are padded internally by replicating the first active lane's
 * inputs (safe arithmetic, no NaN/div-by-zero traps) and their
 * outputs are never written — the machinery ROADMAP item 2's
 * per-column sparsity gating reuses.
 *
 * Allocation: each kernel draws its pack storage from the lane
 * arena inside the caller's DynamicsWorkspace, created on first
 * use and reused afterwards — steady-state calls are allocation-free,
 * like the scalar workspace kernels.
 */

#ifndef DADU_ALGORITHMS_SOA_KERNELS_H
#define DADU_ALGORITHMS_SOA_KERNELS_H

#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "linalg/matrixx.h"
#include "model/robot_model.h"

namespace dadu::algo::soa {

using linalg::MatrixX;
using linalg::VectorX;
using model::RobotModel;

/**
 * The one lane width every kernel is compiled at: 8 doubles fill an
 * AVX-512 register (two AVX2 registers), and the per-link pack state
 * of a humanoid still fits in L1/L2.
 */
inline constexpr int kLaneWidth = 8;

/**
 * One lane pack of inputs: per-lane pointers into caller storage
 * plus the active mask (bit l set = lane l holds a sample point).
 * Pointers of inactive lanes may be null. qd/tau/qdd may be null
 * wholesale for kernels that do not read them (e.g. Minv).
 */
struct LaneBatch
{
    const VectorX *q[kLaneWidth] = {};
    const VectorX *qd[kLaneWidth] = {};
    const VectorX *tau[kLaneWidth] = {};
    const VectorX *qdd[kLaneWidth] = {};  ///< packRnea / packFdGivenAccel
    const MatrixX *minv[kLaneWidth] = {}; ///< packFdGivenAccel only
    unsigned mask = 0;

    /** Mask with every lane active. */
    static constexpr unsigned kFullMask = (1u << kLaneWidth) - 1u;
};

/**
 * Build @p ws's lane arena for @p robot now rather than on the first
 * pack* call. The batched engine prepares every slot's workspace up
 * front: which slot first runs a full lane group depends on the
 * schedule, and a lazily built arena would allocate mid-stream.
 */
void prepareArena(const RobotModel &robot, DynamicsWorkspace &ws);

/**
 * Forward dynamics q̈ = FD(q, q̇, τ) for one lane pack, on the same
 * MMinvGen route as the scalar forwardDynamics (steps ①②③).
 * @p qdd_out holds per-lane output pointers (ignored for inactive
 * lanes, may be null there).
 */
void packForwardDynamics(const RobotModel &robot, DynamicsWorkspace &ws,
                         const LaneBatch &in, VectorX *const *qdd_out);

/**
 * ∆FD (q̈, ∂q̈/∂q, ∂q̈/∂q̇, M⁻¹) for one lane pack.
 *
 * @param plan optional column gating (shared by every lane of the
 *             pack — the batched engine only routes mask-uniform
 *             batches here): the per-column fused ∆RNEA chains and
 *             the final M⁻¹ product run only for live columns, which
 *             stay bitwise identical to the dense pack (and to the
 *             gated scalar kernel, lane by lane); dead columns of
 *             ∂q̈/∂u are exactly 0.0. q̈ and M⁻¹ are always dense.
 */
void packFdDerivatives(const RobotModel &robot, DynamicsWorkspace &ws,
                       const LaneBatch &in, FdDerivatives *const *out,
                       const ColumnPlan *plan = nullptr);

/**
 * ∆iFD — steps ④⑤⑥ of ∆FD with q̈ and M⁻¹ supplied as inputs
 * (LaneBatch::qdd / LaneBatch::minv), mirroring the scalar
 * fdDerivativesGivenAccel: the dense ①②③ prefix is skipped
 * entirely, so a gated ∆iFD pack's cost scales with the live-column
 * count alone. Outputs: ∂q̈/∂q and ∂q̈/∂q̇ (gated like
 * packFdDerivatives); q̈ and M⁻¹ in the result are copies of the
 * inputs, as in the scalar kernel.
 */
void packFdGivenAccel(const RobotModel &robot, DynamicsWorkspace &ws,
                      const LaneBatch &in, FdDerivatives *const *out,
                      const ColumnPlan *plan = nullptr);

/** M⁻¹(q) for one lane pack. */
void packMinv(const RobotModel &robot, DynamicsWorkspace &ws,
              const LaneBatch &in, MatrixX *const *minv_out);

/**
 * Articulated-body forward dynamics for one lane pack (the direct
 * ABA route; the batched engine's FD stays on the MMinvGen route to
 * match the scalar reference bitwise, but the ABA sweep is
 * lane-parallel too).
 */
void packAba(const RobotModel &robot, DynamicsWorkspace &ws,
             const LaneBatch &in, VectorX *const *qdd_out);

/** Inverse dynamics τ = RNEA(q, q̇, q̈) for one lane pack. */
void packRnea(const RobotModel &robot, DynamicsWorkspace &ws,
              const LaneBatch &in, VectorX *const *tau_out);

/** Joint-space mass matrix M(q) (CRBA sweep) for one lane pack. */
void packCrba(const RobotModel &robot, DynamicsWorkspace &ws,
              const LaneBatch &in, MatrixX *const *m_out);

} // namespace dadu::algo::soa

#endif // DADU_ALGORITHMS_SOA_KERNELS_H
