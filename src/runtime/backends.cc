#include "runtime/backends.h"

#include <cassert>

#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/mminv_gen.h"
#include "perf/timing.h"

namespace dadu::runtime {

const char *
functionName(FunctionType fn)
{
    switch (fn) {
      case FunctionType::ID: return "ID";
      case FunctionType::FD: return "FD";
      case FunctionType::M: return "M";
      case FunctionType::Minv: return "Minv";
      case FunctionType::DeltaID: return "dID";
      case FunctionType::DeltaFD: return "dFD";
      case FunctionType::DeltaiFD: return "diFD";
    }
    return "?";
}

namespace {

using perf::nowUs;

/** True for the functions a column mask applies to (∆ outputs). */
bool
derivativeFunction(FunctionType fn)
{
    return fn == FunctionType::DeltaID || fn == FunctionType::DeltaFD ||
           fn == FunctionType::DeltaiFD;
}

/** True when the request actually asks for column gating. */
bool
requestGated(const DynamicsRequest &req)
{
    return req.gating != algo::GatingMode::None && !req.seed_cols.empty();
}

/**
 * Deterministic submit-time request validation, shared by every
 * backend: one malformed request rejects the whole batch before any
 * point executes. Only the inputs @p fn reads are checked — M and
 * M⁻¹ read q alone; every other function also reads q̇, q̈/τ and a
 * non-empty f_ext, and ∆iFD an nv x nv M⁻¹ — plus, on the ∆
 * functions, the seed set of a gated request (out-of-range or
 * duplicate indices). Seeds on non-derivative functions are ignored
 * (masks only apply to ∆ outputs), as are seeds under
 * GatingMode::None.
 */
bool
requestsValid(const RobotModel &robot, FunctionType fn,
              const DynamicsRequest *requests, std::size_t count)
{
    const std::size_t nq = robot.nq(), nv = robot.nv(), nb = robot.nb();
    const bool q_only = fn == FunctionType::M || fn == FunctionType::Minv;
    const bool deriv = derivativeFunction(fn);
    for (std::size_t i = 0; i < count; ++i) {
        const DynamicsRequest &r = requests[i];
        if (r.q.size() != nq)
            return false;
        if (!q_only && (r.qd.size() != nv || r.qdd_or_tau.size() != nv ||
                        (!r.fext.empty() && r.fext.size() != nb)))
            return false;
        if (fn == FunctionType::DeltaiFD &&
            (r.minv.rows() != nv || r.minv.cols() != nv))
            return false;
        if (deriv && requestGated(r) &&
            !algo::seedValid(r.seed_cols, robot.nv()))
            return false;
    }
    return true;
}

/**
 * Single-point reference execution of one Table I function through
 * the workspace kernels, with optional column gating on the ∆
 * outputs. Shared by the CPU backend's non-batched functions and by
 * the analytic backend's functional path.
 */
void
referenceExecute(const RobotModel &robot, algo::DynamicsWorkspace &ws,
                 algo::FdDerivatives &fd_tmp, FunctionType fn,
                 const DynamicsRequest &req, DynamicsResult &out,
                 const algo::ColumnPlan *plan = nullptr)
{
    const std::vector<Vec6> *fext = req.fext.empty() ? nullptr : &req.fext;
    switch (fn) {
      case FunctionType::ID:
        algo::rnea(robot, ws, req.q, req.qd, req.qdd_or_tau, ws.rnea_res,
                   fext);
        out.tau = ws.rnea_res.tau;
        break;
      case FunctionType::FD:
        algo::forwardDynamics(robot, ws, req.q, req.qd, req.qdd_or_tau,
                              out.qdd, fext);
        break;
      case FunctionType::M:
        algo::crba(robot, ws, req.q, out.m);
        break;
      case FunctionType::Minv:
        algo::massMatrixInverse(robot, ws, req.q, out.minv);
        break;
      case FunctionType::DeltaID:
        algo::rnea(robot, ws, req.q, req.qd, req.qdd_or_tau, ws.rnea_res,
                   fext);
        out.tau = ws.rnea_res.tau;
        algo::rneaDerivatives(robot, ws, req.q, req.qd, req.qdd_or_tau,
                              ws.did, fext, false, plan);
        out.dtau_dq = ws.did.dtau_dq;
        out.dtau_dqd = ws.did.dtau_dqd;
        break;
      case FunctionType::DeltaFD:
        algo::fdDerivatives(robot, ws, req.q, req.qd, req.qdd_or_tau,
                            fd_tmp, fext, plan);
        out.qdd = fd_tmp.qdd;
        out.minv = fd_tmp.minv;
        out.dqdd_dq = fd_tmp.dqdd_dq;
        out.dqdd_dqd = fd_tmp.dqdd_dqd;
        break;
      case FunctionType::DeltaiFD:
        algo::fdDerivativesGivenAccel(robot, ws, req.q, req.qd,
                                      req.qdd_or_tau, req.minv, fd_tmp,
                                      fext, plan);
        out.qdd = req.qdd_or_tau;
        out.dqdd_dq = fd_tmp.dqdd_dq;
        out.dqdd_dqd = fd_tmp.dqdd_dqd;
        break;
    }
}

void
fillMeasuredStats(BatchStats *stats, double elapsed_us, std::size_t count)
{
    if (!stats)
        return;
    *stats = BatchStats{};
    stats->total_us = elapsed_us;
    stats->latency_us = count ? elapsed_us / count : 0.0;
    stats->throughput_mtasks =
        elapsed_us > 0.0 ? count / elapsed_us : 0.0;
}

} // namespace

// -----------------------------------------------------------------
// CpuBatchedBackend
// -----------------------------------------------------------------

CpuBatchedBackend::CpuBatchedBackend(const RobotModel &robot, int threads)
    : robot_(robot), engine_(robot, threads), ws_(robot)
{}

CpuBatchedBackend::CpuBatchedBackend(const RobotModel &robot,
                                     std::shared_ptr<app::ThreadPool> pool)
    : robot_(robot), engine_(robot, std::move(pool)), ws_(robot)
{}

std::unique_ptr<DynamicsBackend>
CpuBatchedBackend::clone() const
{
    // Clones share ONE host-wide worker pool (the bulk gate
    // serializes their dispatches); workspaces and staging stay
    // per-clone, so each clone remains independently submittable
    // from its own lane.
    return std::make_unique<CpuBatchedBackend>(robot_, engine_.pool());
}

SubmitStatus
CpuBatchedBackend::submit(FunctionType fn, const DynamicsRequest *requests,
                          std::size_t count, DynamicsResult *results,
                          BatchStats *stats)
{
    // Deterministic rejection before anything executes: a malformed
    // request fails the whole batch, never a partial one.
    if (!requestsValid(robot_, fn, requests, count))
        return SubmitStatus::InvalidRequest;

    // The engine's columnar fast path covers the batch-shaped
    // functions; external forces (rare in the MPC workloads) and the
    // remaining Table I entries take the single-thread reference
    // kernels. A gated ∆FD/∆iFD batch stays on the engine path only
    // when the mask is uniform across the batch (the iLQR client's
    // shape: one drift-derived seed shared by the whole horizon) —
    // the SoA pack then shares one resolved plan; mixed-mask batches
    // fall back to the per-point reference kernels.
    bool engine_path = fn == FunctionType::FD ||
                       fn == FunctionType::DeltaFD ||
                       fn == FunctionType::DeltaiFD ||
                       fn == FunctionType::Minv;
    for (std::size_t i = 0; engine_path && i < count; ++i) {
        if (!requests[i].fext.empty())
            engine_path = false;
    }
    if (engine_path &&
        (fn == FunctionType::DeltaFD || fn == FunctionType::DeltaiFD)) {
        for (std::size_t i = 1; engine_path && i < count; ++i) {
            if (requests[i].gating != requests[0].gating ||
                requests[i].seed_cols != requests[0].seed_cols)
                engine_path = false;
        }
    }

    const double t0 = nowUs();
    if (!engine_path) {
        const bool deriv = derivativeFunction(fn);
        for (std::size_t i = 0; i < count; ++i) {
            const algo::ColumnPlan *plan = nullptr;
            if (deriv && requestGated(requests[i])) {
                plan_.resolve(requests[i].gating, requests[i].seed_cols,
                              robot_.nv());
                plan = &plan_;
            }
            referenceExecute(robot_, ws_, fd_tmp_, fn, requests[i],
                             results[i], plan);
        }
        fillMeasuredStats(stats, nowUs() - t0, count);
        return SubmitStatus::Ok;
    }

    // Stage the struct-of-arrays views the engine dispatches over
    // (grow-only; element assignment reuses each vector's capacity).
    // ∆iFD's M⁻¹ inputs are staged as pointers into the requests —
    // no nv x nv copies.
    if (q_.size() < count) {
        q_.resize(count);
        qd_.resize(count);
        tau_.resize(count);
    }
    if (fn == FunctionType::DeltaiFD && minv_in_.size() < count)
        minv_in_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        q_[i] = requests[i].q;
        if (fn != FunctionType::Minv) {
            qd_[i] = requests[i].qd;
            tau_[i] = requests[i].qdd_or_tau;
        }
        if (fn == FunctionType::DeltaiFD)
            minv_in_[i] = &requests[i].minv;
    }
    const algo::ColumnPlan *plan = nullptr;
    if ((fn == FunctionType::DeltaFD || fn == FunctionType::DeltaiFD) &&
        count > 0 && requestGated(requests[0])) {
        plan_.resolve(requests[0].gating, requests[0].seed_cols,
                      robot_.nv());
        plan = &plan_;
    }
    runEngine(fn, q_.data(), qd_.data(), tau_.data(), count, results, plan);
    fillMeasuredStats(stats, nowUs() - t0, count);
    return SubmitStatus::Ok;
}

void
CpuBatchedBackend::submitColumns(FunctionType fn, const VectorX *q,
                                 const VectorX *qd, const VectorX *tau,
                                 std::size_t count, DynamicsResult *results,
                                 BatchStats *stats)
{
    assert((fn == FunctionType::FD || fn == FunctionType::DeltaFD ||
            fn == FunctionType::Minv) &&
           "submitColumns covers the engine-shaped functions only");
    const double t0 = nowUs();
    runEngine(fn, q, qd, tau, count, results);
    fillMeasuredStats(stats, nowUs() - t0, count);
}

void
CpuBatchedBackend::runEngine(FunctionType fn, const VectorX *q,
                             const VectorX *qd, const VectorX *tau,
                             std::size_t count, DynamicsResult *results,
                             const algo::ColumnPlan *plan)
{
    const int n = static_cast<int>(count);
    switch (fn) {
      case FunctionType::FD: {
        const auto &qdd = engine_.batchForwardDynamics(q, qd, tau, n);
        for (std::size_t i = 0; i < count; ++i)
            results[i].qdd = qdd[i];
        break;
      }
      case FunctionType::DeltaFD: {
        const auto &fd = engine_.batchFdDerivatives(q, qd, tau, n, plan);
        for (std::size_t i = 0; i < count; ++i) {
            results[i].qdd = fd[i].qdd;
            results[i].minv = fd[i].minv;
            results[i].dqdd_dq = fd[i].dqdd_dq;
            results[i].dqdd_dqd = fd[i].dqdd_dqd;
        }
        break;
      }
      case FunctionType::DeltaiFD: {
        // @p tau carries q̈ here (the request's qdd_or_tau slot).
        const auto &fd = engine_.batchFdDerivativesGivenAccel(
            q, qd, tau, minv_in_.data(), n, plan);
        for (std::size_t i = 0; i < count; ++i) {
            results[i].qdd = fd[i].qdd;
            results[i].dqdd_dq = fd[i].dqdd_dq;
            results[i].dqdd_dqd = fd[i].dqdd_dqd;
        }
        break;
      }
      case FunctionType::Minv: {
        const auto &minv = engine_.batchMinv(q, n);
        for (std::size_t i = 0; i < count; ++i)
            results[i].minv = minv[i];
        break;
      }
      default:
        assert(false && "engine path covers FD/DeltaFD/DeltaiFD/Minv only");
    }
}

// -----------------------------------------------------------------
// AcceleratorBackend
// -----------------------------------------------------------------

AcceleratorBackend::AcceleratorBackend(accel::Accelerator &accel)
    : accel_(&accel)
{}

AcceleratorBackend::AcceleratorBackend(
    std::unique_ptr<accel::Accelerator> accel)
    : owned_(std::move(accel)), accel_(owned_.get())
{}

std::unique_ptr<DynamicsBackend>
AcceleratorBackend::clone() const
{
    return std::make_unique<AcceleratorBackend>(accel_->clone());
}

SubmitStatus
AcceleratorBackend::submit(FunctionType fn, const DynamicsRequest *requests,
                           std::size_t count, DynamicsResult *results,
                           BatchStats *stats)
{
    if (!requestsValid(accel_->robot(), fn, requests, count))
        return SubmitStatus::InvalidRequest;
    // DynamicsRequest/DynamicsResult ARE the accelerator task types
    // (accel::TaskInput/TaskOutput alias them), so the batch — mask
    // included — goes to the cycle-accurate simulator without
    // conversion.
    accel_->run(fn, requests, count, results, stats);
    return SubmitStatus::Ok;
}

// -----------------------------------------------------------------
// AnalyticBackend
// -----------------------------------------------------------------

AnalyticBackend::AnalyticBackend(accel::Accelerator &accel)
    : accel_(accel), ws_(accel.robot())
{}

std::unique_ptr<DynamicsBackend>
AnalyticBackend::clone() const
{
    return std::make_unique<AnalyticBackend>(accel_);
}

SubmitStatus
AnalyticBackend::submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats)
{
    if (!requestsValid(accel_.robot(), fn, requests, count))
        return SubmitStatus::InvalidRequest;

    const bool deriv = derivativeFunction(fn);
    for (std::size_t i = 0; i < count; ++i) {
        const algo::ColumnPlan *plan = nullptr;
        if (deriv && requestGated(requests[i])) {
            plan_.resolve(requests[i].gating, requests[i].seed_cols,
                          accel_.robot().nv());
            plan = &plan_;
        }
        referenceExecute(accel_.robot(), ws_, fd_tmp_, fn, requests[i],
                         results[i], plan);
    }

    if (stats) {
        *stats = BatchStats{};
        // Price a uniformly gated batch for the union of its live
        // columns (one dense request prices the whole batch dense).
        algo::ColumnPlan union_plan;
        const algo::ColumnPlan *pricing = nullptr;
        const int nv = accel_.robot().nv();
        if (deriv && count > 0) {
            std::vector<char> live(static_cast<std::size_t>(nv), 0);
            bool all_gated = true;
            for (std::size_t i = 0; i < count && all_gated; ++i) {
                if (!requestGated(requests[i]) ||
                    !plan_.resolve(requests[i].gating,
                                   requests[i].seed_cols, nv) ||
                    plan_.dense()) {
                    all_gated = false;
                    break;
                }
                for (int c : plan_.cols())
                    live[c] = 1;
            }
            if (all_gated) {
                std::vector<int> seed;
                for (int c = 0; c < nv; ++c)
                    if (live[c])
                        seed.push_back(c);
                if (union_plan.resolve(algo::GatingMode::Simple, seed,
                                       nv) &&
                    !union_plan.dense())
                    pricing = &union_plan;
            }
        }
        const accel::TimingEstimate est = accel_.analytic(fn, pricing);
        const double cycles = count * est.ii_cycles + est.latency_cycles;
        const double freq_hz = accel_.config().freq_mhz * 1e6;
        stats->cycles = static_cast<std::uint64_t>(cycles);
        stats->total_us = cycles / freq_hz * 1e6;
        stats->latency_us = est.latency_us;
        stats->throughput_mtasks = est.throughput_mtasks;
    }
    return SubmitStatus::Ok;
}

} // namespace dadu::runtime
