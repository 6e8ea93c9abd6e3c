#include "algorithms/batched.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "algorithms/mminv_gen.h"

namespace dadu::algo {

namespace {

/**
 * Oversubscribing a CPU-bound batch never helps: clamp the requested
 * parallelism to the hardware thread count (min 1).
 */
int
clampThreads(int threads)
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 0 && threads > hw)
        threads = hw;
    return threads < 1 ? 1 : threads;
}

} // namespace

BatchedDynamics::BatchedDynamics(const RobotModel &robot, int threads)
    : BatchedDynamics(
          robot, std::make_shared<app::ThreadPool>(clampThreads(threads) - 1))
{}

BatchedDynamics::BatchedDynamics(const RobotModel &robot,
                                 std::shared_ptr<app::ThreadPool> pool)
    : robot_(robot), pool_(std::move(pool))
{
    // One workspace per pool slot: the calling thread (slot 0) plus
    // every worker, indexed by the slot runIndexed() hands each task.
    workspaces_.resize(static_cast<std::size_t>(pool_->threadCount()) + 1);
    for (auto &ws : workspaces_)
        ws.ensure(robot_);
    // With workers, any slot may claim any lane group, so every lane
    // arena is built before the first batch: each on its own slot's
    // thread where that slot claims an index here (building them all
    // on this thread measured +1.4 MB peak RSS), the rest on this
    // thread. A workerless engine runs every group on slot 0 and
    // builds its one arena on its first full group.
    if (pool_->threadCount() > 0) {
        pool_->runIndexed(&BatchedDynamics::prepareSlot, this,
                          workspaceCount());
        for (auto &ws : workspaces_)
            soa::prepareArena(robot_, ws);
    }
}

void
BatchedDynamics::prepareSlot(void *ctx, int, int slot)
{
    auto *self = static_cast<BatchedDynamics *>(ctx);
    soa::prepareArena(self->robot_, self->workspaces_[slot]);
}

void
BatchedDynamics::runGroup(void *ctx, int group, int slot)
{
    auto *self = static_cast<BatchedDynamics *>(ctx);
    constexpr int w = soa::kLaneWidth;
    const int begin = group * w;
    const int end = std::min(begin + w, self->n_);
    DynamicsWorkspace &ws = self->workspaces_[slot];

    // A full group runs through the SoA kernels, the ragged last
    // group through the scalar path. Both mirror the same reference
    // arithmetic, so which thread or path runs a point never changes
    // its bits.
    soa::LaneBatch lanes;
    lanes.mask = soa::LaneBatch::kFullMask;
    VectorX *qdd_out[w];
    FdDerivatives *fd_out[w];
    linalg::MatrixX *minv_out[w];
    if (end - begin == w) {
        for (int l = 0; l < w; ++l) {
            lanes.q[l] = &self->in_q_[begin + l];
            switch (self->mode_) {
              case Mode::Fd:
                lanes.qd[l] = &self->in_qd_[begin + l];
                lanes.tau[l] = &self->in_tau_[begin + l];
                qdd_out[l] = &self->qdd_out_[begin + l];
                break;
              case Mode::FdDerivatives:
                lanes.qd[l] = &self->in_qd_[begin + l];
                lanes.tau[l] = &self->in_tau_[begin + l];
                fd_out[l] = &self->fd_out_[begin + l];
                break;
              case Mode::FdGivenAccel:
                lanes.qd[l] = &self->in_qd_[begin + l];
                lanes.qdd[l] = &self->in_tau_[begin + l];
                lanes.minv[l] = self->in_minv_[begin + l];
                fd_out[l] = &self->fd_out_[begin + l];
                break;
              case Mode::Minv:
                minv_out[l] = &self->minv_out_[begin + l];
                break;
            }
        }
        switch (self->mode_) {
          case Mode::Fd:
            soa::packForwardDynamics(self->robot_, ws, lanes, qdd_out);
            break;
          case Mode::FdDerivatives:
            soa::packFdDerivatives(self->robot_, ws, lanes, fd_out,
                                   self->in_plan_);
            break;
          case Mode::FdGivenAccel:
            soa::packFdGivenAccel(self->robot_, ws, lanes, fd_out,
                                  self->in_plan_);
            break;
          case Mode::Minv:
            soa::packMinv(self->robot_, ws, lanes, minv_out);
            break;
        }
        return;
    }
    switch (self->mode_) {
      case Mode::Fd:
        for (int i = begin; i < end; ++i)
            forwardDynamics(self->robot_, ws, self->in_q_[i],
                            self->in_qd_[i], self->in_tau_[i],
                            self->qdd_out_[i]);
        break;
      case Mode::FdDerivatives:
        for (int i = begin; i < end; ++i)
            fdDerivatives(self->robot_, ws, self->in_q_[i],
                          self->in_qd_[i], self->in_tau_[i],
                          self->fd_out_[i], nullptr, self->in_plan_);
        break;
      case Mode::FdGivenAccel:
        for (int i = begin; i < end; ++i)
            fdDerivativesGivenAccel(self->robot_, ws, self->in_q_[i],
                                    self->in_qd_[i], self->in_tau_[i],
                                    *self->in_minv_[i], self->fd_out_[i],
                                    nullptr, self->in_plan_);
        break;
      case Mode::Minv:
        for (int i = begin; i < end; ++i)
            massMatrixInverse(self->robot_, ws, self->in_q_[i],
                              self->minv_out_[i]);
        break;
    }
}

void
BatchedDynamics::dispatch(Mode mode, const VectorX *q, const VectorX *qd,
                          const VectorX *tau, int n, const ColumnPlan *plan,
                          const linalg::MatrixX *const *minv)
{
    assert(!in_dispatch_.exchange(true) &&
           "BatchedDynamics: concurrent batch calls on one engine");
    mode_ = mode;
    n_ = n;
    in_q_ = q;
    in_qd_ = qd;
    in_tau_ = tau;
    in_plan_ = plan;
    in_minv_ = minv;
    // One claimable unit per lane group: a 256-point batch is 32
    // units, so the pool balances them across threads dynamically.
    const int w = soa::kLaneWidth;
    pool_->runIndexed(&BatchedDynamics::runGroup, this, (n + w - 1) / w);
    in_q_ = in_qd_ = in_tau_ = nullptr;
    in_plan_ = nullptr;
    in_minv_ = nullptr;
    in_dispatch_.store(false);
}

const std::vector<VectorX> &
BatchedDynamics::batchForwardDynamics(const std::vector<VectorX> &q,
                                      const std::vector<VectorX> &qd,
                                      const std::vector<VectorX> &tau)
{
    assert(q.size() == qd.size() && q.size() == tau.size());
    return batchForwardDynamics(q.data(), qd.data(), tau.data(),
                                static_cast<int>(q.size()));
}

const std::vector<VectorX> &
BatchedDynamics::batchForwardDynamics(const VectorX *q, const VectorX *qd,
                                      const VectorX *tau, int n)
{
    if (static_cast<int>(qdd_out_.size()) < n)
        qdd_out_.resize(n);
    dispatch(Mode::Fd, q, qd, tau, n);
    return qdd_out_;
}

const std::vector<FdDerivatives> &
BatchedDynamics::batchFdDerivatives(const std::vector<VectorX> &q,
                                    const std::vector<VectorX> &qd,
                                    const std::vector<VectorX> &tau,
                                    const ColumnPlan *plan)
{
    assert(q.size() == qd.size() && q.size() == tau.size());
    return batchFdDerivatives(q.data(), qd.data(), tau.data(),
                              static_cast<int>(q.size()), plan);
}

const std::vector<FdDerivatives> &
BatchedDynamics::batchFdDerivatives(const VectorX *q, const VectorX *qd,
                                    const VectorX *tau, int n,
                                    const ColumnPlan *plan)
{
    if (static_cast<int>(fd_out_.size()) < n)
        fd_out_.resize(n);
    dispatch(Mode::FdDerivatives, q, qd, tau, n, plan);
    return fd_out_;
}

const std::vector<FdDerivatives> &
BatchedDynamics::batchFdDerivativesGivenAccel(
    const VectorX *q, const VectorX *qd, const VectorX *qdd,
    const linalg::MatrixX *const *minv, int n, const ColumnPlan *plan)
{
    if (static_cast<int>(fd_out_.size()) < n)
        fd_out_.resize(n);
    dispatch(Mode::FdGivenAccel, q, qd, qdd, n, plan, minv);
    return fd_out_;
}

const std::vector<linalg::MatrixX> &
BatchedDynamics::batchMinv(const std::vector<VectorX> &q)
{
    return batchMinv(q.data(), static_cast<int>(q.size()));
}

const std::vector<linalg::MatrixX> &
BatchedDynamics::batchMinv(const VectorX *q, int n)
{
    if (static_cast<int>(minv_out_.size()) < n)
        minv_out_.resize(n);
    dispatch(Mode::Minv, q, nullptr, nullptr, n);
    return minv_out_;
}

} // namespace dadu::algo
