#include "app/mpc_workload.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "algorithms/aba.h"
#include "algorithms/dynamics.h"
#include "ctrl/mpc_session.h"
#include "linalg/factorize.h"
#include "perf/timing.h"
#include "runtime/sched/admission.h"
#include "runtime/server.h"

namespace dadu::app {

using algo::aba;
using algo::fdDerivatives;
using linalg::MatrixX;
using linalg::VectorX;

using perf::nowUs;

MpcWorkload::MpcWorkload(const RobotModel &robot, MpcConfig cfg)
    : robot_(robot), cfg_(cfg), ws_(robot),
      cpu_backend_(robot, cfg.threads)
{
    std::mt19937 rng(2025);
    for (int i = 0; i < cfg_.horizon_points; ++i) {
        qs_.push_back(robot_.randomConfiguration(rng));
        qds_.push_back(robot_.randomVelocity(rng));
        taus_.push_back(robot_.randomVelocity(rng));
    }
}

double
MpcWorkload::measureRolloutUs()
{
    // RK4 rollout: four serial FD stages per point, evaluated with
    // the reusable workspace (allocation-free steady state).
    volatile double sink = 0.0;
    const double t0 = nowUs();
    for (int i = 0; i < cfg_.horizon_points; ++i) {
        q_cur_ = qs_[i];
        qd_cur_ = qds_[i];
        for (int stage = 0; stage < 4; ++stage) {
            aba(robot_, ws_, q_cur_, qd_cur_, taus_[i], qdd_tmp_);
            step_tmp_.resize(qd_cur_.size());
            for (std::size_t j = 0; j < qd_cur_.size(); ++j)
                step_tmp_[j] = qd_cur_[j] * (0.5 * cfg_.dt);
            robot_.integrateInto(q_cur_, step_tmp_, q_next_);
            q_cur_ = q_next_;
            for (std::size_t j = 0; j < qd_cur_.size(); ++j)
                qd_cur_[j] += qdd_tmp_[j] * (0.5 * cfg_.dt);
        }
        sink = qd_cur_[0];
    }
    (void)sink;
    return nowUs() - t0;
}

double
MpcWorkload::measureSolverUs()
{
    // Riccati sweep: a backward pass of nv x nv factorizations.
    volatile double sink = 0.0;
    const double t0 = nowUs();
    MatrixX s = MatrixX::identity(robot_.nv());
    for (int i = cfg_.horizon_points - 1; i >= 0; --i) {
        // S <- Q + A^T S A shaped work via one Cholesky solve.
        const linalg::Cholesky chol(s + MatrixX::identity(robot_.nv()));
        s = chol.solve(MatrixX::identity(robot_.nv()));
        for (std::size_t r = 0; r < s.rows(); ++r)
            s(r, r) += 1.0;
    }
    sink = s(0, 0);
    (void)sink;
    return nowUs() - t0;
}

MpcBreakdown
MpcWorkload::measureCpu()
{
    MpcBreakdown b;
    volatile double sink = 0.0;

    // LQ approximation: ∆FD at every sample point, single-threaded.
    const double t0 = nowUs();
    for (int i = 0; i < cfg_.horizon_points; ++i) {
        algo::fdDerivatives(robot_, ws_, qs_[i], qds_[i], taus_[i],
                            fd_tmp_);
        sink = fd_tmp_.dqdd_dq(0, 0);
    }
    b.lq_us = nowUs() - t0;
    (void)sink;

    b.rollout_us = measureRolloutUs();
    b.solver_us = measureSolverUs();
    return b;
}

MpcBreakdown
MpcWorkload::measureCpuBatched()
{
    MpcBreakdown b;

    // LQ approximation: one ∆FD batch over the whole horizon,
    // submitted through the runtime's CPU backend (thread-pool
    // engine underneath). The workload already holds columnar
    // horizon vectors, so the columnar fast path skips the AoS
    // staging copy and the timed number stays comparable to the
    // direct engine measurement. An untimed warm-up batch sizes the
    // engine and result storage so the timed pass measures the
    // zero-allocation steady state an MPC loop actually runs in.
    const std::size_t n = qs_.size();
    if (lq_res_.size() < n)
        lq_res_.resize(n);
    runtime::BatchStats stats;
    cpu_backend_.submitColumns(runtime::FunctionType::DeltaFD,
                               qs_.data(), qds_.data(), taus_.data(), n,
                               lq_res_.data());
    cpu_backend_.submitColumns(runtime::FunctionType::DeltaFD,
                               qs_.data(), qds_.data(), taus_.data(), n,
                               lq_res_.data(), &stats);
    b.lq_us = stats.total_us;
    volatile double sink = lq_res_[0].dqdd_dq(0, 0);
    (void)sink;

    b.rollout_us = measureRolloutUs();
    b.solver_us = measureSolverUs();
    return b;
}

double
MpcWorkload::cpuIterationUs(int threads)
{
    return cpuIterationUsFrom(measureCpu(), threads);
}

double
MpcWorkload::cpuIterationUsFrom(const MpcBreakdown &b, int threads)
{
    const double scale = perf::threadScaling(threads);
    // LQ approximation and rollouts parallelize across sample
    // points; the Riccati sweep is serial (Fig. 2c structure).
    return (b.lq_us + b.rollout_us) / scale + b.solver_us;
}

void
MpcWorkload::advanceRollout(void *ctx, int /*next_stage*/,
                            const runtime::DynamicsResult *results,
                            runtime::DynamicsRequest *requests,
                            std::size_t points)
{
    // The same half-step recurrence as measureRolloutUs: q advances
    // with the pre-update velocity, then q̇ absorbs the stage's q̈.
    // ctx is a per-job RolloutCtx so concurrently-served rollouts
    // (different server worker threads) never share scratch.
    auto *rc = static_cast<RolloutCtx *>(ctx);
    const double h = rc->half_dt;
    for (std::size_t p = 0; p < points; ++p) {
        runtime::DynamicsRequest &req = requests[p];
        rc->step.resize(req.qd.size());
        for (std::size_t j = 0; j < req.qd.size(); ++j)
            rc->step[j] = req.qd[j] * h;
        rc->robot->integrateInto(req.q, rc->step, rc->q_next);
        req.q = rc->q_next;
        for (std::size_t j = 0; j < req.qd.size(); ++j)
            req.qd[j] += results[p].qdd[j] * h;
    }
}

MpcBreakdown
MpcWorkload::backendBreakdown(runtime::DynamicsBackend &backend)
{
    const std::size_t n = qs_.size();
    if (lq_req_.size() < n)
        lq_req_.resize(n);
    if (lq_res_.size() < n)
        lq_res_.resize(n);
    if (ro_req_.size() < n)
        ro_req_.resize(n);
    if (ro_res_.size() < n)
        ro_res_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        lq_req_[i].q = qs_[i];
        lq_req_[i].qd = qds_[i];
        lq_req_[i].qdd_or_tau = taus_[i];
        // Rollout stage-0 state: same sample points; tau stays fixed
        // across the four stages, q/q̇ advance via advanceRollout.
        ro_req_[i].q = qs_[i];
        ro_req_[i].qd = qds_[i];
        ro_req_[i].qdd_or_tau = taus_[i];
    }

    runtime::DynamicsServer server(backend);
    ro_ctx_.robot = &robot_;
    ro_ctx_.half_dt = 0.5 * cfg_.dt;
    const int lq = server.submit(runtime::FunctionType::DeltaFD,
                                 lq_req_.data(), n, lq_res_.data());
    const int ro = server.submitSerialStages(
        runtime::FunctionType::FD, ro_req_.data(), n, 4,
        &MpcWorkload::advanceRollout, &ro_ctx_, ro_res_.data());
    server.drain();

    MpcBreakdown b;
    b.lq_us = server.jobUs(lq);
    b.rollout_us = server.jobUs(ro);
    b.solver_us = measureSolverUs();
    return b;
}

double
MpcWorkload::backendIterationUs(runtime::DynamicsBackend &backend)
{
    return iterationUsFrom(backendBreakdown(backend),
                           backend.offloaded());
}

MultiClientReport
MpcWorkload::serveMultiClient(runtime::DynamicsServer &server,
                              int clients, int rounds,
                              double deadline_slack)
{
    // Per-client job storage: requests/results must stay alive (and
    // exclusively owned) until the client's jobs complete, so each
    // client thread gets its own slice — no sharing, no staging
    // reuse across clients.
    struct ClientState
    {
        std::vector<runtime::DynamicsRequest> lq_req, ro_req;
        std::vector<runtime::DynamicsResult> lq_res, ro_res;
        RolloutCtx ro_ctx;
    };
    const std::size_t n = qs_.size();
    std::vector<ClientState> states(clients);
    for (int c = 0; c < clients; ++c) {
        ClientState &st = states[c];
        st.lq_req.resize(n);
        st.ro_req.resize(n);
        st.lq_res.resize(n);
        st.ro_res.resize(n);
        st.ro_ctx.robot = &robot_;
        st.ro_ctx.half_dt = 0.5 * cfg_.dt;
    }

    const bool was_running = server.running();
    if (!was_running)
        server.start();

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([this, &server, &states, c, rounds, n,
                              deadline_slack] {
            ClientState &st = states[c];
            // Per-task backend time in FD-equivalents, calibrated
            // from the previous round's LQ BatchStats: feeds the
            // closed-form makespan prediction behind each deadline.
            const double dfd_weight = runtime::sched::functionWeight(
                runtime::FunctionType::DeltaFD);
            double task_us = 0.0;
            for (int r = 0; r < rounds; ++r) {
                // Client c looks at the horizon shifted by c so the
                // concurrent traffic differs per client.
                for (std::size_t i = 0; i < n; ++i) {
                    const std::size_t s = (i + c) % n;
                    st.lq_req[i].q = qs_[s];
                    st.lq_req[i].qd = qds_[s];
                    st.lq_req[i].qdd_or_tau = taus_[s];
                    st.ro_req[i] = st.lq_req[i];
                }
                runtime::sched::JobTag lq_tag, ro_tag;
                if (deadline_slack > 0.0 && task_us > 0.0) {
                    double queued = server.laneLoadWeight(0);
                    for (int l = 1; l < server.backendCount(); ++l)
                        queued = std::min(queued,
                                          server.laneLoadWeight(l));
                    const double now = perf::nowUs();
                    lq_tag.deadline_us =
                        now + deadline_slack *
                                  runtime::sched::predictedAdmissionUs(
                                      queued, static_cast<int>(n), 1,
                                      task_us, 0.0, dfd_weight);
                    ro_tag.deadline_us =
                        now + deadline_slack *
                                  runtime::sched::predictedAdmissionUs(
                                      queued, static_cast<int>(n), 4,
                                      task_us, 0.0,
                                      runtime::sched::functionWeight(
                                          runtime::FunctionType::FD));
                }
                const double round_t0 = perf::nowUs();
                const int lq = server.submitSharded(
                    runtime::FunctionType::DeltaFD, st.lq_req.data(), n,
                    st.lq_res.data(), lq_tag);
                const int ro = server.submitSerialStages(
                    runtime::FunctionType::FD, st.ro_req.data(), n, 4,
                    &MpcWorkload::advanceRollout, &st.ro_ctx,
                    st.ro_res.data(),
                    runtime::DynamicsServer::kLeastLoaded, ro_tag);
                server.wait(lq);
                if (deadline_slack > 0.0) {
                    // Calibrate from the WALL time of the client's
                    // own LQ round, because the deadline is judged
                    // against wall-clock completion: BatchStats
                    // would give modeled backend time here, which
                    // for simulated/analytic backends has no
                    // relation to how long this host really takes
                    // to serve the batch. Queueing delay is
                    // included, which only loosens the prediction.
                    const double wall = perf::nowUs() - round_t0;
                    if (wall > 0.0)
                        task_us = wall / (n * dfd_weight);
                }
                server.wait(ro);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (!was_running)
        server.stop();

    runtime::ServerStats stats;
    runtime::sched::SchedStats sstats;
    server.drain(&stats, &sstats);
    MultiClientReport report;
    report.makespan_us = stats.makespan_us;
    report.busy_us = stats.busy_us;
    report.jobs = stats.jobs;
    report.tasks = stats.tasks;
    report.throughput_mtasks =
        stats.makespan_us > 0.0 ? stats.tasks / stats.makespan_us : 0.0;
    report.deadline_met = sstats.deadline_met;
    report.deadline_misses = sstats.deadline_misses;
    report.coalesced_batches = sstats.coalesced_batches;
    report.steals = sstats.steals;
    return report;
}

namespace {

/**
 * Ticks per drain round of the closed-loop drivers: the server
 * retires completed job records only at drain(), so an undrained
 * tick stream would grow its job deque linearly with run length.
 * Draining happens at round boundaries with no client thread
 * running (a join barrier), so it can never race a session's
 * post-wait deadline reads.
 */
constexpr int kTicksPerDrain = 16;

/** Per-client plant state persisting across drain rounds. */
struct PlantState
{
    explicit PlantState(const RobotModel &robot) : ws(robot) {}
    algo::DynamicsWorkspace ws;
    VectorX q, qd, qdd, step, q_next;
};

/**
 * One round of the tick stream of a closed-loop client: drive an
 * already-primed session against a plant stepped with the reference
 * dynamics (ABA + manifold Euler, the ground truth the backends are
 * validated against). Priming (MpcSession::start) happens before
 * the caller starts its tick-throughput clock, so ticks_per_s
 * measures the steady receding-horizon loop, not the cold solve.
 */
void
tickClosedLoopClient(const RobotModel &robot, ctrl::MpcSession &session,
                     runtime::DynamicsServer &server, int ticks,
                     PlantState &st)
{
    const double dt = session.scenario().problem.dt;
    for (int t = 0; t < ticks; ++t) {
        const VectorX &u = session.tick(server, st.q, st.qd);
        algo::aba(robot, st.ws, st.q, st.qd, u, st.qdd);
        st.step.resize(st.qd.size());
        for (std::size_t j = 0; j < st.qd.size(); ++j)
            st.step[j] = dt * st.qd[j];
        robot.integrateInto(st.q, st.step, st.q_next);
        st.q = st.q_next;
        for (std::size_t j = 0; j < st.qd.size(); ++j)
            st.qd[j] += dt * st.qdd[j];
    }
}

/**
 * Plant tracking error against the session's LIVE front reference:
 * tick() rotates periodic references one knot per tick, so the live
 * q_ref[0] is the pattern sample at the plant's current time (for
 * constant references it equals the scenario's terminal entry).
 */
double
trackingErr(const RobotModel &robot, const ctrl::MpcSession &session,
            const PlantState &st, VectorX &err)
{
    robot.differenceInto(session.solver().problem().q_ref[0], st.q,
                         err);
    return err.maxAbs();
}

/** Accumulate the server's accounting interval into the report's
 *  server-side fields (shared by both closed-loop entry points;
 *  accumulating so periodic round drains compose). */
void
drainServerInto(runtime::DynamicsServer &server, ClosedLoopReport &report)
{
    runtime::ServerStats stats;
    runtime::sched::SchedStats sstats;
    server.drain(&stats, &sstats);
    report.jobs += stats.jobs;
    report.tasks += stats.tasks;
    report.busy_us += stats.busy_us;
    report.deadline_met += sstats.deadline_met;
    report.deadline_misses += sstats.deadline_misses;
    report.coalesced_batches += sstats.coalesced_batches;
    report.steals += sstats.steals;
    report.rejected_jobs += sstats.rejected_jobs;
    report.failed_jobs += sstats.failed_jobs;
    report.lane_deaths += sstats.lane_deaths;
    report.transient_faults += sstats.transient_faults;
    report.retries += sstats.retries;
}

} // namespace

ClosedLoopReport
MpcWorkload::solveClosedLoop(runtime::DynamicsBackend &backend,
                             int ticks, ctrl::IlqrOptions options)
{
    runtime::DynamicsServer server(backend);
    ctrl::MpcSession session(robot_, ctrl::makeReachingScenario(robot_),
                             options);
    ClosedLoopReport report;
    report.converged = session.start(server).converged;
    PlantState st(robot_);
    st.q = session.scenario().q0;
    st.qd = session.scenario().qd0;
    const double t0 = nowUs();
    for (int done = 0; done < ticks; done += kTicksPerDrain) {
        tickClosedLoopClient(robot_, session, server,
                             std::min(kTicksPerDrain, ticks - done),
                             st);
        drainServerInto(server, report);
    }
    report.wall_us = nowUs() - t0;
    VectorX err;
    report.tracking_err = trackingErr(robot_, session, st, err);
    report.ticks = session.stats().ticks;
    report.ticks_per_s =
        report.wall_us > 0.0 ? report.ticks * 1e6 / report.wall_us : 0.0;
    report.final_cost = session.stats().horizon_cost;

    const ctrl::IlqrSolver::GatingStats &gs =
        session.solver().gatingStats();
    report.dense_refreshes = gs.dense;
    report.gated_refreshes = gs.gated;
    report.skipped_refreshes = gs.skipped;
    report.mean_live_density =
        gs.gated > 0 ? static_cast<double>(gs.live_columns) /
                           (static_cast<double>(gs.gated) * robot_.nv())
                     : 0.0;

    return report;
}

ClosedLoopReport
MpcWorkload::serveClosedLoopClients(runtime::DynamicsServer &server,
                                    int clients, int ticks,
                                    double deadline_slack)
{
    // One session per client, scenario mix phase-shifted per client
    // so the concurrent traffic differs without losing determinism.
    // MpcSession clamps negative slack too; clamping here keeps the
    // untagged-bulk interpretation visible at the workload boundary.
    deadline_slack = std::max(0.0, deadline_slack);
    std::vector<std::unique_ptr<ctrl::MpcSession>> sessions;
    sessions.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        ctrl::Scenario sc =
            ctrl::makeScenario(robot_, c, 16, 0.01, 0.7 * c);
        ctrl::MpcSession::Config cfg;
        cfg.deadline_slack = deadline_slack;
        sessions.push_back(std::make_unique<ctrl::MpcSession>(
            robot_, std::move(sc), ctrl::IlqrOptions{}, cfg));
        // When the caller enabled tracing on the server, give each
        // client its own ring so solver-side events land on a named
        // per-client track (attachTrace is a no-op otherwise).
        if (server.traceBuffer()) {
            char name[32];
            std::snprintf(name, sizeof(name), "mpc%d", c);
            sessions[c]->attachTrace(server, name);
        }
    }

    const bool was_running = server.running();
    if (!was_running)
        server.start();

    // Prime every session before the throughput clock starts: the
    // cold full solves are setup, not tick-stream work.
    ClosedLoopReport report;
    for (int c = 0; c < clients; ++c) {
        if (!sessions[c]->start(server).converged)
            report.converged = false;
    }

    std::vector<PlantState> plants;
    plants.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        plants.emplace_back(robot_);
        plants[c].q = sessions[c]->scenario().q0;
        plants[c].qd = sessions[c]->scenario().qd0;
    }

    // Rounds of concurrent ticking with a drain at each join
    // barrier: the clients stress the server together, while job
    // records retire every kTicksPerDrain ticks instead of piling
    // up for the whole run.
    const double t0 = nowUs();
    for (int done = 0; done < ticks; done += kTicksPerDrain) {
        const int round = std::min(kTicksPerDrain, ticks - done);
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([this, &server, &sessions, &plants, c,
                                  round] {
                tickClosedLoopClient(robot_, *sessions[c], server,
                                     round, plants[c]);
            });
        }
        for (std::thread &t : threads)
            t.join();
        drainServerInto(server, report);
    }
    report.wall_us = nowUs() - t0;

    VectorX err;
    for (int c = 0; c < clients; ++c) {
        report.tracking_err =
            std::max(report.tracking_err,
                     trackingErr(robot_, *sessions[c], plants[c], err));
        report.final_cost += sessions[c]->stats().horizon_cost;
        report.ticks += sessions[c]->stats().ticks;
        report.degraded_ticks += sessions[c]->stats().degraded_ticks;
    }
    report.ticks_per_s =
        report.wall_us > 0.0 ? report.ticks * 1e6 / report.wall_us : 0.0;
    if (!was_running)
        server.stop();

    return report;
}

} // namespace dadu::app
