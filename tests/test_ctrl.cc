/**
 * @file
 * Tests for the trajectory-optimization subsystem (src/ctrl/):
 *
 *  - manifold difference: RobotModel::differenceInto inverts
 *    integrate() on every joint type (quaternion log map);
 *  - iLQR convergence: monotone accepted-cost trace, gradient /
 *    cost tolerances met on all three scenarios of all three
 *    evaluation robots, dynamics served by the CPU batched backend;
 *  - backend equivalence: solver trajectories bitwise-identical
 *    between CpuBatchedBackend and AnalyticBackend numerics (the
 *    control-grade claim of the unified runtime);
 *  - bitwise pin: cost traces and final controls of every robot x
 *    scenario solve (plus gated HyQ) equal goldens recorded with the
 *    dense Riccati sweep;
 *  - zero steady-state allocations in the solve loop (counted
 *    global allocator), on both the SmallLdlt (nv <= 6) and the
 *    Ldlt Riccati paths;
 *  - receding-horizon MpcSession: closed-loop tracking on iiwa,
 *    bounded behavior on the floating-base HyQ, deadline accounting
 *    of the multi-client closed-loop serving scenario.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>

#include "app/mpc_workload.h"
#include "ctrl/ilqr.h"
#include "ctrl/mpc_session.h"
#include "ctrl/scenarios.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/sched/policy.h"
#include "runtime/server.h"
#include "test_support.h"

// ---------------------------------------------------------------------
// Counted global allocator (same idiom as test_batched/test_runtime):
// off by default, switched on around the measured solve only.
// ---------------------------------------------------------------------

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace dadu;
using dadu::linalg::VectorX;
using dadu::model::RobotModel;
using dadu::tests::expectBitwiseEqual;

// ---------------------------------------------------------------------
// Manifold difference
// ---------------------------------------------------------------------

TEST(ModelDifference, InvertsIntegrateOnEveryJointType)
{
    std::mt19937 rng(11);
    for (auto make :
         {model::makeIiwa, model::makeHyq, model::makeAtlas,
          model::makeQuadrupedArm, model::makeTiago}) {
        const RobotModel robot = make();
        for (int trial = 0; trial < 20; ++trial) {
            const VectorX q = robot.randomConfiguration(rng);
            VectorX dv = robot.randomVelocity(rng);
            dv *= 0.5; // keep rotations well inside the log-map range
            const VectorX q2 = robot.integrate(q, dv);
            const VectorX back = robot.difference(q, q2);
            ASSERT_EQ(back.size(), dv.size());
            for (std::size_t j = 0; j < dv.size(); ++j)
                EXPECT_NEAR(back[j], dv[j], 1e-9)
                    << robot.name() << " dof " << j;
        }
    }
}

TEST(ModelDifference, IdentityAndAllocationFree)
{
    const RobotModel robot = model::makeAtlas();
    std::mt19937 rng(5);
    const VectorX q = robot.randomConfiguration(rng);
    VectorX out;
    robot.differenceInto(q, q, out); // size the output
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    robot.differenceInto(q, q, out);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0);
    EXPECT_NEAR(out.maxAbs(), 0.0, 1e-15);
}

// ---------------------------------------------------------------------
// Solver convergence
// ---------------------------------------------------------------------

TEST(Ilqr, ConvergesOnAllRobotsAndScenarios)
{
    for (auto make : {model::makeIiwa, model::makeHyq, model::makeAtlas}) {
        const RobotModel robot = make();
        runtime::CpuBatchedBackend backend(robot, 2);
        for (int which = 0; which < 3; ++which) {
            const ctrl::Scenario sc = ctrl::makeScenario(robot, which);
            ctrl::IlqrSolver solver(robot, sc.problem);
            const ctrl::IlqrSummary sum =
                solver.solve(backend, sc.q0, sc.qd0);

            SCOPED_TRACE(robot.name() + std::string(" / ") + sc.name);
            EXPECT_TRUE(sum.converged);
            EXPECT_FALSE(solver.stalled());
            EXPECT_LT(sum.cost, sum.initial_cost);
            // Stationarity: the Hamiltonian gradient residual is
            // driven down by orders of magnitude. The exact discrete
            // manifold Jacobians (right-Jacobian blocks instead of
            // ∂(q ⊕ h·q̇)/∂δq ≈ I on quaternion joints) hold every
            // robot/scenario pair below 7e-3.
            EXPECT_LT(sum.grad_norm, 7e-3);

            // Monotone accepted-cost trace.
            const std::vector<double> &trace = solver.costTrace();
            ASSERT_GE(trace.size(), 2u);
            for (std::size_t i = 1; i < trace.size(); ++i)
                EXPECT_LE(trace[i], trace[i - 1]);
        }
    }
}

TEST(Ilqr, SmallControlSpaceUsesConvergentSmallLdltPath)
{
    // nv = 4 <= SmallLdlt::kMaxDim exercises the stack-resident
    // factorization branch of the backward pass.
    const RobotModel robot = model::makeSerialChain(4);
    runtime::CpuBatchedBackend backend(robot, 2);
    const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);
    ctrl::IlqrSolver solver(robot, sc.problem);
    const ctrl::IlqrSummary sum = solver.solve(backend, sc.q0, sc.qd0);
    EXPECT_TRUE(sum.converged);
    EXPECT_LT(sum.cost, sum.initial_cost);
}

// ---------------------------------------------------------------------
// Backend equivalence
// ---------------------------------------------------------------------

TEST(Ilqr, TrajectoriesBitwiseIdenticalAcrossCpuAndAnalyticBackends)
{
    for (auto make : {model::makeIiwa, model::makeHyq}) {
        const RobotModel robot = make();
        accel::Accelerator accel(robot);
        runtime::CpuBatchedBackend cpu(robot, 4);
        runtime::AnalyticBackend analytic(accel);

        const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);
        ctrl::IlqrSolver s_cpu(robot, sc.problem);
        ctrl::IlqrSolver s_ana(robot, sc.problem);
        const ctrl::IlqrSummary r_cpu =
            s_cpu.solve(cpu, sc.q0, sc.qd0);
        const ctrl::IlqrSummary r_ana =
            s_ana.solve(analytic, sc.q0, sc.qd0);

        SCOPED_TRACE(robot.name());
        EXPECT_EQ(r_cpu.iterations, r_ana.iterations);
        EXPECT_EQ(r_cpu.cost, r_ana.cost);
        EXPECT_EQ(r_cpu.grad_norm, r_ana.grad_norm);
        for (int k = 0; k <= s_cpu.knots(); ++k) {
            expectBitwiseEqual(s_cpu.q(k), s_ana.q(k));
            expectBitwiseEqual(s_cpu.qd(k), s_ana.qd(k));
        }
        for (int k = 0; k < s_cpu.knots(); ++k)
            expectBitwiseEqual(s_cpu.u(k), s_ana.u(k));
    }
}

// ---------------------------------------------------------------------
// Bitwise pin of the solver
// ---------------------------------------------------------------------

/** FNV-1a over the bit patterns of every control of the horizon. */
std::uint64_t
controlChecksum(const ctrl::IlqrSolver &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (int k = 0; k < s.knots(); ++k) {
        for (std::size_t j = 0; j < s.u(k).size(); ++j) {
            const double v = s.u(k)[j];
            std::uint64_t b;
            std::memcpy(&b, &v, sizeof b);
            h ^= b;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/**
 * Golden solves, recorded with the dense Riccati sweep (plain
 * MatrixX loops, column-wise LDLT solve): the accepted-cost trace as
 * hex floats, the iteration count and the checksum of the final
 * controls. The structured, tiled sweep must reproduce every bit.
 * Dynamics on a 2-thread CpuBatchedBackend (bitwise equal to the
 * scalar kernels at any thread count).
 *
 * The floating-base solves of an AVX2 build (-march=x86-64-v3, CI's
 * vectorized job) differ from the baseline x86-64 build in the last
 * bits of the dynamics, with the dense sweep as much as with the
 * tiled one, so each build checks against the goldens recorded with
 * its own code generation. Iteration counts agree across both.
 */
struct GoldenSolve
{
    model::RobotModel (*make)();
    int scenario;
    algo::GatingMode gating;
    int iterations;
    std::uint64_t control_checksum;
    std::vector<double> costs;
};

#if defined(__AVX2__)
const GoldenSolve kGoldenSolves[] = {
    {model::makeIiwa, 0, algo::GatingMode::None, 3, 0x6229800cf3405d21ull,
     {0x1.3f26a7b686ea7p+3, 0x1.3bb91d035ebc7p+2, 0x1.3b635b90ce2d3p+2,
      0x1.3b635a8cb155p+2}},
    {model::makeIiwa, 1, algo::GatingMode::None, 6, 0x3983269fb8ca21d1ull,
     {0x1.bc36023b57733p+8, 0x1.0430591c8d2fp+7, 0x1.42a8927b707f7p+6,
      0x1.336a4f39cd1ddp+6, 0x1.32bf6fa190b57p+6, 0x1.32bf5db0dae2cp+6,
      0x1.32bf5d6ebd24cp+6}},
    {model::makeIiwa, 2, algo::GatingMode::None, 3, 0x925e7824b6bbd812ull,
     {0x1.08113ec791fa1p+5, 0x1.7e05da8eb16d4p-2, 0x1.d8bb2a8f3e7d2p-3,
      0x1.d8bb2a07e627ep-3}},
    {model::makeHyq, 0, algo::GatingMode::None, 7, 0xc304a65714889976ull,
     {0x1.67b88fb87db62p+9, 0x1.013662848ad64p+4, 0x1.fdf72711418a2p+3,
      0x1.fdf726baf616dp+3}},
    {model::makeHyq, 1, algo::GatingMode::None, 5, 0xa35a8da6675daa84ull,
     {0x1.c75dc5c4c1adap+10, 0x1.20d8c5585aeaap+9, 0x1.1fac8160fb2aap+9,
      0x1.1fa968e0c78abp+9, 0x1.1fa94f690e7a1p+9, 0x1.1fa94e5b7b7d1p+9}},
    {model::makeHyq, 2, algo::GatingMode::None, 4, 0x655f81b9aa862046ull,
     {0x1.6c589eb757428p+9, 0x1.2a766a7ade034p+2, 0x1.23fbbed444088p+2,
      0x1.23fb9ce84b784p+2, 0x1.23fb9ce103c98p+2}},
    {model::makeAtlas, 0, algo::GatingMode::None, 10, 0xce7df97fd8fc41a5ull,
     {0x1.15a5ce49680f5p+10, 0x1.cdeb1dd864a9dp+4, 0x1.c1ef6799ad40ep+4,
      0x1.c1ec293d41f9ap+4, 0x1.c1ec29359c48fp+4}},
    {model::makeAtlas, 1, algo::GatingMode::None, 11, 0xd3230163a7b92bdcull,
     {0x1.9cbafe7d4518ep+11, 0x1.167894e07b9ddp+10, 0x1.9cf2ddbb1d671p+9,
      0x1.96c5e9a5296a8p+9, 0x1.94eb7e7390f4dp+9, 0x1.94c1bd2e74786p+9,
      0x1.94b9418f4c7e8p+9, 0x1.94b7934bbcbb5p+9, 0x1.94b72bfc4a32cp+9,
      0x1.94b7125bbab56p+9, 0x1.94b70a31e71a5p+9, 0x1.94b70825d8b1p+9}},
    {model::makeAtlas, 2, algo::GatingMode::None, 4, 0x7b0ecd1406d1d254ull,
     {0x1.11d291b73fa81p+10, 0x1.0bc51a94215efp+3, 0x1.eb47384aac6e4p+2,
      0x1.eb43342719e28p+2, 0x1.eb433361e528p+2}},
    {model::makeHyq, 0, algo::GatingMode::Adaptive, 7, 0xc304a65714889976ull,
     {0x1.67b88fb87db62p+9, 0x1.013662848ad64p+4, 0x1.fdf72711418a2p+3,
      0x1.fdf726baf616dp+3}},
};
constexpr std::uint64_t kGoldenRecedingHash = 0x37e286e576b3a610ull;
#else
const GoldenSolve kGoldenSolves[] = {
    {model::makeIiwa, 0, algo::GatingMode::None, 3, 0x6229800cf3405d21ull,
     {0x1.3f26a7b686ea7p+3, 0x1.3bb91d035ebc7p+2, 0x1.3b635b90ce2d3p+2,
      0x1.3b635a8cb155p+2}},
    {model::makeIiwa, 1, algo::GatingMode::None, 6, 0x3983269fb8ca21d1ull,
     {0x1.bc36023b57733p+8, 0x1.0430591c8d2fp+7, 0x1.42a8927b707f7p+6,
      0x1.336a4f39cd1ddp+6, 0x1.32bf6fa190b57p+6, 0x1.32bf5db0dae2cp+6,
      0x1.32bf5d6ebd24cp+6}},
    {model::makeIiwa, 2, algo::GatingMode::None, 3, 0x925e7824b6bbd812ull,
     {0x1.08113ec791fa1p+5, 0x1.7e05da8eb16d4p-2, 0x1.d8bb2a8f3e7d2p-3,
      0x1.d8bb2a07e627ep-3}},
    {model::makeHyq, 0, algo::GatingMode::None, 7, 0x62c118ecfa6fdbffull,
     {0x1.67b88fb87db62p+9, 0x1.013662848ad64p+4, 0x1.fdf72711418a2p+3,
      0x1.fdf726baf616dp+3}},
    {model::makeHyq, 1, algo::GatingMode::None, 5, 0x8b21c56684db09d6ull,
     {0x1.c75dc5c4c1adap+10, 0x1.20d8c5585aeaap+9, 0x1.1fac8160fb2acp+9,
      0x1.1fa968e0c78acp+9, 0x1.1fa94f690e7a1p+9, 0x1.1fa94e5b7b7d1p+9}},
    {model::makeHyq, 2, algo::GatingMode::None, 4, 0x86666885ea30b555ull,
     {0x1.6c589eb757428p+9, 0x1.2a766a7ade034p+2, 0x1.23fbbed444088p+2,
      0x1.23fb9ce84b784p+2, 0x1.23fb9ce103c98p+2}},
    {model::makeAtlas, 0, algo::GatingMode::None, 10, 0x882817eee314fceaull,
     {0x1.15a5ce49680f5p+10, 0x1.cdeb1dd864a9ep+4, 0x1.c1ef6799ad40dp+4,
      0x1.c1ec293d41f9bp+4, 0x1.c1ec29359c49p+4}},
    {model::makeAtlas, 1, algo::GatingMode::None, 11, 0x9ceace2cf1c8f708ull,
     {0x1.9cbafe7d4518ep+11, 0x1.167894e07b9ddp+10, 0x1.9cf2ddbb1d671p+9,
      0x1.96c5e9a5296a8p+9, 0x1.94eb7e7390f4cp+9, 0x1.94c1bd2e74786p+9,
      0x1.94b9418f4c7e9p+9, 0x1.94b7934bbcbb5p+9, 0x1.94b72bfc4a32cp+9,
      0x1.94b7125bbab57p+9, 0x1.94b70a31e71a6p+9, 0x1.94b70825d8b11p+9}},
    {model::makeAtlas, 2, algo::GatingMode::None, 4, 0x41e07a111f5bef3full,
     {0x1.11d291b73fa81p+10, 0x1.0bc51a94215efp+3, 0x1.eb47384aac6e2p+2,
      0x1.eb43342719e2ap+2, 0x1.eb433361e5281p+2}},
    {model::makeHyq, 0, algo::GatingMode::Adaptive, 7, 0x62c118ecfa6fdbffull,
     {0x1.67b88fb87db62p+9, 0x1.013662848ad64p+4, 0x1.fdf72711418a2p+3,
      0x1.fdf726baf616dp+3}},
};
constexpr std::uint64_t kGoldenRecedingHash = 0x7d48d9c73c625880ull;
#endif

TEST(Ilqr, SolvesBitwiseEqualDenseSweepGoldens)
{
    for (const GoldenSolve &g : kGoldenSolves) {
        const RobotModel robot = g.make();
        runtime::CpuBatchedBackend backend(robot, 2);
        const ctrl::Scenario sc = ctrl::makeScenario(robot, g.scenario);
        ctrl::IlqrOptions opts;
        opts.gating = g.gating;
        ctrl::IlqrSolver solver(robot, sc.problem, opts);
        const ctrl::IlqrSummary sum = solver.solve(backend, sc.q0, sc.qd0);

        SCOPED_TRACE(robot.name() + std::string(" / ") + sc.name +
                     (g.gating == algo::GatingMode::None ? "" : " gated"));
        EXPECT_EQ(sum.iterations, g.iterations);
        const std::vector<double> &trace = solver.costTrace();
        ASSERT_EQ(trace.size(), g.costs.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            EXPECT_EQ(bits(trace[i]), bits(g.costs[i])) << "cost " << i;
        EXPECT_EQ(controlChecksum(solver), g.control_checksum);
    }
}

TEST(Ilqr, GatedRecedingHorizonBitwiseEqualDenseSweepGolden)
{
    // HyQ disturbance recovery, 16 knots, Adaptive gating, 60
    // receding-horizon ticks re-anchored on the predicted next state:
    // 40 of the 64 linearizations run gated, so the sweep reads the
    // merged Jacobian caches. Golden from the dense sweep.
    const RobotModel robot = model::makeHyq();
    runtime::CpuBatchedBackend backend(robot, 2);
    const ctrl::Scenario sc = ctrl::makeScenario(robot, 2, 16);
    ctrl::IlqrOptions opts;
    opts.gating = algo::GatingMode::Adaptive;
    ctrl::IlqrSolver solver(robot, sc.problem, opts);
    ctrl::BackendChannel channel(backend);
    solver.solve(channel, sc.q0, sc.qd0);
    std::uint64_t h = 1469598103934665603ull;
    for (int tick = 0; tick < 60; ++tick) {
        const VectorX q = solver.q(1);
        const VectorX qd = solver.qd(1);
        solver.setInitialState(q, qd);
        solver.shiftControls();
        solver.shiftReferences();
        solver.rolloutNominal(channel);
        solver.iterate(channel);
        h ^= bits(solver.cost());
        h *= 1099511628211ull;
    }
    EXPECT_EQ(bits(solver.cost()), bits(0x1.9f3be4e735a09p+2));
    EXPECT_EQ(h, kGoldenRecedingHash);
    EXPECT_EQ(solver.gatingStats().gated, 40);
    EXPECT_EQ(solver.gatingStats().live_columns, 636);
}

// ---------------------------------------------------------------------
// Zero steady-state allocations
// ---------------------------------------------------------------------

TEST(Ilqr, SolveLoopIsAllocationFreeInSteadyState)
{
    // Both Riccati paths: serial chain (nv = 4, SmallLdlt) and HyQ
    // (nv = 18, Ldlt). The first solve sizes every workspace; the
    // measured re-solve of the same problem must not allocate —
    // linearization staging, backward sweep, rollouts and line
    // search included.
    struct Case
    {
        RobotModel robot;
        const char *label;
    };
    const Case cases[] = {
        {model::makeSerialChain(4), "serial4-smallldlt"},
        {model::makeHyq(), "hyq-ldlt"},
    };
    for (const Case &c : cases) {
        runtime::CpuBatchedBackend backend(c.robot, 2);
        const ctrl::Scenario sc = ctrl::makeReachingScenario(c.robot);
        ctrl::IlqrSolver solver(c.robot, sc.problem);
        ctrl::BackendChannel channel(backend);

        // Warm-up: sizes solver workspaces, engine staging and
        // result storage along the whole iterate path.
        solver.solve(channel, sc.q0, sc.qd0);

        g_alloc_count.store(0);
        g_count_allocs.store(true);
        solver.solve(channel, sc.q0, sc.qd0);
        g_count_allocs.store(false);
        EXPECT_EQ(g_alloc_count.load(), 0)
            << c.label << ": steady-state solve loop allocated";
    }
}

// ---------------------------------------------------------------------
// Receding-horizon MPC sessions
// ---------------------------------------------------------------------

TEST(MpcSession, ClosedLoopReachesTargetOnIiwa)
{
    const RobotModel robot = model::makeIiwa();
    app::MpcWorkload workload(robot);
    runtime::CpuBatchedBackend backend(robot, 2);
    const app::ClosedLoopReport r = workload.solveClosedLoop(backend, 50);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.ticks, 50u);
    EXPECT_GT(r.jobs, 50u); // linearize + rollout traffic per tick
    EXPECT_LT(r.tracking_err, 0.05);
    EXPECT_GT(r.ticks_per_s, 0.0);
}

TEST(MpcSession, ClosedLoopStaysBoundedOnFloatingBase)
{
    // HyQ's floating base drifts slowly under 1-iteration-per-tick
    // MPC but must stay bounded — free fall would blow past the
    // reference by ~g·t²/2 (≈ 1.8 rad-equivalents over this run).
    const RobotModel robot = model::makeHyq();
    app::MpcWorkload workload(robot);
    runtime::CpuBatchedBackend backend(robot, 2);
    const app::ClosedLoopReport r = workload.solveClosedLoop(backend, 60);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.tracking_err, 1.0);
}

TEST(MpcSession, ClosedLoopIdenticalAcrossBackends)
{
    const RobotModel robot = model::makeIiwa();
    app::MpcWorkload workload(robot);
    accel::Accelerator accel(robot);
    runtime::CpuBatchedBackend cpu(robot, 2);
    runtime::AnalyticBackend analytic(accel);
    const app::ClosedLoopReport a = workload.solveClosedLoop(cpu, 30);
    const app::ClosedLoopReport b =
        workload.solveClosedLoop(analytic, 30);
    // The whole closed loop (solver + plant) is deterministic and
    // backend-independent in its numerics.
    EXPECT_EQ(a.tracking_err, b.tracking_err);
    EXPECT_EQ(a.final_cost, b.final_cost);
    EXPECT_EQ(a.jobs, b.jobs);
}

TEST(MpcSession, PeriodicReferenceShiftRotates)
{
    const RobotModel robot = model::makeIiwa();
    ctrl::Scenario sc = ctrl::makeGaitScenario(robot, 8, 0.01);
    ASSERT_TRUE(sc.problem.periodic_ref);
    ctrl::IlqrSolver solver(robot, sc.problem);
    const int N = solver.knots();
    const VectorX first = solver.problem().q_ref[0];
    const VectorX second = solver.problem().q_ref[1];
    solver.shiftReferences();
    expectBitwiseEqual(solver.problem().q_ref[0], second);
    // Period-N rotation: the old front re-enters at knot N-1 (the
    // terminal entry mirrors the new front, keeping first == last).
    expectBitwiseEqual(solver.problem().q_ref[N - 1], first);
    expectBitwiseEqual(solver.problem().q_ref[N],
                       solver.problem().q_ref[0]);
    // N shifts return the references to their original phase, so
    // the q_ref stream stays aligned with the N-entry u_ref stream.
    for (int t = 1; t < N; ++t)
        solver.shiftReferences();
    expectBitwiseEqual(solver.problem().q_ref[0], first);
}

TEST(MpcSession, ServeClosedLoopClientsAccountsEveryTaggedJob)
{
    const RobotModel robot = model::makeIiwa();
    app::MpcWorkload workload(robot);
    runtime::CpuBatchedBackend lane0(robot, 2);
    auto lane1 = lane0.clone();
    runtime::DynamicsServer server(lane0);
    server.addBackend(*lane1);
    runtime::sched::SchedConfig cfg;
    cfg.kind = runtime::sched::PolicyKind::Edf;
    cfg.coalesce = true;
    cfg.steal = true;
    server.setPolicy(cfg);

    const int clients = 3, ticks = 10;
    const app::ClosedLoopReport r =
        workload.serveClosedLoopClients(server, clients, ticks, 4.0);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.ticks, static_cast<std::size_t>(clients * ticks));
    EXPECT_GT(r.jobs, static_cast<std::size_t>(clients * ticks));
    // Deadline-tagged traffic flowed and every tagged job landed in
    // exactly one bucket (hit rate is well-defined and sane).
    EXPECT_GT(r.deadline_met + r.deadline_misses, 0u);
    EXPECT_GE(r.deadlineHitRate(), 0.0);
    EXPECT_LE(r.deadlineHitRate(), 1.0);
    EXPECT_GT(r.ticks_per_s, 0.0);
}

TEST(MpcSession, UntaggedServingReportsNoDeadlines)
{
    const RobotModel robot = model::makeIiwa();
    app::MpcWorkload workload(robot);
    runtime::CpuBatchedBackend lane0(robot, 2);
    runtime::DynamicsServer server(lane0);
    const app::ClosedLoopReport r =
        workload.serveClosedLoopClients(server, 2, 5, 0.0);
    EXPECT_EQ(r.deadline_met + r.deadline_misses, 0u);
    EXPECT_EQ(r.deadlineHitRate(), 1.0);
    EXPECT_EQ(r.ticks, 10u);
}

} // namespace
