/**
 * @file
 * SoA lane-kernel contract tests:
 *
 *  - pack kernels (ABA, RNEA, ∆RNEA via ∆FD, FD, M⁻¹, CRBA) are
 *    bitwise identical to the scalar workspace kernels, per lane, on
 *    all three evaluation robots at soa::kLaneWidth;
 *  - masked lanes: inactive lanes are never written;
 *  - the batched engine splits full packs / ragged remainder without
 *    changing any point's bits, at any batch size and thread count;
 *  - the packed submit path performs zero steady-state heap
 *    allocations (counted global allocator, aligned forms included —
 *    the SoA arenas allocate via the C++17 aligned operator new).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <vector>

#include "algorithms/aba.h"
#include "algorithms/batched.h"
#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/rnea.h"
#include "algorithms/soa/kernels.h"
#include "algorithms/workspace.h"
#include "linalg/aligned.h"
#include "model/builders.h"
#include "runtime/backends.h"

using namespace dadu;
using namespace dadu::algo;

// -----------------------------------------------------------------
// Counted global allocator. Counting is off by default; the
// zero-allocation tests switch it on around the measured region.
// The aligned forms matter here: the SoA arenas (aligned_vector)
// allocate through operator new(size, align_val_t).
// -----------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = align ? std::aligned_alloc(
                          align, (size + align - 1) / align * align)
                    : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
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

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

// -----------------------------------------------------------------
// Bitwise comparison helpers: memcmp over the raw doubles, so even
// -0.0 vs +0.0 differences fail (EXPECT_EQ would let them pass).
// -----------------------------------------------------------------

void
expectBitwise(const linalg::VectorX &a, const linalg::VectorX &b,
              const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i], y = b[i];
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << what << " entry " << i << ": " << x << " vs " << y;
    }
}

void
expectBitwise(const linalg::MatrixX &a, const linalg::MatrixX &b,
              const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            const double x = a(r, c), y = b(r, c);
            EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                << what << " (" << r << ", " << c << "): " << x << " vs "
                << y;
        }
}

struct Points
{
    std::vector<linalg::VectorX> q, qd, tau;
};

Points
randomPoints(const model::RobotModel &robot, int n, unsigned seed = 23)
{
    std::mt19937 rng(seed);
    Points p;
    for (int i = 0; i < n; ++i) {
        p.q.push_back(robot.randomConfiguration(rng));
        p.qd.push_back(robot.randomVelocity(rng));
        p.tau.push_back(robot.randomVelocity(rng));
    }
    return p;
}

struct RobotCase
{
    const char *name;
    model::RobotModel (*make)();
};

const RobotCase kRobots[] = {
    {"iiwa", model::makeIiwa},
    {"hyq", model::makeHyq},
    {"atlas", model::makeAtlas},
};

// -----------------------------------------------------------------
// Scalar-vs-pack parity, all kernels, W = kLaneWidth, three robots.
// -----------------------------------------------------------------

TEST(SoaParity, AllKernelsBitwiseMatchScalar)
{
    constexpr int w = soa::kLaneWidth;
    for (const auto &rc : kRobots) {
        const model::RobotModel robot = rc.make();
        SCOPED_TRACE(rc.name);
        const Points p = randomPoints(robot, w);

        // Scalar references, one workspace reused point-by-point
        // exactly like the batched engine's scalar path.
        DynamicsWorkspace sws(robot);
        std::vector<linalg::VectorX> s_fd(w), s_aba(w), s_rnea(w);
        std::vector<FdDerivatives> s_dfd(w);
        std::vector<linalg::MatrixX> s_minv(w), s_m(w);
        RneaResult rr;
        for (int l = 0; l < w; ++l) {
            forwardDynamics(robot, sws, p.q[l], p.qd[l], p.tau[l],
                            s_fd[l]);
            aba(robot, sws, p.q[l], p.qd[l], p.tau[l], s_aba[l]);
            // τ = RNEA(q, q̇, q̈): reuse the ABA q̈ as the target
            // acceleration so the round trip is nontrivial.
            rnea(robot, sws, p.q[l], p.qd[l], s_aba[l], rr);
            s_rnea[l] = rr.tau;
            fdDerivatives(robot, sws, p.q[l], p.qd[l], p.tau[l],
                          s_dfd[l]);
            massMatrixInverse(robot, sws, p.q[l], s_minv[l]);
            crba(robot, sws, p.q[l], s_m[l]);
        }

        // Pack evaluation of the same points.
        DynamicsWorkspace pws(robot);
        soa::LaneBatch lanes;
        lanes.mask = soa::LaneBatch::kFullMask;
        std::vector<linalg::VectorX> o_fd(w), o_aba(w), o_rnea(w);
        std::vector<FdDerivatives> o_dfd(w);
        std::vector<linalg::MatrixX> o_minv(w), o_m(w);
        linalg::VectorX *vp[soa::kLaneWidth];
        FdDerivatives *dp[soa::kLaneWidth];
        linalg::MatrixX *mp[soa::kLaneWidth];
        for (int l = 0; l < w; ++l) {
            lanes.q[l] = &p.q[l];
            lanes.qd[l] = &p.qd[l];
            lanes.tau[l] = &p.tau[l];
            lanes.qdd[l] = &s_aba[l];
        }

        for (int l = 0; l < w; ++l)
            vp[l] = &o_fd[l];
        soa::packForwardDynamics(robot, pws, lanes, vp);
        for (int l = 0; l < w; ++l)
            vp[l] = &o_aba[l];
        soa::packAba(robot, pws, lanes, vp);
        for (int l = 0; l < w; ++l)
            vp[l] = &o_rnea[l];
        soa::packRnea(robot, pws, lanes, vp);
        for (int l = 0; l < w; ++l)
            dp[l] = &o_dfd[l];
        soa::packFdDerivatives(robot, pws, lanes, dp);
        for (int l = 0; l < w; ++l)
            mp[l] = &o_minv[l];
        soa::packMinv(robot, pws, lanes, mp);
        for (int l = 0; l < w; ++l)
            mp[l] = &o_m[l];
        soa::packCrba(robot, pws, lanes, mp);

        for (int l = 0; l < w; ++l) {
            SCOPED_TRACE(testing::Message() << "lane " << l);
            expectBitwise(s_fd[l], o_fd[l], "FD qdd");
            expectBitwise(s_aba[l], o_aba[l], "ABA qdd");
            expectBitwise(s_rnea[l], o_rnea[l], "RNEA tau");
            expectBitwise(s_dfd[l].qdd, o_dfd[l].qdd, "dFD qdd");
            expectBitwise(s_dfd[l].minv, o_dfd[l].minv, "dFD minv");
            expectBitwise(s_dfd[l].dqdd_dq, o_dfd[l].dqdd_dq,
                          "dFD dqdd_dq");
            expectBitwise(s_dfd[l].dqdd_dqd, o_dfd[l].dqdd_dqd,
                          "dFD dqdd_dqd");
            expectBitwise(s_minv[l], o_minv[l], "Minv");
            expectBitwise(s_m[l], o_m[l], "CRBA M");
        }
    }
}

// -----------------------------------------------------------------
// Masked lanes: inactive lanes' outputs are never touched.
// -----------------------------------------------------------------

TEST(SoaMask, InactiveLanesNeverWritten)
{
    const model::RobotModel robot = model::makeIiwa();
    constexpr int w = soa::kLaneWidth;
    const unsigned mask = 0b00100101u; // lanes 0, 2, 5 active
    const Points p = randomPoints(robot, w);

    DynamicsWorkspace sws(robot);
    std::vector<FdDerivatives> want(w);
    for (int l = 0; l < w; ++l)
        if (mask >> l & 1u)
            fdDerivatives(robot, sws, p.q[l], p.qd[l], p.tau[l], want[l]);

    DynamicsWorkspace pws(robot);
    soa::LaneBatch lanes;
    lanes.mask = mask;
    std::vector<FdDerivatives> got(w);
    FdDerivatives *dp[soa::kLaneWidth] = {};
    const double sentinel = -1234.5;
    for (int l = 0; l < w; ++l) {
        if (mask >> l & 1u) {
            lanes.q[l] = &p.q[l];
            lanes.qd[l] = &p.qd[l];
            lanes.tau[l] = &p.tau[l];
            dp[l] = &got[l];
        } else {
            // Inactive: no input, and the output must stay untouched.
            got[l].qdd.resize(1);
            got[l].qdd[0] = sentinel;
            dp[l] = &got[l];
        }
    }
    soa::packFdDerivatives(robot, pws, lanes, dp);

    for (int l = 0; l < w; ++l) {
        SCOPED_TRACE(testing::Message() << "lane " << l);
        if (mask >> l & 1u) {
            expectBitwise(want[l].qdd, got[l].qdd, "masked qdd");
            expectBitwise(want[l].dqdd_dq, got[l].dqdd_dq,
                          "masked dqdd_dq");
            expectBitwise(want[l].dqdd_dqd, got[l].dqdd_dqd,
                          "masked dqdd_dqd");
            expectBitwise(want[l].minv, got[l].minv, "masked minv");
        } else {
            ASSERT_EQ(got[l].qdd.size(), 1u);
            EXPECT_EQ(got[l].qdd[0], sentinel);
            EXPECT_EQ(got[l].dqdd_dq.rows(), 0u);
        }
    }
}

// -----------------------------------------------------------------
// Engine: full packs + ragged remainder. N = 13 runs as one full
// pack of 8 plus 5 scalar points, and every point keeps its bits.
// -----------------------------------------------------------------

TEST(SoaEngine, RaggedRemainderMatchesScalarBitwise)
{
    for (const auto &rc : kRobots) {
        const model::RobotModel robot = rc.make();
        SCOPED_TRACE(rc.name);
        const int n = 13;
        const Points p = randomPoints(robot, n);

        DynamicsWorkspace sws(robot);
        std::vector<FdDerivatives> want(n);
        for (int i = 0; i < n; ++i)
            fdDerivatives(robot, sws, p.q[i], p.qd[i], p.tau[i], want[i]);

        BatchedDynamics engine(robot, 1);
        const auto &got = engine.batchFdDerivatives(p.q, p.qd, p.tau);
        for (int i = 0; i < n; ++i) {
            SCOPED_TRACE(testing::Message() << "point " << i);
            expectBitwise(want[i].qdd, got[i].qdd, "qdd");
            expectBitwise(want[i].dqdd_dq, got[i].dqdd_dq, "dqdd_dq");
            expectBitwise(want[i].dqdd_dqd, got[i].dqdd_dqd, "dqdd_dqd");
            expectBitwise(want[i].minv, got[i].minv, "minv");
        }
    }
}

// Batch sizes from one point to many lane groups, at 1 to 4
// threads: groups are claimed dynamically, so which thread (and which
// slot's workspace) runs a group changes from call to call, and the
// ragged last group takes the scalar path. No schedule may change a
// point's bits against the per-point scalar kernels.
TEST(SoaEngine, MatchesPerPointScalarBitwise)
{
    constexpr int w = soa::kLaneWidth;
    const model::RobotModel robot = model::makeHyq();
    const std::vector<int> sizes = {1,      w - 1,  w,         w + 1,
                                    8 * w,  32 * w, 32 * w + 3};
    const int max_n = sizes.back();
    const Points p = randomPoints(robot, max_n);

    DynamicsWorkspace sws(robot);
    std::vector<linalg::VectorX> want_fd(max_n);
    std::vector<FdDerivatives> want_dfd(max_n), want_difd(max_n);
    std::vector<linalg::MatrixX> want_minv(max_n);
    std::vector<const linalg::MatrixX *> minv_in(max_n);
    for (int i = 0; i < max_n; ++i) {
        forwardDynamics(robot, sws, p.q[i], p.qd[i], p.tau[i], want_fd[i]);
        fdDerivatives(robot, sws, p.q[i], p.qd[i], p.tau[i], want_dfd[i]);
        massMatrixInverse(robot, sws, p.q[i], want_minv[i]);
        // ∆iFD runs on the dense ∆FD's q̈ and M⁻¹.
        minv_in[i] = &want_dfd[i].minv;
        fdDerivativesGivenAccel(robot, sws, p.q[i], p.qd[i],
                                want_dfd[i].qdd, want_dfd[i].minv,
                                want_difd[i]);
    }
    std::vector<linalg::VectorX> qdd_in(max_n);
    for (int i = 0; i < max_n; ++i)
        qdd_in[i] = want_dfd[i].qdd;

    for (int threads : {1, 2, 3, 4}) {
        BatchedDynamics engine(robot, threads);
        for (int n : sizes) {
            SCOPED_TRACE(testing::Message()
                         << threads << " threads, n=" << n);
            const auto &fd = engine.batchForwardDynamics(
                p.q.data(), p.qd.data(), p.tau.data(), n);
            for (int i = 0; i < n; ++i)
                expectBitwise(want_fd[i], fd[i], "qdd");
            const auto &dfd = engine.batchFdDerivatives(
                p.q.data(), p.qd.data(), p.tau.data(), n);
            for (int i = 0; i < n; ++i) {
                expectBitwise(want_dfd[i].qdd, dfd[i].qdd, "dfd qdd");
                expectBitwise(want_dfd[i].dqdd_dq, dfd[i].dqdd_dq,
                              "dfd dqdd_dq");
                expectBitwise(want_dfd[i].dqdd_dqd, dfd[i].dqdd_dqd,
                              "dfd dqdd_dqd");
                expectBitwise(want_dfd[i].minv, dfd[i].minv, "dfd minv");
            }
            const auto &difd = engine.batchFdDerivativesGivenAccel(
                p.q.data(), p.qd.data(), qdd_in.data(), minv_in.data(), n);
            for (int i = 0; i < n; ++i) {
                expectBitwise(want_difd[i].dqdd_dq, difd[i].dqdd_dq,
                              "difd dqdd_dq");
                expectBitwise(want_difd[i].dqdd_dqd, difd[i].dqdd_dqd,
                              "difd dqdd_dqd");
            }
            const auto &minv = engine.batchMinv(p.q.data(), n);
            for (int i = 0; i < n; ++i)
                expectBitwise(want_minv[i], minv[i], "minv");
        }
    }
}

// -----------------------------------------------------------------
// Arena alignment: every pack the kernels read sits on a cache line.
// -----------------------------------------------------------------

TEST(SoaArena, AlignedAllocations)
{
    linalg::aligned_vector<double> v(1000);
    EXPECT_TRUE(linalg::isAligned(v.data()));
    const model::RobotModel atlas = model::makeAtlas();
    DynamicsWorkspace ws(atlas);
    ws.ensure(atlas);
    // The scalar arenas share the aligned allocator.
    EXPECT_TRUE(linalg::isAligned(ws.xup.data()));
    EXPECT_TRUE(linalg::isAligned(ws.v.data()));
    EXPECT_TRUE(linalg::isAligned(ws.ia.data()));
}

// -----------------------------------------------------------------
// Zero-allocation: after the first (arena-building) batch, repeat
// submits through the packed path allocate nothing.
// -----------------------------------------------------------------

TEST(SoaZeroAlloc, PackedEngineSteadyState)
{
    const model::RobotModel robot = model::makeIiwa();
    const int n = 13; // full pack + ragged remainder
    const Points p = randomPoints(robot, n);

    BatchedDynamics engine(robot, 1);
    // Warm-up builds the SoA arenas and output vectors.
    engine.batchForwardDynamics(p.q, p.qd, p.tau);
    engine.batchFdDerivatives(p.q, p.qd, p.tau);
    engine.batchMinv(p.q);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    engine.batchForwardDynamics(p.q, p.qd, p.tau);
    engine.batchFdDerivatives(p.q, p.qd, p.tau);
    engine.batchMinv(p.q);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state packed batches must not allocate";
}

TEST(SoaZeroAlloc, PackedBackendSubmitSteadyState)
{
    const model::RobotModel robot = model::makeIiwa();
    runtime::CpuBatchedBackend backend(robot, 1);
    const int n = 13;

    std::mt19937 rng(29);
    std::vector<runtime::DynamicsRequest> reqs(n);
    for (auto &r : reqs) {
        r.q = robot.randomConfiguration(rng);
        r.qd = robot.randomVelocity(rng);
        r.qdd_or_tau = robot.randomVelocity(rng);
    }
    std::vector<runtime::DynamicsResult> results(n);

    runtime::BatchStats stats;
    backend.submit(runtime::FunctionType::DeltaFD, reqs.data(), n,
                   results.data(), &stats);
    backend.submit(runtime::FunctionType::FD, reqs.data(), n,
                   results.data(), &stats);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    backend.submit(runtime::FunctionType::DeltaFD, reqs.data(), n,
                   results.data(), &stats);
    backend.submit(runtime::FunctionType::FD, reqs.data(), n,
                   results.data(), &stats);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state packed submits must not allocate";
}

} // namespace
