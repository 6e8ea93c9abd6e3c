#include "algorithms/soa/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "algorithms/soa/pack.h"
#include "linalg/aligned.h"
#include "spatial/transform.h"

namespace dadu::algo::soa {

namespace {

using linalg::aligned_vector;
using linalg::Vec6;
using spatial::SpatialTransform;

/** Every pack in this file is kLaneWidth lanes wide. */
constexpr int W = kLaneWidth;

/** ∆RNEA cell, lane-packed (mirror of DynamicsWorkspace::DerivCell). */
struct PDerivCell
{
    PVec6<W> dv_dq, dv_dqd;
    PVec6<W> da_dq, da_dqd;
    PVec6<W> df_dq, df_dqd;
};

/**
 * Pack arena, stored type-erased inside DynamicsWorkspace and rebuilt
 * on topology change — ensure() of the workspace drops it, so a live
 * arena always matches the model it was sized for.
 */
struct LaneArena : SoaArenaBase
{
    int nb = 0, nq = 0, nv = 0;

    // Gathered inputs and joint-space scratch.
    aligned_vector<Pack<W>> q, qd, tau, qddp; ///< nq / nv packs.
    aligned_vector<Pack<W>> bias, tmp;        ///< nv packs.

    // Per-link sweep state (mirrors the scalar workspace arenas).
    aligned_vector<PTransform<W>> xf;            ///< iXλ per link.
    aligned_vector<PVec6<W>> v, c, a, pa, f;     ///< ABA/∆RNEA state.
    aligned_vector<PVec6<W>> rv, ra, rf;         ///< RNEA (bias) state.
    aligned_vector<PVec6<W>> vc, ac, vj, iv;     ///< ∆RNEA link temps.
    aligned_vector<PMat66<W>> ia;                ///< I^A per link.
    aligned_vector<PMat66<W>> ic;                ///< I^C per link (CRBA).

    // Per-joint small blocks, flat with fixed strides (as scalar).
    aligned_vector<PVec6<W>> ucols;  ///< nb*6.
    aligned_vector<Pack<W>> dinv;    ///< nb*36.
    aligned_vector<Pack<W>> uvec;    ///< nb*6.
    PackSmallLdlt<W> ldlt;

    // MMinvGen force/propagation workspaces: entry
    // [i*(nv*6) + j*6 + a] mirrors the scalar fmat[i](j, a).
    aligned_vector<Pack<W>> fmat, pmat;

    // Joint-space matrices, row-major nv x nv packs.
    aligned_vector<Pack<W>> jsout;      ///< M⁻¹ / M output.
    aligned_vector<Pack<W>> dtq, dtqd;  ///< ∂τ/∂q, ∂τ/∂q̇.
    aligned_vector<Pack<W>> dqq, dqqd;  ///< ∂q̈/∂q, ∂q̈/∂q̇.

    // ∆RNEA cells, nb*nv, cell (i, col) at [col*nb + i] — the sweep
    // runs column-by-column, so one column's cell chain is contiguous
    // and L1-resident for its whole forward+backward round trip.
    aligned_vector<PDerivCell> dcells;

    // Column topology: owning link, owner's subtree (ascending), and
    // the owner's strict ancestors (ascending) per DOF column.
    std::vector<int> col_link;
    std::vector<std::vector<int>> col_desc, col_anc;

    void
    ensure(const RobotModel &robot)
    {
        if (nb == robot.nb() && nq == robot.nq() && nv == robot.nv())
            return;
        nb = robot.nb();
        nq = robot.nq();
        nv = robot.nv();
        const std::size_t snb = static_cast<std::size_t>(nb);
        const std::size_t snv = static_cast<std::size_t>(nv);

        q.assign(static_cast<std::size_t>(nq), Pack<W>::zero());
        qd.assign(snv, Pack<W>::zero());
        tau.assign(snv, Pack<W>::zero());
        qddp.assign(snv, Pack<W>::zero());
        bias.assign(snv, Pack<W>::zero());
        tmp.assign(snv, Pack<W>::zero());

        xf.assign(snb, PTransform<W>());
        for (auto *vec :
             {&v, &c, &a, &pa, &f, &rv, &ra, &rf, &vc, &ac, &vj, &iv})
            vec->assign(snb, PVec6<W>::zero());
        ia.assign(snb, PMat66<W>());
        ic.assign(snb, PMat66<W>());

        ucols.assign(snb * 6, PVec6<W>::zero());
        dinv.assign(snb * 36, Pack<W>::zero());
        uvec.assign(snb * 6, Pack<W>::zero());

        fmat.assign(snb * snv * 6, Pack<W>::zero());
        pmat.assign(snb * snv * 6, Pack<W>::zero());

        jsout.assign(snv * snv, Pack<W>::zero());
        dtq.assign(snv * snv, Pack<W>::zero());
        dtqd.assign(snv * snv, Pack<W>::zero());
        dqq.assign(snv * snv, Pack<W>::zero());
        dqqd.assign(snv * snv, Pack<W>::zero());

        dcells.assign(snb * snv, PDerivCell());

        col_link.assign(snv, 0);
        col_desc.assign(snv, {});
        col_anc.assign(snv, {});
        for (int i = 0; i < nb; ++i) {
            const int vi = robot.link(i).vIndex;
            for (int k = 0; k < robot.subspace(i).nv(); ++k)
                col_link[static_cast<std::size_t>(vi) + k] = i;
        }
        for (int col = 0; col < nv; ++col) {
            const int jc = col_link[col];
            col_desc[col] = robot.subtree(jc);
            for (int p = robot.parent(jc); p != -1; p = robot.parent(p))
                col_anc[col].push_back(p);
            std::reverse(col_anc[col].begin(), col_anc[col].end());
        }

        assert(linalg::isAligned(q.data()) && linalg::isAligned(xf.data()));
        assert(linalg::isAligned(ia.data()) && linalg::isAligned(fmat.data()));
        assert(linalg::isAligned(jsout.data()) &&
               linalg::isAligned(dcells.data()));
    }
};

LaneArena &
arenaFor(DynamicsWorkspace &ws, const RobotModel &robot)
{
    ws.ensure(robot);
    std::unique_ptr<SoaArenaBase> &slot = ws.soa_arena;
    if (!slot)
        slot = std::make_unique<LaneArena>();
    auto &la = static_cast<LaneArena &>(*slot);
    la.ensure(robot);
    return la;
}

/**
 * Per-lane input pointers with inactive lanes replicated from the
 * first active lane: every lane then runs safe, representative
 * arithmetic (no NaN or div-by-zero from uninitialized padding) and
 * the scatters simply skip the inactive lanes.
 */
struct Lanes
{
    const VectorX *q[W];
    const VectorX *qd[W];
    const VectorX *tau[W];
    const VectorX *qdd[W];
    const MatrixX *minv[W];
    bool active[W];
};

Lanes
resolveLanes(const LaneBatch &in)
{
    int first = -1;
    for (int l = 0; l < W; ++l) {
        if (in.mask >> l & 1u) {
            first = l;
            break;
        }
    }
    assert(first >= 0 && "LaneBatch needs at least one active lane");
    Lanes ln;
    for (int l = 0; l < W; ++l) {
        const bool act = (in.mask >> l & 1u) != 0;
        ln.active[l] = act;
        const int src = act ? l : first;
        ln.q[l] = in.q[src];
        ln.qd[l] = in.qd[src];
        ln.tau[l] = in.tau[src];
        ln.qdd[l] = in.qdd[src];
        ln.minv[l] = in.minv[src];
    }
    return ln;
}

/** Gather n scalars per lane into n packs (lane-transposed copy). */
void
gatherPacks(Pack<W> *dst, const VectorX *const *src, int n)
{
    for (int j = 0; j < n; ++j)
        for (int l = 0; l < W; ++l)
            dst[j].l[l] = (*src[l])[j];
}

/** Gather one n x n matrix per lane into row-major packs. */
void
gatherMatrixPacks(Pack<W> *dst, const MatrixX *const *src, int n)
{
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            for (int l = 0; l < W; ++l)
                dst[r * n + c].l[l] = (*src[l])(r, c);
}

/**
 * Link transforms iXλ(q) per lane: the joint trigonometry runs
 * through the scalar linkTransform (libm sin/cos per lane keeps the
 * bitwise contract; a vectorized libm would not), and only the
 * resulting E/r are scattered into packs.
 */
void
gatherTransforms(const RobotModel &robot, LaneArena &la,
                 const Lanes &ln)
{
    using model::JointType;
    const int nb = robot.nb();
    for (int i = 0; i < nb; ++i) {
        const auto &link = robot.link(i);
        const JointType t = link.joint;
        const linalg::Mat3 &et = link.xtree.rotationPart();
        const linalg::Vec3 &rt = link.xtree.translationPart();
        PTransform<W> &x = la.xf[i];
        switch (t) {
          case JointType::RevoluteX:
          case JointType::RevoluteY:
          case JointType::RevoluteZ: {
            // Only the joint trigonometry is per-lane scalar (libm
            // sin/cos keeps the bitwise contract); the rot* pattern
            // and the Ej·Et composition mirror rotX/Y/Z and
            // Mat3::operator* elementwise across lanes.
            Pack<W> s, c;
            for (int lane = 0; lane < W; ++lane) {
                const double qi = (*ln.q[lane])[link.qIndex];
                s.l[lane] = std::sin(qi);
                c.l[lane] = std::cos(qi);
            }
            const Pack<W> zero = Pack<W>::zero();
            const Pack<W> one = Pack<W>::broadcast(1.0);
            const Pack<W> ns = -s;
            PMat3<W> ej;
            switch (t) {
              case JointType::RevoluteX:
                ej.m[0] = one;  ej.m[1] = zero; ej.m[2] = zero;
                ej.m[3] = zero; ej.m[4] = c;    ej.m[5] = s;
                ej.m[6] = zero; ej.m[7] = ns;   ej.m[8] = c;
                break;
              case JointType::RevoluteY:
                ej.m[0] = c;    ej.m[1] = zero; ej.m[2] = ns;
                ej.m[3] = zero; ej.m[4] = one;  ej.m[5] = zero;
                ej.m[6] = s;    ej.m[7] = zero; ej.m[8] = c;
                break;
              default: // RevoluteZ
                ej.m[0] = c;    ej.m[1] = s;    ej.m[2] = zero;
                ej.m[3] = ns;   ej.m[4] = c;    ej.m[5] = zero;
                ej.m[6] = zero; ej.m[7] = zero; ej.m[8] = one;
                break;
            }
            for (int r = 0; r < 3; ++r) {
                for (int k = 0; k < 3; ++k) {
                    Pack<W> acc = Pack<W>::zero();
                    for (int j = 0; j < 3; ++j)
                        acc += ej(r, j) * et(j, k);
                    x.e(r, k) = acc;
                }
            }
            // r = rt + Etᵀ·0: lane-invariant — one scalar evaluation
            // of the exact composition expression, broadcast.
            const linalg::Vec3 rc =
                rt + et.transpose() * linalg::Vec3::zero();
            for (int a = 0; a < 3; ++a)
                x.r.e[a] = Pack<W>::broadcast(rc[a]);
            break;
          }
          case JointType::PrismaticX:
          case JointType::PrismaticY:
          case JointType::PrismaticZ: {
            // E = I·Et is lane-invariant; r = rt + Etᵀ·rj with rj
            // one-hot in q mirrors the composition elementwise.
            const int ax = t == JointType::PrismaticX   ? 0
                           : t == JointType::PrismaticY ? 1
                                                        : 2;
            Pack<W> qp;
            for (int lane = 0; lane < W; ++lane)
                qp.l[lane] = (*ln.q[lane])[link.qIndex];
            const linalg::Mat3 ec = linalg::Mat3::identity() * et;
            for (int r = 0; r < 3; ++r)
                for (int k = 0; k < 3; ++k)
                    x.e(r, k) = Pack<W>::broadcast(ec(r, k));
            Pack<W> rj[3] = {Pack<W>::zero(), Pack<W>::zero(),
                             Pack<W>::zero()};
            rj[ax] = qp;
            for (int a = 0; a < 3; ++a) {
                Pack<W> acc = Pack<W>::zero();
                for (int j = 0; j < 3; ++j)
                    acc += et(j, a) * rj[j];
                x.r.e[a] = Pack<W>::broadcast(rt[a]) + acc;
            }
            break;
          }
          default:
            // Quaternion joints (spherical / floating): per-lane
            // scalar composition.
            for (int lane = 0; lane < W; ++lane)
                x.setLane(lane, robot.linkTransform(i, *ln.q[lane]));
            break;
        }
    }
}

void
scatterVector(const Pack<W> *src, int n, const Lanes &ln,
              VectorX *const *out)
{
    for (int l = 0; l < W; ++l) {
        if (!ln.active[l])
            continue;
        VectorX &o = *out[l];
        if (static_cast<int>(o.size()) != n)
            o.resize(n);
        for (int j = 0; j < n; ++j)
            o[j] = src[j].l[l];
    }
}

void
scatterMatrixLane(const Pack<W> *src, int rows, int cols, int lane,
                  MatrixX &o)
{
    // resize() zero-fills even at the same shape; every entry is
    // overwritten below, so only reshape when the shape changed.
    if (static_cast<int>(o.rows()) != rows ||
        static_cast<int>(o.cols()) != cols)
        o.resize(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            o(r, c) = src[r * cols + c].l[lane];
}

/**
 * Column-gated scatter: live columns copy from the packs, dead
 * columns are written as exact 0.0 (never read from the arena, which
 * holds stale values there) — matching the gated scalar kernels,
 * whose resize() zero-fill leaves dead columns +0.0.
 */
void
scatterMatrixLaneCols(const Pack<W> *src, int rows, int cols, int lane,
                      MatrixX &o, const ColumnPlan &plan)
{
    if (static_cast<int>(o.rows()) != rows ||
        static_cast<int>(o.cols()) != cols)
        o.resize(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            o(r, c) = plan.isLive(c) ? src[r * cols + c].l[lane] : 0.0;
}

// ------------------------------------------------------------- RNEA

/**
 * Mirror of the scalar rnea() sweep (reuse_transforms form). With
 * @p qdd == nullptr the qdd_is_zero fast path is taken (bias force).
 */
void
rneaSweep(const RobotModel &robot, LaneArena &la, const Pack<W> *qd,
          const Pack<W> *qdd, PVec6<W> *v, PVec6<W> *a, PVec6<W> *f,
          Pack<W> *tau_out)
{
    const int nb = robot.nb();

    for (int i = 0; i < nb; ++i) {
        const int lam = robot.parent(i);
        const auto &s = robot.subspace(i);
        const int vi = robot.link(i).vIndex;
        const PVec6<W> vj = applySegment(s, qd + vi);
        const int vj_ax = s.nv() == 1 ? s.unitAxis(0) : -1;

        const PVec6<W> vparent =
            lam == -1 ? PVec6<W>::zero() : v[lam];
        v[i] = la.xf[i].applyMotion(vparent) + vj;
        const PVec6<W> vxvj =
            vj_ax >= 0 ? crossMotionUnitScaled(v[i], vj_ax, qd[vi])
                       : crossMotion(v[i], vj);
        const PVec6<W> xa =
            lam == -1 ? la.xf[i].applyMotionBroadcast(robot.gravity())
                      : la.xf[i].applyMotion(a[lam]);
        if (qdd == nullptr)
            a[i] = xa + vxvj;
        else
            a[i] = xa + applySegment(s, qdd + vi) + vxvj;
        const auto &inertia = robot.link(i).inertia;
        f[i] = inertiaApply(inertia, a[i]) +
               crossForce(v[i], inertiaApply(inertia, v[i]));
    }

    for (int i = nb - 1; i >= 0; --i) {
        const auto &s = robot.subspace(i);
        const int vi = robot.link(i).vIndex;
        for (int k = 0; k < s.nv(); ++k) {
            const int ax = s.unitAxis(k);
            tau_out[vi + k] =
                ax >= 0 ? f[i].e[ax] : dotBroadcast(s.col(k), f[i]);
        }
        const int lam = robot.parent(i);
        if (lam != -1)
            f[lam] += la.xf[i].applyTransposeForce(f[i]);
    }
}

// ---------------------------------------------------------- MMinvGen

/**
 * Mirror of the scalar mminvGen() (reuse_transforms form), writing
 * the joint-space result into @p out (nv x nv packs, row-major).
 */
void
minvCore(const RobotModel &robot, DynamicsWorkspace &ws, LaneArena &la,
         bool out_m, bool out_minv, Pack<W> *out)
{
    assert(out_m != out_minv);
    const int nb = robot.nb();
    const int nv = robot.nv();
    const std::size_t stride = static_cast<std::size_t>(nv) * 6;

    // out.resize(nv, nv) re-zeroes every entry in the scalar code.
    for (int i = 0; i < nv * nv; ++i)
        out[i] = Pack<W>::zero();

    for (int i = 0; i < nb; ++i) {
        for (int k = 0; k < 36; ++k)
            la.ia[i].m[k] = Pack<W>::zero();
        Pack<W> *f = &la.fmat[static_cast<std::size_t>(i) * stride];
        for (int j : ws.tree_cols[i])
            for (int a = 0; a < 6; ++a)
                f[j * 6 + a] = Pack<W>::zero();
    }

    // Backward sweep.
    for (int i = nb - 1; i >= 0; --i) {
        const int lam = robot.parent(i);
        const auto &s = robot.subspace(i);
        const int ni = s.nv();
        const int vi = robot.link(i).vIndex;

        PVec6<W> *ucols = &la.ucols[static_cast<std::size_t>(i) * 6];
        Pack<W> *dinv = &la.dinv[static_cast<std::size_t>(i) * 36];
        Pack<W> *f = &la.fmat[static_cast<std::size_t>(i) * stride];

        la.ia[i].addBroadcast(robot.link(i).inertia.toMatrix());

        for (int k = 0; k < ni; ++k) {
            const int ax = s.unitAxis(k);
            if (ax >= 0) {
                for (int a = 0; a < 6; ++a)
                    ucols[k].e[a] = la.ia[i](a, ax);
            } else {
                ucols[k] = la.ia[i].mulBroadcast(s.col(k));
            }
        }
        Pack<W> d[36];
        for (int r = 0; r < ni; ++r) {
            const int ax = s.unitAxis(r);
            for (int k = 0; k < ni; ++k)
                d[r * ni + k] = ax >= 0
                                    ? ucols[k].e[ax]
                                    : dotBroadcast(s.col(r), ucols[k]);
        }
        if (ni == 1) {
            dinv[0] = 1.0 / d[0];
        } else {
            la.ldlt.compute(d, ni);
            la.ldlt.inverseInto(dinv);
        }

        if (out_minv) {
            for (int r = 0; r < ni; ++r)
                for (int k = 0; k < ni; ++k)
                    out[(vi + r) * nv + (vi + k)] = dinv[r * ni + k];
            for (int j : ws.tree_cols[i]) {
                if (j >= vi && j < vi + ni)
                    continue;
                Pack<W> stf[6];
                for (int r = 0; r < ni; ++r) {
                    const int ax = s.unitAxis(r);
                    if (ax >= 0) {
                        stf[r] = f[j * 6 + ax];
                        continue;
                    }
                    Pack<W> acc = Pack<W>::zero();
                    for (int a = 0; a < 6; ++a)
                        acc += s.col(r)[a] * f[j * 6 + a];
                    stf[r] = acc;
                }
                for (int r = 0; r < ni; ++r) {
                    Pack<W> val = Pack<W>::zero();
                    for (int k = 0; k < ni; ++k)
                        val -= dinv[r * ni + k] * stf[k];
                    out[(vi + r) * nv + j] = val;
                }
            }
        }
        if (out_m) {
            for (int r = 0; r < ni; ++r)
                for (int k = 0; k < ni; ++k)
                    out[(vi + r) * nv + (vi + k)] = d[r * ni + k];
            for (int j : ws.tree_cols[i]) {
                if (j >= vi && j < vi + ni)
                    continue;
                for (int r = 0; r < ni; ++r) {
                    const int ax = s.unitAxis(r);
                    Pack<W> acc;
                    if (ax >= 0) {
                        acc = f[j * 6 + ax];
                    } else {
                        acc = Pack<W>::zero();
                        for (int a = 0; a < 6; ++a)
                            acc += s.col(r)[a] * f[j * 6 + a];
                    }
                    out[(vi + r) * nv + j] = acc;
                    out[j * nv + (vi + r)] = acc;
                }
            }
        }

        if (lam != -1) {
            if (out_minv) {
                for (int j : ws.tree_cols[i]) {
                    for (int a = 0; a < 6; ++a) {
                        Pack<W> acc = Pack<W>::zero();
                        for (int k = 0; k < ni; ++k)
                            acc += ucols[k].e[a] * out[(vi + k) * nv + j];
                        f[j * 6 + a] += acc;
                    }
                }
                // IA -= U D⁻¹ Uᵀ with the scalar dk == 0 skip done
                // per lane (compare+blend; see pack.h). LDLT pivots
                // are nonzero for any sane inertia, so the no-zero
                // fast path is the one that runs; dk·u_r[a] is hoisted
                // per row exactly as the scalar left-to-right product
                // (dk·u_r[a])·u_k[b] associates.
                for (int r = 0; r < ni; ++r) {
                    for (int k = 0; k < ni; ++k) {
                        const Pack<W> dk = dinv[r * ni + k];
                        if (!anyZero(dk)) {
                            for (int a = 0; a < 6; ++a) {
                                const Pack<W> dka = dk * ucols[r].e[a];
                                for (int b = 0; b < 6; ++b)
                                    la.ia[i](a, b) -= dka * ucols[k].e[b];
                            }
                        } else {
                            for (int a = 0; a < 6; ++a) {
                                const Pack<W> dka = dk * ucols[r].e[a];
                                for (int b = 0; b < 6; ++b)
                                    subUnlessZero(la.ia[i](a, b), dk,
                                                  dka * ucols[k].e[b]);
                            }
                        }
                    }
                }
            }
            if (out_m) {
                for (int k = 0; k < ni; ++k)
                    for (int a = 0; a < 6; ++a)
                        f[(vi + k) * 6 + a] = ucols[k].e[a];
            }
            Pack<W> *flam = &la.fmat[static_cast<std::size_t>(lam) * stride];
            for (int j : ws.tree_cols[i]) {
                PVec6<W> col;
                for (int a = 0; a < 6; ++a)
                    col.e[a] = f[j * 6 + a];
                const PVec6<W> up = la.xf[i].applyTransposeForce(col);
                for (int a = 0; a < 6; ++a)
                    flam[j * 6 + a] += up.e[a];
            }
            const PMat66<W> xm = la.xf[i].toMatrix();
            const PMat66<W> n = la.ia[i] * xm;
            for (int r = 0; r < 6; ++r) {
                for (int col = r; col < 6; ++col) {
                    Pack<W> acc = Pack<W>::zero();
                    for (int k = 0; k < 6; ++k)
                        acc += xm(k, r) * n(k, col);
                    la.ia[lam](r, col) += acc;
                    if (col != r)
                        la.ia[lam](col, r) += acc;
                }
            }
        }
    }

    if (out_minv) {
        // Forward completion sweep.
        for (int i = 0; i < nb; ++i) {
            const int lam = robot.parent(i);
            const auto &s = robot.subspace(i);
            const int ni = s.nv();
            const int vi = robot.link(i).vIndex;

            const PVec6<W> *ucols =
                &la.ucols[static_cast<std::size_t>(i) * 6];
            const Pack<W> *dinv =
                &la.dinv[static_cast<std::size_t>(i) * 36];
            Pack<W> *pm = &la.pmat[static_cast<std::size_t>(i) * stride];

            for (int j = vi; j < nv; ++j) {
                PVec6<W> xp = PVec6<W>::zero();
                if (lam != -1) {
                    const Pack<W> *plam_m =
                        &la.pmat[static_cast<std::size_t>(lam) * stride];
                    PVec6<W> plam;
                    for (int a = 0; a < 6; ++a)
                        plam.e[a] = plam_m[j * 6 + a];
                    xp = la.xf[i].applyMotion(plam);
                    Pack<W> ut[6];
                    for (int r = 0; r < ni; ++r)
                        ut[r] = ucols[r].dot(xp);
                    for (int r = 0; r < ni; ++r) {
                        Pack<W> val = Pack<W>::zero();
                        for (int k = 0; k < ni; ++k)
                            val += dinv[r * ni + k] * ut[k];
                        out[(vi + r) * nv + j] -= val;
                    }
                }
                PVec6<W> pcol = PVec6<W>::zero();
                for (int k = 0; k < ni; ++k) {
                    const int ax = s.unitAxis(k);
                    if (ax >= 0)
                        pcol.e[ax] += out[(vi + k) * nv + j];
                    else
                        pcol += broadcastScaled(s.col(k),
                                                out[(vi + k) * nv + j]);
                }
                if (lam != -1)
                    pcol += xp;
                for (int a = 0; a < 6; ++a)
                    pm[j * 6 + a] = pcol.e[a];
            }
        }
        for (int r = 0; r < nv; ++r)
            for (int c = r + 1; c < nv; ++c)
                out[c * nv + r] = out[r * nv + c];
    }
}

// -------------------------------------------------------------- ∆RNEA

/**
 * Mirror of the scalar rneaDerivatives() (reuse_transforms form),
 * restructured column-by-column: the scalar sweeps iterate links
 * outer / columns inner, but distinct columns' cell chains never
 * interact, so running one column's forward propagation, force
 * Jacobians and backward accumulation end-to-end touches only ~nb
 * contiguous cells (L1-resident) instead of streaming the whole
 * nb*nv cell arena through every pass. Each individual value still
 * sees the exact scalar op sequence — the link-level v/a/f state is
 * hoisted into a prologue whose values the interleaved scalar code
 * computes identically, and all per-cell writes are column-local.
 */
void
rneaDerivSweep(const RobotModel &robot, DynamicsWorkspace &ws,
               LaneArena &la, const Pack<W> *qd, const Pack<W> *qdd,
               const ColumnPlan *plan = nullptr)
{
    (void)ws;
    const int nb = robot.nb();
    const int nv = robot.nv();
    const bool gated = plan != nullptr && !plan->dense();

    // res.dtau_dq.resize(nv, nv) re-zeroes everything in the scalar
    // code; entries of unrelated (row, col) pairs are never written.
    // Gated: only live columns are re-zeroed (and later computed);
    // dead columns keep stale arena values that nothing downstream
    // reads — the masked consumers below only touch live columns.
    if (gated) {
        for (int col : plan->cols())
            for (int r = 0; r < nv; ++r) {
                la.dtq[r * nv + col] = Pack<W>::zero();
                la.dtqd[r * nv + col] = Pack<W>::zero();
            }
    } else {
        for (int i = 0; i < nv * nv; ++i) {
            la.dtq[i] = Pack<W>::zero();
            la.dtqd[i] = Pack<W>::zero();
        }
    }

    // ---- link-level prologue: v, a, f and the vc/ac/vj temporaries
    // of the scalar forward pass ----
    for (int i = 0; i < nb; ++i) {
        const int lam = robot.parent(i);
        const auto &s = robot.subspace(i);
        const int ni = s.nv();
        const int vi = robot.link(i).vIndex;

        la.vj[i] = applySegment(s, qd + vi);
        const PVec6<W> aj = applySegment(s, qdd + vi);
        const int vj_ax = ni == 1 ? s.unitAxis(0) : -1;

        la.vc[i] = lam == -1 ? la.xf[i].applyMotion(PVec6<W>::zero())
                             : la.xf[i].applyMotion(la.v[lam]);
        la.ac[i] = lam == -1
                       ? la.xf[i].applyMotionBroadcast(robot.gravity())
                       : la.xf[i].applyMotion(la.a[lam]);
        la.v[i] = la.vc[i] + la.vj[i];
        la.a[i] =
            la.ac[i] + aj +
            (vj_ax >= 0 ? crossMotionUnitScaled(la.v[i], vj_ax, qd[vi])
                        : crossMotion(la.v[i], la.vj[i]));
        const auto &inertia = robot.link(i).inertia;
        la.iv[i] = inertiaApply(inertia, la.v[i]);
        la.f[i] = inertiaApply(inertia, la.a[i]) +
                  crossForce(la.v[i], la.iv[i]);
    }
    // The f transfers of the scalar backward pass, hoisted: they are
    // the only writes to f (same child→parent order descending), and
    // every cell op below reads f values that are final either way.
    for (int i = nb - 1; i >= 0; --i) {
        const int lam = robot.parent(i);
        if (lam != -1)
            la.f[lam] += la.xf[i].applyTransposeForce(la.f[i]);
    }

    // ---- per-column fused forward + force-Jacobian + backward ----
    // Columns never interact, so the gated sweep simply visits the
    // live subset: each visited column runs the identical chain.
    const int live_cols = gated ? plan->liveCount() : nv;
    for (int n = 0; n < live_cols; ++n) {
        const int col = gated ? plan->cols()[static_cast<std::size_t>(n)] : n;
        const int jc = la.col_link[col];
        PDerivCell *cells =
            &la.dcells[static_cast<std::size_t>(col) * nb];

        // Forward over owner + descendants, ascending.
        for (int i : la.col_desc[col]) {
            const int lam = robot.parent(i);
            const auto &s = robot.subspace(i);
            const int ni = s.nv();
            const int vi = robot.link(i).vIndex;
            const int vj_ax = ni == 1 ? s.unitAxis(0) : -1;
            const auto crossVj = [&](const PVec6<W> &x) {
                return vj_ax >= 0
                           ? crossMotionUnitScaled(x, vj_ax, qd[vi])
                           : crossMotion(x, la.vj[i]);
            };
            PDerivCell &cc = cells[i];
            if (i == jc) {
                const int k = col - vi;
                const Vec6 sk = s.col(k);
                const int sk_ax = s.unitAxis(k);
                const PVec6<W> dvq =
                    sk_ax >= 0 ? crossMotionUnit(la.vc[i], sk_ax)
                               : crossMotion(la.vc[i], sk);
                cc.dv_dq = dvq;
                cc.dv_dqd = PVec6<W>::broadcast(sk);
                cc.da_dq = (sk_ax >= 0 ? crossMotionUnit(la.ac[i], sk_ax)
                                       : crossMotion(la.ac[i], sk)) +
                           crossVj(dvq);
                cc.da_dqd = crossMotion(sk, la.vj[i]) +
                            (sk_ax >= 0 ? crossMotionUnit(la.v[i], sk_ax)
                                        : crossMotion(la.v[i], sk));
            } else {
                const PDerivCell &pc = cells[lam];
                const PVec6<W> dvq = la.xf[i].applyMotion(pc.dv_dq);
                const PVec6<W> dvqd = la.xf[i].applyMotion(pc.dv_dqd);
                cc.dv_dq = dvq;
                cc.dv_dqd = dvqd;
                cc.da_dq = la.xf[i].applyMotion(pc.da_dq) + crossVj(dvq);
                cc.da_dqd =
                    la.xf[i].applyMotion(pc.da_dqd) + crossVj(dvqd);
            }
            const auto &inertia = robot.link(i).inertia;
            const PVec6<W> &iv = la.iv[i];
            cc.df_dq =
                inertiaApply(inertia, cc.da_dq) +
                crossForce(cc.dv_dq, iv) +
                crossForce(la.v[i], inertiaApply(inertia, cc.dv_dq));
            cc.df_dqd =
                inertiaApply(inertia, cc.da_dqd) +
                crossForce(cc.dv_dqd, iv) +
                crossForce(la.v[i], inertiaApply(inertia, cc.dv_dqd));
        }
        // Strict ancestors only accumulate backward transfers: start
        // from zero (the scalar re-zero of df at related columns).
        for (int i : la.col_anc[col]) {
            cells[i].df_dq = PVec6<W>::zero();
            cells[i].df_dqd = PVec6<W>::zero();
        }

        // Backward over all related links, descending (descendants
        // all index above ancestors, so reverse each list in turn).
        const auto backward = [&](int i) {
            const int lam = robot.parent(i);
            const auto &s = robot.subspace(i);
            const int ni = s.nv();
            const int vi = robot.link(i).vIndex;
            PDerivCell &cc = cells[i];
            for (int r = 0; r < ni; ++r) {
                const int ax = s.unitAxis(r);
                if (ax >= 0) {
                    la.dtq[(vi + r) * nv + col] = cc.df_dq.e[ax];
                    la.dtqd[(vi + r) * nv + col] = cc.df_dqd.e[ax];
                } else {
                    la.dtq[(vi + r) * nv + col] =
                        dotBroadcast(s.col(r), cc.df_dq);
                    la.dtqd[(vi + r) * nv + col] =
                        dotBroadcast(s.col(r), cc.df_dqd);
                }
            }
            if (lam != -1) {
                PDerivCell &pc = cells[lam];
                PVec6<W> dq_col = cc.df_dq;
                if (col >= vi && col < vi + ni)
                    dq_col += crossForce(s.col(col - vi), la.f[i]);
                pc.df_dq += la.xf[i].applyTransposeForce(dq_col);
                pc.df_dqd += la.xf[i].applyTransposeForce(cc.df_dqd);
            }
        };
        for (auto it = la.col_desc[col].rbegin();
             it != la.col_desc[col].rend(); ++it)
            backward(*it);
        for (auto it = la.col_anc[col].rbegin();
             it != la.col_anc[col].rend(); ++it)
            backward(*it);
    }
}

// -------------------------------------------------- joint-space algebra

/** Mirror of MatrixX::multiplyInto(VectorX): out = m · x. */
void
mulVecInto(const Pack<W> *m, const Pack<W> *x, Pack<W> *out, int n)
{
    for (int i = 0; i < n; ++i) {
        Pack<W> s = Pack<W>::zero();
        for (int j = 0; j < n; ++j)
            s += m[i * n + j] * x[j];
        out[i] = s;
    }
}

/**
 * Mirror of out = -(m · o) via MatrixX::multiplyInto + negate():
 * the zero-skip on m's entries runs per lane (addUnlessZero).
 */
void
mulMatNegInto(const Pack<W> *m, const Pack<W> *o, Pack<W> *out, int n)
{
    for (int i = 0; i < n * n; ++i)
        out[i] = Pack<W>::zero();
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const Pack<W> a = m[i * n + j];
            if (!anyZero(a)) {
                for (int k = 0; k < n; ++k)
                    out[i * n + k] += a * o[j * n + k];
            } else {
                for (int k = 0; k < n; ++k)
                    addUnlessZero(out[i * n + k], a, a * o[j * n + k]);
            }
        }
    }
    for (int i = 0; i < n * n; ++i)
        out[i] = -out[i];
}

/**
 * Column-gated mulMatNegInto: only the listed columns of @p out are
 * zeroed, accumulated and negated — the same per-column op sequence
 * as the dense product (and as the scalar multiplyColsInto +
 * negateCols), so live columns match it bitwise. Dead columns of
 * @p out keep stale arena values the masked scatter never reads.
 */
void
mulMatNegIntoCols(const Pack<W> *m, const Pack<W> *o, Pack<W> *out, int n,
                  const int *cols, int ncols)
{
    for (int i = 0; i < n; ++i)
        for (int c = 0; c < ncols; ++c)
            out[i * n + cols[c]] = Pack<W>::zero();
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const Pack<W> a = m[i * n + j];
            if (!anyZero(a)) {
                for (int c = 0; c < ncols; ++c) {
                    const int k = cols[c];
                    out[i * n + k] += a * o[j * n + k];
                }
            } else {
                for (int c = 0; c < ncols; ++c) {
                    const int k = cols[c];
                    addUnlessZero(out[i * n + k], a, a * o[j * n + k]);
                }
            }
        }
    }
    for (int i = 0; i < n; ++i)
        for (int c = 0; c < ncols; ++c) {
            Pack<W> &v = out[i * n + cols[c]];
            v = -v;
        }
}

} // namespace

// ----------------------------------------------------------- kernels

void
prepareArena(const RobotModel &robot, DynamicsWorkspace &ws)
{
    arenaFor(ws, robot);
}

void
packForwardDynamics(const RobotModel &robot, DynamicsWorkspace &ws,
                    const LaneBatch &in, VectorX *const *qdd_out)
{
    LaneArena &la = arenaFor(ws, robot);
    const Lanes ln = resolveLanes(in);
    const int nv = robot.nv();

    gatherPacks(la.q.data(), ln.q, robot.nq());
    gatherPacks(la.qd.data(), ln.qd, nv);
    gatherPacks(la.tau.data(), ln.tau, nv);
    gatherTransforms(robot, la, ln);

    // Steps ①②③ of the scalar forwardDynamics (MMinvGen route).
    rneaSweep(robot, la, la.qd.data(), nullptr,
              la.rv.data(), la.ra.data(),
              la.rf.data(), la.bias.data());
    minvCore(robot, ws, la, false, true, la.jsout.data());
    for (int i = 0; i < nv; ++i)
        la.tmp[i] = la.tau[i] - la.bias[i];
    mulVecInto(la.jsout.data(), la.tmp.data(), la.qddp.data(), nv);

    scatterVector(la.qddp.data(), nv, ln, qdd_out);
}

void
packFdDerivatives(const RobotModel &robot, DynamicsWorkspace &ws,
                  const LaneBatch &in, FdDerivatives *const *out,
                  const ColumnPlan *plan)
{
    LaneArena &la = arenaFor(ws, robot);
    const Lanes ln = resolveLanes(in);
    const int nv = robot.nv();
    const bool gated = plan != nullptr && !plan->dense();

    gatherPacks(la.q.data(), ln.q, robot.nq());
    gatherPacks(la.qd.data(), ln.qd, nv);
    gatherPacks(la.tau.data(), ln.tau, nv);
    gatherTransforms(robot, la, ln);

    // Steps ① - ⑥ of the scalar fdDerivatives. ①②③ (q̈, M⁻¹) are
    // always dense; ④⑤⑥ gate on the column plan.
    rneaSweep(robot, la, la.qd.data(), nullptr,
              la.rv.data(), la.ra.data(),
              la.rf.data(), la.bias.data());
    minvCore(robot, ws, la, false, true, la.jsout.data());
    for (int i = 0; i < nv; ++i)
        la.tmp[i] = la.tau[i] - la.bias[i];
    mulVecInto(la.jsout.data(), la.tmp.data(), la.qddp.data(), nv);
    rneaDerivSweep(robot, ws, la, la.qd.data(), la.qddp.data(), plan);
    if (gated) {
        const int *cols = plan->cols().data();
        const int ncols = plan->liveCount();
        mulMatNegIntoCols(la.jsout.data(), la.dtq.data(), la.dqq.data(),
                          nv, cols, ncols);
        mulMatNegIntoCols(la.jsout.data(), la.dtqd.data(), la.dqqd.data(),
                          nv, cols, ncols);
    } else {
        mulMatNegInto(la.jsout.data(), la.dtq.data(), la.dqq.data(), nv);
        mulMatNegInto(la.jsout.data(), la.dtqd.data(), la.dqqd.data(), nv);
    }

    for (int l = 0; l < W; ++l) {
        if (!ln.active[l])
            continue;
        FdDerivatives &o = *out[l];
        o.qdd.resize(nv);
        for (int j = 0; j < nv; ++j)
            o.qdd[j] = la.qddp[j].l[l];
        if (gated) {
            scatterMatrixLaneCols(la.dqq.data(), nv, nv, l, o.dqdd_dq,
                                  *plan);
            scatterMatrixLaneCols(la.dqqd.data(), nv, nv, l, o.dqdd_dqd,
                                  *plan);
        } else {
            scatterMatrixLane(la.dqq.data(), nv, nv, l, o.dqdd_dq);
            scatterMatrixLane(la.dqqd.data(), nv, nv, l, o.dqdd_dqd);
        }
        scatterMatrixLane(la.jsout.data(), nv, nv, l, o.minv);
    }
}

void
packFdGivenAccel(const RobotModel &robot, DynamicsWorkspace &ws,
                 const LaneBatch &in, FdDerivatives *const *out,
                 const ColumnPlan *plan)
{
    LaneArena &la = arenaFor(ws, robot);
    const Lanes ln = resolveLanes(in);
    const int nv = robot.nv();
    const bool gated = plan != nullptr && !plan->dense();

    gatherPacks(la.q.data(), ln.q, robot.nq());
    gatherPacks(la.qd.data(), ln.qd, nv);
    gatherPacks(la.qddp.data(), ln.qdd, nv);
    gatherMatrixPacks(la.jsout.data(), ln.minv, nv);
    gatherTransforms(robot, la, ln);

    // Steps ④⑤⑥ only — q̈ and M⁻¹ arrive as inputs (the scalar
    // fdDerivativesGivenAccel contract), so the dense ①②③ prefix
    // is skipped and a gated pack's cost scales with the live
    // column count alone.
    rneaDerivSweep(robot, ws, la, la.qd.data(), la.qddp.data(), plan);
    if (gated) {
        const int *cols = plan->cols().data();
        const int ncols = plan->liveCount();
        mulMatNegIntoCols(la.jsout.data(), la.dtq.data(), la.dqq.data(),
                          nv, cols, ncols);
        mulMatNegIntoCols(la.jsout.data(), la.dtqd.data(), la.dqqd.data(),
                          nv, cols, ncols);
    } else {
        mulMatNegInto(la.jsout.data(), la.dtq.data(), la.dqq.data(), nv);
        mulMatNegInto(la.jsout.data(), la.dtqd.data(), la.dqqd.data(), nv);
    }

    for (int l = 0; l < W; ++l) {
        if (!ln.active[l])
            continue;
        FdDerivatives &o = *out[l];
        o.qdd = *ln.qdd[l];
        o.minv = *ln.minv[l];
        if (gated) {
            scatterMatrixLaneCols(la.dqq.data(), nv, nv, l, o.dqdd_dq,
                                  *plan);
            scatterMatrixLaneCols(la.dqqd.data(), nv, nv, l, o.dqdd_dqd,
                                  *plan);
        } else {
            scatterMatrixLane(la.dqq.data(), nv, nv, l, o.dqdd_dq);
            scatterMatrixLane(la.dqqd.data(), nv, nv, l, o.dqdd_dqd);
        }
    }
}

void
packMinv(const RobotModel &robot, DynamicsWorkspace &ws, const LaneBatch &in,
         MatrixX *const *minv_out)
{
    LaneArena &la = arenaFor(ws, robot);
    const Lanes ln = resolveLanes(in);
    const int nv = robot.nv();

    gatherPacks(la.q.data(), ln.q, robot.nq());
    gatherTransforms(robot, la, ln);
    minvCore(robot, ws, la, false, true, la.jsout.data());

    for (int l = 0; l < W; ++l)
        if (ln.active[l])
            scatterMatrixLane(la.jsout.data(), nv, nv, l, *minv_out[l]);
}

void
packAba(const RobotModel &robot, DynamicsWorkspace &ws, const LaneBatch &in,
        VectorX *const *qdd_out)
{
    LaneArena &la = arenaFor(ws, robot);
    const Lanes ln = resolveLanes(in);
    const int nb = robot.nb();
    const int nv = robot.nv();

    gatherPacks(la.q.data(), ln.q, robot.nq());
    gatherPacks(la.qd.data(), ln.qd, nv);
    gatherPacks(la.tau.data(), ln.tau, nv);
    gatherTransforms(robot, la, ln);

    // Pass 1: velocities and bias terms.
    for (int i = 0; i < nb; ++i) {
        const int lam = robot.parent(i);
        const auto &s = robot.subspace(i);
        const PVec6<W> vj =
            applySegment(s, la.qd.data() + robot.link(i).vIndex);
        const PVec6<W> vparent =
            lam == -1 ? PVec6<W>::zero() : la.v[lam];
        la.v[i] = la.xf[i].applyMotion(vparent) + vj;
        la.c[i] = crossMotion(la.v[i], vj);
        la.ia[i] = PMat66<W>::broadcast(robot.link(i).inertia.toMatrix());
        la.pa[i] = crossForce(la.v[i],
                              inertiaApply(robot.link(i).inertia, la.v[i]));
    }

    // Pass 2: articulated-body inertias, backward.
    for (int i = nb - 1; i >= 0; --i) {
        const auto &s = robot.subspace(i);
        const int ni = s.nv();
        const int vi = robot.link(i).vIndex;

        PVec6<W> *ucols = &la.ucols[static_cast<std::size_t>(i) * 6];
        Pack<W> *dinv = &la.dinv[static_cast<std::size_t>(i) * 36];
        Pack<W> *uvec = &la.uvec[static_cast<std::size_t>(i) * 6];

        for (int k = 0; k < ni; ++k) {
            const int ax = s.unitAxis(k);
            if (ax >= 0) {
                for (int a = 0; a < 6; ++a)
                    ucols[k].e[a] = la.ia[i](a, ax);
            } else {
                ucols[k] = la.ia[i].mulBroadcast(s.col(k));
            }
        }

        Pack<W> d[36];
        for (int r = 0; r < ni; ++r) {
            const int ax = s.unitAxis(r);
            for (int k = 0; k < ni; ++k)
                d[r * ni + k] = ax >= 0
                                    ? ucols[k].e[ax]
                                    : dotBroadcast(s.col(r), ucols[k]);
        }
        if (ni == 1) {
            dinv[0] = 1.0 / d[0];
        } else {
            la.ldlt.compute(d, ni);
            la.ldlt.inverseInto(dinv);
        }

        for (int k = 0; k < ni; ++k) {
            const int ax = s.unitAxis(k);
            uvec[k] = la.tau[vi + k] -
                      (ax >= 0 ? la.pa[i].e[ax]
                               : dotBroadcast(s.col(k), la.pa[i]));
        }

        const int lam = robot.parent(i);
        if (lam == -1)
            continue;

        PMat66<W> ia_articulated = la.ia[i];
        for (int r = 0; r < ni; ++r) {
            for (int k = 0; k < ni; ++k) {
                const Pack<W> dk = dinv[r * ni + k];
                for (int a = 0; a < 6; ++a)
                    for (int b = 0; b < 6; ++b)
                        subUnlessZero(ia_articulated(a, b), dk,
                                      dk * ucols[r].e[a] * ucols[k].e[b]);
            }
        }
        PVec6<W> pa_articulated = la.pa[i] + ia_articulated * la.c[i];
        for (int r = 0; r < ni; ++r) {
            Pack<W> coef = Pack<W>::zero();
            for (int k = 0; k < ni; ++k)
                coef += dinv[r * ni + k] * uvec[k];
            pa_articulated += ucols[r] * coef;
        }

        const PMat66<W> xm = la.xf[i].toMatrix();
        la.ia[lam] += xm.transposeMul(ia_articulated) * xm;
        la.pa[lam] += la.xf[i].applyTransposeForce(pa_articulated);
    }

    // Pass 3: accelerations, forward.
    for (int i = 0; i < nb; ++i) {
        const int lam = robot.parent(i);
        const auto &s = robot.subspace(i);
        const int ni = s.nv();
        const int vi = robot.link(i).vIndex;

        const PVec6<W> *ucols = &la.ucols[static_cast<std::size_t>(i) * 6];
        const Pack<W> *dinv = &la.dinv[static_cast<std::size_t>(i) * 36];
        const Pack<W> *uvec = &la.uvec[static_cast<std::size_t>(i) * 6];

        const PVec6<W> aprime =
            (lam == -1 ? la.xf[i].applyMotionBroadcast(robot.gravity())
                       : la.xf[i].applyMotion(la.a[lam])) +
            la.c[i];

        Pack<W> rhs[6];
        for (int k = 0; k < ni; ++k)
            rhs[k] = uvec[k] - ucols[k].dot(aprime);
        la.a[i] = aprime;
        for (int r = 0; r < ni; ++r) {
            Pack<W> qdd_r = Pack<W>::zero();
            for (int k = 0; k < ni; ++k)
                qdd_r += dinv[r * ni + k] * rhs[k];
            la.qddp[vi + r] = qdd_r;
            la.a[i] += broadcastScaled(s.col(r), qdd_r);
        }
    }

    scatterVector(la.qddp.data(), nv, ln, qdd_out);
}

void
packRnea(const RobotModel &robot, DynamicsWorkspace &ws, const LaneBatch &in,
         VectorX *const *tau_out)
{
    LaneArena &la = arenaFor(ws, robot);
    const Lanes ln = resolveLanes(in);
    const int nv = robot.nv();

    gatherPacks(la.q.data(), ln.q, robot.nq());
    gatherPacks(la.qd.data(), ln.qd, nv);
    gatherPacks(la.qddp.data(), ln.qdd, nv);
    gatherTransforms(robot, la, ln);

    rneaSweep(robot, la, la.qd.data(), la.qddp.data(), la.rv.data(),
              la.ra.data(), la.rf.data(), la.bias.data());

    scatterVector(la.bias.data(), nv, ln, tau_out);
}

void
packCrba(const RobotModel &robot, DynamicsWorkspace &ws, const LaneBatch &in,
         MatrixX *const *m_out)
{
    LaneArena &la = arenaFor(ws, robot);
    const Lanes ln = resolveLanes(in);
    const int nb = robot.nb();
    const int nv = robot.nv();
    Pack<W> *m = la.jsout.data();

    gatherPacks(la.q.data(), ln.q, robot.nq());
    gatherTransforms(robot, la, ln);

    // m.resize(nv, nv) re-zeroes every entry in the scalar code.
    for (int i = 0; i < nv * nv; ++i)
        m[i] = Pack<W>::zero();

    for (int i = 0; i < nb; ++i)
        la.ic[i] =
            PMat66<W>::broadcast(robot.link(i).inertia.toMatrix());

    for (int i = nb - 1; i >= 0; --i) {
        const int lam = robot.parent(i);
        if (lam != -1) {
            // Mirror of ArticulatedInertia::transformToParent
            // (congruence + symmetry re-imposition).
            const PMat66<W> xm = la.xf[i].toMatrix();
            PMat66<W> y = xm.transposeMul(la.ic[i]) * xm;
            for (int r = 0; r < 6; ++r) {
                for (int c = r + 1; c < 6; ++c) {
                    const Pack<W> avg = 0.5 * (y(r, c) + y(c, r));
                    y(r, c) = avg;
                    y(c, r) = avg;
                }
            }
            la.ic[lam] += y;
        }

        const auto &si = robot.subspace(i);
        const int vi = robot.link(i).vIndex;

        PVec6<W> fcols[6];
        for (int c = 0; c < si.nv(); ++c) {
            const int ax = si.unitAxis(c);
            if (ax >= 0) {
                for (int a = 0; a < 6; ++a)
                    fcols[c].e[a] = la.ic[i](a, ax);
            } else {
                fcols[c] = la.ic[i].mulBroadcast(si.col(c));
            }
        }

        for (int c = 0; c < si.nv(); ++c)
            for (int r = 0; r < si.nv(); ++r) {
                const int ax = si.unitAxis(r);
                m[(vi + r) * nv + (vi + c)] =
                    ax >= 0 ? fcols[c].e[ax]
                            : dotBroadcast(si.col(r), fcols[c]);
            }

        int j = i;
        while (robot.parent(j) != -1) {
            for (int c = 0; c < si.nv(); ++c)
                fcols[c] = la.xf[j].applyTransposeForce(fcols[c]);
            j = robot.parent(j);
            const auto &sj = robot.subspace(j);
            const int vj = robot.link(j).vIndex;
            for (int c = 0; c < si.nv(); ++c) {
                for (int r = 0; r < sj.nv(); ++r) {
                    const int ax = sj.unitAxis(r);
                    const Pack<W> val =
                        ax >= 0 ? fcols[c].e[ax]
                                : dotBroadcast(sj.col(r), fcols[c]);
                    m[(vj + r) * nv + (vi + c)] = val;
                    m[(vi + c) * nv + (vj + r)] = val;
                }
            }
        }
    }

    for (int l = 0; l < W; ++l)
        if (ln.active[l])
            scatterMatrixLane(m, nv, nv, l, *m_out[l]);
}

} // namespace dadu::algo::soa
