#include "algorithms/workspace.h"

namespace dadu::algo {

DynamicsWorkspace &
threadLocalWorkspace()
{
    thread_local DynamicsWorkspace ws;
    return ws;
}

void
DynamicsWorkspace::topologySignature(const RobotModel &robot,
                                     std::vector<int> &out)
{
    out.clear();
    out.push_back(robot.nq());
    out.push_back(robot.nv());
    for (int i = 0; i < robot.nb(); ++i) {
        out.push_back(robot.parent(i));
        out.push_back(robot.link(i).vIndex);
        out.push_back(robot.subspace(i).nv());
    }
}

void
DynamicsWorkspace::computeTransforms(const RobotModel &robot,
                                     const VectorX &q)
{
    ensure(robot);
    for (int i = 0; i < nb; ++i)
        xup[i] = robot.linkTransform(i, q);
}

void
DynamicsWorkspace::ensure(const RobotModel &robot)
{
    // Fast path: already sized for an identical topology. The
    // signature compare is O(nb) integer reads and allocation-free
    // once the scratch has capacity.
    topologySignature(robot, sig_scratch_);
    if (sig_scratch_ == sig_)
        return;
    sig_ = sig_scratch_;

    // The lane-pack arena is sized for the old topology: drop it so
    // the SoA kernels rebuild on next use (mirrors the realloc of
    // every scalar buffer below).
    soa_arena.reset();

    nb = robot.nb();
    nq = robot.nq();
    nv = robot.nv();

    xup.assign(nb, spatial::SpatialTransform());
    v.assign(nb, Vec6::zero());
    c.assign(nb, Vec6::zero());
    a.assign(nb, Vec6::zero());
    pa.assign(nb, Vec6::zero());
    f.assign(nb, Vec6::zero());
    ia.assign(nb, linalg::Mat66::zero());
    ic.assign(nb, spatial::ArticulatedInertia());

    ucols.assign(static_cast<std::size_t>(nb) * 6, Vec6::zero());
    dinv.assign(static_cast<std::size_t>(nb) * 36, 0.0);
    uvec.assign(static_cast<std::size_t>(nb) * 6, 0.0);

    fmat.assign(nb, MatrixX(nv, 6));
    pmat.assign(nb, MatrixX(nv, 6));

    tree_cols.assign(nb, {});
    for (int i = 0; i < nb; ++i) {
        for (int j : robot.subtree(i)) {
            const int vj = robot.link(j).vIndex;
            for (int k = 0; k < robot.subspace(j).nv(); ++k)
                tree_cols[i].push_back(vj + k);
        }
    }
    active_cols.assign(nb, {});
    for (int i = 0; i < nb; ++i) {
        const int lam = robot.parent(i);
        if (lam != -1)
            active_cols[i] = active_cols[lam];
        const int vi = robot.link(i).vIndex;
        for (int k = 0; k < robot.subspace(i).nv(); ++k)
            active_cols[i].push_back(vi + k);
    }
    // rel_cols = active_cols ∪ tree_cols. Both lists are ascending
    // and tree_cols[i] starts with link i's own DOFs (also the tail
    // of active_cols[i]), so the union is a simple concatenation.
    rel_cols.assign(nb, {});
    for (int i = 0; i < nb; ++i) {
        const int ni = robot.subspace(i).nv();
        rel_cols[i] = active_cols[i];
        rel_cols[i].insert(rel_cols[i].end(),
                           tree_cols[i].begin() + ni, tree_cols[i].end());
    }

    dcells.assign(static_cast<std::size_t>(nb) * nv, DerivCell{});

    zero_nv.resize(nv);
    bias.resize(nv);
    tmp_nv.resize(nv);
    tangent.resize(nv);
    q_plus.resize(nq);
    q_minus.resize(nq);
    vel_plus.resize(nv);
    vel_minus.resize(nv);
    qdd_plus.resize(nv);
    qdd_minus.resize(nv);
    minv_tmp.resize(nv, nv);
    for (RneaResult *r : {&rnea_res, &rnea_plus, &rnea_minus}) {
        r->tau.resize(nv);
        r->v.assign(nb, Vec6::zero());
        r->a.assign(nb, Vec6::zero());
        r->f.assign(nb, Vec6::zero());
    }
    did.dtau_dq.resize(nv, nv);
    did.dtau_dqd.resize(nv, nv);

    // The aligned allocator hands out 64-byte blocks; keep it honest
    // in debug builds (the SoA kernels rely on it for aligned pack
    // loads).
    assert(linalg::isAligned(xup.data()));
    assert(linalg::isAligned(v.data()) && linalg::isAligned(f.data()));
    assert(linalg::isAligned(ia.data()) && linalg::isAligned(ic.data()));
    assert(linalg::isAligned(ucols.data()));
    assert(linalg::isAligned(dinv.data()) && linalg::isAligned(uvec.data()));
    assert(linalg::isAligned(dcells.data()));
}

} // namespace dadu::algo
