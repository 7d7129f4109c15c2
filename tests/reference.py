"""Independent reference solutions for cross-checking the library.

The constraint kernel is checked against `loop_constraints`, which
evaluates every body's orthonormality rows and every pair's residual at q
directly, one by one, instead of through the constants g0, G0 and H that
the library fixes at assembly. The pair residuals are written out per pair
type here (`pair_residual`), apart from the row tables the library derives
everything from, and their Jacobian is a central difference with unit
step, exact for quadratics up to rounding. The stacked angular momentum is
checked against `loop_angular_momentum`, the sum of the per-body function,
and the applied force against `loop_input_assembly`, the sum of each
load's wrench map. `reduced_matrix` assembles the reduced Newton matrix of
`phmbd.integrate.midpoint_linearization` from dense K - W, G and Gs; the
library places the same values straight into the matrix, and must match
it bit for bit. The port maps of `phmbd.interconnect`, read off each
pair's row table, are checked against `cylindrical_wrench_ports`, the
physical reaction wrenches of a cylindrical pair (forces along and torques
about the two lateral frame axes), by `nullspace_equivalence`.

The constrained equations of motion are reduced to an ODE on (q, v) by
solving the acceleration-level constraint for the multipliers,

    (G M^-1 G^T) lam = G M^-1 f + D(v) v,      f = -grad V + B(q) u,

and the resulting right-hand side is handed to scipy's adaptive solver.
This route never touches the midpoint schemes, so agreement between the
two is evidence for both.
"""
import numpy as np
from scipy.integrate import solve_ivp

from phmbd.assembly import (
    constraint_velocity_gradient,
    input_assembly,
    potential,
    stack_constraints,
)
from phmbd.directors import (
    angular_momentum,
    external_wrench_map,
    hat,
    internal_constraint_gradient,
    internal_constraints,
    split_config,
)
from phmbd.joints import GROUND_CONFIG

# B-director index pairs locked against the A-side frame, per prismatic row
PRISMATIC_LOCKS = ((0, 1), (1, 2), (2, 0))


def pair_residual(joint, q_a, q_b):
    """Residual of one compiled pair, written out per pair type from its
    anchors, joint frame, lock directors and offsets."""
    phi_a, d_a = split_config(q_a)
    phi_b, d_b = split_config(q_b)
    dp = (phi_b + joint.X_b @ d_b) - (phi_a + joint.X_a @ d_a)
    n = joint.n_local @ d_a if joint.n_local is not None else None
    locks = [n @ d_b[j] - off for j, off in zip(joint.lock_dirs, joint.offsets)]
    kind = joint.pair_type

    if kind == "spherical":
        return dp
    if kind in ("revolute", "universal"):
        return np.concatenate([dp, locks])
    across = [(joint.m1_local @ d_a) @ dp, (joint.m2_local @ d_a) @ dp]
    if kind == "cylindrical":
        return np.array(across + locks)
    if kind == "prismatic":
        return np.array(across + [d_a[i] @ d_b[j] - off
                                  for (i, j), off in zip(PRISMATIC_LOCKS, joint.offsets)])
    raise AssertionError(f"unhandled pair type {kind}")


def pair_jacobian(joint, x):
    """d pair_residual / d(q_A, q_B) at x = (q_A, q_B), shape (count, 24),
    by central differences with unit step."""
    return np.column_stack([
        (pair_residual(joint, (x + e)[:12], (x + e)[12:])
         - pair_residual(joint, (x - e)[:12], (x - e)[12:])) / 2.0
        for e in np.eye(24)])


def loop_constraints(sys, q):
    """(g, G) at q from the per-body and per-pair functions, row by row.

    Same layout as phmbd.assembly.stack_constraints: internal rows first,
    then joint rows in declaration order; a ground pair sees the ground
    pseudo-body at GROUND_CONFIG and fills only its real body's columns.
    """
    q = np.asarray(q, dtype=float)
    g = np.empty(sys.m)
    G = np.zeros((sys.m, sys.n))
    for k in range(len(sys.bodies)):
        qk = q[12 * k:12 * k + 12]
        g[6 * k:6 * k + 6] = internal_constraints(qk)
        G[6 * k:6 * k + 6, 12 * k:12 * k + 12] = internal_constraint_gradient(qk)
    r0 = 6 * len(sys.bodies)
    for joint in sys.joints:
        rows = slice(r0, r0 + joint.count)
        ca = 12 * joint.body_a
        q_a = q[ca:ca + 12]
        if joint.is_ground:
            q_b = GROUND_CONFIG
        else:
            cb = 12 * joint.body_b
            q_b = q[cb:cb + 12]
        g[rows] = pair_residual(joint, q_a, q_b)
        J = pair_jacobian(joint, np.concatenate([q_a, q_b]))
        G[rows, ca:ca + 12] = J[:, :12]
        if not joint.is_ground:
            G[rows, cb:cb + 12] = J[:, 12:]
        r0 += joint.count
    return g, G


def loop_velocity_gradient(sys, v):
    """d/dq [G(q) v] = G(v) - G(0) of the loop form; exact for affine G."""
    return loop_constraints(sys, v)[1] - loop_constraints(sys, np.zeros(sys.n))[1]


def loop_hessian_contraction(sys, lam):
    """K(lam) = d/dq [G(q)^T lam], column c probed as (G(e_c) - G(0))^T lam."""
    G0 = loop_constraints(sys, np.zeros(sys.n))[1]
    return np.column_stack([(loop_constraints(sys, e)[1] - G0).T @ lam
                            for e in np.eye(sys.n)])


def loop_angular_momentum(sys, q, v):
    """Total angular momentum as the sum of directors.angular_momentum over
    the bodies."""
    L = np.zeros(3)
    for k, body in enumerate(sys.bodies):
        L += angular_momentum(body, q[12 * k:12 * k + 12], v[12 * k:12 * k + 12])
    return L


def loop_input_assembly(sys, q, t):
    """Generalized force of the loads, one wrench map per load, summed in
    load order."""
    f = np.zeros(sys.n)
    for load in sys.loads:
        u = np.asarray(load.wrench(t), dtype=float)
        B = external_wrench_map(sys.body_config(q, load.body), load.r_material)
        f[12 * load.body:12 * load.body + 12] += B @ u
    return f


def reduced_matrix(sys, h, K, W, G, Gs, gamma=None):
    """The reduced Newton matrix of midpoint_linearization from dense blocks.

    Takes the arguments of phmbd.integrate._reduced_matrix: K on the
    pattern of K, the loads' (9, 9) director blocks W (None without loads),
    G and Gs on the pattern of G, and gamma = (Q, Gg, DG) for the augmented
    scheme. It scatters K, G and Gs into dense arrays, subtracts each W
    block in load order, and assembles

        [M + (h^2/4)(K - W)   h G^T]
        [(h/2) Gs             0    ]

    then, for the augmented scheme, places DG and Gg in the (u, gamma) and
    (gamma, u) blocks and subtracts Q at the positions of the system's
    assembly._AugmentedBlocks.
    """
    n, m = sys.n, sys.m
    KW = sys._K_pattern.dense(K)
    if W is not None:
        for body, block in zip(sys._load_bodies, W):
            rows = slice(12 * body + 3, 12 * body + 12)
            KW[rows, rows] -= block
    G, Gs = sys._G_pattern.dense(G), sys._G_pattern.dense(Gs)
    size = n + m if gamma is None else n + 2 * m
    A = np.empty((size, size))
    np.multiply(KW, 0.25 * h * h, out=A[:n, :n])
    diag = np.arange(n)
    A[diag, diag] += sys.mass_diag
    np.multiply(G.T, h, out=A[:n, n:n + m])
    np.multiply(Gs, 0.5 * h, out=A[n:n + m, :n])
    A[n:, n:] = 0.0
    if gamma is not None:
        Q, Gg, DG = gamma
        blk = sys._augmented_blocks
        A[:n, n + m:] = 0.0
        A[n + m:, :n] = 0.0
        flat = A.ravel()
        flat[blk.DG_at] = DG
        flat[blk.Gg_at] = Gg
        flat[blk.Q_at] -= Q
    return A


def _wrench_columns(d, anchor_weights, axes, lever_correction=None):
    """Stack force and torque columns of the wrench map for given axes.

    For each axis a the force column is (a; w_i(a)) with w_i the director
    distribution, and the torque column distributes a pure couple.
    """
    cols = []
    for a in axes:
        col = np.zeros(12)
        col[0:3] = a
        for i in range(3):
            w = anchor_weights[i] * a
            if lever_correction is not None:
                w = w - np.cross(d[i], lever_correction @ a)
            col[3 + 3 * i:6 + 3 * i] = w
        cols.append(col)
    for a in axes:
        col = np.zeros(12)
        for i in range(3):
            col[3 + 3 * i:6 + 3 * i] = -0.5 * np.cross(d[i], a)
        cols.append(col)
    return np.column_stack(cols)


def cylindrical_wrench_ports(joint, q_a, q_b):
    """Port rows C = [-B_A^T, B_B^T] of a cylindrical pair, shape (4, 24).

    B_A and B_B map the four constrained wrench channels (m1-force,
    m2-force, m1-torque, m2-torque, all along the A-side joint frame) to
    generalized forces on each body. The A-side columns carry the moment
    correction for the anchor gap, distributed over the directors as
    X_i I - (1/2) hat(d_i) hat(gap); the half mirrors the usual director
    split of a point force (the moment of a force at lever r enters the d_i
    rows as -(1/2) hat(d_i) hat(r)). The B-side columns use its plain
    material anchor.
    """
    assert joint.pair_type == "cylindrical"
    phi_a, d_a = split_config(q_a)
    phi_b, d_b = split_config(q_b)
    axes = (joint.m1_local @ d_a, joint.m2_local @ d_a)
    gap = (phi_b + joint.X_b @ d_b) - (phi_a + joint.X_a @ d_a)
    B_a = _wrench_columns(d_a, joint.X_a, axes, lever_correction=hat(0.5 * gap))
    B_b = _wrench_columns(d_b, joint.X_b, axes)
    return np.hstack([-B_a.T, B_b.T])


def _null_basis(M, name, expected_rank, rank_tol):
    _, s, Vt = np.linalg.svd(M)
    rank = int((s > rank_tol * s[0]).sum())
    if rank != expected_rank:
        raise ValueError(f"{name} is rank deficient: rank {rank}, expected {expected_rank}")
    return Vt[rank:]


def nullspace_equivalence(C, G_joint, q_a, q_b, rank_tol=1e-10):
    """Mutual annihilation defect of port rows C and a joint Jacobian.

    C acts like the joint Jacobian only on rigid velocities, i.e. in the
    null space of the orthonormality rows of both bodies (the
    identification of director rates with an angular velocity lives
    there). The defect is therefore the worst violation of C on an
    orthonormal basis of null([G_d; G_joint]) and of G_joint on
    null([G_d; C]); a small value certifies that both matrices cut the same
    constraint distribution out of the rigid motions. Raises when the joint
    Jacobian or a stacked matrix loses rank.
    """
    G_int = np.zeros((12, 24))
    G_int[:6, :12] = internal_constraint_gradient(q_a)
    G_int[6:, 12:] = internal_constraint_gradient(q_b)
    m_j = G_joint.shape[0]

    _null_basis(G_joint, "joint Jacobian", m_j, rank_tol)
    defect = 0.0
    for rows, name, other in (
        (G_joint, "stacked joint Jacobian", C),
        (C, "stacked port matrix", G_joint),
    ):
        basis = _null_basis(np.vstack([G_int, rows]), name, 12 + m_j, rank_tol)
        if basis.size:
            defect = max(defect, float(np.abs(other @ basis.T).max()))
    return defect


def index_reduced_rhs(sys, t, y):
    """Time derivative of y = (q, v) with multipliers eliminated."""
    n = sys.n
    q, v = y[:n], y[n:]
    _, G = stack_constraints(sys, q)
    _, gradV = potential(sys, q)
    f = -gradV
    if sys.loads:
        f = f + input_assembly(sys, q, t)
    minv = 1.0 / sys.mass_diag
    A = (G * minv) @ G.T
    rhs = G @ (minv * f) + constraint_velocity_gradient(sys, v) @ v
    lam = np.linalg.solve(A, rhs)
    vdot = minv * (f - G.T @ lam)
    return np.concatenate([v, vdot])


def reference_trajectory(sys, state, t_eval, rtol=1e-10, atol=1e-12):
    """Integrate the index-reduced ODE and sample it on t_eval.

    Returns (q, v) arrays of shape (len(t_eval), n). The reduced ODE only
    preserves the constraints it inherits from the initial data, so pass
    consistent states when machine-level manifold accuracy matters.
    """
    y0 = np.concatenate([state.q, state.v])
    sol = solve_ivp(
        lambda t, y: index_reduced_rhs(sys, t, y),
        (float(t_eval[0]), float(t_eval[-1])),
        y0,
        method="DOP853",
        t_eval=np.asarray(t_eval, dtype=float),
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    n = sys.n
    return sol.y[:n].T, sol.y[n:].T
