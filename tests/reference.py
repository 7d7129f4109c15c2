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
load's wrench map. The power balance's supplied energy is checked against
`loop_supplied_energy`, h w . f one step at a time with w from the dense
G. `reduced_matrix` assembles the reduced Newton matrix of
`phmbd.integrate.midpoint_linearization` from dense K - W, G and Gs; the
library places the same values straight into the matrix, and must match
it bit for bit. The port maps of `phmbd.interconnect`, read off each
pair's row table, are checked against `cylindrical_wrench_ports`, the
physical reaction wrenches of a cylindrical pair (forces along and torques
about the two lateral frame axes), by `nullspace_equivalence`.

The one-pass build (`phmbd.joints.compile_joints` checks every body once
and compiles all pairs at once; `phmbd.assembly._constant_tensors` reads
H's entries off the (rows, 8, 8) block weights) is checked against
`compile_pair`, which checks both bodies and compiles one pair at a time,
and `constant_tensors`, which scans the (rows, 8, 3, 8) broadcast of the
block weights over the three components for H's entries. Both must give
the same arrays, bit for bit and in the same order.

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
    _ORTHONORMALITY,
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
from phmbd.joints import GROUND_CONFIG, PAIR_CONSTRAINT_COUNTS, CompiledJoint, JointError

# B-director index pairs locked against the A-side frame, per prismatic row
PRISMATIC_LOCKS = ((0, 1), (1, 2), (2, 0))


def _frame(axis):
    """The triad (n, m1, m2) of phmbd.joints.joint_frame, one axis at a time."""
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if not abs(norm - 1.0) <= 1e-9:
        raise JointError(f"reference axis must be a unit vector, |axis| = {norm}")
    k = int(np.argmin(np.abs(n)))
    m2 = np.cross(n, np.eye(3)[k])
    m2 = m2 / np.linalg.norm(m2)
    m1 = np.cross(m2, n)
    return n, m1, m2


def _check_body(q, label, tol=1e-6):
    """Reject a body configuration that is off the manifold or not finite."""
    _, d = split_config(q)
    defect = np.abs(d @ d.T - np.eye(3)).max()
    if not defect <= tol:
        raise JointError(f"{label}: director triad violates orthonormality by {defect:.2e}")
    if not np.isfinite(q).all():
        raise JointError(f"{label}: configuration must be finite, got {q}")


def _on_a(axis):
    """Block weights of axis . (d_A1, d_A2, d_A3)."""
    weights = np.zeros(8)
    weights[1:4] = axis
    return weights


def compile_pair(spec, configs):
    """phmbd.joints.compile_joint written one pair at a time: both bodies
    checked, then each row of the table built on its own."""
    kind = spec.pair_type
    is_ground = spec.body_a == spec.body_b
    q_a = np.asarray(configs[spec.body_a], dtype=float)
    q_b = GROUND_CONFIG if is_ground else np.asarray(configs[spec.body_b], dtype=float)
    _check_body(q_a, f"body {spec.body_a}")
    if not is_ground:
        _check_body(q_b, f"body {spec.body_b}")

    loc = spec.joint_location
    if not np.isfinite(loc).all():
        raise JointError(f"joint location must be finite, got {loc}")
    phi_a, d_a = split_config(q_a)
    phi_b, d_b = split_config(q_b)
    X_a = d_a @ (loc - phi_a)
    X_b = d_b @ (loc - phi_b)

    n_local = m1_local = m2_local = None
    lock_dirs, offsets, locks = (), (), []
    if kind != "spherical":
        if spec.reference_axis is None:
            raise JointError(f"{kind} pair requires a reference axis")
        n_local, m1_local, m2_local = _frame(spec.reference_axis)
    if kind in ("cylindrical", "revolute"):
        n0 = n_local @ d_a
        alignment = np.abs(d_b @ n0)
        lock_dirs = (0, 1)
        if alignment[list(lock_dirs)].max() > 1.0 - 1e-9:
            lock_dirs = tuple(sorted(np.argsort(alignment)[:2]))
        if alignment[list(lock_dirs)].max() > 1.0 - 1e-9:
            raise JointError(f"{kind} pair: degenerate rotation lock, axis parallel to B-directors")
        offsets = tuple(n0 @ d_b[j] for j in lock_dirs)
        locks = [(n_local, j) for j in lock_dirs]
    elif kind == "universal":
        a0 = n_local @ d_a
        j = int(np.argmin(np.abs(d_b @ a0)))
        lock_dirs = (j,)
        offsets = (float(a0 @ d_b[j]),)
        locks = [(n_local, j)]
    elif kind == "prismatic":
        offsets = tuple(float(d_a[i] @ d_b[j]) for i, j in PRISMATIC_LOCKS)
        locks = [(np.eye(3)[i], j) for i, j in PRISMATIC_LOCKS]

    gap = np.concatenate([[-1.0], -X_a, [1.0], X_b])
    if kind in ("cylindrical", "prismatic"):
        rows = [(_on_a(axis), gap, np.zeros(3), 0.0) for axis in (m1_local, m2_local)]
    else:
        rows = [(gap, np.zeros(8), e, 0.0) for e in np.eye(3)]
    rows += [(_on_a(axis), np.eye(8)[5 + j], np.zeros(3), offset)
             for (axis, j), offset in zip(locks, offsets)]
    alpha, beta, w0, c = (np.array(column) for column in zip(*rows))
    return CompiledJoint(kind, spec.body_a, spec.body_b, is_ground, PAIR_CONSTRAINT_COUNTS[kind],
                         X_a, X_b, alpha, beta, np.zeros_like(w0), w0, c,
                         n_local, m1_local, m2_local, lock_dirs, offsets)


def constant_tensors(sys):
    """phmbd.assembly._constant_tensors from one row table of every body's
    orthonormality rows and every pair's rows, with H's entries scanned from
    the (rows, 8, 3, 8) broadcast of the block weights S."""
    nb, joints = len(sys.bodies), sys.joints
    tables = [_ORTHONORMALITY] * nb + [(j.alpha, j.beta, j.u0, j.w0, j.c) for j in joints]
    alpha, beta, u0, w0, c = (np.concatenate(column) for column in zip(*tables))
    count = [6] * nb + [j.count for j in joints]
    ground = np.repeat([False] * nb + [j.is_ground for j in joints], count)
    ground_blocks = GROUND_CONFIG.reshape(4, 3)
    u0[ground] += alpha[ground, 4:] @ ground_blocks
    w0[ground] += beta[ground, 4:] @ ground_blocks
    alpha[ground, 4:] = beta[ground, 4:] = 0.0
    bodies = np.repeat([(k, k) for k in range(nb)] + [(j.body_a, j.body_b) for j in joints],
                       count, axis=0)
    cols = (12 * bodies[:, :, None] + np.arange(12)).reshape(-1, 24)

    g0 = (u0 * w0).sum(axis=1) - c
    G0 = (alpha[:, :, None] * w0[:, None] + beta[:, :, None] * u0[:, None]).reshape(-1, 24)
    r, a = np.nonzero(G0)
    S = alpha[:, :, None] * beta[:, None] + beta[:, :, None] * alpha[:, None]
    r2, p, k, p2 = np.nonzero(np.broadcast_to(S[:, :, None], (c.size, 8, 3, 8)))
    return (g0, (r, cols[r, a], G0[r, a]),
            (r2, cols[r2, 3 * p + k], cols[r2, 3 * p2 + k], S[r2, p, p2]))


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


def loop_supplied_energy(sys, traj):
    """h w . f of every step of traj, one step at a time, at the step's
    midpoint: f the applied force and w = v_mid + M^-1 G(q_mid)^T gamma the
    configuration rate (v_mid for a trajectory without gamma)."""
    supplied = np.zeros(traj.rows - 1)
    for i in range(traj.rows - 1):
        q_mid = 0.5 * (traj.q[i] + traj.q[i + 1])
        w = 0.5 * (traj.v[i] + traj.v[i + 1])
        if traj.gamma is not None:
            w = w + sys.mass_diag_inv * (stack_constraints(sys, q_mid)[1].T @ traj.gamma[i + 1])
        supplied[i] = traj.h * float(w @ input_assembly(sys, q_mid, traj.t[i] + 0.5 * traj.h))
    return supplied


def reduced_matrix(sys, h, K, W, G, Gs, gamma=None):
    """The reduced Newton matrix of midpoint_linearization from dense blocks.

    Takes K = K(lambda) on the pattern of K, the loads' (9, 9) director
    blocks W (None without loads), where phmbd.assembly._GroupBlocks.fill
    takes K - W as one vector on that pattern, and G and Gs on the pattern
    of G; for the augmented scheme, gamma holds the further arguments
    (Q, Gg, DG) of _AugmentedBlocks.fill. It scatters K, G and Gs into
    dense arrays, subtracts each W block at its load's body in load order,
    and assembles

        [M + (h^2/4)(K - W)   h G^T]
        [(h/2) Gs             0    ]

    then, for the augmented scheme, places DG and Gg in the (u, gamma) and
    (gamma, u) blocks and subtracts Q at the positions of the system's
    assembly._AugmentedBlocks.
    """
    n, m = sys.n, sys.m
    KW = sys._K_pattern.dense(K)
    if W is not None:
        for body, block in zip((load.body for load in sys.loads), W):
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
