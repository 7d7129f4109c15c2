"""Independent reference solutions for cross-checking the library.

The constraint kernel is checked against `loop_constraints`, which
evaluates every body's orthonormality rows and every pair's residual at q
directly, one by one, instead of through the constants g0, G0 and H that
the library fixes at assembly. The pair residuals are written out per pair
type here (`pair_residual`), apart from the row tables the library derives
everything from, and their Jacobian is a central difference with unit
step, exact for quadratics up to rounding. The stacked angular momentum is
checked against `loop_angular_momentum`, the sum of the per-body function.

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
