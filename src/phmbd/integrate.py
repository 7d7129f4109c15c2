"""Implicit midpoint integration of the constrained dynamics.

Two schemes share one Newton kernel. The plain midpoint scheme advances
the index-2 form and enforces the hidden velocity constraints only at the
midpoints; the augmented scheme carries a second multiplier block that
enforces velocity constraints at the grid points as well. Both evaluate
every configuration-dependent quantity at the interval midpoint, which is
what makes the discrete energy and angular-momentum balances exact.

Both schemes are the port-Hamiltonian system E x_dot = J z + B u of
phmbd.assembly at the midpoint, and both residuals are written once from
its flow (w, p) (assembly.port_flow, evaluated by _midpoint_flow):

    (q1 - q0 - h w,  M (v1 - v0) - h p,  h G w[,  h (D w + G M^-1 p)]),

which is E (x1 - x0) - h (J z + B u) with the multiplier rows negated.
The plain scheme has w = v_mid and no gamma row.

All residuals are polynomial in the unknowns (quadratic through the
constraint Jacobian, at most cubic in the augmented scheme), so the
analytic Newton matrices assemble from the constraint constants fixed when
the system is built (see phmbd.assembly): G(q) = G0 + H q, the slope
D(v) = H v of G(q) v, and the contraction K(lambda) = sum_i lambda_i H_i
of the sparse constant Hessian H. Each is evaluated as its values on a
sparsity pattern fixed at assembly; the residuals' products G w and
G^T lambda use those values directly, and so do the Newton updates. The
applied loads enter as their force f = B(q) u and its slope W, one block
per load, both from one vectorized pass over the loads
(assembly.input_assembly, assembly._input_map_blocks).

The position rows q1 - q0 - h w are linear in q1 with a constant
coefficient of v1 and the mass matrix is constant and diagonal, so each
Newton iteration of either scheme eliminates one block of n unknowns
(midpoint_linearization). The plain scheme eliminates q_next and solves
a system of size n + m in (v_next, lambda_mid) instead of 2n + m; the
augmented scheme eliminates v_next as well, through the position row, and
solves a system of size n + 2m in (2 dw, lambda_mid, gamma_mid) instead of
2n + 2m, whose gamma = 0 block is the plain scheme's system. The plain
system is a saddle block per group of bodies the constraint Hessians
couple, tied together only by the joint multipliers. Where an operation
count fixed at assembly says it pays (larger systems of small groups,
such as spherical chains of five bodies or more), the pattern values are
scattered straight into the groups' saddle and coupling blocks, the
blocks are eliminated group by group and the joint multipliers solve a
Schur system, with no (n, n) or (m, n) array formed; otherwise, and
always for the augmented scheme, the reduced system is solved by one
dense LU (_reduced_matrix). The dense matrix is the case of one group
that holds every unknown, so the pattern values and the load blocks go
into it and into the groups' blocks by one map fixed per system
(assembly._GroupBlocks), with no dense K, W or G in between.
ggl_jacobian is the full Newton matrix, the chain rule through (w, p), kept
as the reference the reduced updates of both schemes are tested against;
midpoint_jacobian, the plain scheme's, is its leading (2n + m) block at
gamma = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# stack_constraints is not called here; it stays importable from this
# module because perfbench/tracer.py wraps it by this name.
from .assembly import (
    SystemState,
    _contraction_values,
    _input_map_blocks,
    _jacobian_values,
    _load_blocks_times,
    _slope_values,
    constraint_hessian_contraction,
    constraint_velocity_gradient,
    hamiltonian,
    input_assembly,
    input_map_jacobian,
    port_flow,
    stack_constraints,
    total_angular_momentum,
)

__all__ = [
    "IntegratorConfig",
    "NewtonResult",
    "StepResult",
    "Trajectory",
    "IntegrationError",
    "SCHEMES",
    "midpoint_residual",
    "midpoint_linearization",
    "midpoint_jacobian",
    "ggl_residual",
    "ggl_jacobian",
    "newton_solve",
    "step",
    "simulate",
]

SCHEMES = ("mp", "mp-ggl")


@dataclass(frozen=True)
class IntegratorConfig:
    """Time stepping parameters.

    Attributes:
        scheme: "mp" for the plain midpoint scheme, "mp-ggl" for the
            velocity-constraint augmented variant (one of SCHEMES)
        h: uniform step size
        t_end: final time, a positive integer multiple of h, at a number of
            steps that an array can index
        newton_tol: infinity-norm residual tolerance of the corrector,
            positive

    Raises ValueError for values outside these ranges.
    """

    h: float
    t_end: float
    scheme: str = "mp"
    newton_tol: float = 1e-9

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {', '.join(SCHEMES)}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step size must be positive, got {self.h}")
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise ValueError(f"Newton tolerance must be positive, got {self.newton_tol}")
        steps_f = self.t_end / self.h
        steps = round(steps_f) if math.isfinite(steps_f) else 0
        if steps < 1 or abs(steps_f - steps) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_end = {self.t_end} is not a positive integer multiple of h = {self.h}"
            )
        # simulate preallocates steps + 1 rows
        if steps >= np.iinfo(np.intp).max:
            raise ValueError(f"t_end / h = {steps_f:.3g} steps is more than an array can index")

    @property
    def steps(self):
        """Number of steps of size h up to t_end."""
        return round(self.t_end / self.h)


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    message: str = ""


@dataclass(frozen=True)
class StepResult:
    state: SystemState
    iterations: int


class IntegrationError(RuntimeError):
    """Newton corrector failure, annotated with where the step stalled."""

    def __init__(self, message, time, residual_norm, iterations):
        super().__init__(message)
        self.time = time
        self.residual_norm = residual_norm
        self.iterations = iterations


def midpoint_residual(sys, state, y, h):
    """Nonlinear system of one plain midpoint step, shape (2n + m,).

    y stacks the unknowns (q_next, v_next, lambda_mid). The rows are the
    position update against w = v_mid, the momentum balance with all forces
    at the midpoint, and the h-scaled midpoint velocity constraint (see the
    module docstring).
    """
    return midpoint_linearization(sys, state, y, h)[0]


def midpoint_linearization(sys, state, y, h):
    """Residual of one midpoint step at y and its Newton update, either
    scheme.

    y is (q_next, v_next, lambda_mid) for the plain scheme and (q_next,
    v_next, lambda_mid, gamma_mid) for the augmented one. Returns
    (r, update): r is midpoint_residual (ggl_residual), and update()
    returns dy = -J^-1 r without forming J, the full Newton matrix
    ggl_jacobian (for the plain scheme its gamma = 0 block,
    midpoint_jacobian). The position rows r_q = (q1 - q0) - h w are linear
    in q1, and the flow w = v_mid + M^-1 G^T gamma moves with v1 by I / 2.
    So the Newton position row dq1 - h dw = -r_q gives dq1 = (h/2) u - r_q
    with u = 2 dw, which eliminates q1; for the plain scheme u = dv1. With
    M = diag(mass_diag), G = G(q_mid), K = K(lambda) - W (W the
    configuration derivative of the applied loads, loaded systems only),
    D(x) = H x and Gs = G(q_mid + h w / 2) = G + (h/2) D(w), the plain
    scheme's update solves the (n + m) system in (u, dlambda)

        [M + (h^2/4) K    h G^T] [u   ]   [-r_v + (h/2) K r_q      ]
        [(h/2) Gs             0] [dlam] = [-r_l + (h/2) D(w) r_q   ]

    The augmented scheme also eliminates v1, by dv1 = u - M^-1 K(gamma)
    dq1 - 2 M^-1 G^T dgam, and takes its gamma row plus G M^-1 times its
    momentum row, which cancels K there. With Kg = K(gamma), D = D(v_mid)
    and Gg = G(q_mid + (h/2)(w + v_mid + (h/2) M^-1 p)) it solves the
    (n + 2m) system in (u, dlambda, dgamma)

        [M + (h^2/4)(K - Kg M^-1 Kg)  h G^T  h D^T - (2I + h Kg M^-1) G^T]
        [(h/2) Gs                     0      0                           ]
        [Gg - (h/2) Gs M^-1 Kg        0      -2 Gs M^-1 G^T              ]

    with right-hand side

        [-r_v + ((h/2) K - Kg - (h/2) Kg M^-1 Kg) r_q          ]
        [-r_l + (h/2) D(w) r_q                                 ]
        [-r_g - G M^-1 r_v + ((h/2) D(M^-1 p) - Gs M^-1 Kg) r_q].

    At gamma = 0 (so w = v_mid and Kg = 0) its leading (u, dlambda) block
    and right-hand side are the plain scheme's, bit for bit
    (_reduced_matrix). The midpoint quantities are evaluated once for the
    residual and the update; the update is built only when called. It
    raises np.linalg.LinAlgError when the reduced matrix is singular.

    K, D and G enter as their values on the patterns fixed at assembly
    and W as one (9, 9) block per load on its body's directors; the
    right-hand sides and the back substitution take their products from
    those values. One map places them in the reduced matrix
    (assembly._GroupBlocks.fill), into buffers kept with the system and
    overwritten on every call, so one system is stepped by one thread at a
    time. The plain system is solved in one of two ways, chosen once per
    system when it is assembled (MultibodySystem._newton_blocks): by one
    dense LU of the whole matrix, the one group of every velocity and
    multiplier (_reduced_matrix), or, when an operation count says it is
    cheaper, group by group (_block_solve): each group's saddle block and
    its coupling blocks to the joint rows are filled, each size of group
    takes one batched solve against its coupling columns and its part of
    the right-hand side, and the Schur system on the joint multipliers is
    summed from the groups' small products, with no (n, n), (m, n) or
    (n, mj) array. The augmented system is always solved by one dense LU of
    the one group at size n + 2m; its M^-1 products of K(gamma) and G are
    summed over the column pairs of their fixed patterns
    (assembly._AugmentedBlocks), with no dense product. Each dense update
    takes one np.linalg.solve; a block update takes one per size of group
    and one for the Schur system.
    """
    n, m = sys.n, sys.m
    lam = y[2 * n:2 * n + m]
    mid = _midpoint_flow(sys, state, y, h)
    qm, vm, G, D, w, p = mid
    tm = state.t + 0.5 * h
    r = _residual(sys, state, y, h, mid)

    def update():
        r_q, r_v, r_l = r[:n], r[n:2 * n], r[2 * n:2 * n + m]
        Gp, Kp = sys._G_pattern, sys._K_pattern
        K = _contraction_values(sys, lam)
        KWr = Kp.times(K, r_q)
        W = None
        if sys.loads:
            W = _input_map_blocks(sys, qm, tm)
            KWr -= _load_blocks_times(sys, W, r_q)
        # D is linear in v, so this is (h/2) D(w)
        hD = _slope_values(sys, (0.5 * h) * w)
        b = [(0.5 * h) * KWr - r_v, Gp.times(hD, r_q) - r_l]
        Gs = G + hD  # G(q_mid + h w / 2)
        gamma = None
        if D is not None:
            Minv = sys.mass_diag_inv
            Kg = _contraction_values(sys, y[2 * n + m:])
            Kr = Kp.times(Kg, r_q)
            MKr = Minv * Kr
            hDp = _slope_values(sys, (0.5 * h) * (Minv * p))  # (h/2) D(M^-1 p)
            b[0] -= Kr + (0.5 * h) * Kp.times(Kg, MKr)
            b.append(Gp.times(hDp, r_q) - Gp.times(Gs, MKr) - r[2 * n + m:]
                     - Gp.times(G, Minv * r_v))
            hKg = (0.5 * h) * Kg
            Q = sys._augmented_blocks.products(np.concatenate([hKg, Gs]),
                                               np.concatenate([hKg, 2.0 * G]))
            gamma = (Q, Gs + (0.5 * h) * (D + hDp), h * D - 2.0 * G)
        if gamma is None and sys._newton_blocks is not None:
            x = _block_solve(sys, sys._newton_blocks, h, K, G, Gs, W, np.concatenate(b))
        else:
            x = np.linalg.solve(_reduced_matrix(sys, h, K, W, G, Gs, gamma),
                                np.concatenate(b))
        u = x[:n]
        dq = (0.5 * h) * u - r_q
        if gamma is None:
            return np.concatenate([dq, x])
        dv = u - Minv * (Kp.times(Kg, dq) + 2.0 * Gp.transpose_times(G, x[n + m:]))
        return np.concatenate([dq, dv, x[n:]])

    return r, update


def _reduced_matrix(sys, h, K, W, G, Gs, gamma=None):
    """The reduced Newton matrix of midpoint_linearization, filled into the
    system's buffer of its size, which it overwrites and returns.

    K = K(lambda) on its pattern, W the loads' director blocks
    (assembly._input_map_blocks, None without loads), and G = G(q_mid) and
    Gs = G(q_mid + h w / 2) on the pattern of G. Without gamma it is the
    plain scheme's (n + m) matrix. gamma = (Q, Gg, DG) gives the augmented
    scheme's (n + 2m) matrix: Q holds the values of
    [(h/2) Kg; Gs] M^-1 [(h/2) Kg, 2 G^T] with Kg = K(gamma), and
    Gg = G(q_mid + (h/2)(w + v_mid + (h/2) M^-1 p)) and DG = h D(v_mid) - 2 G
    are values on the pattern of G for the (gamma, u) and (u, gamma)
    blocks, and Q is subtracted where it falls. At gamma = 0, Q = 0 and the
    leading (n + m) block is the plain matrix bit for bit.

    The matrix is the one saddle block of the group that holds every
    velocity and multiplier (assembly._GroupBlocks, built on first use as
    MultibodySystem._dense_blocks, or assembly._AugmentedBlocks at size
    n + 2m), filled by the same map as the block path's groups, with no
    dense K, W or G.
    """
    blk = sys._dense_blocks if gamma is None else sys._augmented_blocks
    blk.fill(h, K, W, G, Gs)
    if gamma is not None:
        blk.fill_gamma(*gamma)
    return blk.A[0]


def _block_solve(sys, blocks, h, K, G, Gs, W, b):
    """Solve _reduced_matrix(sys, h, K, W, G, Gs) x = b group by group.

    blocks are the assembly._GroupBlocks of the system's Newton groups: no
    entry of K, W or an orthonormality row couples two groups, so ordering
    each group's velocities and orthonormality multipliers together makes
    the matrix

        [E  B]    E block-diagonal with one saddle block A_g per group,
        [C  0]    B = h G_out^T and C = (h/2) Gs_out on the joint rows

    with B and C nonzero only in velocity rows and columns. K, G and Gs are
    values on the system's patterns and W the loads' director blocks (None
    without loads); each group size's fill places them in its buffers,
    without forming a dense matrix. Each size of group takes one batched
    solve X_g = A_g^-1 [B_g, b_g] of its saddle blocks against the wj + 1
    columns of R_g, which pivots across the velocity and multiplier rows:
    eliminating the velocity block alone loses digits when a body has
    near-zero Euler values. One product C_g X_g gives both the Schur
    entries C_g A_g^-1 B_g and the right-hand side C_g A_g^-1 b_g, summed
    from the groups into the Schur system on the joint multipliers,
    (sum_g C_g A_g^-1 B_g) x_j = sum_g C_g A_g^-1 b_g - b_j, which one
    np.linalg.solve solves; then x_g = X_g [-x_j; 1]. Raises
    np.linalg.LinAlgError when a saddle block or the Schur system is
    singular.
    """
    n, mi = sys.n, sys.m_internal
    mj = sys.m - mi
    # the Schur matrix, its right-hand side and a last bin for the padding
    S = np.zeros(mj * mj + mj + 1)
    parts = []
    for blk in blocks:
        blk.fill(h, K, W, G, Gs)
        blk.R[:, :, -1] = b[blk.idx]
        X = np.linalg.solve(blk.A, blk.R)
        S += np.bincount(blk.schur_at.ravel(), (blk.C @ X[:, :blk.nv]).ravel(),
                         minlength=S.size)
        parts.append((blk, X))
    # [-x_j, 0 for the padded slots, 1 for b's column]
    t = np.zeros(mj + 2)
    t[:mj] = np.linalg.solve(S[:mj * mj].reshape(mj, mj), b[n + mi:] - S[mj * mj:-1])
    t[mj + 1] = 1.0
    x = np.empty(b.size)
    x[n + mi:] = -t[:mj]
    for blk, X in parts:
        x[blk.idx] = (X @ t[blk.columns, None])[..., 0]
    return x


def midpoint_jacobian(sys, state, y, h):
    """Analytic derivative of midpoint_residual with respect to y: the
    leading (2n + m) block of ggl_jacobian at gamma = 0, where w = v_mid,
    K(gamma) = 0 and the rows and columns of gamma drop out."""
    k = 2 * sys.n + sys.m
    return ggl_jacobian(sys, state, np.concatenate([y, np.zeros(sys.m)]), h)[:k, :k]


def ggl_residual(sys, state, y, h):
    """Nonlinear system of one augmented midpoint step, shape (2n + 2m,).

    y stacks (q_next, v_next, lambda_mid, gamma_mid). On top of the plain
    scheme, the position update absorbs the projection term M^-1 G^T gamma
    of w and the last block enforces the time derivative of the velocity
    constraint (see the module docstring). By the secant identity of the
    quadratic constraints, both g and G v keep their initial grid values to
    the solver tolerance: zero on consistent initial data, not driven to
    zero on inconsistent data.
    """
    return midpoint_linearization(sys, state, y, h)[0]


def ggl_jacobian(sys, state, y, h):
    """Analytic derivative of ggl_residual with respect to y, by the chain
    rule through the flow (w, p); q_mid and v_mid move by half of q1 and v1.

    In the column blocks (q1, v1, lambda, gamma), with K(c) = sum_i c_i H_i
    the slope of G(q)^T c, D(v)^T gamma = K(gamma) v and W the slope of the
    applied loads, the derivatives of the flow are

        dw = [M^-1 K(gamma) / 2,   I / 2,         0,     M^-1 G^T],
        dp = [(W - K(lambda)) / 2, -K(gamma) / 2, -G^T,  -D^T].

    G(q) u has slope D(u) = H u in q and D(v) u = D(u) v, so the rows are
    [I, 0, 0, 0] - h dw, [0, M, 0, 0] - h dp, h (G dw + [D(w) / 2, 0, 0, 0])
    and h (D dw + G M^-1 dp + [D(M^-1 p) / 2, D(w) / 2, 0, 0]). The
    corrector never forms this matrix: it is the reference the reduced
    updates of midpoint_linearization are tested against, the plain
    scheme's through its gamma = 0 block (midpoint_jacobian).
    """
    n, m = sys.n, sys.m
    qm, _, G, D, w, p = _midpoint_flow(sys, state, y, h)
    G, D = sys._G_pattern.dense(G), sys._G_pattern.dense(D)
    Minv = sys.mass_diag_inv
    K_gam = constraint_hessian_contraction(sys, y[2 * n + m:])
    KW = constraint_hessian_contraction(sys, y[2 * n:2 * n + m])
    if sys.loads:
        KW -= input_map_jacobian(sys, qm, state.t + 0.5 * h)
    dw = np.hstack([(0.5 * Minv)[:, None] * K_gam, 0.5 * np.eye(n),
                    np.zeros((n, m)), Minv[:, None] * G.T])
    dp = -np.hstack([0.5 * KW, 0.5 * K_gam, G.T, D.T])
    half_Dw = constraint_velocity_gradient(sys, 0.5 * w)

    J = np.empty((2 * n + 2 * m,) * 2)
    diag = np.arange(n)
    J[:n] = -h * dw
    J[diag, diag] += 1.0
    J[n:2 * n] = -h * dp
    J[n + diag, n + diag] += sys.mass_diag
    lam_rows, gam_rows = J[2 * n:2 * n + m], J[2 * n + m:]
    np.matmul(G, dw, out=lam_rows)
    lam_rows[:, :n] += half_Dw
    np.matmul(D, dw, out=gam_rows)
    gam_rows += (G * Minv) @ dp
    gam_rows[:, :n] += constraint_velocity_gradient(sys, (0.5 * Minv) * p)
    gam_rows[:, n:2 * n] += half_Dw
    J[2 * n:] *= h
    return J


def _midpoint_flow(sys, state, y, h):
    """(q_mid, v_mid, G(q_mid), D(v_mid), w, p) of one step at y.

    G and D are values on the pattern of G (see assembly.port_flow), and
    (w, p) is the flow of assembly.port_flow at the interval midpoint,
    with the multipliers of y: (q_next, v_next, lambda_mid) for the plain
    scheme, where D is not needed and is None, and (..., gamma_mid) for the
    augmented one. Each quantity is evaluated once, for the residual and
    the Newton matrix alike.
    """
    n, m = sys.n, sys.m
    qm = 0.5 * (state.q + y[:n])
    vm = 0.5 * (state.v + y[n:2 * n])
    G = _jacobian_values(sys, qm)
    force = -sys._grad_potential
    if sys.loads:
        force += input_assembly(sys, qm, state.t + 0.5 * h)
    if y.size == 2 * n + m:
        return (qm, vm, G, None) + port_flow(sys, G, vm, y[2 * n:], force)
    D = _slope_values(sys, vm)
    return (qm, vm, G, D) + port_flow(sys, G, vm, y[2 * n:2 * n + m], force,
                                      y[2 * n + m:], D)


def _residual(sys, state, y, h, mid):
    """(q1 - q0 - h w, M (v1 - v0) - h p, h G w[, h (D w + G M^-1 p)]) from
    the _midpoint_flow terms mid; the last block for the augmented scheme."""
    n = sys.n
    _, _, G, D, w, p = mid
    times = sys._G_pattern.times
    rows = [(y[:n] - state.q) - h * w,
            sys.mass_diag * (y[n:2 * n] - state.v) - h * p,
            h * times(G, w)]
    if D is not None:
        rows.append(h * (times(D, w) + times(G, sys.mass_diag_inv * p)))
    return np.concatenate(rows)


def newton_solve(linearize, x0, tol=1e-9, max_iter=50):
    """Full-step Newton iteration with an infinity-norm stop criterion.

    linearize(x) returns (r, update): the residual at x and a callable that
    returns the Newton update -J(x)^-1 r, called only while r is above tol.
    Returns a NewtonResult instead of raising. A failed solve carries the
    last residual norm, the iteration count and one of these messages:
    "diverged" (the residual norm grew in two consecutive iterations),
    "singular Newton matrix", "non-finite residual", "non-finite Newton
    update" or "no convergence within max_iter". A converging corrector
    may overshoot once, but on every bundled scenario, on seeded pendulum
    chains and on slider_crank at the step sizes where it converges, no
    converged solve had two growths in a row; stopping there ends a
    diverging one while its residual is still finite.
    """
    x = np.array(x0, dtype=float)
    norm = np.inf
    grew = 0
    for it in range(max_iter + 1):
        r, update = linearize(x)
        # a NaN or an infinity in r carries into its largest magnitude
        prev, norm = norm, float(np.abs(r).max())
        if not math.isfinite(norm):
            return NewtonResult(x, False, it, prev, "non-finite residual")
        if norm <= tol:
            return NewtonResult(x, True, it, norm)
        grew = grew + 1 if norm > prev else 0
        if grew == 2:
            return NewtonResult(x, False, it, norm, "diverged")
        if it == max_iter:
            break
        try:
            dx = update()
        except np.linalg.LinAlgError:
            return NewtonResult(x, False, it, norm, "singular Newton matrix")
        if not np.isfinite(dx).all():
            return NewtonResult(x, False, it, norm, "non-finite Newton update")
        x = x + dx
    return NewtonResult(x, False, max_iter, norm, "no convergence within max_iter")


def _default_guess(state, h):
    return np.concatenate([state.q + h * state.v, state.v, state.lam])


def _midpoint_start(sys, state, guess, h):
    """Starting value of the augmented corrector: one plain-midpoint Newton
    iteration on (q_next, v_next, lambda_mid) from the first 2n + m entries
    of guess, with gamma = 0.

    gamma is O(h^2) on consistent data. A warm start that carries gamma and
    lambda over from the previous step can lie outside the augmented
    corrector's region of convergence (slider_crank at h = 0.01 and 0.02),
    while this iterate lies inside it. Returns the iterate and the number
    of linear solves spent (0 when the Newton matrix is singular, in which
    case the guess itself is used).
    """
    y = guess[:2 * sys.n + sys.m]
    _, update = midpoint_linearization(sys, state, y, h)
    try:
        dy = update()
    except np.linalg.LinAlgError:
        return np.concatenate([y, np.zeros(sys.m)]), 0
    return np.concatenate([y + dy, np.zeros(sys.m)]), 1


def step(sys, state, config, guess=None):
    """Advance one step, returning the new state and Newton iteration count.

    guess holds (q_next, v_next, lambda_mid), defaulting to an explicit
    Euler position and the carried-over velocities and multipliers. The
    plain scheme solves an (n + m) linear system per Newton iteration, with
    q_next eliminated, densely or group by group, and the augmented scheme
    a dense (n + 2m) one, with q_next and v_next eliminated (see
    midpoint_linearization). Each dense reduced matrix is assembled in an
    array kept with the system. The augmented corrector starts from one
    plain-midpoint iteration on guess (see _midpoint_start); any gamma
    entries in guess are ignored, and that iteration is included in the
    count. The converged midpoint multipliers are stored on the returned
    state.
    Raises IntegrationError when the corrector fails.
    """
    n, m = sys.n, sys.m
    scheme = config.scheme
    h = config.h
    linearize = lambda y: midpoint_linearization(sys, state, y, h)

    if guess is None:
        guess = _default_guess(state, h)
    start_iters = 0
    if scheme == "mp-ggl":
        guess, start_iters = _midpoint_start(sys, state, guess, h)
    result = newton_solve(linearize, guess, tol=config.newton_tol)
    iterations = start_iters + result.iterations
    if not result.converged:
        raise IntegrationError(
            f"Newton corrector failed at t = {state.t:.6g}: {result.message} "
            f"(residual {result.residual_norm:.3e} after {iterations} iterations)",
            time=state.t,
            residual_norm=result.residual_norm,
            iterations=iterations,
        )
    y = result.x
    new = SystemState(
        t=state.t + h,
        q=y[:n],
        v=y[n:2 * n],
        lam=y[2 * n:2 * n + m],
        gamma=y[2 * n + m:] if scheme == "mp-ggl" else None,
    )
    return StepResult(new, iterations)


@dataclass
class Trajectory:
    """Dense output of a simulation on the uniform grid t_k = k h.

    Row 0 holds the initial state with the configured multiplier guess;
    row k > 0 holds the state after step k with that step's converged
    midpoint multipliers and Newton iteration count; H, L, max_g and max_gv
    are those of its state (assembly.hamiltonian, total_angular_momentum,
    consistency). When the corrector fails, the arrays stop at the last
    completed step and `failure` records where and why.
    """

    t: np.ndarray
    q: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    H: np.ndarray
    L: np.ndarray
    max_g: np.ndarray
    max_gv: np.ndarray
    newton_iters: np.ndarray
    scheme: str
    h: float
    gamma: np.ndarray | None = None
    failure: dict | None = None

    @property
    def completed(self):
        return self.failure is None

    @property
    def rows(self):
        return self.t.size


def simulate(sys, state0, config):
    """Run the configured scheme from state0 and collect a Trajectory.

    Each step warm-starts from the previous solution: the configuration is
    linearly extrapolated, velocities and multipliers carried over. The
    augmented scheme refines that guess by one plain-midpoint iteration
    with gamma = 0 before its own corrector runs (see step). The first
    corrector failure terminates the run; the partial trajectory is
    returned with the failure step, time, and residual norm recorded.
    H, L, max_g and max_gv are filled after the loop, by one call each over
    the stored rows.
    """
    from .assembly import consistency

    steps = config.steps
    n, m = sys.n, sys.m
    scheme = config.scheme
    with_gamma = scheme == "mp-ggl"

    t = np.empty(steps + 1)
    q = np.empty((steps + 1, n))
    v = np.empty((steps + 1, n))
    lam = np.empty((steps + 1, m))
    gamma = np.empty((steps + 1, m)) if with_gamma else None
    iters = np.zeros(steps + 1, dtype=int)

    state = state0
    if with_gamma and state.gamma is None:
        state = SystemState(state.t, state.q, state.v, state.lam, np.zeros(m))

    def record(k, st, its):
        t[k] = st.t
        q[k] = st.q
        v[k] = st.v
        lam[k] = st.lam
        if with_gamma:
            gamma[k] = st.gamma
        iters[k] = its

    record(0, state, 0)
    failure = None
    prev_q = None
    done = 0
    for k in range(1, steps + 1):
        if prev_q is None:
            guess = None
        else:
            guess = np.concatenate([2.0 * state.q - prev_q, state.v, state.lam])
        try:
            result = step(sys, state, config, guess=guess)
        except IntegrationError as err:
            failure = {
                "step": k,
                "time": state.t,
                "residual_norm": err.residual_norm,
                "iterations": err.iterations,
                "message": str(err),
            }
            break
        prev_q = state.q
        state = result.state
        record(k, state, result.iterations)
        done = k

    rows = done + 1
    q, v = q[:rows], v[:rows]
    max_g, max_gv = consistency(sys, q, v)
    return Trajectory(
        t=t[:rows],
        q=q,
        v=v,
        lam=lam[:rows],
        gamma=gamma[:rows] if with_gamma else None,
        H=hamiltonian(sys, q, v),
        L=total_angular_momentum(sys, q, v),
        max_g=max_g,
        max_gv=max_gv,
        newton_iters=iters[:rows],
        scheme=scheme,
        h=config.h,
        failure=failure,
    )
