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
G^T lambda use those values directly, and only a dense Newton matrix
scatters them into dense arrays.

The plain scheme's position update is linear and its mass matrix constant
and diagonal, so each of its Newton iterations eliminates q_next and
solves a system of size n + m in (v_next, lambda_mid) instead of 2n + m
(midpoint_linearization). That system is a saddle block per group of
bodies the constraint Hessians couple, tied together only by the joint
multipliers. Where an operation count fixed at assembly says it pays
(larger systems of small groups, such as spherical chains of five bodies
or more), the pattern values are scattered straight into the groups'
saddle and coupling blocks, the blocks are eliminated group by group and
the joint multipliers solve a Schur system, with no (n, n) or (m, n)
array formed; otherwise the system is solved by one dense LU. The
augmented scheme solves its full (2n + 2m) Newton matrix, the chain rule
through (w, p) (_ggl_matrix). midpoint_jacobian is the full plain-scheme
matrix, kept as the reference the reduced update is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    SystemState,
    _add_load_blocks,
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
    potential,
    stack_constraints,
    total_angular_momentum,
)

__all__ = [
    "IntegratorConfig",
    "NewtonResult",
    "StepResult",
    "Trajectory",
    "IntegrationError",
    "SCHEME_ALIASES",
    "midpoint_residual",
    "midpoint_linearization",
    "midpoint_jacobian",
    "ggl_residual",
    "ggl_jacobian",
    "newton_solve",
    "step",
    "simulate",
]

SCHEME_ALIASES = {
    "mp": "mp",
    "ph-mp": "mp",
    "mp-ggl": "mp-ggl",
    "ph-mp-ggl": "mp-ggl",
}


def _canonical_scheme(name):
    key = name.strip().lower()
    if key not in SCHEME_ALIASES:
        raise ValueError(f"unknown scheme {name!r}; expected one of {sorted(SCHEME_ALIASES)}")
    return SCHEME_ALIASES[key]


@dataclass(frozen=True)
class IntegratorConfig:
    """Time stepping parameters.

    Attributes:
        scheme: "mp" for the plain midpoint scheme, "mp-ggl" for the
            velocity-constraint augmented variant (prefixed aliases accepted)
        h: uniform step size
        t_end: final time, an integer multiple of h
        newton_tol: infinity-norm residual tolerance of the corrector
        newton_max_iter: iteration cap of the corrector
    """

    h: float
    t_end: float
    scheme: str = "mp"
    newton_tol: float = 1e-9
    newton_max_iter: int = 50

    def __post_init__(self):
        object.__setattr__(self, "scheme", _canonical_scheme(self.scheme))
        if self.h <= 0.0:
            raise ValueError(f"step size must be positive, got {self.h}")


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


def midpoint_linearization(sys, state, y, h, out=None):
    """Residual of one plain midpoint step at y and its Newton update.

    Returns (r, update): r is midpoint_residual(sys, state, y, h), and
    update() returns dy = -J^-1 r for J = midpoint_jacobian(sys, state, y,
    h) without forming J. The position rows r_q = (q1 - q0) - h v_mid are
    linear, so dq1 = -r_q + (h/2) dv1 eliminates q1, leaving the (n + m)
    system in (dv1, dlambda)

        [M + (h^2/4)(K - W)      h G^T] [dv1 ]   [-r_v + (h/2)(K - W) r_q]
        [(h/2) G(q_mid + h v_mid/2)  0] [dlam] = [-r_l + (h/2) D(v_mid) r_q]

    with M = diag(mass_diag), G = G(q_mid), K = K(lambda), D(v) = H v and
    W the configuration derivative of the applied loads (loaded systems
    only). G(q_mid) + (h/2) D(v_mid) = G(q_mid + h v_mid / 2) because
    D(v) = H v. G(q_mid) is evaluated once for the residual and the
    update; the update is built only when called. It raises
    np.linalg.LinAlgError when the reduced matrix is singular.

    K, D and G enter as their values on the patterns fixed at assembly
    and W as one 12x12 block per load; the right-hand side takes their
    products with r_q from those values. The system is then solved in one
    of two ways, chosen once per system when it is assembled
    (MultibodySystem._newton_blocks): by one dense LU of the matrix
    scattered from those values, or, when an operation count says it is
    cheaper, group by group (_block_solve): the values are scattered
    straight into each group's saddle block and its coupling blocks to the
    joint rows, held in buffers kept with the system, each size of group
    takes one batched inverse, and the Schur system on the joint
    multipliers is summed from the groups' small products. Both use
    exactly one np.linalg.solve.

    out, if given, is an (n + m, n + m) array the reduced matrix is
    assembled in on the dense path, overwriting it; the block path does not
    use it. step passes one such array to every Newton iteration of a
    step. A fresh array above glibc's mmap threshold (128 kB) is
    page-faulted in on every fill: on a 24-body chain solved densely (a
    2 MB matrix, 2-vCPU Xeon VM, glibc 2.36) reusing it cut the step time
    by a third. The block path builds no (n, n), (m, n) or (n, mj) array
    and reuses its group buffers; on the same chain it takes no minor page
    faults per step, against ~1700 when it gathered its blocks from the
    dense K(lambda), G and D.
    """
    n = sys.n
    lam = y[2 * n:]
    mid = _midpoint_flow(sys, state, y, h)
    qm, vm, G = mid[:3]
    tm = state.t + 0.5 * h
    r = _residual(sys, state, y, h, mid)

    def update():
        r_q, r_v, r_l = r[:n], r[n:2 * n], r[2 * n:]
        Gp, Kp = sys._G_pattern, sys._K_pattern
        K = _contraction_values(sys, lam)
        KWr = Kp.times(K, r_q)
        W = None
        if sys.loads:
            W = _input_map_blocks(sys, qm, tm)
            KWr -= _load_blocks_times(sys, W, r_q)
        # D is linear in v, so this is (h/2) D(v_mid)
        hD = _slope_values(sys, (0.5 * h) * vm)
        b = np.concatenate([(0.5 * h) * KWr - r_v, Gp.times(hD, r_q) - r_l])
        Gs = G + hD  # G(q_mid + h v_mid / 2)
        if sys._newton_blocks is None:
            KW = Kp.dense(K)
            if W is not None:
                _add_load_blocks(sys, KW, W, -1.0)
            x = np.linalg.solve(
                _reduced_matrix(sys, h, KW, Gp.dense(G), Gp.dense(Gs), out), b)
        else:
            x = _block_solve(sys, sys._newton_blocks, h, K, G, Gs, W, b)
        dv = x[:n]
        return np.concatenate([(0.5 * h) * dv - r_q, dv, x[n:]])

    return r, update


def _reduced_matrix(sys, h, KW, G, Gs, out=None):
    """The (n + m) matrix of midpoint_linearization, assembled in out.

    KW = K(lambda) - W, G = G(q_mid) and Gs = G(q_mid + h v_mid / 2), all
    dense.
    """
    n, m = sys.n, sys.m
    A = np.empty((n + m, n + m)) if out is None else out
    np.multiply(KW, 0.25 * h * h, out=A[:n, :n])
    diag = np.arange(n)
    A[diag, diag] += sys.mass_diag
    np.multiply(G.T, h, out=A[:n, n:])
    np.multiply(Gs, 0.5 * h, out=A[n:, :n])
    A[n:, n:] = 0.0
    return A


def _block_solve(sys, blocks, h, K, G, Gs, W, b):
    """Solve _reduced_matrix(sys, h, K - W, G, Gs) x = b group by group.

    blocks are the assembly._GroupBlocks of the system's Newton groups: no
    entry of K, W or an orthonormality row couples two groups, so ordering
    each group's velocities and orthonormality multipliers together makes
    the matrix

        [E  B]    E block-diagonal with one saddle block A_g per group,
        [C  0]    B = h G_joint^T and C = (h/2) Gs_joint

    with B and C nonzero only in velocity rows and columns. K, G and Gs are
    values on the system's patterns and W the loads' 12x12 blocks (None
    without loads); each is scattered straight into the group buffers,
    without forming a dense matrix. Each size of group takes one batched
    inverse of its saddle blocks, which pivots across the velocity and
    multiplier rows: inverting the velocity block alone loses digits when a
    body has near-zero Euler values. The joint multipliers then solve the
    Schur system (sum_g C_g A_g^-1 B_g) x_j = sum_g C_g A_g^-1 b_g - b_j,
    accumulated from the groups' (wj, wj) products, with one
    np.linalg.solve, and x_g = A_g^-1 b_g - (A_g^-1 B_g) x_j. Raises
    np.linalg.LinAlgError when a saddle block or the Schur system is
    singular.
    """
    n, mi = sys.n, sys.m_internal
    mj = sys.m - mi
    c = 0.25 * h * h
    S = np.zeros(mj * mj + 1)  # the last bin takes the padding
    rhs = np.zeros(mj + 1)
    parts = []
    for blk in blocks:
        nv, A = blk.nv, blk.A
        A.fill(0.0)
        A.ravel()[blk.K_at] = c * K[blk.K_entries]
        for load, g, at in blk.loads:
            A[g, at:at + 12, at:at + 12] -= c * W[load]
        diag = np.arange(nv)
        A[:, diag, diag] += blk.mass
        A.ravel()[blk.GT_at] = h * G[blk.G_int]
        A.ravel()[blk.Gs_at] = (0.5 * h) * Gs[blk.G_int]
        blk.B.ravel()[blk.B_at] = h * G[blk.G_joint]
        blk.C.ravel()[blk.C_at] = (0.5 * h) * Gs[blk.G_joint]
        inv = np.linalg.inv(A)
        EB = inv[:, :, :nv] @ blk.B
        Eb = inv @ b[blk.idx, None]
        S += np.bincount(blk.schur_at.ravel(), (blk.C @ EB[:, :nv]).ravel(),
                         minlength=S.size)
        rhs += np.bincount(blk.joint.ravel(), (blk.C @ Eb[:, :nv]).ravel(),
                           minlength=rhs.size)
        parts.append((blk, EB, Eb))
    xj = np.zeros(mj + 1)  # xj[mj] = 0 is the padding
    xj[:mj] = np.linalg.solve(S[:-1].reshape(mj, mj), rhs[:-1] - b[n + mi:])
    x = np.empty(b.size)
    x[n + mi:] = xj[:mj]
    for blk, EB, Eb in parts:
        x[blk.idx] = (Eb - EB @ xj[blk.joint, None])[..., 0]
    return x


def midpoint_jacobian(sys, state, y, h):
    """Analytic derivative of midpoint_residual with respect to y."""
    n, m = sys.n, sys.m
    q1, v1, lam = y[:n], y[n:2 * n], y[2 * n:]
    qm = 0.5 * (state.q + q1)
    vm = 0.5 * (state.v + v1)
    _, G = stack_constraints(sys, qm)

    J = np.zeros((2 * n + m, 2 * n + m))
    J[:n, :n] = np.eye(n)
    J[:n, n:2 * n] = -0.5 * h * np.eye(n)

    Jq = 0.5 * h * constraint_hessian_contraction(sys, lam)
    if sys.loads:
        Jq -= 0.5 * h * input_map_jacobian(sys, qm, state.t + 0.5 * h)
    J[n:2 * n, :n] = Jq
    J[n:2 * n, n:2 * n] = np.diag(sys.mass_diag)
    J[n:2 * n, 2 * n:] = h * G.T

    J[2 * n:, :n] = 0.5 * h * constraint_velocity_gradient(sys, vm)
    J[2 * n:, n:2 * n] = 0.5 * h * G
    return J


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
    return _ggl_linearization(sys, state, y, h)[0]


def ggl_jacobian(sys, state, y, h, out=None):
    """Analytic derivative of ggl_residual with respect to y.

    out, if given, is a (2n + 2m, 2n + 2m) array the matrix is assembled in
    and returned, overwriting it; step passes one such array to every
    Newton iteration of a step, as for midpoint_linearization.
    """
    return _ggl_matrix(sys, state, y, h, _midpoint_flow(sys, state, y, h), out)


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
    force = -potential(sys, qm)[1]
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


def _ggl_linearization(sys, state, y, h, out=None):
    """Residual of one augmented step at y and its dense Newton update,
    with the Newton matrix assembled in out. The midpoint quantities are
    evaluated once for both."""
    mid = _midpoint_flow(sys, state, y, h)
    r = _residual(sys, state, y, h, mid)
    return r, lambda: np.linalg.solve(_ggl_matrix(sys, state, y, h, mid, out), -r)


def _ggl_matrix(sys, state, y, h, mid, out=None):
    """ggl_jacobian from the _midpoint_flow terms mid, by the chain rule
    through the flow (w, p); q_mid and v_mid move by half of q1 and v1.

    In the column blocks (q1, v1, lambda, gamma), with K(c) = sum_i c_i H_i
    the slope of G(q)^T c, D(v)^T gamma = K(gamma) v and W the slope of the
    applied loads, the derivatives of the flow are

        dw = [M^-1 K(gamma) / 2,   I / 2,         0,     M^-1 G^T],
        dp = [(W - K(lambda)) / 2, -K(gamma) / 2, -G^T,  -D^T].

    G(q) u has slope D(u) = H u in q and D(v) u = D(u) v, so the rows are
    [I, 0, 0, 0] - h dw, [0, M, 0, 0] - h dp, h (G dw + [D(w) / 2, 0, 0, 0])
    and h (D dw + G M^-1 dp + [D(M^-1 p) / 2, D(w) / 2, 0, 0]).
    """
    n, m = sys.n, sys.m
    qm, _, G, D, w, p = mid
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

    J = np.empty((2 * n + 2 * m,) * 2) if out is None else out
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


def newton_solve(linearize, x0, tol=1e-9, max_iter=50):
    """Full-step Newton iteration with an infinity-norm stop criterion.

    linearize(x) returns (r, update): the residual at x and a callable that
    returns the Newton update -J(x)^-1 r, called only while r is above tol.
    Returns a NewtonResult instead of raising: singular linear solves and
    non-finite residuals are reported as non-converged results carrying the
    last residual norm and iteration count.
    """
    x = np.array(x0, dtype=float)
    norm = np.inf
    for it in range(max_iter + 1):
        r, update = linearize(x)
        if not np.all(np.isfinite(r)):
            return NewtonResult(x, False, it, norm, "non-finite residual")
        norm = float(np.abs(r).max())
        if norm <= tol:
            return NewtonResult(x, True, it, norm)
        if it == max_iter:
            break
        try:
            dx = update()
        except np.linalg.LinAlgError:
            return NewtonResult(x, False, it, norm, "singular Newton matrix")
        if not np.all(np.isfinite(dx)):
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
    q_next eliminated, densely or group by group (see
    midpoint_linearization). The augmented scheme solves its full
    (2n + 2m) system. Each dense Newton matrix is assembled in one array
    per step. The augmented corrector starts from one plain-midpoint
    iteration on guess (see _midpoint_start); any gamma entries in guess
    are ignored, and that iteration is included in the count. The
    converged midpoint multipliers are stored on the returned state.
    Raises IntegrationError when the corrector fails.
    """
    n, m = sys.n, sys.m
    scheme = config.scheme
    h = config.h
    if scheme == "mp":
        work = np.empty((n + m, n + m)) if sys._newton_blocks is None else None
        linearize = lambda y: midpoint_linearization(sys, state, y, h, out=work)
    else:
        work = np.empty((2 * n + 2 * m, 2 * n + 2 * m))
        linearize = lambda y: _ggl_linearization(sys, state, y, h, work)

    if guess is None:
        guess = _default_guess(state, h)
    start_iters = 0
    if scheme == "mp-ggl":
        guess, start_iters = _midpoint_start(sys, state, guess, h)
    result = newton_solve(
        linearize, guess,
        tol=config.newton_tol, max_iter=config.newton_max_iter,
    )
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
    midpoint multipliers. When the corrector fails, the arrays stop at the
    last completed step and `failure` records where and why.
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
    metadata: dict = field(default_factory=dict)

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
    """
    from .assembly import consistency

    steps_f = config.t_end / config.h
    steps = int(round(steps_f))
    if steps < 1 or abs(steps_f - steps) > 1e-9 * max(1.0, steps):
        raise ValueError(
            f"t_end = {config.t_end} is not a positive integer multiple of h = {config.h}"
        )
    n, m = sys.n, sys.m
    scheme = config.scheme
    with_gamma = scheme == "mp-ggl"

    t = np.empty(steps + 1)
    q = np.empty((steps + 1, n))
    v = np.empty((steps + 1, n))
    lam = np.empty((steps + 1, m))
    gamma = np.empty((steps + 1, m)) if with_gamma else None
    H = np.empty(steps + 1)
    L = np.empty((steps + 1, 3))
    max_g = np.empty(steps + 1)
    max_gv = np.empty(steps + 1)
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
        H[k] = hamiltonian(sys, st.q, st.v)
        L[k] = total_angular_momentum(sys, st.q, st.v)
        max_g[k], max_gv[k] = consistency(sys, st.q, st.v)
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
    return Trajectory(
        t=t[:rows],
        q=q[:rows],
        v=v[:rows],
        lam=lam[:rows],
        gamma=gamma[:rows] if with_gamma else None,
        H=H[:rows],
        L=L[:rows],
        max_g=max_g[:rows],
        max_gv=max_gv[:rows],
        newton_iters=iters[:rows],
        scheme=scheme,
        h=config.h,
        failure=failure,
    )
