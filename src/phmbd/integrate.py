"""Implicit midpoint integration of the constrained dynamics.

Two schemes share one Newton kernel. The plain midpoint scheme advances
the index-2 form and enforces the hidden velocity constraints only at the
midpoints; the augmented scheme carries a second multiplier block that
enforces velocity constraints at the grid points as well. Both evaluate
every configuration-dependent quantity at the interval midpoint, which is
what makes the discrete energy and angular-momentum balances exact.

All residuals are polynomial in the unknowns (quadratic through the
constraint Jacobian, at most cubic in the augmented scheme), so the
analytic Newton matrices assemble from the constraint constants fixed when
the system is built (see phmbd.assembly): G(q) = G0 + H q, the slope
D(v) = H v of G(q) v, and the contraction K(lambda) = sum_i lambda_i H_i
of the sparse constant Hessian H.

The plain scheme's position update is linear and its mass matrix constant
and diagonal, so each of its Newton iterations eliminates q_next and
solves a dense system of size n + m in (v_next, lambda_mid) instead of
2n + m (midpoint_linearization). The augmented scheme solves its full
(2n + 2m) Newton matrix. midpoint_jacobian is the full plain-scheme
matrix, kept as the reference the reduced update is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    SystemState,
    constraint_hessian_contraction,
    constraint_velocity_gradient,
    hamiltonian,
    input_assembly,
    input_map_jacobian,
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
    "finite_difference_jacobian",
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
    position update against the midpoint velocity, the momentum balance
    with all forces at the midpoint, and the h-scaled midpoint velocity
    constraint.
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

    out, if given, is an (n + m, n + m) array the reduced matrix is
    assembled in, overwriting it. step passes one such array to every
    Newton iteration of a step. A fresh matrix above glibc's mmap threshold
    is page-faulted in on every fill: on a 24-body chain (a 2 MB matrix,
    2-vCPU Xeon VM, glibc 2.36) reusing it cut the step time by a third.
    """
    n, m = sys.n, sys.m
    q1, v1, lam = y[:n], y[n:2 * n], y[2 * n:]
    qm = 0.5 * (state.q + q1)
    vm = 0.5 * (state.v + v1)
    tm = state.t + 0.5 * h
    _, G = stack_constraints(sys, qm)
    _, gradV = potential(sys, qm)

    r = np.empty(2 * n + m)
    r[:n] = (q1 - state.q) - h * vm
    r2 = sys.mass_diag * (v1 - state.v) + h * gradV + h * (G.T @ lam)
    if sys.loads:
        r2 -= h * input_assembly(sys, qm, tm)
    r[n:2 * n] = r2
    r[2 * n:] = h * (G @ vm)

    def update():
        r_q, r_v, r_l = r[:n], r[n:2 * n], r[2 * n:]
        KW = constraint_hessian_contraction(sys, lam)
        if sys.loads:
            KW -= input_map_jacobian(sys, qm, tm)
        # D is linear in v, so this is (h/2) D(v_mid)
        hD = constraint_velocity_gradient(sys, (0.5 * h) * vm)
        b = np.concatenate([(0.5 * h) * (KW @ r_q) - r_v, hD @ r_q - r_l])
        A = np.empty((n + m, n + m)) if out is None else out
        np.multiply(KW, 0.25 * h * h, out=A[:n, :n])
        diag = np.arange(n)
        A[diag, diag] += sys.mass_diag
        np.multiply(G.T, h, out=A[:n, n:])
        hD += G
        np.multiply(hD, 0.5 * h, out=A[n:, :n])
        A[n:, n:] = 0.0
        x = np.linalg.solve(A, b)
        dv = x[:n]
        return np.concatenate([(0.5 * h) * dv - r_q, dv, x[n:]])

    return r, update


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
    and the last block enforces the time derivative of the velocity
    constraint. By the secant identity of the quadratic constraints, both
    g and G v keep their initial grid values to the solver tolerance: zero
    on consistent initial data, not driven to zero on inconsistent data.
    """
    n, m = sys.n, sys.m
    q1, v1, lam, gam = y[:n], y[n:2 * n], y[2 * n:2 * n + m], y[2 * n + m:]
    qm = 0.5 * (state.q + q1)
    vm = 0.5 * (state.v + v1)
    _, G = stack_constraints(sys, qm)
    _, gradV = potential(sys, qm)
    D = constraint_velocity_gradient(sys, vm)
    Minv = sys.mass_diag_inv
    if sys.loads:
        f_ext = input_assembly(sys, qm, state.t + 0.5 * h)
    else:
        f_ext = np.zeros(n)

    r = np.empty(2 * n + 2 * m)
    r[:n] = (q1 - state.q) - h * vm - h * (Minv * (G.T @ gam))
    r[n:2 * n] = (
        sys.mass_diag * (v1 - state.v)
        + h * gradV
        + h * (G.T @ lam)
        + h * (D.T @ gam)
        - h * f_ext
    )
    r[2 * n:2 * n + m] = h * (G @ vm + G @ (Minv * (G.T @ gam)))
    r[2 * n + m:] = h * (
        -G @ (Minv * gradV)
        + D @ vm
        - G @ (Minv * (G.T @ lam))
        + D @ (Minv * (G.T @ gam))
        - G @ (Minv * (D.T @ gam))
        + G @ (Minv * f_ext)
    )
    return r


def ggl_jacobian(sys, state, y, h, out=None):
    """Analytic derivative of ggl_residual with respect to y.

    out, if given, is a (2n + 2m, 2n + 2m) array the matrix is assembled in
    and returned, overwriting it; step passes one such array to every
    Newton iteration of a step, as for midpoint_linearization.
    """
    n, m = sys.n, sys.m
    q1, v1, lam, gam = y[:n], y[n:2 * n], y[2 * n:2 * n + m], y[2 * n + m:]
    qm = 0.5 * (state.q + q1)
    vm = 0.5 * (state.v + v1)
    _, G = stack_constraints(sys, qm)
    _, gradV = potential(sys, qm)
    D = constraint_velocity_gradient(sys, vm)
    Minv = sys.mass_diag_inv
    GMinv = G * Minv
    K_lam = constraint_hessian_contraction(sys, lam)
    K_gam = constraint_hessian_contraction(sys, gam)
    w = Minv * (G.T @ gam)
    D_w = constraint_velocity_gradient(sys, w)
    if sys.loads:
        tmid = state.t + 0.5 * h
        f_ext = input_assembly(sys, qm, tmid)
        W = input_map_jacobian(sys, qm, tmid)
    else:
        f_ext = np.zeros(n)
        W = np.zeros((n, n))

    J = np.empty((2 * n + 2 * m, 2 * n + 2 * m)) if out is None else out
    J.fill(0.0)
    i_q, i_v = slice(0, n), slice(n, 2 * n)
    i_l, i_g = slice(2 * n, 2 * n + m), slice(2 * n + m, 2 * n + 2 * m)

    J[i_q, i_q] = np.eye(n) - 0.5 * h * (Minv[:, None] * K_gam)
    J[i_q, i_v] = -0.5 * h * np.eye(n)
    J[i_q, i_g] = -h * (Minv[:, None] * G.T)

    J[i_v, i_q] = 0.5 * h * (K_lam - W)
    J[i_v, i_v] = np.diag(sys.mass_diag) + 0.5 * h * K_gam
    J[i_v, i_l] = h * G.T
    J[i_v, i_g] = h * D.T

    J[i_l, i_q] = 0.5 * h * (D + D_w + GMinv @ K_gam)
    J[i_l, i_v] = 0.5 * h * G
    J[i_l, i_g] = h * (GMinv @ G.T)

    J[i_g, i_q] = 0.5 * h * (
        -constraint_velocity_gradient(sys, Minv * gradV)
        - constraint_velocity_gradient(sys, Minv * (G.T @ lam))
        - GMinv @ K_lam
        + D @ (Minv[:, None] * K_gam)
        - constraint_velocity_gradient(sys, Minv * (D.T @ gam))
        + constraint_velocity_gradient(sys, Minv * f_ext)
        + GMinv @ W
    )
    J[i_g, i_v] = 0.5 * h * (2.0 * D + D_w - GMinv @ K_gam)
    J[i_g, i_l] = -h * (GMinv @ G.T)
    A = (D * Minv) @ G.T
    J[i_g, i_g] = h * (A - A.T)
    return J


def finite_difference_jacobian(fn, x):
    """Central-difference Jacobian of fn at x.

    Exact up to roundoff for quadratic residuals, which covers the plain
    scheme; the augmented scheme's cubic terms contribute O(dx^2).
    """
    x = np.asarray(x, dtype=float)
    r0 = fn(x)
    J = np.empty((r0.size, x.size))
    for j in range(x.size):
        dx = np.sqrt(np.finfo(float).eps) * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += dx
        xm[j] -= dx
        J[:, j] = (fn(xp) - fn(xm)) / (2.0 * dx)
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


def _ggl_linearization(sys, state, y, h, out):
    """Residual of one augmented step at y and its dense Newton update,
    with the Newton matrix assembled in out."""
    r = ggl_residual(sys, state, y, h)
    return r, lambda: np.linalg.solve(ggl_jacobian(sys, state, y, h, out), -r)


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
    q_next eliminated (see midpoint_linearization). The augmented scheme
    solves its full (2n + 2m) system. Each scheme assembles its Newton
    matrix in one array per step. The augmented corrector starts from one
    plain-midpoint iteration on guess (see _midpoint_start); any gamma
    entries in guess are ignored, and that iteration is included in the
    count. The converged midpoint multipliers are stored on the returned
    state. Raises IntegrationError when the corrector fails.
    """
    n, m = sys.n, sys.m
    scheme = config.scheme
    h = config.h
    if scheme == "mp":
        work = np.empty((n + m, n + m))
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
