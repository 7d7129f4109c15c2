"""Implicit midpoint schemes: residuals, Jacobians, stepping, trajectories."""
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import (
    SystemState,
    ggl_operators,
    hamiltonian,
    input_assembly,
    ph_operators,
    stack_constraints,
)
from phmbd.integrate import (
    SCHEMES,
    _midpoint_start,
    IntegrationError,
    IntegratorConfig,
    ggl_jacobian,
    ggl_residual,
    midpoint_jacobian,
    midpoint_linearization,
    midpoint_residual,
    newton_solve,
    simulate,
    step,
)

from conftest import fd_jacobian
from test_kernel import _pendulum_chain_config

SEED = 7


def test_scheme_aliases():
    """Each scheme has one name: no prefixed aliases, no case or space
    folding."""
    assert SCHEMES == ("mp", "mp-ggl")
    for scheme in SCHEMES:
        assert IntegratorConfig(h=0.1, t_end=1.0, scheme=scheme).scheme == scheme
    for alias in ("ph-mp", "ph-mp-ggl", "MP", " mp ", "Mp-GGL"):
        with pytest.raises(ValueError, match="unknown scheme"):
            IntegratorConfig(h=0.1, t_end=1.0, scheme=alias)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, t_end=1.0, scheme="rk4")
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            IntegratorConfig(h=0.1, t_end=1.0, newton_tol=tol)
    # the iteration cap is newton_solve's, not a setting
    with pytest.raises(TypeError):
        IntegratorConfig(h=0.1, t_end=1.0, newton_max_iter=1)
    # a step count beyond what simulate can preallocate and index
    with pytest.raises(ValueError, match="more than an array can index"):
        IntegratorConfig(h=1e-3, t_end=1e300)
    assert IntegratorConfig(h=0.1, t_end=1.0).steps == 10


def test_simulate_rejects_misaligned_grid(flying_pair):
    sys, state = flying_pair
    with pytest.raises(ValueError):
        simulate(sys, state, IntegratorConfig(h=0.3, t_end=1.0))


# body-body Hessian blocks; ground pairs; an applied load, so the load slope W
JACOBIAN_SCENARIOS = pytest.mark.parametrize("scenario", ["flying_pair", "slider_crank",
                                                          "closed_loop"])


def _jacobian_point(scenario, request):
    """A scenario's system and initial state moved to t = 0.5, where the
    closed_loop load peaks; the unloaded systems do not depend on t."""
    sys, state = request.getfixturevalue(scenario)
    return sys, replace(state, t=0.5)


@JACOBIAN_SCENARIOS
def test_midpoint_jacobian_matches_fd(scenario, request):
    sys, state = _jacobian_point(scenario, request)
    rng = np.random.default_rng(SEED)
    h = 1e-3
    y = np.concatenate([state.q + h * state.v,
                        state.v + 0.01 * rng.standard_normal(sys.n),
                        rng.standard_normal(sys.m)])
    J = midpoint_jacobian(sys, state, y, h)
    J_fd = fd_jacobian(
        lambda yy: midpoint_residual(sys, state, yy, h), y)
    scale = max(1.0, np.abs(J).max())
    npt.assert_allclose(J / scale, J_fd / scale, atol=1e-6)


@pytest.mark.parametrize("scenario, h", [
    ("flying_pair", 1e-3),  # body-body Hessian blocks
    ("slider_crank", 0.01),  # ground pairs
    ("closed_loop", 0.1),  # applied load, so the term W = input_map_jacobian
])
def test_reduced_midpoint_update_matches_full_solve(scenario, h, request):
    """The (n + m) update with q_next eliminated is the Newton step of the
    full (2n + m) midpoint system, at y away from any solution."""
    sys, state = request.getfixturevalue(scenario)
    rng = np.random.default_rng(SEED)
    y = np.concatenate([state.q + h * state.v + 0.01 * rng.standard_normal(sys.n),
                        state.v + rng.standard_normal(sys.n),
                        rng.standard_normal(sys.m)])
    r, update = midpoint_linearization(sys, state, y, h)
    npt.assert_array_equal(r, midpoint_residual(sys, state, y, h))
    dy = update()
    dy_full = np.linalg.solve(midpoint_jacobian(sys, state, y, h), -r)
    assert np.abs(dy - dy_full).max() <= 1e-12 * np.abs(dy_full).max()
    # the system's reused dense array is overwritten entirely, stale entries included
    sys._newton_blocks.A.fill(np.nan)
    npt.assert_array_equal(midpoint_linearization(sys, state, y, h)[1](), dy)


@JACOBIAN_SCENARIOS
def test_ggl_jacobian_matches_fd(scenario, request):
    sys, state = _jacobian_point(scenario, request)
    rng = np.random.default_rng(SEED)
    h = 1e-3
    y = np.concatenate([state.q + h * state.v,
                        state.v + 0.01 * rng.standard_normal(sys.n),
                        rng.standard_normal(2 * sys.m)])
    J = ggl_jacobian(sys, state, y, h)
    J_fd = fd_jacobian(
        lambda yy: ggl_residual(sys, state, yy, h), y)
    scale = max(1.0, np.abs(J).max())
    npt.assert_allclose(J / scale, J_fd / scale, atol=1e-6)


def _ggl_point(scenario, h, request):
    """(sys, state, y) for the augmented update. "slider_crank@10" is the
    corrector's first iterate (_midpoint_start) at step 10 of its own
    trajectory; "chain6" and "chain24" are pendulum chains whose pairs cycle
    through all five types (test_kernel._pendulum_chain_config), at a
    random y near the step; a bundled fixture is taken at a random y."""
    name, _, at = scenario.partition("@")
    rng = np.random.default_rng(SEED)
    if name.startswith("chain"):
        sys, q = _pendulum_chain_config(int(name[5:]), rng)
        state = SystemState(0.0, q, 0.1 * rng.standard_normal(sys.n), np.zeros(sys.m))
        # near the step the Newton matrix keeps cond ~1e4; far from it
        # (cond ~1e7) the full and the reduced solve lose digits alike
        return sys, state, np.concatenate([q + h * state.v + 1e-3 * rng.standard_normal(sys.n),
                                           state.v + 0.1 * rng.standard_normal(sys.n),
                                           0.1 * rng.standard_normal(2 * sys.m)])
    sys, state = request.getfixturevalue(name)
    if at:
        traj = simulate(sys, state, IntegratorConfig(h=h, t_end=int(at) * h,
                                                     scheme="mp-ggl"))
        state = SystemState(traj.t[-1], traj.q[-1], traj.v[-1], traj.lam[-1],
                            traj.gamma[-1])
        guess = np.concatenate([state.q + h * state.v, state.v, state.lam])
        return sys, state, _midpoint_start(sys, state, guess, h)[0]
    y = np.concatenate([state.q + h * state.v + 0.01 * rng.standard_normal(sys.n),
                        state.v + rng.standard_normal(sys.n),
                        rng.standard_normal(2 * sys.m)])
    return sys, state, y


@pytest.mark.parametrize("scenario, h", [
    ("flying_pair", 1e-3),
    ("closed_loop", 0.1),  # applied load, so the term W
    ("slider_crank@10", 0.005),  # ground pairs, cond(ggl_jacobian) ~ 3e9
    ("chain6", 0.01),  # body-body Hessian blocks of every pair type
    ("chain24", 0.01),  # a system whose plain update takes the block path
])
def test_ggl_linearization_shares_midpoint_terms(scenario, h, request):
    """The augmented corrector's residual, which shares one evaluation of
    the midpoint quantities with its update, is ggl_residual bit for bit;
    its update, with q_next and v_next eliminated and the products of
    K(gamma) and G taken from fixed patterns, is the Newton step of the
    full (2n + 2m) system with ggl_jacobian."""
    sys, state, y = _ggl_point(scenario, h, request)
    r, update = midpoint_linearization(sys, state, y, h)
    npt.assert_array_equal(r, ggl_residual(sys, state, y, h))
    dy = update()
    dy_full = np.linalg.solve(ggl_jacobian(sys, state, y, h), -r)
    assert np.abs(dy - dy_full).max() <= 1e-12 * np.abs(dy_full).max()
    # the system's reused augmented array is overwritten entirely, stale entries included
    sys._augmented_blocks.A.fill(np.nan)
    npt.assert_array_equal(midpoint_linearization(sys, state, y, h)[1](), dy)


@pytest.mark.parametrize("scenario, h", [
    ("flying_pair", 1e-3), ("slider_crank", 0.01), ("closed_loop", 0.1)])
def test_ggl_reduced_system_at_zero_gamma_is_the_midpoint_one(scenario, h, request,
                                                              monkeypatch):
    """At gamma = 0 the leading (n + m) block of the augmented reduced
    system, matrix and right-hand side, is the plain scheme's reduced system
    (assembly._GroupBlocks.fill) bit for bit, and the lambda rows and
    column carry nothing else."""
    sys, state = request.getfixturevalue(scenario)
    n, m = sys.n, sys.m
    rng = np.random.default_rng(SEED)
    y = np.concatenate([state.q + h * state.v + 0.01 * rng.standard_normal(n),
                        state.v + rng.standard_normal(n),
                        rng.standard_normal(m)])
    systems, solve = [], np.linalg.solve

    def recording_solve(A, b):
        systems.append((A.copy(), b.copy()))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    midpoint_linearization(sys, state, y, h)[1]()
    midpoint_linearization(sys, state, np.concatenate([y, np.zeros(m)]), h)[1]()
    (A, b), (A_ggl, b_ggl) = systems
    assert A.shape == (n + m, n + m) and A_ggl.shape == (n + 2 * m, n + 2 * m)
    npt.assert_array_equal(A_ggl[:n + m, :n + m], A)
    npt.assert_array_equal(b_ggl[:n + m], b)
    assert not A_ggl[n:n + m, n + m:].any() and not A_ggl[n + m:, n:n + m].any()


def test_newton_solve_reports_divergence():
    """Two growths of the residual norm in a row stop the corrector with
    "diverged"; a single growth does not."""
    doubling = newton_solve(lambda x: (x, lambda: x), np.ones(2))
    assert (doubling.converged, doubling.message) == (False, "diverged")
    assert (doubling.iterations, doubling.residual_norm) == (2, 4.0)
    # 1 -> 3 -> 0.5 -> 0
    steps = iter([2.0, -2.5, -0.5])
    once = newton_solve(lambda x: (x, lambda: np.full(1, next(steps))), np.ones(1))
    assert once.converged and once.iterations == 3


def test_newton_solve_confirms_a_passing_update():
    """A residual within tol after one update takes a second update before
    the solve is accepted; a start within tol takes none."""
    linear = lambda x: (x - 1.0, lambda: 1.0 - x)
    once = newton_solve(linear, np.zeros(2))
    assert once.converged and (once.iterations, once.residual_norm) == (2, 0.0)
    at_start = newton_solve(linear, np.full(2, 1.0 + 1e-10))
    assert at_start.converged and at_start.iterations == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_newton_solve_reports_non_finite_residual(bad):
    """A NaN or infinite residual stops the corrector; the reported norm is
    the last finite one (infinite before the first)."""
    at_start = newton_solve(lambda x: (np.array([0.5, bad]), lambda: -x), np.ones(2))
    assert (at_start.converged, at_start.message) == (False, "non-finite residual")
    assert (at_start.iterations, at_start.residual_norm) == (0, np.inf)
    residuals = iter([np.array([2.0, -1.0]), np.array([bad, 0.5])])
    later = newton_solve(lambda x: (next(residuals), lambda: -x), np.ones(2))
    assert (later.converged, later.message) == (False, "non-finite residual")
    assert (later.iterations, later.residual_norm) == (1, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_newton_solve_reports_non_finite_update(bad):
    result = newton_solve(lambda x: (np.array([-3.0, 1.0]), lambda: np.array([0.0, bad])),
                          np.ones(2))
    assert (result.converged, result.message) == (False, "non-finite Newton update")
    assert (result.iterations, result.residual_norm) == (0, 3.0)
    npt.assert_array_equal(result.x, np.ones(2))


def test_newton_solve_reports_iteration_cap():
    """A residual that neither falls below tol nor grows runs into
    max_iter, with every update taken."""
    calls = []

    def linearize(x):
        calls.append(x)
        return np.array([0.5, -3.0]), lambda: np.ones(2)

    result = newton_solve(linearize, np.zeros(2), max_iter=4)
    assert (result.converged, result.message) == (False, "no convergence within max_iter")
    assert (result.iterations, result.residual_norm) == (4, 3.0)
    assert len(calls) == 5
    npt.assert_array_equal(result.x, np.full(2, 4.0))


@pytest.mark.parametrize("scheme", ["mp", "mp-ggl"])
@pytest.mark.parametrize("scenario, h", [("flying_pair", 1e-3), ("closed_loop", 0.1)])
def test_residual_is_the_midpoint_port_hamiltonian_system(scheme, scenario, h, request):
    """Each scheme's residual is E (x1 - x0) - h J z - h B u of its
    operators (ph_operators, ggl_operators) at (q_mid, v_mid) and the
    midpoint multipliers, with the multiplier rows negated. B u is the
    applied force f on the momentum rows and, for mp-ggl, G M^-1 f on the
    gamma rows; it is zero elsewhere."""
    sys, state = request.getfixturevalue(scenario)
    n, m = sys.n, sys.m
    ggl = scheme == "mp-ggl"
    rng = np.random.default_rng(SEED)
    y = np.concatenate([state.q + h * state.v + 0.01 * rng.standard_normal(n),
                        state.v + rng.standard_normal(n),
                        rng.standard_normal(2 * m if ggl else m)])
    qm, vm, mult = 0.5 * (state.q + y[:n]), 0.5 * (state.v + y[n:2 * n]), y[2 * n:]
    f = input_assembly(sys, qm, state.t + 0.5 * h)
    Bu = np.zeros(y.size)
    Bu[n:2 * n] = f
    if ggl:
        r = ggl_residual(sys, state, y, h)
        E, J, z = ggl_operators(sys, qm, vm, mult[:m], mult[m:])
        _, G = stack_constraints(sys, qm)
        Bu[2 * n + m:] = G @ (f / sys.mass_diag)
    else:
        r = midpoint_residual(sys, state, y, h)
        E, J, z = ph_operators(sys, qm, vm, mult)
    dx = np.zeros(y.size)
    dx[:2 * n] = y[:2 * n] - np.concatenate([state.q, state.v])
    expected = E @ dx - h * (J @ z) - h * Bu
    expected[2 * n:] *= -1.0
    assert np.abs(r - expected).max() <= 1e-13 * np.abs(expected).max()


def test_single_step_conserves_energy_and_positions(flying_pair):
    """One unloaded midpoint step: H exact, g at the solver tolerance."""
    sys, state = flying_pair
    config = IntegratorConfig(h=0.001, t_end=0.001, scheme="mp",
                              newton_tol=1e-12)
    result = step(sys, state, config)
    q1, v1 = result.state.q, result.state.v
    H0 = hamiltonian(sys, state.q, state.v)
    H1 = hamiltonian(sys, q1, v1)
    assert abs(H1 - H0) <= 1e-9 * abs(H0)
    g1, _ = stack_constraints(sys, q1)
    assert np.abs(g1).max() <= 1e-11


def test_single_step_telescoping_identity(flying_pair):
    """Quadratic constraints: g(q1) - g(q0) = G(q_mid)(q1 - q0) exactly."""
    sys, state = flying_pair
    result = step(sys, state, IntegratorConfig(h=0.001, t_end=0.001))
    q0, q1 = state.q, result.state.q
    g0, _ = stack_constraints(sys, q0)
    g1, _ = stack_constraints(sys, q1)
    _, Gm = stack_constraints(sys, 0.5 * (q0 + q1))
    npt.assert_allclose(g1 - g0, Gm @ (q1 - q0), atol=1e-13)


def test_ggl_step_enforces_velocity_constraints(flying_pair):
    sys, state = flying_pair
    config = IntegratorConfig(h=0.001, t_end=0.001, scheme="mp-ggl",
                              newton_tol=1e-12)
    result = step(sys, state, config)
    q1, v1 = result.state.q, result.state.v
    g1, G1 = stack_constraints(sys, q1)
    assert np.abs(g1).max() <= 1e-11
    assert np.abs(G1 @ v1).max() <= 1e-9
    assert result.state.gamma is not None


def test_discrete_power_balance_under_load(closed_loop):
    """H gain per step equals h times the collocated midpoint supply."""
    sys, state = closed_loop
    config = IntegratorConfig(h=0.1, t_end=0.1, scheme="mp", newton_tol=1e-13)
    result = step(sys, state, config)
    q1, v1 = result.state.q, result.state.v
    qm, vm = 0.5 * (state.q + q1), 0.5 * (state.v + v1)
    supply = config.h * vm @ input_assembly(sys, qm, state.t + 0.5 * config.h)
    dH = hamiltonian(sys, q1, v1) - hamiltonian(sys, state.q, state.v)
    npt.assert_allclose(dH, supply, rtol=0.0, atol=1e-12 * max(1.0, abs(dH)))


def test_simulate_trajectory_layout(flying_pair):
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.01))
    assert traj.completed and traj.rows == 11
    npt.assert_allclose(traj.t, 0.001 * np.arange(11), atol=1e-15)
    assert traj.q.shape == (11, sys.n)
    assert traj.lam.shape == (11, sys.m)
    assert traj.gamma is None
    npt.assert_allclose(traj.q[0], state.q, atol=0.0)
    npt.assert_allclose(traj.lam[0], state.lam, atol=0.0)
    assert traj.newton_iters[1:].min() >= 1
    npt.assert_allclose(traj.H, [hamiltonian(sys, q, v)
                                 for q, v in zip(traj.q, traj.v)], rtol=1e-14)


def test_simulate_ggl_records_gamma(flying_pair):
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.005,
                                                 scheme="mp-ggl"))
    assert traj.gamma is not None and traj.gamma.shape == (6, sys.m)
    assert traj.max_gv[1:].max() <= 1e-9


def test_failure_record_shape(slider_crank):
    """A diverging run stops cleanly and reports where and why."""
    sys, state = slider_crank
    traj = simulate(sys, state, IntegratorConfig(h=0.05, t_end=5.0,
                                                 scheme="mp-ggl"))
    assert not traj.completed
    f = traj.failure
    assert set(f) >= {"step", "time", "residual_norm", "iterations", "message"}
    assert f["step"] >= 1 and 0 < f["time"] <= 5.0
    assert traj.rows == f["step"]
    assert np.all(np.isfinite(traj.q))


@pytest.mark.parametrize("h, at_step", [(0.04, 9), (0.05, 6)])
def test_ggl_slider_crank_coarse_step_stops_as_diverged(slider_crank, h, at_step):
    """Above its step-size limit slider_crank mp-ggl stops on the first
    two consecutive residual growths, while the residual is finite."""
    sys, state = slider_crank
    traj = simulate(sys, state, IntegratorConfig(h=h, t_end=10 * h, scheme="mp-ggl"))
    f = traj.failure
    assert f["step"] == at_step and f["message"].endswith(
        f"diverged (residual {f['residual_norm']:.3e} after {f['iterations']} iterations)")
    assert np.isfinite(f["residual_norm"])


def test_step_raises_on_divergence(slider_crank):
    sys, state = slider_crank
    # drive the corrector into failure with an absurd step size
    with pytest.raises(IntegrationError):
        st = state
        for _ in range(400):
            st = step(sys, st, IntegratorConfig(h=0.05, t_end=0.05,
                                                scheme="mp-ggl")).state


def test_midpoint_preserves_quadratic_invariants_long_run(flying_pair):
    """Energy and angular momentum flat over many steps without loads."""
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.05))
    H0 = traj.H[0]
    assert np.abs(traj.H - H0).max() <= 1e-9 * abs(H0)
    L0 = traj.L[0]
    assert np.abs(traj.L - L0).max() <= 1e-8 * np.linalg.norm(L0)
    assert traj.max_g.max() <= 1e-10


@pytest.mark.parametrize("scenario, h, t_end", [("flying_pair", 1e-5, 0.02),
                                                ("slider_crank", 1e-3, 1.0)])
def test_small_step_runs_conserve_energy_to_solver_precision(scenario, h, t_end, request):
    """At small h a single update can pass the absolute stop; accepting it
    let each step leave its residual in the energy (9.1e-10 |H0| on
    flying_pair, 2.6e-8 on slider_crank)."""
    sys, state = request.getfixturevalue(scenario)
    traj = simulate(sys, state, IntegratorConfig(h=h, t_end=t_end))
    assert traj.completed
    assert np.abs(traj.H - traj.H[0]).max() <= 1e-12 * abs(traj.H[0])


@pytest.mark.parametrize("scenario, h, t_end, bound", [("flying_pair", 1e-3, 0.3, 2.05),
                                                       ("closed_loop", 0.1, 10.0, 2.2)])
def test_extrapolated_start_saves_updates(scenario, h, t_end, bound, request):
    """From the fourth step on, mp starts from the midpoint velocity
    extrapolated over the last three steps: about two updates per step
    where the carried-over velocities took three."""
    sys, state = request.getfixturevalue(scenario)
    traj = simulate(sys, state, IntegratorConfig(h=h, t_end=t_end))
    assert traj.completed
    assert traj.newton_iters[4:].mean() <= bound


def test_ggl_keeps_its_start(flying_pair):
    """mp-ggl keeps the carried-over start and its plain-midpoint iteration:
    three updates per step on flying_pair."""
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=1e-3, t_end=0.3, scheme="mp-ggl"))
    assert traj.completed
    npt.assert_array_equal(traj.newton_iters[1:], 3)
