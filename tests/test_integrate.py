"""Implicit midpoint schemes: residuals, Jacobians, stepping, trajectories."""
import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import SystemState, hamiltonian, input_assembly, stack_constraints
from phmbd.integrate import (
    SCHEME_ALIASES,
    IntegrationError,
    IntegratorConfig,
    finite_difference_jacobian,
    ggl_jacobian,
    ggl_residual,
    midpoint_jacobian,
    midpoint_linearization,
    midpoint_residual,
    simulate,
    step,
)

SEED = 7


def test_scheme_aliases():
    assert SCHEME_ALIASES == {"mp": "mp", "ph-mp": "mp",
                              "mp-ggl": "mp-ggl", "ph-mp-ggl": "mp-ggl"}
    assert IntegratorConfig(h=0.1, t_end=1.0, scheme="ph-mp").scheme == "mp"
    assert IntegratorConfig(h=0.1, t_end=1.0,
                            scheme="ph-mp-ggl").scheme == "mp-ggl"


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, t_end=1.0, scheme="rk4")


def test_simulate_rejects_misaligned_grid(flying_pair):
    sys, state = flying_pair
    with pytest.raises(ValueError):
        simulate(sys, state, IntegratorConfig(h=0.3, t_end=1.0))


def test_midpoint_jacobian_matches_fd(flying_pair):
    sys, state = flying_pair
    rng = np.random.default_rng(SEED)
    h = 1e-3
    y = np.concatenate([state.q + h * state.v,
                        state.v + 0.01 * rng.standard_normal(sys.n),
                        rng.standard_normal(sys.m)])
    J = midpoint_jacobian(sys, state, y, h)
    J_fd = finite_difference_jacobian(
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
    # a reused work array is overwritten entirely, stale entries included
    work = np.full((sys.n + sys.m, sys.n + sys.m), np.nan)
    npt.assert_array_equal(midpoint_linearization(sys, state, y, h, out=work)[1](), dy)


def test_ggl_jacobian_matches_fd(flying_pair):
    sys, state = flying_pair
    rng = np.random.default_rng(SEED)
    h = 1e-3
    y = np.concatenate([state.q + h * state.v,
                        state.v + 0.01 * rng.standard_normal(sys.n),
                        rng.standard_normal(2 * sys.m)])
    J = ggl_jacobian(sys, state, y, h)
    J_fd = finite_difference_jacobian(
        lambda yy: ggl_residual(sys, state, yy, h), y)
    scale = max(1.0, np.abs(J).max())
    npt.assert_allclose(J / scale, J_fd / scale, atol=1e-6)
    # a reused work array is overwritten entirely, stale entries included
    npt.assert_array_equal(ggl_jacobian(sys, state, y, h, out=np.full(J.shape, np.nan)), J)


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