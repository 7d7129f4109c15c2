"""End-to-end acceptance checks, one test per advertised guarantee.

Expensive trajectories are computed once per module and shared between
tests. Two guarantees are checked in the form the method gives them:

* H and L are conserved exactly at every step size, so their errors
  against a fine reference carry no h-dependence to fit a slope to; the
  check is that they stay within the conservation bounds at every h;
* at the largest slider-crank step (h = 0.02) the plain midpoint corrector
  keeps converging, and its breakdown is a loss of accuracy: the slider
  travel leaves the band that h = 0.01 holds.
"""
import time
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import (
    ggl_operators,
    input_assembly,
    ph_operators,
    total_angular_momentum,
)
from phmbd.diagnostics import conservation_report, convergence_orders, rms_error
from phmbd.directors import internal_constraint_gradient, internal_constraints
from phmbd.integrate import IntegratorConfig, simulate, step
from phmbd.interconnect import port_maps
from phmbd.joints import jacobian as joint_jacobian
from phmbd.joints import residual as joint_residual
from phmbd.scenario import build_system, load_scenario

from conftest import cylindrical_consistent_pair, fd_jacobian
from reference import cylindrical_wrench_ports, nullspace_equivalence
from test_interconnect import assert_coupled_steps_are_midpoint_steps
from test_properties import PAIR_TYPES, ConstantWrench, _moment_of, _pair_system


def _build(name):
    return build_system(load_scenario(name))


def _timed_run(name, **kwargs):
    sys, state = _build(name)
    t0 = time.perf_counter()
    traj = simulate(sys, state, IntegratorConfig(**kwargs))
    return sys, traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def flying_mp():
    return _timed_run("flying_pair", h=1e-3, t_end=0.7, scheme="mp")


@pytest.fixture(scope="module")
def flying_ggl():
    return _timed_run("flying_pair", h=1e-3, t_end=0.7, scheme="mp-ggl")


@pytest.fixture(scope="module")
def slider_fine():
    return _timed_run("slider_crank", h=1e-3, t_end=5.0, scheme="mp")


@pytest.fixture(scope="module")
def slider_coarse():
    return _timed_run("slider_crank", h=1e-2, t_end=5.0, scheme="mp")


@pytest.fixture(scope="module")
def closed_mp():
    return _timed_run("closed_loop", h=0.1, t_end=10.0, scheme="mp")


@pytest.fixture(scope="module")
def convergence_study():
    """Flying-pair errors and their fits against an h=1e-5 reference at
    t_bar=0.02.

    The reference is solved at newton_tol=1e-12: at the default 1e-9 its
    own energy drift is 9.1e-10 |H0|, which would use up the conservation
    bound the H error is held to.
    """
    t0 = time.perf_counter()
    sys, state = _build("flying_pair")
    ref = simulate(sys, state, IntegratorConfig(h=1e-5, t_end=0.02,
                                                newton_tol=1e-12))
    hs = [1e-2, 1e-3, 1e-4]
    errors = {k: [] for k in ("q", "v", "lam", "H", "L")}
    for h in hs:
        sys, state = _build("flying_pair")
        traj = simulate(sys, state, IntegratorConfig(h=h, t_end=0.02))
        point = rms_error(traj, ref, 0.02)
        for k in errors:
            errors[k].append(point[k])
    return SimpleNamespace(fits=convergence_orders(hs, errors), errors=errors,
                           H0=ref.H[0], L0=ref.L[0],
                           elapsed=time.perf_counter() - t0)


def test_flying_pair_energy_and_momentum_conservation(flying_mp):
    """Midpoint run keeps H and every L component flat for 700 steps."""
    sys, traj, elapsed = flying_mp
    rep = conservation_report(traj, sys)
    assert rep.relative_energy_drift <= 1e-9
    assert rep.momentum_drift.max() <= 1e-8 * np.linalg.norm(rep.L[0])
    assert elapsed < 10.0


def test_flying_pair_constraint_satisfaction_levels(flying_mp, flying_ggl):
    """Positions stay on the manifold; only the stabilized scheme also
    keeps the velocity-level rows at zero."""
    _, mp, _ = flying_mp
    _, ggl, _ = flying_ggl
    assert mp.max_g.max() <= 1e-9
    assert ggl.max_g.max() <= 1e-9
    assert mp.max_gv.max() > 1e-9
    assert ggl.max_gv.max() <= 1e-9


def test_convergence_orders_states_and_multipliers(convergence_study):
    """Second order in q and v, first order in the multipliers."""
    fits, elapsed = convergence_study.fits, convergence_study.elapsed
    assert 1.7 <= fits["q"].slope <= 2.3
    assert 1.7 <= fits["v"].slope <= 2.3
    assert 0.7 <= fits["lam"].slope <= 1.3
    assert elapsed < 60.0


def test_convergence_orders_conserved_quantities(convergence_study):
    """H and L errors stay within the conservation bounds at every h.

    Without loads the scheme conserves both quantities exactly at every
    step size, so their errors carry no h-dependence and have no order to
    fit. What the method promises is that they stay at solver precision:
    1e-9 |H0| and 1e-8 ||L0||, the bounds of the conservation check above.
    A momentum row that takes G at q_next instead of the midpoint breaks
    the energy balance and gives relative H errors of 0.54, 0.15 and 0.016.
    """
    study = convergence_study
    assert max(study.errors["H"]) <= 1e-9 * abs(study.H0)
    assert max(study.errors["L"]) <= 1e-8 * np.linalg.norm(study.L0)


def test_closed_loop_power_balance_and_momentum(closed_mp):
    """Injected power is accounted for step by step; after load removal
    H is constant and only the x angular-momentum component survives."""
    sys, traj, _ = closed_mp
    rep = conservation_report(traj, sys)
    loading = rep.t[1:] <= 1.0 + 1e-12
    assert rep.power_defect[loading].max() <= 1e-10

    after = rep.t >= 1.0 - 1e-12
    H_after = rep.H[after]
    scale = max(1.0, float(np.abs(H_after).max()))
    assert np.abs(H_after - H_after[0]).max() / scale <= 1e-9
    L_after = rep.L[after]
    assert np.abs(L_after[:, 1]).max() <= 1e-9
    assert np.abs(L_after[:, 2]).max() <= 1e-9
    Lx = L_after[:, 0]
    assert np.abs(Lx[0]) > 1.0
    assert np.ptp(Lx) <= 1e-9 * max(1.0, float(np.abs(Lx).max()))


def _slider_travel_rms(fine, coarse):
    """Relative RMS difference of the slider travel over [0, 2], sampled on
    the coarse grid."""
    axis = np.asarray(load_scenario("slider_crank").joints[-1].reference_axis,
                      dtype=float)
    axis /= np.linalg.norm(axis)
    k_fine = int(round(2.0 / fine.h))
    k_coarse = int(round(2.0 / coarse.h))
    stride = int(round(coarse.h / fine.h))
    d_fine = fine.q[:k_fine + 1:stride, 24:27] @ axis
    d_coarse = coarse.q[:k_coarse + 1, 24:27] @ axis
    assert d_fine.shape == d_coarse.shape
    return np.sqrt(np.mean((d_fine - d_coarse) ** 2) / np.mean(d_fine ** 2))


def test_slider_crank_midpoint_completes_at_standard_steps(slider_fine,
                                                           slider_coarse):
    _, fine, _ = slider_fine
    _, coarse, _ = slider_coarse
    assert fine.completed and fine.failure is None
    assert coarse.completed and coarse.failure is None


def test_slider_crank_midpoint_diverges_at_large_step(slider_fine):
    """Breakdown of the plain midpoint scheme at h = 0.02: the run stops
    before t_end, or its slider travel leaves the 2% RMS band over [0, 2]
    that h = 0.01 holds against h = 1e-3.

    The corrector keeps converging at this step size (2-4 iterations per
    step); the breakdown is a loss of accuracy. max|G v| on the grid
    reaches 11 (4.4e-3 at h = 1e-3) and the travel departs by 8.5% RMS.
    The velocity-stabilized scheme stays inside the band at this step
    (1.3%), so the check separates the two.
    """
    _, fine, _ = slider_fine
    _, traj, _ = _timed_run("slider_crank", h=0.02, t_end=5.0, scheme="mp")
    assert not traj.completed or _slider_travel_rms(fine, traj) > 0.02


def test_slider_crank_ggl_completes_at_large_step():
    """Advertised robustness of the velocity-stabilized scheme at h = 0.02.

    The corrector starts each step from one plain-midpoint iteration; from
    the warm start alone it diverged at step 12 (t = 0.22).
    """
    _, traj, _ = _timed_run("slider_crank", h=0.02, t_end=5.0,
                            scheme="mp-ggl")
    assert traj.completed and traj.failure is None


def test_slider_crank_displacement_step_consistency(slider_fine,
                                                    slider_coarse):
    """Slider travel at h=1e-3 and h=1e-2 agrees to 2% RMS over [0, 2]."""
    _, fine, _ = slider_fine
    _, coarse, _ = slider_coarse
    assert _slider_travel_rms(fine, coarse) <= 0.02


def test_port_rows_match_joint_rows_on_rigid_motions(flying_mp):
    """The port map read off the pair's row table and the physical-wrench
    port rows cut the same distribution out of the rigid motions at 20
    random consistent configurations."""
    sys, _, _ = flying_mp
    joint = sys.joints[0]
    _, state = _build("flying_pair")
    rng = np.random.default_rng(2024)
    for _ in range(20):
        q_a, q_b = cylindrical_consistent_pair(
            joint, state.q[:12], state.q[12:], rng)
        (maps,) = port_maps(sys, np.concatenate([q_a, q_b]))
        ports = np.hstack([C for _, C in maps])
        C = cylindrical_wrench_ports(joint, q_a, q_b)
        assert nullspace_equivalence(C, ports, q_a, q_b) <= 1e-10


def test_interconnection_and_discretization_commute(flying_mp, slider_coarse,
                                                    closed_mp):
    """Body subsystems coupled through the pairs, then discretized, are the
    assembled midpoint scheme: at every step of the three bundled
    scenarios under mp, at their own h and t_end, the coupled residual
    equals midpoint_residual to 1e-13 and is within the Newton
    tolerance."""
    for sys, traj, _ in (flying_mp, slider_coarse, closed_mp):
        assert_coupled_steps_are_midpoint_steps(sys, traj, IntegratorConfig.newton_tol)


def test_scheme_identities_without_scenario_files():
    """Secant, Jacobian, skewness and balance identities on hand-built
    systems only."""
    rng = np.random.default_rng(7)

    # quadratic-secant identity of the orthonormality rows, analytic vs fd
    q, s = rng.standard_normal((2, 12))
    npt.assert_allclose(
        internal_constraints(q + s) - internal_constraints(q),
        internal_constraint_gradient(q + 0.5 * s) @ s, atol=1e-12)
    npt.assert_allclose(internal_constraint_gradient(q),
                        fd_jacobian(internal_constraints, q), atol=1e-6)

    # same two identities for every pair type
    for kind in PAIR_TYPES:
        sys_k, state_k = _pair_system(kind, seed=13)
        joint = sys_k.joints[0]
        x = state_k.q + 0.3 * rng.standard_normal(24)
        s24 = rng.standard_normal(24)
        lhs = joint_residual(joint, x[:12] + s24[:12], x[12:] + s24[12:]) \
            - joint_residual(joint, x[:12], x[12:])
        xm = x + 0.5 * s24
        npt.assert_allclose(lhs, joint_jacobian(joint, xm[:12], xm[12:]) @ s24,
                            atol=1e-12)
        npt.assert_allclose(
            joint_jacobian(joint, x[:12], x[12:]),
            fd_jacobian(lambda y: joint_residual(joint, y[:12], y[12:]), x),
            atol=1e-6)

    # skew symmetry of the assembled structure operator and its extension
    sys_c, state_c = _pair_system("cylindrical", seed=13)
    qq = state_c.q + 0.1 * rng.standard_normal(sys_c.n)
    vv = rng.standard_normal(sys_c.n)
    lam, gam = rng.standard_normal((2, sys_c.m))
    _, J_full, _ = ph_operators(sys_c, qq, vv, lam)
    npt.assert_allclose(J_full + J_full.T, 0.0, atol=1e-14)
    _, J_ext, _ = ggl_operators(sys_c, qq, vv, lam, gam)
    npt.assert_allclose(J_ext + J_ext.T, 0.0, atol=1e-14)
    k = 2 * sys_c.n + sys_c.m
    npt.assert_allclose(J_ext[k:, k:] + J_ext[k:, k:].T, 0.0, atol=1e-14)

    # per-step angular-momentum balance under an applied load
    load = ConstantWrench(0, [3.0, -2.0, 1.0], [0.5, 1.5, -1.0],
                          [0.1, -0.2, 0.05])
    sys_l, state_l = _pair_system("cylindrical", loads=[load], seed=5)
    h = 0.01
    config = IntegratorConfig(h=h, t_end=h, newton_tol=1e-12)
    for _ in range(3):
        result = step(sys_l, state_l, config)
        qm = 0.5 * (state_l.q + result.state.q)
        dL = total_angular_momentum(sys_l, result.state.q, result.state.v) \
            - total_angular_momentum(sys_l, state_l.q, state_l.v)
        npt.assert_allclose(
            dL, h * _moment_of(qm, input_assembly(sys_l, qm,
                                                  state_l.t + 0.5 * h)),
            atol=1e-10)
        state_l = result.state

    # gravity along e3 leaves the vertical angular-momentum component alone
    sys_g, state_g = _pair_system("spherical", gravity=(0.0, 0.0, -9.81),
                                  seed=5)
    Lz0 = total_angular_momentum(sys_g, state_g.q, state_g.v)[2]
    for _ in range(10):
        state_g = step(sys_g, state_g, config).state
    npt.assert_allclose(total_angular_momentum(sys_g, state_g.q, state_g.v)[2],
                        Lz0, atol=1e-10)
