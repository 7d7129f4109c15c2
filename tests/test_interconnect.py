"""Port interconnection of single-body subsystems through the pairs."""
import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import SystemState, input_assembly, ph_operators
from phmbd.integrate import IntegratorConfig, midpoint_residual, simulate
from phmbd.interconnect import body_subsystem, couple, port_maps
from phmbd.scenario import build_system, load_scenario

from conftest import cylindrical_consistent_pair
from reference import cylindrical_wrench_ports, nullspace_equivalence
from test_kernel import _pendulum_chain_config
from test_properties import PAIR_TYPES, _pair_system

SEED = 99

OPERATOR_CASES = ([f"{kind}-{side}" for kind in PAIR_TYPES for side in ("body", "ground")]
                  + ["chain24", "closed_loop"])


def _case_system(case):
    """System and a configuration of one OPERATOR_CASES entry."""
    if case == "chain24":
        return _pendulum_chain_config(24, np.random.default_rng(5))
    if case == "closed_loop":
        sys, state = build_system(load_scenario("closed_loop"))
        return sys, state.q
    kind, side = case.split("-")
    sys, state = _pair_system(kind, seed=3, ground=side == "ground")
    return sys, state.q


def _flying_pair_ports(sys, q_a, q_b):
    """The stacked (4, 24) port map of flying_pair's cylindrical pair."""
    (maps,) = port_maps(sys, np.concatenate([q_a, q_b]))
    return np.hstack([C for _, C in maps])


def assert_coupled_steps_are_midpoint_steps(sys, traj, newton_tol):
    """At every step of an mp run, the coupled midpoint residual
    E dx - h (J z + B u), reordered to the assembled state with its
    multiplier rows negated, equals midpoint_residual to 1e-13 and is
    within the Newton tolerance.

    All operators are taken at the midpoint (q_mid, v_mid) and the step's
    midpoint multipliers; B u is each subsystem's own load force at
    t + h / 2 on its momentum rows.
    """
    assert traj.completed and traj.rows > 1
    h, n = traj.h, sys.n
    subsystems = [body_subsystem(sys, k) for k in range(len(sys.bodies))]
    for i in range(traj.rows - 1):
        q0, q1, v0, v1, lam = traj.q[i], traj.q[i + 1], traj.v[i], traj.v[i + 1], traj.lam[i + 1]
        qm, vm = 0.5 * (q0 + q1), 0.5 * (v0 + v1)
        E, J, z, order = couple(sys, qm, vm, lam)
        dx = np.zeros(z.size)
        dx[order[:2 * n]] = np.concatenate([q1 - q0, v1 - v0])
        Bu = np.zeros(z.size)
        for k, sub in enumerate(subsystems):
            Bu[30 * k + 12:30 * k + 24] = input_assembly(sub, qm[12 * k:12 * k + 12],
                                                         traj.t[i] + 0.5 * h)
        coupled = (E @ dx - h * (J @ z + Bu))[order]
        coupled[2 * n:] *= -1.0
        state = SystemState(traj.t[i], q0, v0, traj.lam[i])
        reference = midpoint_residual(sys, state, np.concatenate([q1, v1, lam]), h)
        assert np.abs(coupled - reference).max() <= 1e-13
        assert np.abs(coupled).max() <= newton_tol


def test_port_matrix_shapes():
    """One (count, 12) block per body of a pair; one for a ground pair."""
    for kind in PAIR_TYPES:
        for ground in (False, True):
            sys, state = _pair_system(kind, ground=ground)
            (maps,) = port_maps(sys, state.q)
            count = sys.joints[0].count
            assert [k for k, _ in maps] == ([0] if ground else [0, 1])
            assert all(C.shape == (count, 12) for _, C in maps)


def test_nullspace_equivalence_random_consistent_configs(flying_pair):
    """Table-derived port rows and the physical-wrench port rows agree on
    rigid motions."""
    sys, state = flying_pair
    joint = sys.joints[0]
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        q_a, q_b = cylindrical_consistent_pair(
            joint, state.q[:12], state.q[12:], rng)
        C = cylindrical_wrench_ports(joint, q_a, q_b)
        defect = nullspace_equivalence(C, _flying_pair_ports(sys, q_a, q_b), q_a, q_b)
        assert defect <= 1e-10


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_coupled_operators_are_ph_operators(case):
    """Body subsystems joined through every pair: J is exactly skew, and
    E, J, z reordered by `order` are ph_operators of the assembled
    system, with the port maps taken from the pairs, not from its G."""
    sys, q = _case_system(case)
    rng = np.random.default_rng(SEED)
    q = q + 0.1 * rng.standard_normal(sys.n)
    v, lam = rng.standard_normal(sys.n), rng.standard_normal(sys.m)
    E, J, z, order = couple(sys, q, v, lam)
    assert np.array_equal(J + J.T, np.zeros_like(J))
    ix = np.ix_(order, order)
    for coupled, assembled in zip((E[ix], J[ix], z[order]), ph_operators(sys, q, v, lam)):
        assert np.abs(coupled - assembled).max() <= 1e-15 * np.abs(assembled).max()


def test_transformer_couple_keeps_skewness(flying_pair):
    """flying_pair's two bodies coupled through the four effort channels of
    its cylindrical pair: J is exactly skew at random multipliers."""
    sys, state = flying_pair
    lam = np.random.default_rng(SEED).standard_normal(sys.m)
    E, J, z, _ = couple(sys, state.q, state.v, lam)
    assert E.shape == J.shape == (64, 64) and z.shape == (64,)
    assert np.array_equal(J + J.T, np.zeros_like(J))


def test_body_subsystem_rebased(flying_pair, closed_loop):
    sys, _ = flying_pair
    sub = body_subsystem(sys, 1)
    assert (sub.n, sub.m) == (12, 6)
    assert len(sub.bodies) == 1 and sub.bodies[0].index == 0
    npt.assert_allclose(sub.mass_diag, sys.mass_diag[12:], atol=0.0)

    # a loaded body keeps its loads, rebased with it
    sys, state = closed_loop
    (load,) = sys.loads
    sub = body_subsystem(sys, load.body)
    assert [sub_load.body for sub_load in sub.loads] == [0]
    q = sys.body_config(state.q, load.body)
    npt.assert_array_equal(input_assembly(sub, q, 0.7),
                           input_assembly(sys, state.q, 0.7)[12 * load.body:12 * load.body + 12])
    assert all(not body_subsystem(sys, k).loads for k in range(len(sys.bodies)) if k != load.body)


def test_interconnect_discretize_commute():
    """Coupling the subsystems, then discretizing, is the assembled midpoint
    scheme: at every step of an mp run of each bundled scenario at its own
    h and t_end, the coupled residual equals midpoint_residual and is
    within the Newton tolerance."""
    for name in ("flying_pair", "slider_crank", "closed_loop"):
        config = load_scenario(name)
        sys, state = build_system(config)
        integrator = IntegratorConfig(h=config.h, t_end=config.t_end, scheme="mp")
        traj = simulate(sys, state, integrator)
        assert_coupled_steps_are_midpoint_steps(sys, traj, integrator.newton_tol)


def test_defect_metric_detects_broken_coupling(flying_pair):
    """Sanity: corrupting the physical-wrench rows is caught by the defect."""
    sys, state = flying_pair
    joint = sys.joints[0]
    q_a, q_b = state.q[:12], state.q[12:]
    bad = cylindrical_wrench_ports(joint, q_a, q_b)
    bad[:, :12] -= 0.05  # B_A + 0.05 in every entry
    assert nullspace_equivalence(bad, _flying_pair_ports(sys, q_a, q_b), q_a, q_b) > 1e-6
