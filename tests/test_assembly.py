"""Assembled multibody system: stacking, energy, operators."""
import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import (
    MultibodySystem,
    SystemState,
    consistency,
    constraint_hessian_contraction,
    constraint_velocity_gradient,
    ggl_operators,
    hamiltonian,
    input_assembly,
    input_map_jacobian,
    ph_operators,
    potential,
    stack_constraints,
    total_angular_momentum,
)
from phmbd.directors import angular_momentum, internal_constraints
from phmbd.joints import residual as joint_residual

from conftest import fd_jacobian
from reference import loop_angular_momentum
from test_kernel import _pendulum_chain

SEED = 4242
SKEW_TOL = 1e-14




def test_dimensions(flying_pair, slider_crank, closed_loop):
    for (sys, _), n, m in [(flying_pair, 24, 16), (slider_crank, 36, 35),
                           (closed_loop, 48, 36)]:
        assert (sys.n, sys.m) == (n, m)
        assert sys.mass_diag.shape == (n,)
        assert np.all(sys.mass_diag > 0)


def test_stacked_rows_match_modules(flying_pair):
    """Internal rows per body come first, joint rows after."""
    sys, state = flying_pair
    rng = np.random.default_rng(SEED)
    q = state.q + 0.1 * rng.standard_normal(sys.n)
    g, G = stack_constraints(sys, q)
    npt.assert_allclose(g[:6], internal_constraints(q[:12]), atol=0.0)
    npt.assert_allclose(g[6:12], internal_constraints(q[12:24]), atol=0.0)
    npt.assert_allclose(
        g[12:], joint_residual(sys.joints[0], q[:12], q[12:24]), atol=0.0)
    npt.assert_allclose(G, fd_jacobian(
        lambda y: stack_constraints(sys, y)[0], q), atol=1e-6)


def test_ground_joint_rows_touch_only_their_body(slider_crank):
    sys, state = slider_crank
    _, G = stack_constraints(sys, state.q)
    # revolute anchors body 0: rows 18-22, columns beyond body 0 are empty
    npt.assert_allclose(G[18:23, 12:], 0.0, atol=0.0)
    # prismatic anchors body 2: rows 30-34, columns of bodies 0 and 1 empty
    npt.assert_allclose(G[30:35, :24], 0.0, atol=0.0)


def test_hamiltonian_flying_pair_reference_value(flying_pair):
    sys, state = flying_pair
    npt.assert_allclose(hamiltonian(sys, state.q, state.v), 107604.71875,
                        atol=0.5)


def test_hamiltonian_is_kinetic_plus_potential(slider_crank):
    sys, state = slider_crank
    V, _ = potential(sys, state.q)
    T = 0.5 * state.v @ (sys.mass_diag * state.v)
    npt.assert_allclose(hamiltonian(sys, state.q, state.v), T + V, rtol=1e-14)


def test_potential_gradient_matches_fd(slider_crank):
    sys, state = slider_crank
    _, gradV = potential(sys, state.q)
    npt.assert_allclose(gradV, fd_jacobian(
        lambda y: potential(sys, y)[0], state.q).ravel(), atol=1e-5)


def test_gravity_potential_sign(slider_crank):
    """Raising any body along +z increases the potential."""
    sys, state = slider_crank
    q = state.q.copy()
    V0, _ = potential(sys, q)
    q[2] += 0.1  # lift the crank
    V1, _ = potential(sys, q)
    npt.assert_allclose(V1 - V0, sys.bodies[0].mass * 9.81 * 0.1, rtol=1e-12)


def test_total_angular_momentum_additive(flying_pair):
    sys, state = flying_pair
    L = total_angular_momentum(sys, state.q, state.v)
    per_body = sum(
        angular_momentum(b, state.q[12 * i:12 * i + 12],
                         state.v[12 * i:12 * i + 12])
        for i, b in enumerate(sys.bodies))
    npt.assert_allclose(L, per_body, atol=0.0)


@pytest.mark.parametrize("scenario", ["flying_pair", "slider_crank", "closed_loop",
                                      "chain"])
def test_total_angular_momentum_matches_body_loop(scenario, request):
    """The stacked sum over bodies equals the per-body loop at random
    (q, v); chain is a 24-body chain of all pair types."""
    rng = np.random.default_rng(SEED)
    if scenario == "chain":
        sys = _pendulum_chain(24, rng)
        q = rng.standard_normal(sys.n)
    else:
        sys, state = request.getfixturevalue(scenario)
        q = state.q + rng.standard_normal(sys.n)
    v = rng.standard_normal(sys.n)
    L, L_ref = total_angular_momentum(sys, q, v), loop_angular_momentum(sys, q, v)
    assert np.abs(L - L_ref).max() <= 1e-14 * np.abs(L_ref).max()


def test_velocity_gradient_operator(flying_pair):
    """D(v) = d/dq [G(q) v]: matches FD and is symmetric in its arguments."""
    sys, state = flying_pair
    rng = np.random.default_rng(SEED)
    q = state.q + 0.1 * rng.standard_normal(sys.n)
    v, w = rng.standard_normal((2, sys.n))
    D = constraint_velocity_gradient(sys, v)
    D_fd = fd_jacobian(lambda y: stack_constraints(sys, y)[1] @ v, q)
    npt.assert_allclose(D, D_fd, atol=1e-6)
    npt.assert_allclose(D @ w, constraint_velocity_gradient(sys, w) @ v,
                        atol=1e-12)


def test_hessian_contraction_operator(flying_pair):
    """K(lam) = d/dq [G(q)^T lam]: symmetric, exact for affine gradients."""
    sys, state = flying_pair
    rng = np.random.default_rng(SEED)
    lam = rng.standard_normal(sys.m)
    K = constraint_hessian_contraction(sys, lam)
    npt.assert_allclose(K, K.T, atol=0.0)
    q1, q2 = rng.standard_normal((2, sys.n))
    lhs = (stack_constraints(sys, q1)[1] - stack_constraints(sys, q2)[1]).T @ lam
    npt.assert_allclose(lhs, K @ (q1 - q2), atol=1e-12)


def test_ph_operator_structure(flying_pair):
    sys, state = flying_pair
    rng = np.random.default_rng(SEED)
    lam = rng.standard_normal(sys.m)
    E, J, z = ph_operators(sys, state.q, state.v, lam)
    n, m = sys.n, sys.m
    assert E.shape == J.shape == (2 * n + m, 2 * n + m)
    npt.assert_allclose(J + J.T, 0.0, atol=SKEW_TOL)
    npt.assert_allclose(E[:n, :n], np.eye(n), atol=0.0)
    npt.assert_allclose(E[n:2 * n, n:2 * n], np.diag(sys.mass_diag), atol=0.0)
    npt.assert_allclose(E[2 * n:], 0.0, atol=0.0)
    # E^T z is the gradient of H extended by zeros on the multiplier block
    _, gradV = potential(sys, state.q)
    npt.assert_allclose(E.T @ z,
                        np.concatenate([gradV, sys.mass_diag * state.v,
                                        np.zeros(m)]), atol=1e-12)


def test_ph_operators_reproduce_equations_of_motion(flying_pair):
    """E xdot = J z recovers qdot = v and the momentum balance."""
    sys, state = flying_pair
    import reference
    ydot = reference.index_reduced_rhs(sys, 0.0, np.concatenate([state.q,
                                                                 state.v]))
    qdot, vdot = ydot[:sys.n], ydot[sys.n:]
    # multipliers consistent with the reduced dynamics
    _, G = stack_constraints(sys, state.q)
    _, gradV = potential(sys, state.q)
    minv = 1.0 / sys.mass_diag
    lam = np.linalg.solve((G * minv) @ G.T,
                          G @ (minv * -gradV)
                          + constraint_velocity_gradient(sys, state.v)
                          @ state.v)
    E, J, z = ph_operators(sys, state.q, state.v, lam)
    xdot = np.concatenate([qdot, vdot, np.zeros(sys.m)])
    npt.assert_allclose(E @ xdot, J @ z, atol=1e-9)


def test_ggl_operator_structure(flying_pair):
    sys, state = flying_pair
    rng = np.random.default_rng(SEED)
    lam, gam = rng.standard_normal((2, sys.m))
    E, J, z = ggl_operators(sys, state.q, state.v, lam, gam)
    n, m = sys.n, sys.m
    assert E.shape == J.shape == (2 * n + 2 * m, 2 * n + 2 * m)
    npt.assert_allclose(J + J.T, 0.0, atol=SKEW_TOL)
    # the velocity-velocity multiplier block mixes D and G
    _, G = stack_constraints(sys, state.q)
    D = constraint_velocity_gradient(sys, state.v)
    minv = 1.0 / sys.mass_diag
    J44 = D @ (minv[:, None] * G.T)
    npt.assert_allclose(J[2 * n + m:, 2 * n + m:], J44 - J44.T, atol=1e-12)


def test_input_map_against_wrench_map(closed_loop):
    sys, state = closed_loop
    t = 0.5
    f = input_assembly(sys, state.q, t)
    assert f.shape == (sys.n,)
    # load acts on one body only; everything else stays zero
    loaded = {ld.body for ld in sys.loads}
    for i in range(len(sys.bodies)):
        if i not in loaded:
            npt.assert_allclose(f[12 * i:12 * i + 12], 0.0, atol=0.0)
    assert np.linalg.norm(f) > 0


def test_input_map_jacobian_matches_fd(closed_loop):
    sys, state = closed_loop
    t = 0.5
    K = input_map_jacobian(sys, state.q, t)
    npt.assert_allclose(K, fd_jacobian(
        lambda y: input_assembly(sys, y, t), state.q), atol=1e-6)


def test_consistency_measures(flying_pair, slider_crank):
    sys, state = flying_pair
    g_max, gv_max = consistency(sys, state.q, state.v)
    assert g_max <= 1e-12 and gv_max <= 1e-12
    sys2, state2 = slider_crank
    g_max2, gv_max2 = consistency(sys2, state2.q, state2.v)
    # table data is rounded to six decimals
    assert g_max2 <= 1e-6 and gv_max2 <= 1e-5
