"""Scheme-level identities on hand-built systems, no scenario files.

Property checks with randomized data: constraint algebra (secant and
Jacobian identities), skewness of the assembled operator blocks, the
per-step angular-momentum balance under applied loads, and vertical
angular-momentum conservation under gravity.
"""
import numpy as np
import numpy.testing as npt
from hypothesis import given, settings, strategies as st

from phmbd.assembly import (
    MultibodySystem,
    SystemState,
    ggl_operators,
    input_assembly,
    ph_operators,
    stack_constraints,
    total_angular_momentum,
)
from phmbd.directors import (
    RigidBody,
    internal_constraint_gradient,
    internal_constraints,
    split_config,
)
from phmbd.integrate import IntegratorConfig, step
from phmbd.joints import JointSpec, compile_joint, jacobian, residual

from conftest import fd_jacobian, random_orthonormal_config, rigid_velocity

PAIR_TYPES = ("spherical", "cylindrical", "universal", "revolute", "prismatic")

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class ConstantWrench:
    """Minimal load: fixed force/torque pair applied at a material point."""

    def __init__(self, body, force, torque, r_material=(0.0, 0.0, 0.0)):
        self.body = body
        self.u = np.concatenate([np.asarray(force, float),
                                 np.asarray(torque, float)])
        self.r_material = np.asarray(r_material, float)

    def wrench(self, t):
        return self.u


def _pair_system(kind="cylindrical", gravity=(0.0, 0.0, 0.0), loads=(),
                 seed=0, ground=False):
    """Two bodies joined by one pair, compiled at a random configuration.

    With ground=True the pair attaches body 0 to ground instead and body 1
    is free; the velocities below are then not consistent with the pair.
    """
    rng = np.random.default_rng(seed)
    q_a = random_orthonormal_config(rng)
    q_b = random_orthonormal_config(rng)
    loc = 0.5 * (q_a[:3] + q_b[:3]) + 0.1 * rng.standard_normal(3)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    spec = JointSpec(kind, 0, 0 if ground else 1, loc,
                     None if kind == "spherical" else axis)
    joint = compile_joint(spec, [q_a, q_b])
    bodies = [
        RigidBody(0, 2.0, np.array([3.0, 4.0, 5.0]), np.asarray(gravity)),
        RigidBody(1, 1.5, np.array([2.0, 2.5, 3.0]), np.asarray(gravity)),
    ]
    sys = MultibodySystem(bodies, [joint], loads)

    # consistent velocities: a common rigid motion plus allowed relative ones
    omega = rng.standard_normal(3)
    v0 = rng.standard_normal(3)
    v_a = rigid_velocity(q_a, omega, v0)
    v_b = rigid_velocity(q_b, omega,
                         v0 + np.cross(omega, q_b[:3] - q_a[:3]))
    if kind == "cylindrical":
        d_a = q_a[3:].reshape(3, 3)
        n = joint.n_local @ d_a
        p_a = q_a[:3] + joint.X_a @ d_a
        v_b = v_b + rng.uniform(-1, 1) * np.concatenate([n, np.zeros(9)])
        w = rng.uniform(-1, 1) * n
        v_b = v_b + rigid_velocity(q_b, w, np.cross(w, q_b[:3] - p_a))
    elif kind == "spherical":
        d_a = q_a[3:].reshape(3, 3)
        p = q_a[:3] + joint.X_a @ d_a
        w = rng.standard_normal(3)
        v_b = v_b + rigid_velocity(q_b, w, np.cross(w, q_b[:3] - p))
    q = np.concatenate([q_a, q_b])
    v = np.concatenate([v_a, v_b])
    state = SystemState(0.0, q, v, np.zeros(sys.m))
    return sys, state


def _moment_of(q, f):
    """Total moment of a stacked generalized force about the origin."""
    tau = np.zeros(3)
    for b in range(q.size // 12):
        qk, fk = q[12 * b:12 * b + 12], f[12 * b:12 * b + 12]
        phi, d = split_config(qk)
        tau += np.cross(phi, fk[:3])
        tau += np.cross(d, fk[3:].reshape(3, 3)).sum(axis=0)
    return tau


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_internal_secant_identity(seed):
    rng = np.random.default_rng(seed)
    q, s = rng.standard_normal((2, 12))
    lhs = internal_constraints(q + s) - internal_constraints(q)
    rhs = internal_constraint_gradient(q + 0.5 * s) @ s
    npt.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_joint_secant_identities(seed):
    rng = np.random.default_rng(seed)
    for kind in PAIR_TYPES:
        sys, state = _pair_system(kind, seed=seed)
        joint = sys.joints[0]
        x = state.q + 0.3 * rng.standard_normal(24)
        s = rng.standard_normal(24)
        lhs = residual(joint, x[:12] + s[:12], x[12:] + s[12:]) \
            - residual(joint, x[:12], x[12:])
        xm = x + 0.5 * s
        rhs = jacobian(joint, xm[:12], xm[12:]) @ s
        npt.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_analytic_jacobians_match_fd(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(12)
    npt.assert_allclose(internal_constraint_gradient(q),
                        fd_jacobian(internal_constraints, q), atol=1e-6)
    for kind in PAIR_TYPES:
        sys, state = _pair_system(kind, seed=seed)
        joint = sys.joints[0]
        x = state.q + 0.2 * rng.standard_normal(24)
        J = jacobian(joint, x[:12], x[12:])
        J_fd = fd_jacobian(lambda y: residual(joint, y[:12], y[12:]), x)
        npt.assert_allclose(J, J_fd, atol=1e-6)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_assembled_operators_skew(seed):
    rng = np.random.default_rng(seed)
    sys, state = _pair_system("cylindrical", seed=seed)
    q = state.q + 0.1 * rng.standard_normal(sys.n)
    v = rng.standard_normal(sys.n)
    lam, gam = rng.standard_normal((2, sys.m))
    _, J, _ = ph_operators(sys, q, v, lam)
    npt.assert_allclose(J + J.T, 0.0, atol=1e-14)
    n, m = sys.n, sys.m
    _, Jg, _ = ggl_operators(sys, q, v, lam, gam)
    npt.assert_allclose(Jg + Jg.T, 0.0, atol=1e-14)
    J44 = Jg[2 * n + m:, 2 * n + m:]
    npt.assert_allclose(J44 + J44.T, 0.0, atol=1e-14)


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_discrete_angular_momentum_balance_under_load(seed):
    """L gain per step equals h times the applied moment at the midpoint."""
    rng = np.random.default_rng(seed)
    load = ConstantWrench(0, rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3),
                          rng.uniform(-0.3, 0.3, 3))
    sys, state = _pair_system("cylindrical", loads=[load], seed=seed)
    h = 0.01
    config = IntegratorConfig(h=h, t_end=h, newton_tol=1e-12)
    for _ in range(5):
        result = step(sys, state, config)
        q1, v1 = result.state.q, result.state.v
        qm = 0.5 * (state.q + q1)
        L0 = total_angular_momentum(sys, state.q, state.v)
        L1 = total_angular_momentum(sys, q1, v1)
        applied = h * _moment_of(qm, input_assembly(sys, qm,
                                                    state.t + 0.5 * h))
        npt.assert_allclose(L1 - L0, applied, atol=1e-10)
        state = result.state


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_angular_momentum_balance_spherical_pair(seed):
    """Anchor-gap constraint forces exert no net moment either."""
    rng = np.random.default_rng(seed)
    load = ConstantWrench(1, rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3))
    sys, state = _pair_system("spherical", loads=[load], seed=seed)
    h = 0.01
    config = IntegratorConfig(h=h, t_end=h, newton_tol=1e-12)
    for _ in range(3):
        result = step(sys, state, config)
        qm = 0.5 * (state.q + result.state.q)
        L0 = total_angular_momentum(sys, state.q, state.v)
        L1 = total_angular_momentum(sys, result.state.q, result.state.v)
        applied = h * _moment_of(qm, input_assembly(sys, qm,
                                                    state.t + 0.5 * h))
        npt.assert_allclose(L1 - L0, applied, atol=1e-10)
        state = result.state


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_gravity_conserves_vertical_angular_momentum(seed):
    """With gravity along e3 the L e3-component stays put, step by step."""
    sys, state = _pair_system("spherical", gravity=(0.0, 0.0, -9.81),
                              seed=seed)
    config = IntegratorConfig(h=0.01, t_end=0.01, newton_tol=1e-12)
    Lz0 = total_angular_momentum(sys, state.q, state.v)[2]
    for _ in range(10):
        state = step(sys, state, config).state
    Lz = total_angular_momentum(sys, state.q, state.v)[2]
    npt.assert_allclose(Lz, Lz0, atol=1e-10)


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_discrete_power_balance_no_load(seed):
    """Unloaded and ungravitied steps transport H exactly."""
    from phmbd.assembly import hamiltonian
    sys, state = _pair_system("universal", seed=seed)
    config = IntegratorConfig(h=0.02, t_end=0.02, newton_tol=1e-12)
    H0 = hamiltonian(sys, state.q, state.v)
    for _ in range(5):
        state = step(sys, state, config).state
    H1 = hamiltonian(sys, state.q, state.v)
    npt.assert_allclose(H1, H0, rtol=0.0, atol=1e-10 * max(1.0, abs(H0)))


def test_constraint_rows_stay_satisfied_without_scenarios():
    """Newton keeps every hand-built pair on its manifold."""
    for kind in PAIR_TYPES:
        sys, state = _pair_system(kind, seed=11)
        config = IntegratorConfig(h=0.01, t_end=0.01, newton_tol=1e-12)
        for _ in range(5):
            state = step(sys, state, config).state
        g, G = stack_constraints(sys, state.q)
        assert np.abs(g).max() <= 1e-10, kind
