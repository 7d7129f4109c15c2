"""Constraint kernel (g, G, D(v), K(lambda)) against the per-pair loop.

The library evaluates the constraint layer from constants fixed at
assembly; `reference.loop_constraints` evaluates every body and pair at q
directly. Summation order differs between the two, so they agree to
rounding, not bit for bit. The constants themselves, built in one pass
over the bodies and pairs, equal those of the pair-by-pair build
(`reference.compile_pair`, `reference.constant_tensors`) bit for bit.
"""
import sys as _sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from phmbd import assembly, scenario
from phmbd.assembly import (
    MultibodySystem,
    constraint_hessian_contraction,
    constraint_velocity_gradient,
    stack_constraints,
)
from phmbd.directors import RigidBody
from phmbd.joints import JointSpec, compile_joints
from phmbd.scenario import build_system, load_scenario

from reference import (
    compile_pair,
    constant_tensors,
    loop_constraints,
    loop_hessian_contraction,
    loop_velocity_gradient,
)
from test_properties import PAIR_TYPES, _pair_system, seeds

KERNEL_RTOL = 1e-13


def _rel_err(value, oracle):
    return np.abs(value - oracle).max() / np.abs(oracle).max()


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_kernel_matches_loop_oracle(seed):
    """Every pair type, ground and body-body, away from the manifold."""
    rng = np.random.default_rng(seed)
    for kind in PAIR_TYPES:
        for ground in (False, True):
            sys, state = _pair_system(kind, seed=seed, ground=ground)
            q = state.q + 0.3 * rng.standard_normal(sys.n)
            v = rng.standard_normal(sys.n)
            lam = rng.standard_normal(sys.m)
            g, G = stack_constraints(sys, q)
            g_ref, G_ref = loop_constraints(sys, q)
            label = (kind, ground)
            assert _rel_err(g, g_ref) <= KERNEL_RTOL, label
            assert _rel_err(G, G_ref) <= KERNEL_RTOL, label
            assert _rel_err(constraint_velocity_gradient(sys, v),
                            loop_velocity_gradient(sys, v)) <= KERNEL_RTOL, label
            assert _rel_err(constraint_hessian_contraction(sys, lam),
                            loop_hessian_contraction(sys, lam)) <= KERNEL_RTOL, label


def _hessian_entries(sys):
    """(row, a, b) of every stored nonzero H[i, a, b]."""
    K = sys._K_pattern
    return sys._H_rows, K.row[sys._H_in_K], K.col[sys._H_in_K]


def _assert_hessian_structure(sys):
    """Every entry pairs one spatial component with itself, and no
    spherical pair has an entry."""
    rows, a, b = _hessian_entries(sys)
    assert rows.size and (a % 3 == b % 3).all()
    start = sys.m_internal + np.cumsum([0] + [j.count for j in sys.joints])
    for joint, first, stop in zip(sys.joints, start, start[1:]):
        if joint.pair_type == "spherical":
            assert not ((rows >= first) & (rows < stop)).any(), joint


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_hessian_structure_of_every_pair(seed):
    """Each pair type, ground and body-body, at a random compile point."""
    for kind in PAIR_TYPES:
        for ground in (False, True):
            _assert_hessian_structure(_pair_system(kind, seed=seed, ground=ground)[0])


def test_hessian_structure_of_bundled_systems(flying_pair, slider_crank, closed_loop):
    for sys, _ in (flying_pair, slider_crank, closed_loop):
        _assert_hessian_structure(sys)


def test_spherical_chain_hessian_couples_no_bodies():
    """A revolute pair to ground and spherical pairs below it: H couples
    no two bodies, so every body is its own Newton group."""
    sys = _pendulum_chain(24, np.random.default_rng(5), kinds=("spherical",))
    _assert_hessian_structure(sys)
    _, a, b = _hessian_entries(sys)
    npt.assert_array_equal(a // 12, b // 12)


def _pendulum_chain(bodies, rng, kinds=PAIR_TYPES):
    """Links of length 0.5 hanging from ground, tilted at random about y.

    Body 0 hangs from ground by a revolute pair about y; each further link
    hangs from the lower end of its predecessor by a pair cycling through
    kinds, by default all five types, so body-body Hessian blocks of every
    kind occur.
    """
    return _pendulum_chain_config(bodies, rng, kinds)[0]


def _pendulum_chain_config(bodies, rng, kinds=PAIR_TYPES):
    """_pendulum_chain and the configuration its pairs are compiled at."""
    length = 0.5
    top = np.zeros(3)
    rigid, configs, specs = [], [], []
    for k in range(bodies):
        angle = rng.uniform(-0.3, 0.3)
        c, s = np.cos(angle), np.sin(angle)
        d = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        configs.append(np.concatenate([top - 0.5 * length * d[2], d.ravel()]))
        rigid.append(RigidBody(k, 1.0, [0.03, 0.03, 0.01], [0.0, 0.0, -9.81]))
        if k == 0:
            specs.append(JointSpec("revolute", 0, 0, top, [0.0, 1.0, 0.0]))
        else:
            kind = kinds[k % len(kinds)]
            axis = None if kind == "spherical" else [0.0, 1.0, 0.0]
            specs.append(JointSpec(kind, k - 1, k, top, axis))
        top = top - length * d[2]
    return MultibodySystem(rigid, compile_joints(specs, configs)), np.concatenate(configs)


def test_hundred_body_chain_kernel_without_dense_hessians():
    """A 100-body chain builds and runs the kernel within 100 MB of traced
    allocations; the dense (m, n, n) Hessian stack alone would take
    8 m n^2 B, about 10 GB.

    K(lambda) is symmetric and is the derivative of G(q)^T lambda, which is
    affine in q, so a central difference along any direction is exact up
    to rounding.
    """
    rng = np.random.default_rng(100)
    tracemalloc.start()
    try:
        sys = _pendulum_chain(100, rng)
        q = rng.standard_normal(sys.n)
        lam = rng.standard_normal(sys.m)
        _, G = stack_constraints(sys, q)
        D = constraint_velocity_gradient(sys, rng.standard_normal(sys.n))
        K = constraint_hessian_contraction(sys, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == D.shape == (sys.m, sys.n) and K.shape == (sys.n, sys.n)
    assert peak < 100e6, peak

    npt.assert_allclose(K, K.T, rtol=0.0, atol=1e-15 * np.abs(K).max())
    step = 0.5
    for s in rng.standard_normal((4, sys.n)):
        fd = (stack_constraints(sys, q + step * s)[1]
              - stack_constraints(sys, q - step * s)[1]).T @ lam / (2 * step)
        Ks = K @ s
        assert _rel_err(Ks, fd) <= 1e-12


def _pairwise(specs, configs):
    return tuple(compile_pair(spec, configs) for spec in specs)


BUILDS = {
    **{name: lambda name=name: build_system(load_scenario(name))[0]
       for name in ("flying_pair", "slider_crank", "closed_loop")},
    # every pair type, body-body and to ground
    "pendulum_chain_24": lambda: _pendulum_chain(24, np.random.default_rng(5)),
    # test_hundred_body_chain_kernel_without_dense_hessians' chain
    "pendulum_chain_100": lambda: _pendulum_chain(100, np.random.default_rng(100)),
}

# what MultibodySystem keeps of its constants and patterns
SYSTEM_ARRAYS = ("_g0", "_G0_values", "_H_rows", "_H_b", "_H_values", "_H_in_G",
                 "_H_in_K", "_W_in_K", "mass_diag", "_grad_potential")
JOINT_FIELDS = ("pair_type", "body_a", "body_b", "is_ground", "count", "X_a", "X_b",
                "alpha", "beta", "u0", "w0", "c", "n_local", "m1_local", "m2_local",
                "lock_dirs", "offsets")


@pytest.mark.parametrize("name", BUILDS)
def test_one_pass_build_matches_pair_by_pair_build(name, monkeypatch):
    """compile_joints and _constant_tensors give the arrays of compiling
    pair by pair and scanning H's entries over every component, in the
    same order, bit for bit: g0, G0 and H, both patterns, and where H's
    entries and the loads' blocks sit in them."""
    built = BUILDS[name]()
    with monkeypatch.context() as m:
        m.setattr(scenario, "compile_joints", _pairwise)
        m.setattr(_sys.modules[__name__], "compile_joints", _pairwise)
        m.setattr(assembly, "_constant_tensors", constant_tensors)
        oracle = BUILDS[name]()
    g0, G0, H = assembly._constant_tensors(built)
    g0_ref, G0_ref, H_ref = constant_tensors(oracle)
    for value, expected in zip((g0, *G0, *H), (g0_ref, *G0_ref, *H_ref)):
        assert value.dtype == expected.dtype
        npt.assert_array_equal(value, expected)
    for attr in SYSTEM_ARRAYS:
        npt.assert_array_equal(getattr(built, attr), getattr(oracle, attr), err_msg=attr)
    for attr in ("_G_pattern", "_K_pattern"):
        npt.assert_array_equal(getattr(built, attr).flat, getattr(oracle, attr).flat)
    assert len(built.joints) == len(oracle.joints)
    for joint, expected in zip(built.joints, oracle.joints):
        for field in JOINT_FIELDS:
            value, want = getattr(joint, field), getattr(expected, field)
            if isinstance(want, np.ndarray):
                npt.assert_array_equal(value, want, err_msg=field)
            else:
                assert value == want, field
