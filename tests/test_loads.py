"""Applied loads with moment arms, several of them on one body.

The bundled closed_loop scenario has one load with a zero moment arm, so
the arm terms and the summation over loads on one body are checked here on
hand-built systems: a three-body revolute chain, whose mp update is one
dense solve, and a six-body spherical chain, whose mp update takes the
group blocks.
"""
import numpy as np
import pytest

from phmbd.assembly import BodyLoad, MultibodySystem, SystemState, input_assembly, input_map_jacobian
from phmbd.integrate import ggl_jacobian, midpoint_jacobian, midpoint_linearization

from conftest import fd_jacobian
from reference import loop_input_assembly
from test_kernel import _pendulum_chain_config

SEED = 31


def _wrench(scale, rate):
    """A wrench with every force and torque component nonzero, varying in t."""
    return lambda t: scale * np.array([1.0, -0.7, 0.4, 0.3, 0.9, -0.5]) * np.cos(rate * t)


def _loaded_chain(bodies, kinds, rng):
    """A chain with three loads at nonzero arms, two of them on body 0."""
    chain, q = _pendulum_chain_config(bodies, rng, kinds)
    loads = [BodyLoad(0, _wrench(2.0, 1.3), np.array([0.05, -0.1, 0.2])),
             BodyLoad(bodies - 1, _wrench(-1.5, 0.4), np.array([-0.1, 0.02, -0.15])),
             BodyLoad(0, _wrench(0.8, 2.1), np.array([0.0, 0.12, -0.07]))]
    sys = MultibodySystem(chain.bodies, chain.joints, loads)
    state = SystemState(0.3, q, 0.1 * rng.standard_normal(sys.n), np.zeros(sys.m))
    return sys, state


@pytest.fixture(params=[(3, ("revolute",)), (6, ("spherical",))], ids=["dense", "blocks"])
def loaded(request):
    bodies, kinds = request.param
    sys, state = _loaded_chain(bodies, kinds, np.random.default_rng(SEED))
    assert (sys._newton_blocks is None) == (bodies == 3)
    return sys, state


def test_input_assembly_matches_per_load_wrench_maps(loaded):
    sys, state = loaded
    rng = np.random.default_rng(SEED)
    for t in (0.0, 0.3, 1.7):
        q = state.q + rng.standard_normal(sys.n)
        f, f_ref = input_assembly(sys, q, t), loop_input_assembly(sys, q, t)
        assert np.abs(f - f_ref).max() <= 1e-14 * np.abs(f_ref).max()


def test_input_map_jacobian_matches_central_difference(loaded):
    """The applied force is quadratic in q, so a central difference with unit
    step is its slope up to rounding."""
    sys, state = loaded
    t = 0.3
    W = input_map_jacobian(sys, state.q, t)
    W_fd = fd_jacobian(lambda q: input_assembly(sys, q, t), state.q, eps=1.0)
    assert np.abs(W).max() > 0.1
    assert np.abs(W - W_fd).max() <= 1e-13 * np.abs(W).max()


@pytest.mark.parametrize("scheme", ["mp", "mp-ggl"])
def test_reduced_update_matches_full_newton_step(loaded, scheme):
    sys, state = loaded
    rng = np.random.default_rng(SEED)
    h = 0.01
    y = np.concatenate([state.q + h * state.v + 0.01 * rng.standard_normal(sys.n),
                        state.v + rng.standard_normal(sys.n),
                        rng.standard_normal(sys.m)])
    jacobian = midpoint_jacobian
    if scheme == "mp-ggl":
        y = np.concatenate([y, 0.1 * rng.standard_normal(sys.m)])
        jacobian = ggl_jacobian
    r, update = midpoint_linearization(sys, state, y, h)
    dy_full = np.linalg.solve(jacobian(sys, state, y, h), -r)
    assert np.abs(update() - dy_full).max() <= 1e-12 * np.abs(dy_full).max()
