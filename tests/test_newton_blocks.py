"""Block elimination of the reduced mp Newton matrix.

`assembly._newton_groups` groups the bodies that the constraint Hessians
couple, `integrate._block_solve` solves the reduced (n + m) midpoint system
group by group with a Schur system on the joint multipliers, and the system
takes that path only where an operation count says it beats one dense LU.
The helpers are called directly, on systems either path would take.
"""
import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import (
    MultibodySystem,
    SystemState,
    _newton_groups,
    constraint_hessian_contraction,
    constraint_velocity_gradient,
    input_map_jacobian,
    stack_constraints,
)
from phmbd.directors import RigidBody
from phmbd.integrate import (
    _block_solve,
    _reduced_matrix,
    midpoint_jacobian,
    midpoint_linearization,
    newton_solve,
)

from conftest import random_orthonormal_config
from test_kernel import _pendulum_chain, _pendulum_chain_config
from test_properties import PAIR_TYPES

SEED = 55
BLOCK_RTOL = 1e-12


def _spherical_chain(bodies, rng):
    return _pendulum_chain(bodies, rng, kinds=("spherical",))


def _revolute_chain(bodies, rng):
    return _pendulum_chain(bodies, rng, kinds=("revolute",))


def _free_bodies(bodies, rng):
    """Jointless bodies under gravity at random orientations."""
    sys = MultibodySystem([RigidBody(k, 1.0 + k, [0.02, 0.03, 0.04], [0.0, 0.0, -9.81])
                           for k in range(bodies)])
    q = np.concatenate([random_orthonormal_config(rng) for _ in range(bodies)])
    return sys, SystemState(0.0, q, 0.1 * rng.standard_normal(sys.n), np.zeros(sys.m))


def _chain_state(bodies, rng, kinds=PAIR_TYPES):
    """A chain at the configuration its pairs are compiled at, with small
    random velocities."""
    sys, q = _pendulum_chain_config(bodies, rng, kinds)
    return sys, SystemState(0.0, q, 0.1 * rng.standard_normal(sys.n), np.zeros(sys.m))


def _system(name, request, rng):
    """(sys, state) of a bundled scenario or of a 24-body chain."""
    if name == "spherical_chain":
        return _chain_state(24, rng, ("spherical",))
    if name == "pendulum_chain":
        return _chain_state(24, rng)
    return request.getfixturevalue(name)


def _random_iterate(sys, state, h, rng):
    return np.concatenate([state.q + h * state.v + 0.01 * rng.standard_normal(sys.n),
                           state.v + rng.standard_normal(sys.n),
                           rng.standard_normal(sys.m)])


def _group_sizes(groups):
    return [(len(vel), vel.shape[1] + mult.shape[1]) for vel, mult in groups]


@pytest.mark.parametrize("name, h", [
    ("flying_pair", 1e-3),
    ("slider_crank", 0.01),  # body 0 has near-zero Euler values
    ("closed_loop", 0.1),  # applied load, so KW = K - W
    ("spherical_chain", 0.01),  # one group per body
    ("pendulum_chain", 0.01),  # groups of five bodies, cut at spherical pairs
])
def test_block_solve_matches_dense_solve(name, h, request):
    """The block elimination solves the same reduced matrix as one dense
    LU, at an iterate away from any solution."""
    rng = np.random.default_rng(SEED)
    sys, state = _system(name, request, rng)
    y = _random_iterate(sys, state, h, rng)
    n = sys.n
    qm = 0.5 * (state.q + y[:n])
    vm = 0.5 * (state.v + y[n:2 * n])
    _, G = stack_constraints(sys, qm)
    KW = constraint_hessian_contraction(sys, y[2 * n:])
    if sys.loads:
        KW -= input_map_jacobian(sys, qm, state.t + 0.5 * h)
    Gs = G + constraint_velocity_gradient(sys, 0.5 * h * vm)
    b = rng.standard_normal(n + sys.m)

    x = _block_solve(sys, _newton_groups(sys), h, KW, G, Gs, b)
    x_ref = np.linalg.solve(_reduced_matrix(sys, h, KW, G, Gs), b)
    assert np.abs(x - x_ref).max() <= BLOCK_RTOL * np.abs(x_ref).max()


def test_block_update_matches_full_newton_step():
    """Above the crossover the mp update takes the block path and is still
    the Newton step of the full (2n + m) midpoint system."""
    rng = np.random.default_rng(SEED)
    sys, state = _chain_state(8, rng, ("spherical",))
    assert sys._newton_blocks is not None
    h = 0.01
    y = _random_iterate(sys, state, h, rng)
    r, update = midpoint_linearization(sys, state, y, h)
    dy = update()
    dy_full = np.linalg.solve(midpoint_jacobian(sys, state, y, h), -r)
    assert np.abs(dy - dy_full).max() <= BLOCK_RTOL * np.abs(dy_full).max()


def test_groups_and_path_choice(flying_pair, slider_crank, closed_loop):
    """Dense on the bundled scenarios, short spherical chains and a
    revolute chain (one group); blocks from five spherical bodies up and on
    the mixed chain, whose groups end at its spherical pairs."""
    rng = np.random.default_rng(SEED)
    for sys, _ in (flying_pair, slider_crank, closed_loop):
        assert sys._newton_blocks is None
    for bodies in (2, 3, 4):
        assert _spherical_chain(bodies, rng)._newton_blocks is None
    for bodies in (5, 8, 24):
        sys = _spherical_chain(bodies, rng)
        assert _group_sizes(sys._newton_blocks) == [(bodies, 18)]

    sys = _revolute_chain(24, rng)
    assert _group_sizes(_newton_groups(sys)) == [(1, 24 * 18)]
    assert sys._newton_blocks is None

    sys = _pendulum_chain(24, rng)
    assert _group_sizes(sys._newton_blocks) == [(1, 4 * 18), (4, 5 * 18)]
    vel, mult = sys._newton_blocks[1]
    npt.assert_array_equal(vel[1], np.arange(5 * 12, 10 * 12))
    npt.assert_array_equal(mult[1], np.arange(5 * 6, 10 * 6))


def test_jointless_bodies_take_blocks_with_empty_schur_system():
    """Without joints every body is its own group and the Schur system on
    the joint multipliers is 0 x 0."""
    rng = np.random.default_rng(SEED)
    sys, state = _free_bodies(8, rng)
    assert sys.m == sys.m_internal
    assert _group_sizes(sys._newton_blocks) == [(8, 18)]
    h = 0.01
    y = _random_iterate(sys, state, h, rng)
    r, update = midpoint_linearization(sys, state, y, h)
    dy_full = np.linalg.solve(midpoint_jacobian(sys, state, y, h), -r)
    assert np.abs(update() - dy_full).max() <= BLOCK_RTOL * np.abs(dy_full).max()


def test_singular_group_block_is_reported():
    """A body whose directors and director velocities vanish has a zero
    orthonormality Jacobian, so its saddle block is singular."""
    rng = np.random.default_rng(SEED)
    sys, state = _free_bodies(8, rng)
    assert sys._newton_blocks is not None
    q, v = state.q.copy(), state.v.copy()
    q[3 * 12 + 3:4 * 12] = 0.0
    v[3 * 12 + 3:4 * 12] = 0.0
    state = SystemState(0.0, q, v, state.lam)
    h = 0.01
    result = newton_solve(lambda y: midpoint_linearization(sys, state, y, h),
                          np.concatenate([q + h * v, v, state.lam]))
    assert not result.converged
    assert result.message == "singular Newton matrix"
