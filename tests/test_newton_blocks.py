"""The two ways the reduced Newton matrix is assembled and solved.

`assembly._newton_groups` groups the bodies that the constraint Hessians
couple, `assembly._GroupBlocks` maps the kernel's pattern values into
the blocks of each group size, `integrate._block_solve` solves the reduced (n + m)
midpoint system group by group with a Schur system on the joint
multipliers, and the system takes that path only where an operation count
says it beats one dense LU. The helpers are called directly, on systems
either path would take. The dense path scatters the same values straight
into the matrix (`integrate._reduced_matrix`), which must equal the dense
formula of `reference.reduced_matrix` bit for bit.
"""
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import (
    BodyLoad,
    MultibodySystem,
    SystemState,
    _GroupBlocks,
    _contraction_values,
    _input_map_blocks,
    _jacobian_values,
    _newton_groups,
    _slope_values,
    consistency,
)
from phmbd import integrate
from phmbd.directors import RigidBody
from phmbd.integrate import (
    _block_solve,
    midpoint_jacobian,
    midpoint_linearization,
    newton_solve,
)

from conftest import random_orthonormal_config
from reference import reduced_matrix
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
    """(groups, unknowns per group) per group size, of the (vel, mult)
    pairs of _newton_groups or of their _GroupBlocks."""
    pairs = [(g.vel, g.mult) if isinstance(g, _GroupBlocks) else g for g in groups]
    return [(len(vel), vel.shape[1] + mult.shape[1]) for vel, mult in pairs]


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
    b = rng.standard_normal(n + sys.m)

    K = _contraction_values(sys, y[2 * n:])
    G = _jacobian_values(sys, qm)
    Gs = G + _slope_values(sys, 0.5 * h * vm)
    W = _input_map_blocks(sys, qm, state.t + 0.5 * h) if sys.loads else None
    blocks = [_GroupBlocks(sys, vel, mult) for vel, mult in _newton_groups(sys)]
    x = _block_solve(sys, blocks, h, K, G, Gs, W, b)
    x_ref = np.linalg.solve(reduced_matrix(sys, h, K, W, G, Gs), b)
    assert np.abs(x - x_ref).max() <= BLOCK_RTOL * np.abs(x_ref).max()


@pytest.mark.parametrize("scheme, name, h", [
    (scheme, name, h) for scheme in ("mp", "mp-ggl")
    for name, h in (("flying_pair", 1e-3), ("slider_crank", 0.01),
                    ("closed_loop", 0.1))  # applied load, so K - W
] + [("mp-ggl", "pendulum_chain", 0.01)])  # its mp update takes the block path
def test_dense_matrix_is_the_dense_formula(scheme, name, h, request, monkeypatch):
    """The dense path places the pattern values straight into the reduced
    matrix; it equals reference.reduced_matrix, which scatters dense K - W,
    G and Gs first, bit for bit, and overwrites every stale entry of the
    work array it is given."""
    rng = np.random.default_rng(SEED)
    sys, state = _system(name, request, rng)
    y = _random_iterate(sys, state, h, rng)
    size = sys.n + sys.m
    if scheme == "mp-ggl":
        y = np.concatenate([y, rng.standard_normal(sys.m)])
        size += sys.m
    calls, assemble = [], integrate._reduced_matrix

    def recording(*args):
        A = assemble(*args)
        calls.append((args, A.copy()))
        return A

    monkeypatch.setattr(integrate, "_reduced_matrix", recording)
    midpoint_linearization(sys, state, y, h, out=np.full((size, size), np.nan))[1]()
    [((_, h_, K, W, G, Gs, _, gamma), A)] = calls
    assert A.shape == (size, size) and (gamma is None) == (scheme == "mp")
    npt.assert_array_equal(A, reduced_matrix(sys, h_, K, W, G, Gs, gamma))


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
    vel, mult = sys._newton_blocks[1].vel, sys._newton_blocks[1].mult
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


def test_loaded_block_update_matches_full_newton_step():
    """Loads on two bodies of a spherical chain: their 12x12 blocks W enter
    the group saddle blocks directly, and the update is still the Newton
    step of the full (2n + m) midpoint system."""
    rng = np.random.default_rng(SEED)
    chain, q = _pendulum_chain_config(6, rng, ("spherical",))
    loads = [BodyLoad(1, lambda t: np.array([0.3, -0.2, 0.5, 0.1, 0.4, -0.3]) * (1.0 + t),
                      np.array([0.05, -0.1, 0.2])),
             BodyLoad(4, lambda t: np.array([-0.6, 0.1, 0.2, -0.2, 0.05, 0.3]) * np.cos(t),
                      np.array([-0.1, 0.02, -0.15]))]
    sys = MultibodySystem(chain.bodies, chain.joints, loads)
    assert sys._newton_blocks is not None
    state = SystemState(0.3, q, 0.1 * rng.standard_normal(sys.n), np.zeros(sys.m))
    h = 0.01
    y = _random_iterate(sys, state, h, rng)
    r, update = midpoint_linearization(sys, state, y, h)
    dy_full = np.linalg.solve(midpoint_jacobian(sys, state, y, h), -r)
    assert np.abs(update() - dy_full).max() <= BLOCK_RTOL * np.abs(dy_full).max()


# Bounds on the peak traced allocations of one mp Newton update and of one
# consistency check on a 24-body spherical chain (n = 288, m = 218), where
# a dense (n, n) K(lambda) takes 660 kB and a dense (m, n) G(q) 500 kB.
UPDATE_ALLOCATION_BOUND = 512 * 1024
CONSISTENCY_ALLOCATION_BOUND = 128 * 1024


def _traced_peak(fn):
    fn()  # first call outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_update_and_consistency_allocate_no_dense_matrix():
    rng = np.random.default_rng(SEED)
    sys, state = _chain_state(24, rng, ("spherical",))
    assert sys._newton_blocks is not None
    h = 0.01
    y = _random_iterate(sys, state, h, rng)
    assert sys.n == 288 and sys.m == 218
    peak = _traced_peak(lambda: midpoint_linearization(sys, state, y, h)[1]())
    assert peak <= UPDATE_ALLOCATION_BOUND, peak
    peak = _traced_peak(lambda: consistency(sys, state.q, state.v))
    assert peak <= CONSISTENCY_ALLOCATION_BOUND, peak
