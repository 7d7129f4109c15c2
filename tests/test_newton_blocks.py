"""The two ways the reduced Newton matrix is solved, and the one map that
fills it.

`assembly._newton_groups` groups the bodies that the constraint Hessians
couple, `assembly._GroupBlocks` maps the kernel's pattern values into
the blocks of each group size, and `assembly._JointSchur` solves the
reduced (n + m) midpoint system group by group (the block path, described
there). The system's mp map (`MultibodySystem._newton_blocks`) is a
`_JointSchur` only where an operation count, taken on its first step, says
it beats one dense LU; otherwise it is the `_GroupBlocks` of the one group
of every unknown. The helpers are called directly, on systems either path
would take. The dense matrix and each group's blocks must equal the dense
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
    _JointSchur,
    _contraction_values,
    _input_map_blocks,
    _input_map_values,
    _jacobian_values,
    _newton_groups,
    _slope_values,
    consistency,
)
from phmbd import assembly, integrate
from phmbd.directors import RigidBody
from phmbd.integrate import (
    midpoint_jacobian,
    midpoint_linearization,
    newton_solve,
)
from phmbd.interconnect import couple
from phmbd.scenario import build_system, load_scenario

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


BLOCK_CASES = [
    ("flying_pair", 1e-3),
    ("slider_crank", 0.01),  # body 0 has near-zero Euler values
    ("closed_loop", 0.1),  # applied load, so KW = K - W
    ("spherical_chain", 0.01),  # one group per body
    ("pendulum_chain", 0.01),  # groups of five bodies, cut at spherical pairs
]


def _reduced_terms(sys, state, y, h):
    """(K, W, KW, G, Gs) of the reduced mp matrix at the iterate y: K(lambda)
    and the loads' (9, 9) director blocks W (None without loads), as
    reference.reduced_matrix takes them, and the velocity block KW = K - W
    on the pattern of K, as the maps take it."""
    n = sys.n
    qm = 0.5 * (state.q + y[:n])
    vm = 0.5 * (state.v + y[n:2 * n])
    G = _jacobian_values(sys, qm)
    K = _contraction_values(sys, y[2 * n:2 * n + sys.m])
    W, KW = None, K
    if sys.loads:
        t = state.t + 0.5 * h
        W, KW = _input_map_blocks(sys, qm, t), K - _input_map_values(sys, qm, t)
    return K, W, KW, G, G + _slope_values(sys, 0.5 * h * vm)


@pytest.mark.parametrize("name, h", BLOCK_CASES)
def test_block_solve_matches_dense_solve(name, h, request):
    """The block elimination solves the same reduced matrix as one dense
    LU, at an iterate away from any solution."""
    rng = np.random.default_rng(SEED)
    sys, state = _system(name, request, rng)
    y = _random_iterate(sys, state, h, rng)
    b = rng.standard_normal(sys.n + sys.m)
    K, W, KW, G, Gs = _reduced_terms(sys, state, y, h)
    blocks = [_GroupBlocks(sys, vel, mult) for vel, mult in _newton_groups(sys)]
    x = _JointSchur(sys, blocks).solve(h, KW, G, Gs, b)
    x_ref = np.linalg.solve(reduced_matrix(sys, h, K, W, G, Gs), b)
    assert np.abs(x - x_ref).max() <= BLOCK_RTOL * np.abs(x_ref).max()


@pytest.mark.parametrize("name", ["spherical_chain", "pendulum_chain"])
def test_block_solve_reuses_its_buffers(name, request):
    """Two solves on the same _GroupBlocks, at two iterates with two
    right-hand sides, each match one dense LU: nothing of the first call's
    saddle blocks or kept right-hand side R survives into the second."""
    rng = np.random.default_rng(SEED)
    sys, state = _system(name, request, rng)
    h = 0.01
    blocks = [_GroupBlocks(sys, vel, mult) for vel, mult in _newton_groups(sys)]
    for _ in range(2):
        K, W, KW, G, Gs = _reduced_terms(sys, state, _random_iterate(sys, state, h, rng), h)
        b = rng.standard_normal(sys.n + sys.m)
        x = _JointSchur(sys, blocks).solve(h, KW, G, Gs, b)
        x_ref = np.linalg.solve(reduced_matrix(sys, h, K, W, G, Gs), b)
        assert np.abs(x - x_ref).max() <= BLOCK_RTOL * np.abs(x_ref).max()


@pytest.mark.parametrize("name, h", BLOCK_CASES)
def test_group_blocks_are_blocks_of_the_dense_formula(name, h, request):
    """After fill, each group's saddle block A_g and coupling blocks B_g and
    C_g are the matching blocks of reference.reduced_matrix, bit for bit;
    padded joint slots stay zero."""
    rng = np.random.default_rng(SEED)
    sys, state = _system(name, request, rng)
    y = _random_iterate(sys, state, h, rng)
    K, W, KW, G, Gs = _reduced_terms(sys, state, y, h)
    s = sys.n + sys.m
    # one zero row and column past the end take the padded joint slots
    A_ref = np.zeros((s + 1, s + 1))
    A_ref[:s, :s] = reduced_matrix(sys, h, K, W, G, Gs)
    for vel, mult in _newton_groups(sys):
        blk = _GroupBlocks(sys, vel, mult)
        blk.fill(h, KW, G, Gs)
        for g in range(len(vel)):
            joint = sys.n + sys.m_internal + blk.joint[g]
            npt.assert_array_equal(blk.A[g], A_ref[np.ix_(blk.idx[g], blk.idx[g])])
            npt.assert_array_equal(blk.B[g], A_ref[np.ix_(vel[g], joint)])
            npt.assert_array_equal(blk.C[g], A_ref[np.ix_(joint, vel[g])])


@pytest.mark.parametrize("scheme, name, h", [
    (scheme, name, h) for scheme in ("mp", "mp-ggl")
    for name, h in (("flying_pair", 1e-3), ("slider_crank", 0.01),
                    ("closed_loop", 0.1))  # applied load, so K - W
] + [("mp-ggl", "pendulum_chain", 0.01)])  # its mp update takes the block path
def test_dense_matrix_is_the_dense_formula(scheme, name, h, request, monkeypatch):
    """The dense path places the pattern values straight into the reduced
    matrix; it equals reference.reduced_matrix, which scatters dense K, G
    and Gs and subtracts each load's block W at its body first, bit for
    bit, and overwrites every stale entry of the array kept with the
    system."""
    rng = np.random.default_rng(SEED)
    sys, state = _system(name, request, rng)
    y = _random_iterate(sys, state, h, rng)
    size = sys.n + sys.m
    if scheme == "mp-ggl":
        y = np.concatenate([y, rng.standard_normal(sys.m)])
        size += sys.m
    blocks = sys._newton_blocks if scheme == "mp" else sys._augmented_blocks
    calls, fill = [], blocks.fill

    def recording(*args):
        fill(*args)
        calls.append((args, blocks.A[0].copy()))

    monkeypatch.setattr(blocks, "fill", recording)
    blocks.A.fill(np.nan)
    midpoint_linearization(sys, state, y, h)[1]()
    [((h_, _, G, Gs, *gamma), A)] = calls
    assert A.shape == (size, size) and (gamma == []) == (scheme == "mp")
    K, W, _, _, _ = _reduced_terms(sys, state, y, h)
    npt.assert_array_equal(A, reduced_matrix(sys, h_, K, W, G, Gs, tuple(gamma) or None))


def test_block_update_matches_full_newton_step():
    """Above the crossover the mp update takes the block path and is still
    the Newton step of the full (2n + m) midpoint system."""
    rng = np.random.default_rng(SEED)
    sys, state = _chain_state(8, rng, ("spherical",))
    assert isinstance(sys._newton_blocks, _JointSchur)
    h = 0.01
    y = _random_iterate(sys, state, h, rng)
    r, update = midpoint_linearization(sys, state, y, h)
    dy = update()
    dy_full = np.linalg.solve(midpoint_jacobian(sys, state, y, h), -r)
    assert np.abs(dy - dy_full).max() <= BLOCK_RTOL * np.abs(dy_full).max()


def test_block_path_run_matches_dense_run(monkeypatch):
    """A whole run on the block path takes the dense path's Newton
    iterations and stays within BLOCK_RTOL of its trajectory."""
    rng = np.random.default_rng(SEED)
    sys, q = _pendulum_chain_config(8, rng, ("spherical",))
    assert isinstance(sys._newton_blocks, _JointSchur)
    state = SystemState(0.0, q, np.zeros(sys.n), np.zeros(sys.m))
    config = integrate.IntegratorConfig(h=0.01, t_end=0.2)
    blocks = integrate.simulate(sys, state, config)
    monkeypatch.setattr(sys, "_newton_blocks",
                        _GroupBlocks(sys, np.arange(sys.n)[None], np.arange(sys.m)[None]))
    dense = integrate.simulate(sys, state, config)
    assert blocks.completed and dense.completed and dense.rows == 21
    npt.assert_array_equal(blocks.newton_iters, dense.newton_iters)
    for key in ("q", "v", "lam"):
        ref = getattr(dense, key)
        assert np.abs(getattr(blocks, key) - ref).max() <= BLOCK_RTOL * np.abs(ref).max(), key


def test_groups_and_path_choice(flying_pair, slider_crank, closed_loop):
    """Dense on the bundled scenarios, short spherical chains and a
    revolute chain (one group); blocks from five spherical bodies up and on
    the mixed chain, whose groups end at its spherical pairs."""
    rng = np.random.default_rng(SEED)
    for sys, _ in (flying_pair, slider_crank, closed_loop):
        assert not isinstance(sys._newton_blocks, _JointSchur)
    for bodies in (2, 3, 4):
        assert not isinstance(_spherical_chain(bodies, rng)._newton_blocks, _JointSchur)
    for bodies in (5, 8, 24):
        sys = _spherical_chain(bodies, rng)
        assert _group_sizes(sys._newton_blocks.blocks) == [(bodies, 18)]

    sys = _revolute_chain(24, rng)
    assert _group_sizes(_newton_groups(sys)) == [(1, 24 * 18)]
    assert not isinstance(sys._newton_blocks, _JointSchur)

    sys = _pendulum_chain(24, rng)
    assert _group_sizes(sys._newton_blocks.blocks) == [(1, 4 * 18), (4, 5 * 18)]
    vel, mult = sys._newton_blocks.blocks[1].vel, sys._newton_blocks.blocks[1].mult
    npt.assert_array_equal(vel[1], np.arange(5 * 12, 10 * 12))
    npt.assert_array_equal(mult[1], np.arange(5 * 6, 10 * 6))


SOLVER_MAPS = {"_newton_blocks", "_augmented_blocks"}


@pytest.mark.parametrize("scheme", ["mp", "mp-ggl"])
def test_solver_maps_are_built_on_first_step(scheme, monkeypatch):
    """Building a system, checking its state and coupling its bodies build
    none of the Newton update's maps; the first step of either scheme
    groups the bodies once and keeps the path choice."""
    grouped = []
    monkeypatch.setattr(assembly, "_newton_groups",
                        lambda sys: grouped.append(sys) or _newton_groups(sys))
    sys, state = build_system(load_scenario("slider_crank"))
    assert not SOLVER_MAPS & vars(sys).keys()
    couple(sys, state.q, state.v, state.lam)
    consistency(sys, state.q, state.v)
    assert not SOLVER_MAPS & vars(sys).keys()
    assert grouped == []
    integrate.step(sys, state, integrate.IntegratorConfig(h=0.01, t_end=0.01, scheme=scheme))
    assert "_newton_blocks" in vars(sys)
    assert not isinstance(sys._newton_blocks, _JointSchur)
    assert grouped == [sys]


@pytest.mark.parametrize("scenario", ["slider_crank", "closed_loop"])
def test_losing_count_builds_no_blocks(scenario, monkeypatch):
    """Where the groups' count loses to the dense LU before its joint rows
    are priced, the path is decided without building the groups' blocks:
    the only _GroupBlocks built is the one group of every unknown."""
    built = []
    monkeypatch.setattr(assembly, "_GroupBlocks",
                        lambda *args: built.append(args) or _GroupBlocks(*args))
    sys, _ = build_system(load_scenario(scenario))
    assert sum(len(vel) for vel, _ in _newton_groups(sys)) > 1
    assert not isinstance(sys._newton_blocks, _JointSchur)
    [(built_sys, vel, mult)] = built
    assert built_sys is sys
    npt.assert_array_equal(vel, np.arange(sys.n)[None])
    npt.assert_array_equal(mult, np.arange(sys.m)[None])


def test_jointless_bodies_take_blocks_with_empty_schur_system():
    """Without joints every body is its own group and the Schur system on
    the joint multipliers is 0 x 0."""
    rng = np.random.default_rng(SEED)
    sys, state = _free_bodies(8, rng)
    assert sys.m == sys.m_internal
    assert _group_sizes(sys._newton_blocks.blocks) == [(8, 18)]
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
    assert isinstance(sys._newton_blocks, _JointSchur)
    q, v = state.q.copy(), state.v.copy()
    q[3 * 12 + 3:4 * 12] = 0.0
    v[3 * 12 + 3:4 * 12] = 0.0
    state = SystemState(0.0, q, v, state.lam)
    h = 0.01
    result = newton_solve(lambda y: midpoint_linearization(sys, state, y, h),
                          np.concatenate([q + h * v, v, state.lam]))
    assert not result.converged
    assert result.message == "singular Newton matrix"


def test_singular_start_of_the_augmented_corrector_is_reported():
    """On the same singular body the augmented scheme's plain-midpoint start
    falls back to the guess, and its own corrector reports the singular
    matrix after 0 iterations."""
    rng = np.random.default_rng(SEED)
    sys, state = _free_bodies(8, rng)
    q, v = state.q.copy(), state.v.copy()
    q[3 * 12 + 3:4 * 12] = 0.0
    v[3 * 12 + 3:4 * 12] = 0.0
    state = SystemState(0.0, q, v, state.lam, np.zeros(sys.m))
    config = integrate.IntegratorConfig(h=0.01, t_end=0.01, scheme="mp-ggl")
    with pytest.raises(integrate.IntegrationError, match="singular Newton matrix") as err:
        integrate.step(sys, state, config)
    assert err.value.iterations == 0


def test_loaded_block_update_matches_full_newton_step():
    """Loads on two bodies of a spherical chain: their (9, 9) director
    blocks W, values on the pattern of K, enter the group saddle blocks
    directly, and the update is still the Newton step of the full (2n + m)
    midpoint system."""
    rng = np.random.default_rng(SEED)
    chain, q = _pendulum_chain_config(6, rng, ("spherical",))
    loads = [BodyLoad(1, lambda t: np.array([0.3, -0.2, 0.5, 0.1, 0.4, -0.3]) * (1.0 + t),
                      np.array([0.05, -0.1, 0.2])),
             BodyLoad(4, lambda t: np.array([-0.6, 0.1, 0.2, -0.2, 0.05, 0.3]) * np.cos(t),
                      np.array([-0.1, 0.02, -0.15]))]
    sys = MultibodySystem(chain.bodies, chain.joints, loads)
    assert isinstance(sys._newton_blocks, _JointSchur)
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
    assert isinstance(sys._newton_blocks, _JointSchur)
    h = 0.01
    y = _random_iterate(sys, state, h, rng)
    assert sys.n == 288 and sys.m == 218
    peak = _traced_peak(lambda: midpoint_linearization(sys, state, y, h)[1]())
    assert peak <= UPDATE_ALLOCATION_BOUND, peak
    peak = _traced_peak(lambda: consistency(sys, state.q, state.v))
    assert peak <= CONSISTENCY_ALLOCATION_BOUND, peak
