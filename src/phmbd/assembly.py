"""Assembly of multibody systems from bodies, pairs, and applied loads.

The system state is x = (q, v, lambda) with q and v the stacked body
configurations and velocities (12 per body) and lambda the constraint
multipliers, internal orthonormality rows first (6 per body, in body
order), then the joint rows in declaration order. The dynamics take the
differential-algebraic form

    E x_dot = J(x) z(x) + B(q) u,    E^T z = grad H,

with skew-symmetric J, so the Hamiltonian obeys dH/dt = y^T u with the
collocated output y = B^T z. ph_operators gives (E, J, z), ggl_operators
those of the index-reduced form with a multiplier block gamma for the
velocity constraints, each at its own size from one builder (_operators)
that interconnect.couple calls too.
port_flow writes J z + B u once as the flow (w, p): the configuration
rate w = v + M^-1 G^T gamma, which is also the collocated output, and the
momentum rate p. Both midpoint schemes (phmbd.integrate) and the discrete
power balance (phmbd.diagnostics) take their rows from it.

All constraints are quadratic in q, so the whole constraint layer is three
constants fixed when the system is built: g0 = g(0), G0 = G(0) and the
nonzeros of the constant row Hessians H[i, a, b], kept as flat COO
arrays. Every later evaluation is a fixed sparse contraction:

    G(q) = G0 + H q,    g(q) = g0 + G0 q + (H q) q / 2,
    D(v) = H v,         K(lambda) = sum_i lambda_i H_i.

The sparsity of G, D and K is therefore fixed too. The kernel computes
only their values on two patterns built with the system (_Pattern): the
entries (i, a) of G0 and H for G and D, and for K the entries (a, b) of H
and of every load's director block (below), each with one np.bincount
over H. Products such as G w and G^T lambda work on those values, and
g(q) and G(q) x of many rows at once take the same bincounts over all
rows (_constraint_values); stack_constraints,
constraint_velocity_gradient and constraint_hessian_contraction scatter
them into the dense matrices that the full Newton matrices
(integrate.midpoint_jacobian, ggl_jacobian) need, as the operator triples
do with G and D (_Pattern.dense). The reduced Newton matrices that the
corrector solves take the values at flat positions fixed per system
instead, with no dense K, G or D formed.

Each applied load (BodyLoad) is a wrench u = (F, tau) at the arm
r = r_material d of its body. Its generalized force f = B(q) u and the
configuration slope W of f, one (9, 9) block on the body's directors, are
both written from r and the moment c = r x F + tau, over all loads at
once (_load_moments), but once each by input_assembly and
_input_map_blocks: twice per loaded Newton iteration (ROADMAP.md, item 18).
Summed onto the pattern of K (_input_map_values), W is values there too.

The constants are exact: every row is a dot-product row of a table, the
pairs' (phmbd.joints) and the six orthonormality rows of each body
(_ORTHONORMALITY) alike, and g0, G0 and H are written from the tables
directly (_constant_tensors), with zeros wherever the tables have them.
Each reduced Newton matrix is filled and solved by one map kept with the
system, which takes its velocity block as one vector K - W. The first mp
Newton update groups the bodies that H couples (_newton_groups) and
decides once, by an operation count on their shapes (_blocks_pay),
whether the mp map eliminates those groups one by one (_JointSchur, the
block path) or solves one dense system. One map places the pattern values
in either (_GroupBlocks): per group size for the former; for the dense
matrix it is the one group of every velocity and multiplier, and the
mp-ggl matrix adds its gamma blocks to that group at size n + 2m
(_AugmentedBlocks). Both maps are built on
first use, so a system that is never stepped holds only its constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable

import numpy as np

# angular_momentum, external_wrench_map, internal_constraints and
# internal_constraint_gradient are no longer called here (the
# orthonormality rows are a row table, _ORTHONORMALITY); they stay
# importable from this module because perfbench/tracer.py wraps them by
# these names.
from .directors import (
    _cross,
    _dots,
    angular_momentum,
    external_wrench_map,
    hat,
    internal_constraint_gradient,
    internal_constraints,
)
from .joints import GROUND_CONFIG, CompiledJoint

__all__ = [
    "BodyLoad",
    "MultibodySystem",
    "SystemState",
    "stack_constraints",
    "constraint_velocity_gradient",
    "constraint_hessian_contraction",
    "potential",
    "hamiltonian",
    "total_angular_momentum",
    "input_assembly",
    "input_map_jacobian",
    "ph_operators",
    "ggl_operators",
    "port_flow",
    "consistency",
]


@dataclass(frozen=True)
class BodyLoad:
    """Time-dependent wrench applied to one body.

    wrench(t) returns the 6-vector (F, tau) in inertial components; the
    force acts at the material point r_material (director components).
    """

    body: int
    wrench: Callable[[float], np.ndarray]
    r_material: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass(frozen=True)
class SystemState:
    """State snapshot (t, q, v, lambda[, gamma]) of an assembled system."""

    t: float
    q: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray | None = None


class MultibodySystem:
    """A set of rigid bodies coupled by compiled kinematic pairs.

    Attributes:
        bodies: tuple of RigidBody, indices dense from zero
        joints: tuple of CompiledJoint in declaration order
        loads: tuple of BodyLoad
        n: configuration dimension, 12 per body
        m_internal: number of orthonormality rows, 6 per body
        m: total constraint count
        mass_diag: diagonal of the constant mass matrix, shape (n,)
    """

    def __init__(self, bodies, joints=(), loads=()):
        bodies = tuple(bodies)
        if not bodies:
            raise ValueError("a system needs at least one body")
        indices = [b.index for b in bodies]
        if sorted(indices) != list(range(len(bodies))):
            raise ValueError(f"body indices must be dense from 0, got {indices}")
        self.bodies = tuple(sorted(bodies, key=lambda b: b.index))
        self.joints = tuple(joints)
        self.loads = tuple(loads)
        for joint in self.joints:
            if not isinstance(joint, CompiledJoint):
                raise TypeError("joints must be compiled before assembly")
            if not (0 <= joint.body_a < len(bodies) and 0 <= joint.body_b < len(bodies)):
                raise ValueError(f"joint references unknown body ({joint.body_a}, {joint.body_b})")
        for load in self.loads:
            if not 0 <= load.body < len(bodies):
                raise ValueError(f"load references unknown body {load.body}")

        self.n = 12 * len(self.bodies)
        self.m_internal = 6 * len(self.bodies)
        self.m = self.m_internal + sum(j.count for j in self.joints)
        # each body's mass on its position and Euler value E_i on director
        # i (directors.mass_matrix)
        mass = np.array([b.mass for b in self.bodies], dtype=float)
        diag = np.column_stack([mass, [b.euler_values for b in self.bodies]])
        self.mass_diag = np.repeat(diag, 3, axis=1).ravel()
        self.mass_diag_inv = 1.0 / self.mass_diag

        # gravity potential is linear, so its gradient is constant
        grad = np.zeros((len(self.bodies), 4, 3))
        grad[:, 0] = -mass[:, None] * [b.gravity for b in self.bodies]
        self._grad_potential = grad.ravel()

        # each load fills its body's 12 coordinates with its force, whose
        # slope is one (9, 9) block on the body's directors (_input_map_blocks)
        self._load_arms = np.array([load.r_material for load in self.loads],
                                   dtype=float).reshape(-1, 3)
        self._load_coords = 12 * np.array([load.body for load in self.loads],
                                          dtype=int)[:, None] + np.arange(12)
        self._load_directors = directors = self._load_coords[:, 3:].copy()
        load_flat = (directors[:, :, None] * self.n + directors[:, None]).ravel()

        self._g0, (G0_rows, G0_cols, G0), (rows, a, b, self._H_values) = _constant_tensors(self)
        self._H_rows, self._H_b = rows, b
        # G and D live on the entries of G0 and of H's (i, a), K on H's
        # (a, b) and the loads' blocks, so that K - W is one vector; the
        # inverses give the bin of each entry in its pattern
        G_flat, G_bins = np.unique(np.concatenate([G0_rows * self.n + G0_cols,
                                                   rows * self.n + a]), return_inverse=True)
        K_flat, K_bins = np.unique(np.concatenate([a * self.n + b, load_flat]), return_inverse=True)
        self._H_in_K, self._W_in_K = K_bins[:a.size], K_bins[a.size:]
        self._G_pattern = _Pattern((self.m, self.n), G_flat)
        self._K_pattern = _Pattern((self.n, self.n), K_flat)
        self._G0_values = np.zeros(G_flat.size)
        self._G0_values[G_bins[:G0.size]] = G0
        self._H_in_G = G_bins[G0.size:]

    @cached_property
    def _newton_blocks(self):
        """The map that fills and solves the reduced mp Newton matrix: the
        block path (_JointSchur) where an operation count says it beats one
        dense LU (_blocks_pay), else the _GroupBlocks of the one group of
        every unknown. One Newton group is the dense matrix with its joint
        rows eliminated last, in more LAPACK calls (24 revolute bodies: 1.26
        times the dense update), so it never pays. The groups' blocks are
        built only where the count without their joint rows does not
        already lose (slider_crank, closed_loop): every term in wj is
        non-negative."""
        groups = _newton_groups(self)
        shapes = [(len(vel), vel.shape[1] + mult.shape[1], vel.shape[1], 0)
                  for vel, mult in groups]
        if sum(len(vel) for vel, _ in groups) > 1 and _blocks_pay(self, shapes):
            blocks = tuple(_GroupBlocks(self, vel, mult) for vel, mult in groups)
            if _blocks_pay(self, [blk.A.shape[:2] + (blk.nv, blk.joint.shape[1])
                                  for blk in blocks]):
                return _JointSchur(self, blocks)
        return _GroupBlocks(self, np.arange(self.n)[None], np.arange(self.m)[None])

    @cached_property
    def _augmented_blocks(self):
        """_AugmentedBlocks of the mp-ggl update, built on first use."""
        return _AugmentedBlocks(self)

    def body_config(self, q, index):
        return q[12 * index:12 * index + 12]


class _Pattern:
    """Fixed sparsity pattern of a matrix of the given shape.

    flat holds the row-major flat indices of its entries, in increasing
    order; a matrix on the pattern is the vector of its values there.
    """

    def __init__(self, shape, flat):
        self.shape = shape
        self.flat = flat
        self.row, self.col = np.divmod(flat, shape[1])

    def times(self, values, x):
        """A x for the matrix A with these values."""
        return np.bincount(self.row, values * x[self.col], minlength=self.shape[0])

    def transpose_times(self, values, y):
        """A^T y for the matrix A with these values."""
        return np.bincount(self.col, values * y[self.row], minlength=self.shape[1])

    def dense(self, values):
        """The matrix with these values, as a dense array."""
        A = np.zeros(self.shape)
        A.ravel()[self.flat] = values
        return A


# The six orthonormality rows of one body as a row table (alpha, beta, u0,
# w0, c) on its blocks (phi, d1, d2, d3), in the order of
# directors.internal_constraints: |d_i|^2 / 2 - 1/2 is (e_i / 2, e_i, 1/2)
# and d_i . d_j is (e_i, e_j, 0). Blocks 4-7 (a pair's body B) stay zero.
_DIRECTOR_ROWS = ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))
_ORTHONORMALITY = (
    np.array([np.eye(8)[i] * (0.5 if i == j else 1.0) for i, j in _DIRECTOR_ROWS]),
    np.array([np.eye(8)[j] for _, j in _DIRECTOR_ROWS]),
    np.zeros((6, 3)),
    np.zeros((6, 3)),
    np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.0]),
)


def _row_tensors(alpha, beta, u0, w0, c, cols):
    """g0, G0 and H (_constant_tensors) of the row table (alpha, beta, u0,
    w0, c) whose row r acts on the 24 columns cols[r], rows counted from 0.

    H's entries are the nonzeros of the (rows, 8, 8) block weights S, each
    run of one (row, p) repeated once per component k.
    """
    g0 = (u0 * w0).sum(axis=1) - c
    G0 = (alpha[:, :, None] * w0[:, None] + beta[:, :, None] * u0[:, None]).reshape(-1, 24)
    r, a = np.nonzero(G0)
    # S is zero on a row without both factors (a gap row with w0 a unit vector)
    live = np.flatnonzero(alpha.any(axis=1) & beta.any(axis=1))
    alpha, beta = alpha[live], beta[live]
    S = alpha[:, :, None] * beta[:, None] + beta[:, :, None] * alpha[:, None]
    r2, p, p2 = np.nonzero(S)
    # the nonzeros of one (row, p) are a run; nonzero e of a run of n from
    # e0 goes to 3 e0 + k n + (e - e0) for each k
    n = np.count_nonzero(S, axis=2).ravel()
    n = n[n > 0]
    at = (2 * np.repeat(np.cumsum(n) - n, n) + np.arange(r2.size)
          + np.arange(3)[:, None] * np.repeat(n, n))
    e, k = np.empty((2, 3 * r2.size), dtype=int)
    e[at], k[at] = np.arange(r2.size), np.arange(3)[:, None]
    i, p, p2 = r2[e], p[e], p2[e]
    r2 = live[i]
    return (g0, (r, cols[r, a], G0[r, a]),
            (r2, cols[r2, 3 * p + k], cols[r2, 3 * p2 + k], S[i, p, p2]))


# the tensors of one body's orthonormality rows, on its own 12 columns
_BODY_TENSORS = _row_tensors(*_ORTHONORMALITY, np.tile(np.arange(12), (6, 2)))


def _constant_tensors(sys):
    """g0 = g(0) and the nonzeros of G0 = G(0) and of the Hessians H[i, a, b].

    All constraints are quadratic in q, so these three constants give g, G
    and their derivatives everywhere. They come from one row table: each
    body's orthonormality rows (_ORTHONORMALITY), then the rows of every
    pair (phmbd.joints.compile_joints). Row r is u . w - c with
    u = sum_p alpha_p X_p + u0 and w = sum_p beta_p X_p + w0 over the
    3-blocks X_p of its two bodies (one body, twice, for the
    orthonormality rows). A ground pair's B blocks are held at GROUND_CONFIG
    and folded into u0 and w0 first. Then, at q = 0, on blocks p, p' and components k, k',

        g0 = u0 . w0 - c,    G0[(p, k)] = alpha_p w0_k + beta_p u0_k,
        H[(p, k), (p', k')] = S[p, p'] [k == k'],    S = alpha beta^T + beta alpha^T,

    exact, and zero wherever the table is (_row_tensors). The
    orthonormality rows are the same for every body, so their part is
    computed once (_BODY_TENSORS) and moved to each body's rows and
    columns; the pairs' rows take one pass. G0 comes back as COO arrays
    (rows, cols, values) and H as (rows, a, b, values), sorted by row, then
    by the row-local a, then b, body A before body B.
    """
    nb, joints = len(sys.bodies), sys.joints
    row, col = 6 * np.arange(nb)[:, None], 12 * np.arange(nb)[:, None]
    g0, (r, a, G0), (r2, a2, b2, H) = _BODY_TENSORS
    parts = [(np.tile(g0, nb), (r + row).ravel(), (a + col).ravel(), np.tile(G0, nb),
              (r2 + row).ravel(), (a2 + col).ravel(), (b2 + col).ravel(), np.tile(H, nb))]
    if joints:
        alpha, beta, u0, w0, c = (np.concatenate(column) for column in
                                  zip(*((j.alpha, j.beta, j.u0, j.w0, j.c) for j in joints)))
        count = [j.count for j in joints]
        ground = np.repeat([j.is_ground for j in joints], count)
        ground_blocks = GROUND_CONFIG.reshape(4, 3)
        u0[ground] += alpha[ground, 4:] @ ground_blocks
        w0[ground] += beta[ground, 4:] @ ground_blocks
        alpha[ground, 4:] = beta[ground, 4:] = 0.0
        # column of each of the 24 coordinates (q_A, q_B) of each row
        bodies = np.repeat([(j.body_a, j.body_b) for j in joints], count, axis=0)
        cols = (12 * bodies[:, :, None] + np.arange(12)).reshape(-1, 24)
        g0, (r, a, G0), (r2, a2, b2, H) = _row_tensors(alpha, beta, u0, w0, c, cols)
        parts.append((g0, r + 6 * nb, a, G0, r2 + 6 * nb, a2, b2, H))
    g0, r, a, G0, r2, a2, b2, H = (np.concatenate(x) for x in zip(*parts))
    return g0, (r, a, G0), (r2, a2, b2, H)


def _newton_groups(sys):
    """Bodies coupled by the constraint Hessians, bucketed by group size.

    The groups are the connected components of the graph on the bodies
    whose edges are the Hessian nonzeros H[i, a, b] with a and b in
    different bodies. Every pair type but the spherical one is bilinear
    across its two bodies, so a revolute chain is one group and a spherical
    chain one group per body; orthonormality rows, ground pairs and loads
    never couple two bodies. Returns one (vel, mult) pair per group size,
    in increasing size: vel[g] holds the velocity indices of group g's
    bodies (12 each) and mult[g] the indices of their orthonormality rows
    (6 each), shapes (k, 12 b) and (k, 6 b) for the k groups of b bodies.
    """
    body_a = sys._K_pattern.row // 12
    body_b = sys._K_pattern.col // 12
    cross = body_a != body_b
    ea, eb = body_a[cross], body_b[cross]
    # each body takes the smallest label along its edges, then its label's
    # label, until no label moves: then every group carries its first body
    label = np.arange(len(sys.bodies))
    while True:
        new = label.copy()
        low = np.minimum(label[ea], label[eb])
        np.minimum.at(new, ea, low)
        np.minimum.at(new, eb, low)
        new = new[new]
        if (new == label).all():
            break
        label = new
    size = np.bincount(label, minlength=label.size)
    groups = []
    for b in sorted(set(size[size > 0].tolist())):
        first = np.flatnonzero(size == b)
        # row g lists the bodies labelled first[g], in increasing order
        members = np.nonzero(label == first[:, None])[1].reshape(first.size, b)
        groups.append(((12 * members[:, :, None] + np.arange(12)).reshape(first.size, -1),
                       (6 * members[:, :, None] + np.arange(6)).reshape(first.size, -1)))
    return tuple(groups)


class _GroupBlocks:
    """Where the reduced Newton matrix of midpoint_linearization takes the
    pattern values, for the k groups of one size.

    Group g holds the nv velocities vel[g] and the nm multipliers mult[g],
    the unknowns idx[g] = (vel[g], n + mult[g]) of (u, lambda), in a square
    block of size s (nv + nm unless given). Every other multiplier row is
    a joint row. Per group

        A_g  (s, s):   [[M + (h^2/4)(K - W), h G_in^T], [(h/2) Gs_in, 0]],
        B_g  (nv, wj): h G_out^T on the group's velocities,
        C_g  (wj, nv): (h/2) Gs_out on the group's velocities,

    with G_in on the group's own rows and G_out on the joint rows that
    touch the group, padded to a common width wj (_joint_slots). The dense
    reduced matrix is A[0] of the one group of every velocity and
    multiplier, where wj = 0, and solve solves it by one LU.

    B_g is kept as the leading block of the right-hand side R_g (s, wj + 1)
    of the block path's batched solve A_g^-1 R_g (_JointSchur.solve):
    R_g = [[B_g, b_v], [0, b_m]], whose last column the solve writes with
    the group's entries of the right-hand side b; B is a view of R.

    No entry of K - W or an orthonormality row couples two groups. The
    entries K_in of K - W, on the pattern of K, go to K_at and M to the
    diagonal at diag_at; G_in goes to GT_at and Gs_at, G_out to B_at (in
    R) and C_at. A selection of a whole pattern is a full slice. schur_at
    places C_g A_g^-1 R_g in one vector that holds the (mj, mj) Schur
    matrix, then its mj right-hand side entries, then one bin for the
    padding. columns[g] indexes each column of R_g into (x_j, a padded
    slot, b's column), so it is mj for a padded slot and mj + 1 for b's
    column. fill overwrites the buffers A, B and C, kept with the system,
    so one system is stepped by one thread at a time; B and C are zero
    outside their maps, and R below B.
    """

    def __init__(self, sys, vel, mult, size=None):
        n, m = sys.n, sys.m
        mj = m - sys.m_internal
        (k, nv), nm = vel.shape, mult.shape[1]
        s = nv + nm if size is None else size
        self.vel, self.mult, self.nv = vel, mult, nv
        self.idx = np.concatenate([vel, n + mult], axis=1)
        self.mass = sys.mass_diag[vel].ravel()
        # group and local index of each velocity and multiplier row, -1
        # outside these groups
        group, local = np.full(n, -1), np.full(n, -1)
        group[vel], local[vel] = np.arange(k)[:, None], np.arange(nv)
        row_local = np.full(m, -1)
        row_local[mult] = nv + np.arange(nm)
        inside = row_local >= 0

        Kp, Gp = sys._K_pattern, sys._G_pattern
        K_in = np.flatnonzero(group[Kp.row] >= 0)
        a, b = Kp.row[K_in], Kp.col[K_in]
        self.K_at = (group[a] * s + local[a]) * s + local[b]
        self.K_in = K_in if K_in.size < Kp.flat.size else slice(None)
        self.diag_at = (group[vel] * s * s + local[vel] * (s + 1)).ravel()

        G_in = np.flatnonzero(inside[Gp.row] & (group[Gp.col] >= 0))
        a, r = Gp.col[G_in], Gp.row[G_in]
        self.GT_at = (group[a] * s + local[a]) * s + row_local[r]
        self.Gs_at = (group[a] * s + row_local[r]) * s + local[a]
        self.G_in = G_in if G_in.size < Gp.flat.size else slice(None)

        self.G_out, slot, self.joint = _joint_slots(sys, group, inside)
        wj = self.joint.shape[1]
        a = Gp.col[self.G_out]
        self.B_at = (group[a] * s + local[a]) * (wj + 1) + slot
        self.C_at = (group[a] * wj + slot) * nv + local[a]
        real = self.joint < mj
        self.schur_at = np.empty((k, wj, wj + 1), dtype=int)
        self.schur_at[:, :, :wj] = np.where(real[:, :, None] & real[:, None, :],
                                            self.joint[:, :, None] * mj + self.joint[:, None, :],
                                            mj * mj + mj)
        self.schur_at[:, :, wj] = mj * mj + self.joint  # a padded row's is mj^2 + mj
        self.columns = np.concatenate([self.joint, np.full((k, 1), mj + 1)], axis=1)

        self.A = np.empty((k, s, s))
        self.R = np.zeros((k, s, wj + 1))
        self.B = self.R[:, :nv, :wj]
        self.C = np.zeros((k, wj, nv))

    def fill(self, h, K, G, Gs):
        """Overwrite A and the mapped entries of B and C for K = K(lambda) - W
        on the pattern of K, and G = G(q_mid) and Gs = G(q_mid + h w / 2) on
        the pattern of G (integrate.midpoint_linearization)."""
        self.A.fill(0.0)
        flat = self.A.ravel()
        flat[self.K_at] = (0.25 * h * h) * K[self.K_in]
        flat[self.diag_at] += self.mass
        flat[self.GT_at] = h * G[self.G_in]
        flat[self.Gs_at] = (0.5 * h) * Gs[self.G_in]
        if self.B.size:
            self.R.ravel()[self.B_at] = h * G[self.G_out]
            self.C.ravel()[self.C_at] = (0.5 * h) * Gs[self.G_out]

    def solve(self, h, K, G, Gs, b, *gamma):
        """fill, then solve A[0] x = b by one LU (np.linalg.LinAlgError when
        singular): the matrix of the one group of every unknown."""
        self.fill(h, K, G, Gs, *gamma)
        return np.linalg.solve(self.A[0], b)


class _JointSchur:
    """The reduced mp Newton matrix solved group by group: the block path.

    MultibodySystem._newton_blocks takes this path where an operation
    count, taken once on the system's first mp Newton update, says it beats
    one dense LU of size n + m (_blocks_pay): larger systems of small
    groups, such as spherical chains of five bodies or more. blocks are the
    _GroupBlocks of the Newton groups, one per group size (_newton_groups).
    No entry of K - W or an orthonormality row couples two groups, so
    ordering each group's velocities and orthonormality multipliers together
    makes the matrix

        [E  B]    E block-diagonal with one saddle block A_g per group,
        [C  0]    B = h G_out^T and C = (h/2) Gs_out on the joint rows

    with B and C nonzero only in velocity rows and columns. The pattern
    values go straight into each group size's buffers (_GroupBlocks.fill),
    with no (n, n), (m, n) or (n, mj) array.
    Each size of group takes one batched solve X_g = A_g^-1 [B_g, b_g] of
    its saddle blocks against the wj + 1 columns of R_g, which pivots
    across the velocity and multiplier rows: eliminating the velocity block
    alone loses digits when a body has near-zero Euler values. One product
    C_g X_g gives both the Schur entries C_g A_g^-1 B_g and the right-hand
    side C_g A_g^-1 b_g, summed from the groups into the Schur system on
    the mj = m - m_internal joint multipliers,
    (sum_g C_g A_g^-1 B_g) x_j = sum_g C_g A_g^-1 b_g - b_j, which one
    np.linalg.solve solves; then x_g = X_g [-x_j; 1]. An update takes one
    np.linalg.solve per size of group and one for the Schur system.
    """

    def __init__(self, sys, blocks):
        self.blocks, self.n, self.mi = blocks, sys.n, sys.m_internal
        self.mj = sys.m - sys.m_internal

    def solve(self, h, K, G, Gs, b):
        """Solve A x = b for the reduced matrix A of K, G and Gs (the
        arguments of _GroupBlocks.fill). Raises np.linalg.LinAlgError when
        a saddle block or the Schur system is singular."""
        n, mi, mj = self.n, self.mi, self.mj
        # the Schur matrix, its right-hand side and a last bin for the padding
        S = np.zeros(mj * mj + mj + 1)
        parts = []
        for blk in self.blocks:
            blk.fill(h, K, G, Gs)
            blk.R[:, :, -1] = b[blk.idx]
            X = np.linalg.solve(blk.A, blk.R)
            S += np.bincount(blk.schur_at.ravel(), (blk.C @ X[:, :blk.nv]).ravel(),
                             minlength=S.size)
            parts.append((blk, X))
        # [-x_j, 0 for the padded slots, 1 for b's column]
        t = np.zeros(mj + 2)
        t[:mj] = np.linalg.solve(S[:mj * mj].reshape(mj, mj), b[n + mi:] - S[mj * mj:-1])
        t[mj + 1] = 1.0
        x = np.empty(b.size)
        x[n + mi:] = -t[:mj]
        for blk, X in parts:
            x[blk.idx] = (X @ t[blk.columns, None])[..., 0]
        return x


class _AugmentedBlocks(_GroupBlocks):
    """Where the mp-ggl reduced Newton matrix takes its values.

    That matrix (integrate.midpoint_linearization) is s = n + 2m square,
    with the unknowns (u, lambda, gamma) at offsets 0, n and n + m. Its
    plain scheme's blocks go where the one group of every velocity and
    multiplier puts them at this size (_GroupBlocks). Beyond those it
    holds a G^T-shaped (u, gamma) block and a G-shaped (gamma, u) block,
    each on the pattern of G (their entries go to the flat positions DG_at
    and Gg_at), minus the four products

        Q = [(h/2) Kg; Gs] M^-1 [(h/2) Kg, 2 G^T],    Kg = K(gamma),

    of matrices on the patterns of K and G. Kg, without loads, is zero on
    the entries of K that only the loads' blocks put there, so the K factor
    takes H's entries of K alone. An entry of Q is a sum over the column
    pairs the two factors share, so with left = [(h/2) Kg; Gs] and
    right = [(h/2) Kg; 2 G] as stacked pattern values, Q's values are

        bincount(Q_bins, left[Q_left] * right[Q_right] * Q_weight),

    with Q_weight the M^-1 of each pair's shared column, at the flat
    positions Q_at. No product forms a dense matrix.
    """

    def __init__(self, sys):
        n, m = sys.n, sys.m
        s, gam = n + 2 * m, n + m
        super().__init__(sys, np.arange(n)[None], np.arange(m)[None], s)
        Kp, Gp = sys._K_pattern, sys._G_pattern
        self.DG_at = Gp.col * s + gam + Gp.row
        self.Gg_at = (gam + Gp.row) * s + Gp.col
        # each factor's entries as rows, columns and places in the stacked
        # values, and the offset of its rows in the matrix (K(gamma) is
        # symmetric, so its rows serve as the columns of the right factor);
        # K(gamma) has no loads, so its entries are H's alone (np.unique
        # without an inverse would import numpy.ma, 1 MB of peak memory)
        K_in = np.flatnonzero(np.bincount(sys._H_in_K, minlength=Kp.flat.size))
        factors = ((Kp.row[K_in], Kp.col[K_in], K_in, 0),
                   (Gp.row, Gp.col, Kp.flat.size + np.arange(Gp.flat.size), gam))
        parts = []
        for (x_row, x_col, x_val, x_at), (y_row, y_col, y_val, y_at) in product(factors,
                                                                                 repeat=2):
            i, j = _shared_columns(x_col, y_col)
            parts.append((x_val[i], y_val[j], x_col[i], (x_at + x_row[i]) * s + y_at + y_row[j]))
        left, right, col, at = (np.concatenate(p) for p in zip(*parts))
        self.Q_left, self.Q_right = left, right
        self.Q_weight = sys.mass_diag_inv[col]
        self.Q_at, self.Q_bins = np.unique(at, return_inverse=True)

    def products(self, left, right):
        """Q's values at Q_at from the stacked pattern values left and right."""
        return np.bincount(self.Q_bins, left[self.Q_left] * right[self.Q_right] * self.Q_weight,
                           minlength=self.Q_at.size)

    def fill(self, h, K, G, Gs, Q, Gg, DG):
        """_GroupBlocks.fill, then place the gamma blocks Gg and DG on the
        pattern of G and subtract Q's values."""
        super().fill(h, K, G, Gs)
        flat = self.A.ravel()
        flat[self.DG_at] = DG
        flat[self.Gg_at] = Gg
        flat[self.Q_at] -= Q


def _shared_columns(x_col, y_col):
    """Every pair (i, j) of an entry i of columns x_col and an entry j of
    columns y_col in the same column."""
    order = np.argsort(y_col, kind="stable")
    start = np.searchsorted(y_col[order], x_col, "left")
    count = np.searchsorted(y_col[order], x_col, "right") - start
    i = np.repeat(np.arange(x_col.size), count)
    # position of each pair within its entry i's run of matches
    k = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    return i, order[start[i] + k]


def _joint_slots(sys, group, inside):
    """The joint rows that touch each group, from the pattern of G.

    group[a] is the group of velocity a, or -1 outside the groups, and
    inside[i] whether multiplier row i is the groups' own; every other row
    is a joint row. Returns (entries, slot, joint): the entries of the G
    pattern in rows outside and in the groups' columns, the place of each
    entry's row in its group's list, and the lists, joint[g] the
    joint-multiplier indices (rows minus m_internal) in increasing order,
    padded with mj = m - m_internal to the longest list, shape (k, wj).
    """
    m, mi = sys.m, sys.m_internal
    k = group.max() + 1
    Gp = sys._G_pattern
    entries = np.flatnonzero(~inside[Gp.row] & (group[Gp.col] >= 0))
    pairs, pair_of = np.unique(group[Gp.col[entries]] * m + Gp.row[entries] - mi,
                               return_inverse=True)
    pair_group = pairs // m
    count = np.bincount(pair_group, minlength=k)
    slot = np.arange(pairs.size) - (np.cumsum(count) - count)[pair_group]
    joint = np.full((k, count.max(initial=0)), m - mi)
    joint[pair_group, slot] = pairs % m
    return entries, slot[pair_of], joint


# Fixed price of one LAPACK call in _blocks_pay's flop count, from a sweep
# of spherical chains of 2 to 12 bodies (numpy 2.4, OpenBLAS, one thread).
# The two paths measure even between 3 and 4 bodies, which a price between
# 1.5e5 and 3.8e5 would reproduce. The price sits in the middle of the range
# that switches at 5 bodies, 3.8e5 to 7.6e5, which keeps the bundled closed_loop
# (four one-body groups, even at 3.6e5) dense at a cost: its block path takes
# 0.78-0.93 of the dense update's time (best of 5 timeit rounds, one BLAS
# thread). ROADMAP item 14, step 3, re-prices it.
LAPACK_CALL_FLOPS = 5e5


def _blocks_pay(sys, shapes):
    """Whether the block elimination of the mp Newton matrix beats one dense
    solve, by an operation count with a fixed price per LAPACK call.

    Dense: one LU of size n + m. Blocks: per size of group, (k, s, nv, wj)
    in shapes, one batched solve of the k saddle blocks (s, s) against the
    wj + 1 columns of [B_g, b_g], k (2/3 s^3 + 2 s^2 (wj + 1)), and the
    product of C_g with the solution's nv velocity rows, 2 k wj nv (wj + 1),
    over its wj joint rows; then the LU of the Schur system on the
    mj = m - m_internal joint multipliers.
    """
    mj = sys.m - sys.m_internal
    dense = 2.0 / 3.0 * (sys.n + sys.m) ** 3 + LAPACK_CALL_FLOPS
    cost = 2.0 / 3.0 * mj ** 3 + LAPACK_CALL_FLOPS
    for k, s, nv, wj in shapes:
        cost += (2.0 / 3.0 * k * s ** 3 + LAPACK_CALL_FLOPS
                 + 2.0 * k * (wj + 1) * (s * s + wj * nv))
    return cost < dense


def _slope_values(sys, x):
    """H x on the pattern of G: the values of D(x), or of G(x) - G0."""
    return np.bincount(sys._H_in_G, sys._H_values * x[sys._H_b],
                       minlength=sys._G_pattern.flat.size)


def _jacobian_values(sys, q):
    """G(q) = G0 + H q on its pattern."""
    return sys._G0_values + _slope_values(sys, q)


def _contraction_values(sys, lam):
    """K(lambda) = sum_i lam_i H_i on its pattern."""
    return np.bincount(sys._H_in_K, sys._H_values * lam[sys._H_rows],
                       minlength=sys._K_pattern.flat.size)


def _bincount_rows(bins, weights, size):
    """np.bincount(bins, w, minlength=size) of every row w of weights, shape
    (..., bins.size), as one bincount with the bins offset by size per row.
    A single row takes the plain bincount: building the offsets costs more
    than the bincount itself there (build_system's check, a 1-D
    consistency)."""
    if weights.ndim == 1:
        return np.bincount(bins, weights, minlength=size)
    rows = weights.shape[:-1]
    at = bins + size * np.arange(math.prod(rows))[:, None]
    return np.bincount(at.ravel(), weights.ravel(),
                       minlength=math.prod(rows) * size).reshape(rows + (size,))


def _constraint_values(sys, q, x):
    """g(q) = g0 + (G0 + (H q) / 2) q and G(q) x for every row of q and x,
    shapes (..., n) to (..., m). Each product is the bincount of the step
    kernels (_slope_values, _Pattern.times) taken over all rows at once.
    The gathers use take, which costs on one row about half of x[..., idx]."""
    Gp = sys._G_pattern
    Hq = _bincount_rows(sys._H_in_G, sys._H_values * q.take(sys._H_b, axis=-1), Gp.flat.size)
    g = sys._g0 + _bincount_rows(Gp.row, (sys._G0_values + 0.5 * Hq) * q.take(Gp.col, axis=-1),
                                 sys.m)
    return g, _bincount_rows(Gp.row, (sys._G0_values + Hq) * x.take(Gp.col, axis=-1), sys.m)


def stack_constraints(sys, q):
    """All constraint values and their Jacobian at configuration q.

    Returns (g, G) with shapes (m,) and (m, n); internal rows first, then
    joint rows in declaration order. Every row is quadratic in q, so
    G(q) = G0 + H q and g(q) = g0 + G0 q + (H q) q / 2, both exact, from
    the constants g0 = g(0), G0 = G(0) and the sparse Hessian H fixed at
    construction; G is the dense scatter of its pattern values. Ground
    pairs contribute columns only for their real body.
    """
    q = np.asarray(q, dtype=float)
    return (_constraint_values(sys, q, q)[0],
            sys._G_pattern.dense(_jacobian_values(sys, q)))


def constraint_velocity_gradient(sys, v):
    """Configuration derivative of the velocity constraints, shape (m, n).

    For g quadratic in q the map q -> G(q) v is affine with constant slope
    D(v) = H v, entry (i, a) = sum_b H[i, a, b] v[b], which is exact since
    each H[i] is symmetric; it equals G(v) - G0.
    """
    return sys._G_pattern.dense(_slope_values(sys, np.asarray(v, dtype=float)))


def constraint_hessian_contraction(sys, lam):
    """Sum of constraint Hessians weighted by multipliers, K = sum_i lam_i H_i.

    Shape (n, n), accumulated from the nonzeros of H only.
    """
    return sys._K_pattern.dense(_contraction_values(sys, np.asarray(lam, dtype=float)))


def potential(sys, q):
    """Gravitational potential and its gradient at configuration q."""
    grad = sys._grad_potential
    return float(grad @ np.asarray(q, dtype=float)), grad


def hamiltonian(sys, q, v):
    """Total energy H = kinetic + potential, one per row of q and v (shape
    (..., n))."""
    q, v = np.asarray(q, dtype=float), np.asarray(v, dtype=float)
    return 0.5 * _dots(v, sys.mass_diag * v) + _dots(q, sys._grad_potential)


def total_angular_momentum(sys, q, v):
    """System angular momentum about the inertial origin, shape (3,), or
    (..., 3) for rows of q and v (shape (..., n)).

    Each body contributes x_k x (M v)_k summed over its four 3-blocks
    (phi, d1, d2, d3); the diagonal mass matrix weights the center-of-mass
    block by the mass and director block i by the Euler value E_i. The
    per-body sums are grouped as in directors.angular_momentum. The cross
    products are written out as np.cross evaluates them, without its
    per-call axis handling; np.take keeps the arrays C-ordered, so the sums
    round as they do over np.cross's result.
    """
    x = np.asarray(q, dtype=float)
    x = x.reshape(x.shape[:-1] + (len(sys.bodies), 4, 3))
    p = (sys.mass_diag * np.asarray(v, dtype=float)).reshape(x.shape)
    L = _cross(x, p)
    return (L[..., 0, :] + L[..., 1:, :].sum(axis=-2)).sum(axis=-2)


def _load_moments(sys, q, t):
    """(F, d, c) of every load at (q, t), one row per load.

    F is the force, d the directors of the load's body (as rows) and
    c = r x F + tau the moment about the center of mass, with the arm
    r = r_material d. The applied force and its slope are both written
    from these (input_assembly, _input_map_blocks).
    """
    u = np.array([load.wrench(t) for load in sys.loads], dtype=float).reshape(-1, 6)
    F, tau = u[:, :3], u[:, 3:]
    d = np.asarray(q, dtype=float)[sys._load_directors].reshape(-1, 3, 3)
    r = (sys._load_arms[:, None] @ d)[:, 0]
    return F, d, _cross(r, F) + tau


def input_assembly(sys, q, t):
    """Generalized force f = B(q) u of all applied loads at time t, shape (n,).

    Each load's wrench map (directors.external_wrench_map) puts its force
    F on the position rows of its body and -(d_i x c) / 2 on director
    block i, with c its moment (_load_moments). All loads are evaluated in
    one pass and summed per body in load order.
    """
    if not sys.loads:
        return np.zeros(sys.n)
    F, d, c = _load_moments(sys, q, t)
    # c x d_i = -(d_i x c), exactly
    f = np.concatenate([F, 0.5 * _cross(c[:, None], d).reshape(-1, 9)], axis=1)
    return np.bincount(sys._load_coords.ravel(), f.ravel(), minlength=sys.n)


# hat is linear: hat(a) = sum_i a_i hat(e_i)
_HAT_BASIS = np.stack([hat(e) for e in np.eye(3)]).reshape(3, 9)


def _hats(a):
    """directors.hat of each 3-vector of a stack a, shape (..., 3, 3)."""
    return (a @ _HAT_BASIS).reshape(a.shape + (3,))


def _input_map_blocks(sys, q, t):
    """Configuration derivative of each load's generalized force, shape
    (loads, 9, 9): the block on the director coordinates of its body
    (sys._load_directors), rows and columns in their order. The rows and
    columns of the center of mass are zero.

    The wrench map is linear in the directors through both the moment arm
    r = r_material d and the director distribution, so each block is
    affine in q; with c = r x F + tau, director block (i, j) is
    (r_material[j] hat(d_i) hat(F) + [i == j] hat(c)) / 2.
    """
    F, d, c = _load_moments(sys, q, t)
    # W[l, i, :, j, :] is director block (i, j) of load l
    dF = _hats(d) @ _hats(F)[:, None]
    W = (0.5 * sys._load_arms[:, None, None, :, None]) * dF[:, :, :, None, :]
    W = W.reshape(-1, 9, 9)
    half_c = 0.5 * _hats(c)
    for i in range(0, 9, 3):
        W[:, i:i + 3, i:i + 3] += half_c
    return W


def _input_map_values(sys, q, t):
    """The loads' slope W on the pattern of K: the sum of their director
    blocks (_input_map_blocks), loads on one body summed in load order."""
    return np.bincount(sys._W_in_K, _input_map_blocks(sys, q, t).ravel(),
                       minlength=sys._K_pattern.flat.size)


def input_map_jacobian(sys, q, t):
    """Configuration derivative of input_assembly, shape (n, n): the dense
    scatter of the loads' slope on the pattern of K (_input_map_values)."""
    return sys._K_pattern.dense(_input_map_values(sys, q, t))


def consistency(sys, q, v):
    """Constraint satisfaction measures (max |g|, max |G v|), one pair per
    row of q and v (shape (..., n))."""
    g, Gv = _constraint_values(sys, np.asarray(q, dtype=float), np.asarray(v, dtype=float))
    return np.abs(g).max(axis=-1), np.abs(Gv).max(axis=-1)


def _operators(sys, q, v, lam, size, rows=None):
    """(E, J, z) of the index-2 formulation in arrays of the given size, and
    the dense G = G(q): E = diag(I, M, 0), J's I / -I and -G^T / G pairs
    for the leading rows of G (all m by default), each lower block the exact
    negated transpose of its upper one, and z = (grad V, v, lam). Every
    other entry is zero, for the caller to fill (ggl_operators,
    interconnect.couple)."""
    n, m = sys.n, sys.m if rows is None else rows
    G = sys._G_pattern.dense(_jacobian_values(sys, np.asarray(q, dtype=float)))
    E, J, z = np.zeros((size, size)), np.zeros((size, size)), np.zeros(size)
    np.fill_diagonal(E[:2 * n, :2 * n], np.concatenate([np.ones(n), sys.mass_diag]))
    np.fill_diagonal(J[:n, n:2 * n], 1.0)
    np.fill_diagonal(J[n:2 * n, :n], -1.0)
    J[n:2 * n, 2 * n:2 * n + m] = -G[:m].T
    J[2 * n:2 * n + m, n:2 * n] = G[:m]
    z[:2 * n + len(lam)] = np.concatenate([sys._grad_potential, v, lam])
    return E, J, z, G


def ph_operators(sys, q, v, lam):
    """Operator triple (E, J, z) of the index-2 formulation at (q, v, lam).

    Sizes (2n + m) square; E = diag(I, M, 0), J is skew with the constraint
    Jacobian in its coupling blocks, and z = (grad V, v, lambda) satisfies
    E^T z = grad H, so J z + B u = (v, p, G v) with p the momentum rate of
    port_flow. It equals the leading block of ggl_operators at gamma = 0.
    """
    return _operators(sys, q, v, lam, 2 * sys.n + sys.m)[:3]


def ggl_operators(sys, q, v, lam, gamma):
    """Operator triple (E, J, z) of the index-reduced formulation.

    Sizes (2n + 2m) square: ph_operators' blocks, bordered by the velocity
    multipliers gamma. Their columns [M^-1 G^T; -D^T; G M^-1 G^T] enter J
    with their negated transpose as rows, and J44 = A - A^T for
    A = D M^-1 G^T with D = d/dq [G(q) v], so J stays exactly skew.
    """
    k = 2 * sys.n + sys.m
    v = np.asarray(v, dtype=float)
    E, J, z, G = _operators(sys, q, v, lam, k + sys.m)
    D = sys._G_pattern.dense(_slope_values(sys, v))
    GMinv = G * sys.mass_diag_inv
    A = (D * sys.mass_diag_inv) @ G.T
    J[:k, k:] = np.concatenate([GMinv.T, -D.T, GMinv @ G.T])
    J[k:, :k] = -J[:k, k:].T
    J[k:, k:] = A - A.T
    z[k:] = gamma
    return E, J, z


def port_flow(sys, G, v, lam, force, gamma=None, D=None):
    """Flow (w, p) of the system at a point x = (q, v, lam[, gamma]).

    G and D are the values of G(q) and D(v) on the pattern of G
    (_jacobian_values, _slope_values), and force = f - grad V(q), with f
    the applied force of the loads; all come from the caller. With the
    operators of ggl_operators at x and B u = (0, f, 0, G M^-1 f),
    J z + B u is (w, p, G w, D w + G M^-1 p): w = v + M^-1 G^T gamma is the
    configuration rate and the collocated output, p = force - G^T lam -
    D^T gamma the momentum rate. Without gamma (ph_operators,
    B u = (0, f, 0)) w = v, D is unused and J z + B u is (v, p, G v).
    """
    GT = sys._G_pattern.transpose_times
    if gamma is None:
        return v, force - GT(G, lam)
    return v + sys.mass_diag_inv * GT(G, gamma), force - GT(G, lam) - GT(D, gamma)
