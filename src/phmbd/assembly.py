"""Assembly of multibody systems from bodies, pairs, and applied loads.

The system state is x = (q, v, lambda) with q and v the stacked body
configurations and velocities (12 per body) and lambda the constraint
multipliers, internal orthonormality rows first (6 per body, in body
order), then the joint rows in declaration order. The dynamics take the
differential-algebraic form

    E x_dot = J(x) z(x) + B(q) u,    E^T z = grad H,

with skew-symmetric J, so the Hamiltonian obeys dH/dt = y^T u with the
collocated output y = B^T z. ggl_operators gives (E, J, z) of the
index-reduced form, which adds a multiplier block gamma for the velocity
constraints, and ph_operators is its leading block at gamma = 0.
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
entries (i, a) of G0 and H for G and D, and the entries (a, b) of H for K,
each with one np.bincount over H. Products such as G w and G^T lambda, and
the measures of consistency, work on those values; stack_constraints,
constraint_velocity_gradient and constraint_hessian_contraction scatter
them into the dense matrices that the full Newton matrices
(integrate.midpoint_jacobian, ggl_jacobian) and the operator triples need.
The reduced Newton matrices that the corrector solves take the values at
flat positions fixed per system instead, with no dense K, G or D formed.

Each applied load (BodyLoad) is a wrench u = (F, tau) at the arm
r = r_material d of its body. Its generalized force f = B(q) u and the
configuration slope W of f, one (9, 9) block on the body's directors, are
both written from r and the moment c = r x F + tau, for all loads in one
vectorized pass (input_assembly, _input_map_blocks).

The constants are exact: every row is a dot-product row of a table, the
pairs' (phmbd.joints) and the six orthonormality rows of each body
(_ORTHONORMALITY) alike, and g0, G0 and H are written from the tables
directly (_constant_tensors), with zeros wherever the tables have them.
Construction also groups the bodies that H couples
(_newton_groups) and decides once whether the mp Newton update eliminates
those groups one by one or solves one dense system (_blocks_pay). For the
former it builds, per group size, the scatter maps from the patterns into
the groups' blocks (_GroupBlocks); the maps into the dense reduced
matrices of either scheme are built on first use (_DenseBlocks,
_AugmentedBlocks).
"""
from __future__ import annotations

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
    angular_momentum,
    external_wrench_map,
    hat,
    internal_constraint_gradient,
    internal_constraints,
    mass_matrix,
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
        self.mass_diag = np.concatenate([mass_matrix(b) for b in self.bodies])
        self.mass_diag_inv = 1.0 / self.mass_diag

        # gravity potential is linear, so its gradient is constant
        grad = np.zeros(self.n)
        for k, body in enumerate(self.bodies):
            grad[12 * k:12 * k + 3] = -body.mass * body.gravity
        self._grad_potential = grad

        # the loads' bodies and arms; each load fills the 12 coordinates of
        # its body with its force, and the slope of that force is one (9, 9)
        # block on its body's director coordinates (_input_map_blocks),
        # whose entries sit at (_load_rows, _load_cols)
        self._load_bodies = np.array([load.body for load in self.loads], dtype=int)
        self._load_arms = np.array([load.r_material for load in self.loads],
                                   dtype=float).reshape(-1, 3)
        self._load_coords = 12 * self._load_bodies[:, None] + np.arange(12)
        self._load_directors = self._load_coords[:, 3:].copy()
        self._load_rows = np.repeat(self._load_directors, 9, axis=1).ravel()
        self._load_cols = np.tile(self._load_directors, 9).ravel()

        self._g0, (G0_rows, G0_cols, G0), (rows, a, b, self._H_values) = _constant_tensors(self)
        self._H_rows, self._H_b = rows, b
        # G and D live on the entries of G0 and of H's (i, a), K on H's
        # (a, b); the inverses give the bin of each entry in its pattern
        G_flat, G_bins = np.unique(np.concatenate([G0_rows * self.n + G0_cols,
                                                   rows * self.n + a]), return_inverse=True)
        K_flat, self._H_in_K = np.unique(a * self.n + b, return_inverse=True)
        self._G_pattern = _Pattern((self.m, self.n), G_flat)
        self._K_pattern = _Pattern((self.n, self.n), K_flat)
        self._G0_values = np.zeros(G_flat.size)
        self._G0_values[G_bins[:G0.size]] = G0
        self._H_in_G = G_bins[G0.size:]

        # the mp Newton update eliminates these groups one by one when that
        # is cheaper than one dense solve (integrate.midpoint_linearization)
        groups = _newton_groups(self)
        self._newton_blocks = (tuple(_GroupBlocks(self, vel, mult) for vel, mult in groups)
                               if _blocks_pay(self, groups) else None)

    @cached_property
    def _dense_blocks(self):
        """_DenseBlocks of the dense mp update, built on first use."""
        return _DenseBlocks(self, self.n + self.m)

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


def _constant_tensors(sys):
    """g0 = g(0) and the nonzeros of G0 = G(0) and of the Hessians H[i, a, b].

    All constraints are quadratic in q, so these three constants give g, G
    and their derivatives everywhere. They come from one row table in one
    pass: each body's orthonormality rows (_ORTHONORMALITY), then every
    pair's table (phmbd.joints). Row r is u . w - c with
    u = sum_p alpha_p X_p + u0 and w = sum_p beta_p X_p + w0 over the
    3-blocks X_p of its two bodies (one body, twice, for the
    orthonormality rows). A ground pair's B blocks are held at GROUND_CONFIG
    and folded into u0 and w0 first. Then, at q = 0, on blocks p, p' and components k, k',

        g0 = u0 . w0 - c,    G0[(p, k)] = alpha_p w0_k + beta_p u0_k,
        H[(p, k), (p', k')] = (alpha_p beta_p' + beta_p alpha_p') [k == k'],

    exact, and zero wherever the table is. G0 comes back as COO arrays
    (rows, cols, values) and H as (rows, a, b, values), sorted by row, then
    by the row-local a, then b, body A before body B.
    """
    nb, joints = len(sys.bodies), sys.joints
    tables = [_ORTHONORMALITY] * nb + [(j.alpha, j.beta, j.u0, j.w0, j.c) for j in joints]
    alpha, beta, u0, w0, c = (np.concatenate(column) for column in zip(*tables))
    count = [6] * nb + [j.count for j in joints]
    ground = np.repeat([False] * nb + [j.is_ground for j in joints], count)
    ground_blocks = GROUND_CONFIG.reshape(4, 3)
    u0[ground] += alpha[ground, 4:] @ ground_blocks
    w0[ground] += beta[ground, 4:] @ ground_blocks
    alpha[ground, 4:] = beta[ground, 4:] = 0.0
    # column of each of the 24 coordinates (q_A, q_B) of each row
    bodies = np.repeat([(k, k) for k in range(nb)] + [(j.body_a, j.body_b) for j in joints],
                       count, axis=0)
    cols = (12 * bodies[:, :, None] + np.arange(12)).reshape(-1, 24)

    g0 = (u0 * w0).sum(axis=1) - c
    G0 = (alpha[:, :, None] * w0[:, None] + beta[:, :, None] * u0[:, None]).reshape(-1, 24)
    r, a = np.nonzero(G0)
    S = alpha[:, :, None] * beta[:, None] + beta[:, :, None] * alpha[:, None]
    r2, p, k, p2 = np.nonzero(np.broadcast_to(S[:, :, None], (c.size, 8, 3, 8)))
    return (g0, (r, cols[r, a], G0[r, a]),
            (r2, cols[r2, 3 * p + k], cols[r2, 3 * p2 + k], S[r2, p, p2]))


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
    """Where the mp Newton update of the k groups of one size comes from.

    Each group holds b bodies: nv = 12 b velocities and nm = 6 b
    orthonormality multipliers, at positions idx[g] = (vel[g], n + mult[g])
    of (v, lambda), s = nv + nm unknowns in all. With h G_joint^T and
    (h/2) Gs_joint the joint rows of the reduced matrix, the update needs
    per group

        A_g  (s, s):   [[M + (h^2/4)(K - W), h G_int^T], [(h/2) Gs_int, 0]],
        B_g  (nv, wj): h G_joint^T on the group's velocities,
        C_g  (wj, nv): (h/2) Gs_joint on the group's velocities,

    over the joint rows that touch the group, padded to a common width wj
    (_joint_slots). No entry of K couples two groups and every
    orthonormality row lies in its body, so each entry of the K pattern and
    each internal entry of the G pattern in the groups' columns falls in
    one saddle block. Each map pairs entries of a pattern with flat
    positions in A, B or C: K_entries -> K_at, G_int -> GT_at and Gs_at,
    G_joint -> B_at and C_at. schur_at places C_g A_g^-1 B_g in the
    (mj, mj) Schur matrix (mj^2 for padding), and loads lists (load, group,
    offset of the body's directors) of the loaded bodies. A, B and C are
    the buffers, reused by every Newton iteration; B and C are zero
    outside their maps. Being kept with the system, they let one system be
    stepped by only one thread at a time.
    """

    def __init__(self, sys, vel, mult):
        n, mi = sys.n, sys.m_internal
        mj = sys.m - mi
        (k, nv), nm = vel.shape, mult.shape[1]
        s = nv + nm
        self.vel, self.mult, self.nv = vel, mult, nv
        self.idx = np.concatenate([vel, n + mult], axis=1)
        self.mass = sys.mass_diag[vel]
        # group and local index of each velocity and orthonormality row,
        # -1 outside these groups
        group, local = np.full(n, -1), np.full(n, -1)
        group[vel], local[vel] = np.arange(k)[:, None], np.arange(nv)
        row_local = np.full(mi, -1)
        row_local[mult] = nv + np.arange(nm)

        Kp, Gp = sys._K_pattern, sys._G_pattern
        self.K_entries = np.flatnonzero(group[Kp.row] >= 0)
        a, b = Kp.row[self.K_entries], Kp.col[self.K_entries]
        self.K_at = (group[a] * s + local[a]) * s + local[b]

        self.G_int = np.flatnonzero((Gp.row < mi) & (group[Gp.col] >= 0))
        a, r = Gp.col[self.G_int], Gp.row[self.G_int]
        self.GT_at = (group[a] * s + local[a]) * s + row_local[r]
        self.Gs_at = (group[a] * s + row_local[r]) * s + local[a]

        self.G_joint, slot, self.joint = _joint_slots(sys, group)
        wj = self.joint.shape[1]
        a = Gp.col[self.G_joint]
        self.B_at = (group[a] * nv + local[a]) * wj + slot
        self.C_at = (group[a] * wj + slot) * nv + local[a]
        real = self.joint < mj
        self.schur_at = np.where(real[:, :, None] & real[:, None, :],
                                 self.joint[:, :, None] * mj + self.joint[:, None, :],
                                 mj * mj)
        self.loads = [(l, group[12 * body], local[12 * body] + 3)
                      for l, body in enumerate(sys._load_bodies) if group[12 * body] >= 0]

        self.A = np.empty((k, s, s))
        self.B = np.zeros((k, nv, wj))
        self.C = np.zeros((k, wj, nv))


class _DenseBlocks:
    """Where the values of the reduced Newton matrix go in a dense (s, s)
    array, with the unknowns (u, lambda) at offsets 0 and n.

    The (u, u) block (h^2/4)(K - W) + M takes its values on one pattern
    fixed here: the union of the pattern of K, the loads' director blocks
    and the diagonal. KW_bins sends each entry of K and then each entry of
    the loads' blocks W (in the order of _input_map_blocks) to its bin of
    that union, diag_bins the diagonal, and KW_at places the bins in the
    array. The (u, lambda) block h G^T and the (lambda, u) block (h/2) Gs
    take the values on the pattern of G at GT_at and Gs_at.
    """

    def __init__(self, sys, s):
        n = sys.n
        Kp, Gp = sys._K_pattern, sys._G_pattern
        loads = sys._load_rows * n + sys._load_cols
        flat, bins = np.unique(np.concatenate([Kp.flat, loads, np.arange(n) * (n + 1)]),
                               return_inverse=True)
        self.size = s
        self.KW_bins, self.diag_bins = np.split(bins, [Kp.flat.size + loads.size])
        self.KW_count = flat.size
        row, col = np.divmod(flat, n)
        self.KW_at = row * s + col
        self.GT_at = Gp.col * s + n + Gp.row
        self.Gs_at = (n + Gp.row) * s + Gp.col


class _AugmentedBlocks(_DenseBlocks):
    """Where the gamma terms of the mp-ggl reduced Newton matrix go.

    That matrix (integrate.midpoint_linearization) is s = n + 2m square,
    with the unknowns (u, lambda, gamma) at offsets 0, n and n + m. Its
    plain scheme's blocks go where _DenseBlocks puts them at this size.
    Beyond those it holds a G^T-shaped (u, gamma) block and a G-shaped
    (gamma, u) block, each on the pattern of G (their entries go to the
    flat positions DG_at and Gg_at), minus the four products

        Q = [(h/2) Kg; Gs] M^-1 [(h/2) Kg, 2 G^T],    Kg = K(gamma),

    of matrices on the patterns of K and G. An entry of Q is a sum over the
    column pairs the two factors share, so with left = [(h/2) Kg; Gs] and
    right = [(h/2) Kg; 2 G] as stacked pattern values, Q's values are

        bincount(Q_bins, left[Q_left] * right[Q_right] * Q_weight),

    with Q_weight the M^-1 of each pair's shared column, at the flat
    positions Q_at. No product forms a dense matrix.
    """

    def __init__(self, sys):
        n, m = sys.n, sys.m
        s, gam = n + 2 * m, n + m
        super().__init__(sys, s)
        Kp, Gp = sys._K_pattern, sys._G_pattern
        self.DG_at = Gp.col * s + gam + Gp.row
        self.Gg_at = (gam + Gp.row) * s + Gp.col
        # each factor's pattern, offset in the stacked values and offset of
        # its rows in the matrix (K(gamma) is symmetric, so its rows serve
        # as the columns of the right factor)
        factors = ((Kp, 0, 0), (Gp, Kp.flat.size, gam))
        parts = []
        for (X, x_val, x_at), (Y, y_val, y_at) in product(factors, repeat=2):
            i, j = _shared_columns(X, Y)
            parts.append((x_val + i, y_val + j, X.col[i],
                          (x_at + X.row[i]) * s + y_at + Y.row[j]))
        left, right, col, at = (np.concatenate(p) for p in zip(*parts))
        self.Q_left, self.Q_right = left, right
        self.Q_weight = sys.mass_diag_inv[col]
        self.Q_at, self.Q_bins = np.unique(at, return_inverse=True)

    def products(self, left, right):
        """Q's values at Q_at from the stacked pattern values left and right."""
        return np.bincount(self.Q_bins, left[self.Q_left] * right[self.Q_right] * self.Q_weight,
                           minlength=self.Q_at.size)


def _shared_columns(X, Y):
    """Every pair (i, j) of an entry i of pattern X and an entry j of
    pattern Y in the same column."""
    order = np.argsort(Y.col, kind="stable")
    start = np.searchsorted(Y.col[order], X.col, "left")
    count = np.searchsorted(Y.col[order], X.col, "right") - start
    i = np.repeat(np.arange(X.col.size), count)
    # position of each pair within its entry i's run of matches
    k = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    return i, order[start[i] + k]


def _joint_slots(sys, group):
    """The joint rows that touch each group, from the pattern of G.

    group[a] is the group of velocity a, or -1 outside the groups. Returns
    (entries, slot, joint): the entries of the G pattern in joint rows and
    in the groups' columns, the place of each entry's row in its group's
    list, and the lists, joint[g] the joint-multiplier indices (rows minus
    m_internal) in increasing order, padded with mj = m - m_internal to the
    longest list, shape (k, wj).
    """
    m, mi = sys.m, sys.m_internal
    k = group.max() + 1
    Gp = sys._G_pattern
    entries = np.flatnonzero((Gp.row >= mi) & (group[Gp.col] >= 0))
    pairs, pair_of = np.unique(group[Gp.col[entries]] * m + Gp.row[entries] - mi,
                               return_inverse=True)
    pair_group = pairs // m
    count = np.bincount(pair_group, minlength=k)
    slot = np.arange(pairs.size) - (np.cumsum(count) - count)[pair_group]
    joint = np.full((k, count.max(initial=0)), m - mi)
    joint[pair_group, slot] = pairs % m
    return entries, slot[pair_of], joint


# Fixed price of one LAPACK call in _blocks_pay's flop count, from a sweep
# of spherical chains of 2 to 40 bodies (numpy 2.4, OpenBLAS, one thread):
# with it the rule switches to blocks where the two paths measure even, at
# 5 bodies.
LAPACK_CALL_FLOPS = 5e5


def _blocks_pay(sys, groups):
    """Whether the block elimination of the mp Newton matrix beats one dense
    solve, by an operation count with a fixed price per LAPACK call.

    Dense: one LU of size n + m. Blocks: per group size, one batched
    inverse of the (s, s) saddle blocks and the coupling products
    A_g^-1 B_g and C_g (A_g^-1 B_g) over the wj joint rows of _joint_slots;
    then the LU of the Schur system on the mj = m - m_internal joint
    multipliers. The coupling products need the joint slots, so they are
    counted only while the rest leaves blocks the cheaper.
    """
    mj = sys.m - sys.m_internal
    dense = 2.0 / 3.0 * (sys.n + sys.m) ** 3 + LAPACK_CALL_FLOPS
    cost = 2.0 / 3.0 * mj ** 3 + LAPACK_CALL_FLOPS + sum(
        2.0 * len(vel) * (vel.shape[1] + mult.shape[1]) ** 3 + LAPACK_CALL_FLOPS
        for vel, mult in groups)
    for vel, mult in groups:
        if cost >= dense:
            break
        (k, nv), s = vel.shape, vel.shape[1] + mult.shape[1]
        group = np.full(sys.n, -1)
        group[vel] = np.arange(k)[:, None]
        wj = _joint_slots(sys, group)[2].shape[1]
        cost += 2.0 * k * nv * wj * (s + wj)
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


def _constraint_values(sys, q):
    """g(q) and G(q) on its pattern: g = g0 + (G0 + (H q) / 2) q."""
    Hq = _slope_values(sys, q)
    g = sys._g0 + sys._G_pattern.times(sys._G0_values + 0.5 * Hq, q)
    return g, sys._G0_values + Hq


def stack_constraints(sys, q):
    """All constraint values and their Jacobian at configuration q.

    Returns (g, G) with shapes (m,) and (m, n); internal rows first, then
    joint rows in declaration order. Every row is quadratic in q, so
    G(q) = G0 + H q and g(q) = g0 + G0 q + (H q) q / 2, both exact, from
    the constants g0 = g(0), G0 = G(0) and the sparse Hessian H fixed at
    construction; G is the dense scatter of its pattern values. Ground
    pairs contribute columns only for their real body.
    """
    g, G = _constraint_values(sys, np.asarray(q, dtype=float))
    return g, sys._G_pattern.dense(G)


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
    """Total energy H = kinetic + potential."""
    v = np.asarray(v, dtype=float)
    V, _ = potential(sys, q)
    return 0.5 * float(v @ (sys.mass_diag * v)) + V


# component k of a x b is a[k+1] b[k+2] - a[k+2] b[k+1], indices mod 3:
# the first three columns of a[_AB] * b[_BA] minus the last three
_AB, _BA = [1, 2, 0, 2, 0, 1], [2, 0, 1, 1, 2, 0]


def _cross(a, b):
    """a x b over the last axis, written out as np.cross evaluates it."""
    ab = a.take(_AB, axis=-1) * b.take(_BA, axis=-1)
    return ab[..., :3] - ab[..., 3:]


def total_angular_momentum(sys, q, v):
    """System angular momentum about the inertial origin, shape (3,).

    Each body contributes x_k x (M v)_k summed over its four 3-blocks
    (phi, d1, d2, d3); the diagonal mass matrix weights the center-of-mass
    block by the mass and director block i by the Euler value E_i. The
    per-body sums are grouped as in directors.angular_momentum. The cross
    products are written out as np.cross evaluates them, without its
    per-call axis handling; np.take keeps the arrays C-ordered, so the sums
    round as they do over np.cross's result.
    """
    x = np.asarray(q, dtype=float).reshape(-1, 4, 3)
    p = (sys.mass_diag * np.asarray(v, dtype=float)).reshape(-1, 4, 3)
    L = _cross(x, p)
    return (L[:, 0] + L[:, 1:].sum(axis=1)).sum(axis=0)


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
    (loads, 9, 9): the block on the director coordinates of its body, at
    (sys._load_rows, sys._load_cols). The rows and columns of the center
    of mass are zero.

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


def _load_blocks_times(sys, W, x):
    """(sum of the loads' blocks W) x, shape (n,)."""
    return np.bincount(sys._load_rows, W.ravel() * x[sys._load_cols], minlength=sys.n)


def input_map_jacobian(sys, q, t):
    """Configuration derivative of input_assembly, shape (n, n): the dense
    scatter of the loads' director blocks (_input_map_blocks)."""
    n = sys.n
    W = _input_map_blocks(sys, q, t)
    return np.bincount(sys._load_rows * n + sys._load_cols, W.ravel(),
                       minlength=n * n).reshape(n, n)


def consistency(sys, q, v):
    """Constraint satisfaction measures (max |g|, max |G v|), from the
    pattern values of G."""
    g, G = _constraint_values(sys, np.asarray(q, dtype=float))
    Gv = sys._G_pattern.times(G, np.asarray(v, dtype=float))
    return float(np.abs(g).max()), float(np.abs(Gv).max())


def _assemble_skew(blocks, sizes):
    """Assemble a block matrix that is skew-symmetric by construction.

    blocks maps (i, j) with i <= j to the block; the (j, i) block is the
    exact negated transpose, so J + J^T vanishes identically.
    """
    total = sum(sizes)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    J = np.zeros((total, total))
    for (i, j), block in blocks.items():
        J[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = block
        if i != j:
            J[offs[j]:offs[j + 1], offs[i]:offs[i + 1]] = -block.T
    return J


def ph_operators(sys, q, v, lam):
    """Operator triple (E, J, z) of the index-2 formulation at (q, v, lam).

    Sizes (2n + m) square; E = diag(I, M, 0), J is skew with the constraint
    Jacobian in its coupling blocks, and z = (grad V, v, lambda) satisfies
    E^T z = grad H. It is the leading block of ggl_operators at gamma = 0,
    so J z + B u = (v, p, G v) with p the momentum rate of port_flow.
    """
    k = 2 * sys.n + sys.m
    E, J, z = ggl_operators(sys, q, v, lam, np.zeros(sys.m))
    return E[:k, :k], J[:k, :k], z[:k]


def ggl_operators(sys, q, v, lam, gamma):
    """Operator triple (E, J, z) of the index-reduced formulation.

    Sizes (2n + 2m) square. The extra multiplier block enforces the
    velocity-level constraints; J remains skew, with
    J44 = D M^-1 G^T - (D M^-1 G^T)^T for D = d/dq [G(q) v].
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    n, m = sys.n, sys.m
    _, G = stack_constraints(sys, q)
    _, gradV = potential(sys, q)
    D = constraint_velocity_gradient(sys, v)
    Minv = sys.mass_diag_inv
    GMinv = G * Minv
    A = (D * Minv) @ G.T

    E = np.zeros((2 * n + 2 * m, 2 * n + 2 * m))
    E[:n, :n] = np.eye(n)
    E[n:2 * n, n:2 * n] = np.diag(sys.mass_diag)

    J = _assemble_skew(
        {
            (0, 1): np.eye(n),
            (0, 3): GMinv.T,
            (1, 2): -G.T,
            (1, 3): -D.T,
            (2, 3): GMinv @ G.T,
            (3, 3): A - A.T,
        },
        [n, n, m, m],
    )
    z = np.concatenate([gradV, v, lam, gamma])
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
