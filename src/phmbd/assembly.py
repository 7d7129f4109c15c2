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

The per-body and per-pair constraint functions run only at construction.
Construction also groups the bodies that H couples (_newton_groups) and
decides once whether the mp Newton update eliminates those groups one by
one or solves one dense system (_blocks_pay).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import joints as joints_mod
# angular_momentum is no longer called here; it stays importable from this
# module because perfbench/tracer.py wraps it by this name.
from .directors import (
    RigidBody,
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

        self._g0, self._G0, (rows, a, b, self._H_values) = _constant_tensors(self)
        # flat bins of H x (entries (i, a)) and of K(lambda) (entries (a, b))
        self._H_rows, self._H_b = rows, b
        self._H_ia = rows * self.n + a
        self._H_ab = a * self.n + b

        # the mp Newton update eliminates these groups one by one when that
        # is cheaper than one dense solve (integrate.midpoint_linearization)
        groups = _newton_groups(self)
        self._newton_blocks = groups if _blocks_pay(self, groups) else None

    def body_config(self, q, index):
        return q[12 * index:12 * index + 12]


def _probe_affine(fn, width):
    """Value at zero and slope of an affine map of a width-vector.

    Returns (F0, S) with F0 = fn(0) and S[..., c] = fn(e_c) - fn(0), which
    is exact up to the rounding of fn for affine fn.
    """
    F0 = fn(np.zeros(width))
    return F0, np.stack([fn(e) - F0 for e in np.eye(width)], axis=-1)


def _constant_tensors(sys):
    """g0 = g(0), G0 = G(0) and the nonzeros of the Hessians H[i, a, b].

    All constraints are quadratic in q, so these three constants give g, G
    and their derivatives everywhere. The orthonormality rows are probed
    once from the director functions and tiled over the bodies. Each pair
    gives g0 from its residual and G0 and H from its Jacobian on basis
    vectors, with the ground pseudo-body held at GROUND_CONFIG. H comes
    back as COO arrays (rows, a, b, values), sorted by row, then a, then b.
    """
    n, m, nb = sys.n, sys.m, len(sys.bodies)
    g0 = np.empty(m)
    G0 = np.zeros((m, n))

    body_rows = 6 * np.arange(nb)[:, None] + np.arange(6)
    body_cols = 12 * np.arange(nb)[:, None] + np.arange(12)
    g0[:sys.m_internal] = np.tile(internal_constraints(np.zeros(12)), nb)
    G_int, H_int = _probe_affine(internal_constraint_gradient, 12)
    G0[body_rows[:, :, None], body_cols[:, None, :]] = G_int
    r, a, b = np.nonzero(H_int)
    parts = [(body_rows[:, r].ravel(), body_cols[:, a].ravel(),
              body_cols[:, b].ravel(), np.tile(H_int[r, a, b], nb))]

    row = sys.m_internal
    zero12 = np.zeros(12)
    for joint in sys.joints:
        cols = body_cols[joint.body_a]
        if joint.is_ground:
            g0[row:row + joint.count] = joints_mod.residual(joint, zero12, GROUND_CONFIG)
            J0, H = _probe_affine(
                lambda x: joints_mod.jacobian(joint, x, GROUND_CONFIG)[:, :12], 12)
        else:
            cols = np.concatenate([cols, body_cols[joint.body_b]])
            g0[row:row + joint.count] = joints_mod.residual(joint, zero12, zero12)
            J0, H = _probe_affine(lambda x: joints_mod.jacobian(joint, x[:12], x[12:]), 24)
        G0[row:row + joint.count, cols] = J0
        r, a, b = np.nonzero(H)
        parts.append((row + r, cols[a], cols[b], H[r, a, b]))
        row += joint.count
    return g0, G0, tuple(np.concatenate(p) for p in zip(*parts))


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
    body_a = sys._H_ab // (12 * sys.n)
    body_b = sys._H_ab % sys.n // 12
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


# Fixed price of one LAPACK call in _blocks_pay's flop count, from a sweep
# of spherical chains of 2 to 40 bodies (numpy 2.4, OpenBLAS, one thread):
# with it the rule switches to blocks where the two paths measure even, at
# 5 bodies.
LAPACK_CALL_FLOPS = 5e5


def _blocks_pay(sys, groups):
    """Whether the block elimination of the mp Newton matrix beats one dense
    solve, by an operation count with a fixed price per LAPACK call.

    Dense: one LU of size n + m. Blocks: one batched inverse per group
    size, the Schur complement on the mj = m - m_internal joint multipliers
    with e = n + m_internal eliminated unknowns, and its LU.
    """
    e = sys.n + sys.m_internal
    mj = sys.m - sys.m_internal
    dense = 2.0 / 3.0 * (sys.n + sys.m) ** 3 + LAPACK_CALL_FLOPS
    blocks = (sum(2.0 * len(vel) * (vel.shape[1] + mult.shape[1]) ** 3 + LAPACK_CALL_FLOPS
                  for vel, mult in groups)
              + 2.0 * e * mj * (mj + 1) + 2.0 / 3.0 * mj ** 3 + LAPACK_CALL_FLOPS)
    return blocks < dense


def _hessian_times(sys, x):
    """H x, shape (m, n): entry (i, a) is sum_b H[i, a, b] x[b]."""
    return np.bincount(sys._H_ia, sys._H_values * x[sys._H_b],
                       minlength=sys.m * sys.n).reshape(sys.m, sys.n)


def stack_constraints(sys, q):
    """All constraint values and their Jacobian at configuration q.

    Returns (g, G) with shapes (m,) and (m, n); internal rows first, then
    joint rows in declaration order. Every row is quadratic in q, so
    G(q) = G0 + H q and g(q) = g0 + G0 q + (H q) q / 2, both exact, from
    the constants g0 = g(0), G0 = G(0) and the sparse Hessian H fixed at
    construction. Ground pairs contribute columns only for their real body.
    """
    q = np.asarray(q, dtype=float)
    Hq = _hessian_times(sys, q)
    g = sys._g0 + sys._G0 @ q + 0.5 * (Hq @ q)
    Hq += sys._G0
    return g, Hq


def constraint_velocity_gradient(sys, v):
    """Configuration derivative of the velocity constraints, shape (m, n).

    For g quadratic in q the map q -> G(q) v is affine with constant slope
    D(v) = H v, entry (i, a) = sum_b H[i, a, b] v[b], which is exact since
    each H[i] is symmetric; it equals G(v) - G0.
    """
    return _hessian_times(sys, np.asarray(v, dtype=float))


def constraint_hessian_contraction(sys, lam):
    """Sum of constraint Hessians weighted by multipliers, K = sum_i lam_i H_i.

    Shape (n, n), accumulated from the nonzeros of H only.
    """
    lam = np.asarray(lam, dtype=float)
    return np.bincount(sys._H_ab, sys._H_values * lam[sys._H_rows],
                       minlength=sys.n * sys.n).reshape(sys.n, sys.n)


def potential(sys, q):
    """Gravitational potential and its gradient at configuration q."""
    grad = sys._grad_potential
    return float(grad @ np.asarray(q, dtype=float)), grad


def hamiltonian(sys, q, v):
    """Total energy H = kinetic + potential."""
    v = np.asarray(v, dtype=float)
    V, _ = potential(sys, q)
    return 0.5 * float(v @ (sys.mass_diag * v)) + V


def total_angular_momentum(sys, q, v):
    """System angular momentum about the inertial origin, shape (3,).

    Each body contributes x_k x (M v)_k summed over its four 3-blocks
    (phi, d1, d2, d3); the diagonal mass matrix weights the center-of-mass
    block by the mass and director block i by the Euler value E_i. The
    per-body sums are grouped as in directors.angular_momentum.
    """
    L = np.cross(np.asarray(q, dtype=float).reshape(-1, 4, 3),
                 (sys.mass_diag * np.asarray(v, dtype=float)).reshape(-1, 4, 3))
    return (L[:, 0] + L[:, 1:].sum(axis=1)).sum(axis=0)


def input_assembly(sys, q, t):
    """Generalized force of all applied loads at time t, shape (n,)."""
    f = np.zeros(sys.n)
    for load in sys.loads:
        u = np.asarray(load.wrench(t), dtype=float)
        qk = sys.body_config(q, load.body)
        B = external_wrench_map(qk, load.r_material)
        f[12 * load.body:12 * load.body + 12] += B @ u
    return f


def input_map_jacobian(sys, q, t):
    """Configuration derivative of input_assembly, shape (n, n).

    The wrench map is linear in the directors through both the moment arm
    and the director distribution, so each loaded body contributes a 12x12
    block affine in q.
    """
    W = np.zeros((sys.n, sys.n))
    for load in sys.loads:
        u = np.asarray(load.wrench(t), dtype=float)
        F, tau = u[:3], u[3:]
        qk = sys.body_config(q, load.body)
        d = qk[3:].reshape(3, 3)
        r = load.r_material @ d
        c_hat = hat(np.cross(r, F) + tau)
        F_hat = hat(F)
        b0 = 12 * load.body
        for i in range(3):
            di_hat = hat(d[i])
            rows = slice(b0 + 3 + 3 * i, b0 + 6 + 3 * i)
            for j in range(3):
                cols = slice(b0 + 3 + 3 * j, b0 + 6 + 3 * j)
                block = 0.5 * load.r_material[j] * (di_hat @ F_hat)
                if i == j:
                    block = block + 0.5 * c_hat
                W[rows, cols] += block
    return W


def consistency(sys, q, v):
    """Constraint satisfaction measures (max |g|, max |G v|)."""
    g, G = stack_constraints(sys, q)
    return float(np.abs(g).max()), float(np.abs(G @ v).max())


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

    G = G(q), D = D(v) and force = f - grad V(q), with f the applied
    force of the loads, come from the caller. With the operators of
    ggl_operators at x and B u = (0, f, 0, G M^-1 f), J z + B u is
    (w, p, G w, D w + G M^-1 p): w = v + M^-1 G^T gamma is the configuration
    rate and the collocated output, p = force - G^T lam - D^T gamma the
    momentum rate. Without gamma (ph_operators, B u = (0, f, 0)) w = v,
    D is unused and J z + B u is (v, p, G v).
    """
    if gamma is None:
        return v, force - G.T @ lam
    return v + sys.mass_diag_inv * (G.T @ gamma), force - G.T @ lam - D.T @ gamma
