"""Rigid body kinematics in director coordinates.

A body configuration is the 12-vector q = (phi, d1, d2, d3): center of mass
position followed by three director vectors, all resolved in the inertial
frame. The directors are the columns of the body's rotation matrix. Instead
of parameterizing rotations, six quadratic orthonormality constraints keep
the director triad orthonormal, which buys a constant diagonal mass matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RigidBody",
    "hat",
    "euler_values",
    "mass_matrix",
    "internal_constraints",
    "internal_constraint_gradient",
    "external_wrench_map",
    "angular_momentum",
    "split_config",
]


def hat(a):
    """Skew-symmetric matrix of a 3-vector, so that hat(a) @ b = a x b."""
    a = np.asarray(a, dtype=float)
    return np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])


def euler_values(inertias):
    """Principal values of the convected Euler tensor.

    For principal moments of inertia (J1, J2, J3) the directors are weighted
    by E_i = (J_j + J_k - J_i) / 2 with (i, j, k) an even permutation. Any
    physical inertia triple gives E_i > 0; a violation raises ValueError.
    """
    J = np.asarray(inertias, dtype=float)
    if J.shape != (3,):
        raise ValueError(f"expected 3 principal inertias, got shape {J.shape}")
    # Python floats round as float64 scalars do, at a fraction of the cost
    j1, j2, j3 = J.tolist()
    E = np.array([0.5 * (j2 + j3 - j1), 0.5 * (j3 + j1 - j2), 0.5 * (j1 + j2 - j3)])
    if not (E > 0.0).all():  # NaN included
        raise ValueError(
            f"inertias {J.tolist()} violate the triangle inequality; "
            f"Euler values {E.tolist()} must all be positive"
        )
    return E


@dataclass(frozen=True)
class RigidBody:
    """Constant data of one rigid body.

    Attributes:
        index: position of the body in the system ordering
        mass: total mass, strictly positive
        inertias: principal moments of inertia (J1, J2, J3) about the
            center of mass, resolved in the director frame
        gravity: gravitational acceleration vector acting on this body
    """

    index: int
    mass: float
    inertias: np.ndarray
    gravity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "inertias", np.asarray(self.inertias, dtype=float))
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))
        if not self.mass > 0.0:  # NaN included
            raise ValueError(f"body {self.index}: mass must be positive, got {self.mass}")
        # raises on non-physical inertia triples
        object.__setattr__(self, "euler_values", euler_values(self.inertias))

    # populated in __post_init__
    euler_values: np.ndarray = field(init=False)


def split_config(q):
    """Split a 12-vector into (phi, directors) with directors as rows."""
    q = np.asarray(q, dtype=float)
    return q[:3], q[3:].reshape(3, 3)


def _dots(a, b):
    """a . b over the last axis, row by row, each as the 1-D a @ b rounds
    it (a stack of (1, n) @ (n, 1) products)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# component k of a x b is a[k+1] b[k+2] - a[k+2] b[k+1], indices mod 3:
# the first three columns of a[_AB] * b[_BA] minus the last three
_AB, _BA = [1, 2, 0, 2, 0, 1], [2, 0, 1, 1, 2, 0]


def _cross(a, b):
    """a x b over the last axis, written out as np.cross evaluates it."""
    ab = a.take(_AB, axis=-1) * b.take(_BA, axis=-1)
    return ab[..., :3] - ab[..., 3:]


def mass_matrix(body):
    """Diagonal of the 12x12 body mass matrix diag(m I, E1 I, E2 I, E3 I)."""
    diag = np.empty(12)
    diag[:3] = body.mass
    diag[3:] = np.repeat(body.euler_values, 3)
    return diag


def internal_constraints(q):
    """Six orthonormality constraints of the director triad.

    Rows are (|d1|^2 - 1)/2, (|d2|^2 - 1)/2, (|d3|^2 - 1)/2, d1.d2, d1.d3,
    d2.d3, in that order. All are quadratic in q.
    """
    _, d = split_config(q)
    g = np.empty(6)
    g[0:3] = 0.5 * (np.einsum("ij,ij->i", d, d) - 1.0)
    g[3] = d[0] @ d[1]
    g[4] = d[0] @ d[2]
    g[5] = d[1] @ d[2]
    return g


def internal_constraint_gradient(q):
    """Gradient of internal_constraints, shape (6, 12).

    The position block is zero; director blocks follow from differentiating
    the quadratic forms directly.
    """
    _, d = split_config(q)
    G = np.zeros((6, 12))
    G[0, 3:6] = d[0]
    G[1, 6:9] = d[1]
    G[2, 9:12] = d[2]
    G[3, 3:6] = d[1]
    G[3, 6:9] = d[0]
    G[4, 3:6] = d[2]
    G[4, 9:12] = d[0]
    G[5, 6:9] = d[2]
    G[5, 9:12] = d[1]
    return G


def external_wrench_map(q, r_material=None):
    """Input matrix mapping a wrench u = (F, tau) to generalized forces.

    The wrench acts at the material point r_material (director components,
    defaults to the center of mass). Force and torque are given in inertial
    components. Shape (12, 6); the director rows distribute the moment
    r x F + tau over the directors via f_i = -d_i x (r x F + tau) / 2.
    """
    _, d = split_config(q)
    if r_material is None:
        r = np.zeros(3)
    else:
        r = np.asarray(r_material, dtype=float) @ d
    B = np.zeros((12, 6))
    B[0:3, 0:3] = np.eye(3)
    rh = hat(r)
    for i in range(3):
        dh = hat(d[i])
        B[3 + 3 * i:6 + 3 * i, 0:3] = -0.5 * dh @ rh
        B[3 + 3 * i:6 + 3 * i, 3:6] = -0.5 * dh
    return B


def angular_momentum(body, q, v):
    """Total angular momentum of one body about the inertial origin."""
    phi, d = split_config(q)
    vphi, dd = split_config(v)
    L = np.cross(phi, body.mass * vphi)
    L += np.cross(d, body.euler_values[:, None] * dd).sum(axis=0)
    return L
