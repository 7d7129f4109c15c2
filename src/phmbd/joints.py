"""Kinematic pairs between director-formulated rigid bodies.

Each pair constrains the relative motion of two bodies A and B through
algebraic conditions on the anchor offset Delta p = p_B - p_A (both anchors
materialized from the shared joint location at compile time) and on dot
products between joint-frame axes of A and directors of B. All residuals
are quadratic polynomials in the stacked configuration (q_A, q_B), so the
constraint Jacobian is affine and the Hessians are constant. The assembly
therefore evaluates `residual` and `jacobian` only when a system is built,
to read off each pair's value and Jacobian at zero and its Hessians.

A pair whose two body indices coincide attaches the body to the ground,
modeled as a motionless pseudo-body at the origin with identity directors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directors import split_config

__all__ = [
    "PAIR_CONSTRAINT_COUNTS",
    "GROUND_CONFIG",
    "JointSpec",
    "CompiledJoint",
    "JointError",
    "joint_frame",
    "compile_joint",
    "residual",
    "jacobian",
]

PAIR_CONSTRAINT_COUNTS = {
    "spherical": 3,
    "cylindrical": 4,
    "universal": 4,
    "revolute": 5,
    "prismatic": 5,
}

# configuration of the ground pseudo-body: origin, identity directors
GROUND_CONFIG = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])

# B-director index pairs locked against the A-side frame, per prismatic row
_PRISMATIC_LOCKS = ((0, 1), (1, 2), (2, 0))

_ALIGNMENT_LIMIT = 1.0 - 1e-9


class JointError(ValueError):
    """Raised for inconsistent joint definitions."""


@dataclass(frozen=True)
class JointSpec:
    """User-facing description of one kinematic pair.

    Attributes:
        pair_type: one of spherical, cylindrical, universal, revolute,
            prismatic (case insensitive)
        body_a: index of body A
        body_b: index of body B; equal to body_a for a ground attachment
        joint_location: shared anchor point in inertial coordinates at t = 0
        reference_axis: joint axis in body-A material components; required
            for every pair except the spherical one
    """

    pair_type: str
    body_a: int
    body_b: int
    joint_location: np.ndarray
    reference_axis: np.ndarray | None = None

    def __post_init__(self):
        kind = self.pair_type.strip().lower()
        if kind not in PAIR_CONSTRAINT_COUNTS:
            raise JointError(f"unknown pair type {self.pair_type!r}")
        object.__setattr__(self, "pair_type", kind)
        object.__setattr__(
            self, "joint_location", np.asarray(self.joint_location, dtype=float)
        )
        if self.reference_axis is not None:
            object.__setattr__(
                self, "reference_axis", np.asarray(self.reference_axis, dtype=float)
            )


@dataclass(frozen=True)
class CompiledJoint:
    """Constraint-ready form of a pair, frozen against the initial state.

    Holds the material anchors X_a, X_b, the A-side joint frame in material
    components, which B-directors the rotation or alignment locks act on,
    and the offset constants that make every lock row vanish at t = 0.
    """

    pair_type: str
    body_a: int
    body_b: int
    is_ground: bool
    count: int
    X_a: np.ndarray
    X_b: np.ndarray
    n_local: np.ndarray | None = None
    m1_local: np.ndarray | None = None
    m2_local: np.ndarray | None = None
    lock_dirs: tuple[int, ...] = ()
    offsets: tuple[float, ...] = ()


def joint_frame(axis):
    """Complete a unit axis n to a right-handed orthonormal triad (n, m1, m2).

    The inertial basis vector least aligned with n seeds the completion
    (ties resolved toward the lower index): m2 = normalize(n x e_k) and
    m1 = m2 x n, so that n = m1 x m2.
    """
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > 1e-9:
        raise JointError(f"reference axis must be a unit vector, |axis| = {norm}")
    k = int(np.argmin(np.abs(n)))
    m2 = np.cross(n, np.eye(3)[k])
    m2 = m2 / np.linalg.norm(m2)
    m1 = np.cross(m2, n)
    return n, m1, m2


def _check_orthonormal(q, label, tol=1e-6):
    _, d = split_config(q)
    defect = np.abs(d @ d.T - np.eye(3)).max()
    if defect > tol:
        raise JointError(f"{label}: director triad violates orthonormality by {defect:.2e}")


def compile_joint(spec, configs):
    """Freeze a JointSpec against the initial body configurations.

    configs is a sequence of 12-vectors indexed by body index. Material
    anchors are pulled back through the initial rotations, the A-side frame
    is completed from the reference axis, and lock offsets are chosen so
    the residual vanishes for the given configurations. For cylindrical and
    revolute pairs the rotation locks default to the first two B-directors;
    a B-director nearly parallel to the joint axis is replaced by the most
    orthogonal remaining ones.
    """
    kind = spec.pair_type
    is_ground = spec.body_a == spec.body_b
    q_a = np.asarray(configs[spec.body_a], dtype=float)
    q_b = GROUND_CONFIG if is_ground else np.asarray(configs[spec.body_b], dtype=float)
    _check_orthonormal(q_a, f"body {spec.body_a}")
    if not is_ground:
        _check_orthonormal(q_b, f"body {spec.body_b}")

    loc = spec.joint_location
    phi_a, d_a = split_config(q_a)
    phi_b, d_b = split_config(q_b)
    X_a = d_a @ (loc - phi_a)
    X_b = d_b @ (loc - phi_b)

    n_local = m1_local = m2_local = None
    lock_dirs: tuple[int, ...] = ()
    offsets: tuple[float, ...] = ()

    if kind != "spherical":
        if spec.reference_axis is None:
            raise JointError(f"{kind} pair requires a reference axis")
        n_local, m1_local, m2_local = joint_frame(spec.reference_axis)

    if kind in ("cylindrical", "revolute"):
        n0 = n_local @ d_a
        alignment = np.abs(d_b @ n0)
        lock_dirs = (0, 1)
        if alignment[list(lock_dirs)].max() > _ALIGNMENT_LIMIT:
            lock_dirs = tuple(sorted(np.argsort(alignment)[:2]))
        if alignment[list(lock_dirs)].max() > _ALIGNMENT_LIMIT:
            raise JointError(f"{kind} pair: degenerate rotation lock, axis parallel to B-directors")
        offsets = tuple(n0 @ d_b[j] for j in lock_dirs)
    elif kind == "universal":
        a0 = n_local @ d_a
        j = int(np.argmin(np.abs(d_b @ a0)))
        lock_dirs = (j,)
        offsets = (float(a0 @ d_b[j]),)
    elif kind == "prismatic":
        offsets = tuple(float(d_a[i] @ d_b[j]) for i, j in _PRISMATIC_LOCKS)

    return CompiledJoint(
        pair_type=kind,
        body_a=spec.body_a,
        body_b=spec.body_b,
        is_ground=is_ground,
        count=PAIR_CONSTRAINT_COUNTS[kind],
        X_a=X_a,
        X_b=X_b,
        n_local=n_local,
        m1_local=m1_local,
        m2_local=m2_local,
        lock_dirs=lock_dirs,
        offsets=offsets,
    )


def _anchor_gap(joint, q_a, q_b):
    phi_a, d_a = split_config(q_a)
    phi_b, d_b = split_config(q_b)
    return (phi_b + joint.X_b @ d_b) - (phi_a + joint.X_a @ d_a)


def residual(joint, q_a, q_b):
    """Constraint residual of one pair, shape (joint.count,)."""
    phi_a, d_a = split_config(q_a)
    phi_b, d_b = split_config(q_b)
    dp = _anchor_gap(joint, q_a, q_b)
    kind = joint.pair_type

    if kind == "spherical":
        return dp.copy()

    if kind == "cylindrical":
        n = joint.n_local @ d_a
        m1 = joint.m1_local @ d_a
        m2 = joint.m2_local @ d_a
        j1, j2 = joint.lock_dirs
        return np.array([
            m1 @ dp,
            m2 @ dp,
            n @ d_b[j1] - joint.offsets[0],
            n @ d_b[j2] - joint.offsets[1],
        ])

    if kind == "revolute":
        n = joint.n_local @ d_a
        j1, j2 = joint.lock_dirs
        return np.concatenate([
            dp,
            [n @ d_b[j1] - joint.offsets[0], n @ d_b[j2] - joint.offsets[1]],
        ])

    if kind == "universal":
        a = joint.n_local @ d_a
        (j,) = joint.lock_dirs
        return np.concatenate([dp, [a @ d_b[j] - joint.offsets[0]]])

    if kind == "prismatic":
        m1 = joint.m1_local @ d_a
        m2 = joint.m2_local @ d_a
        rows = [m1 @ dp, m2 @ dp]
        rows += [
            d_a[i] @ d_b[j] - joint.offsets[k]
            for k, (i, j) in enumerate(_PRISMATIC_LOCKS)
        ]
        return np.array(rows)

    raise AssertionError(f"unhandled pair type {kind}")


def _gap_rows(joint):
    """Jacobian of the anchor gap, 3 x 24, constant in q: the identity
    times -1, -X_a, 1 and X_b over the 3-blocks (phi, d1, d2, d3) of
    body a, then of body b."""
    scale = np.concatenate([[-1.0], -joint.X_a, [1.0], joint.X_b])
    return (scale[:, None, None] * np.eye(3)).transpose(1, 0, 2).reshape(3, 24)


def _translation_lock_row(joint, c_local, q_a, q_b):
    """Gradient of (c_local . d^A) . Delta p with respect to (q_A, q_B)."""
    _, d_a = split_config(q_a)
    dp = _anchor_gap(joint, q_a, q_b)
    c = c_local @ d_a
    row = np.zeros(24)
    row[0:3] = -c
    row[12:15] = c
    for i in range(3):
        row[3 + 3 * i:6 + 3 * i] = c_local[i] * dp - joint.X_a[i] * c
        row[15 + 3 * i:18 + 3 * i] = joint.X_b[i] * c
    return row


def _rotation_lock_row(a_local, j, q_a, q_b):
    """Gradient of (a_local . d^A) . d_j^B."""
    _, d_a = split_config(q_a)
    _, d_b = split_config(q_b)
    a = a_local @ d_a
    row = np.zeros(24)
    for i in range(3):
        row[3 + 3 * i:6 + 3 * i] = a_local[i] * d_b[j]
    row[15 + 3 * j:18 + 3 * j] = a
    return row


def _director_lock_row(i, j, q_a, q_b):
    """Gradient of d_i^A . d_j^B."""
    _, d_a = split_config(q_a)
    _, d_b = split_config(q_b)
    row = np.zeros(24)
    row[3 + 3 * i:6 + 3 * i] = d_b[j]
    row[15 + 3 * j:18 + 3 * j] = d_a[i]
    return row


def jacobian(joint, q_a, q_b):
    """Constraint Jacobian of one pair with respect to (q_A, q_B).

    Shape (joint.count, 24), columns ordered as the stacked 12-vectors of
    body A then body B. For ground pairs the caller discards the B columns.
    """
    kind = joint.pair_type

    if kind == "spherical":
        return _gap_rows(joint)

    if kind == "cylindrical":
        j1, j2 = joint.lock_dirs
        return np.vstack([
            _translation_lock_row(joint, joint.m1_local, q_a, q_b),
            _translation_lock_row(joint, joint.m2_local, q_a, q_b),
            _rotation_lock_row(joint.n_local, j1, q_a, q_b),
            _rotation_lock_row(joint.n_local, j2, q_a, q_b),
        ])

    if kind == "revolute":
        j1, j2 = joint.lock_dirs
        return np.vstack([
            _gap_rows(joint),
            _rotation_lock_row(joint.n_local, j1, q_a, q_b),
            _rotation_lock_row(joint.n_local, j2, q_a, q_b),
        ])

    if kind == "universal":
        (j,) = joint.lock_dirs
        return np.vstack([
            _gap_rows(joint),
            _rotation_lock_row(joint.n_local, j, q_a, q_b),
        ])

    if kind == "prismatic":
        rows = [
            _translation_lock_row(joint, joint.m1_local, q_a, q_b),
            _translation_lock_row(joint, joint.m2_local, q_a, q_b),
        ]
        rows += [_director_lock_row(i, j, q_a, q_b) for i, j in _PRISMATIC_LOCKS]
        return np.vstack(rows)

    raise AssertionError(f"unhandled pair type {kind}")
