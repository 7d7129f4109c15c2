"""Kinematic pairs between director-formulated rigid bodies.

A pair is a table of rows, built once by compile_joint. Every row is one
dot product of two affine maps of the eight 3-blocks
X = (phi_A, d_A1, d_A2, d_A3, phi_B, d_B1, d_B2, d_B3) of the stacked
configuration (q_A, q_B):

    s(x) = u . w - c,    u = sum_p alpha_p X_p + u0,    w = sum_p beta_p X_p + w0.

The anchor gap Delta p = p_B - p_A (both anchors materialized from the
shared joint location at compile time) has the block weights
(-1, -X_a, 1, X_b), and an axis a of the A-side joint frame the weights
a on (d_A1, d_A2, d_A3). The rows are of three kinds: a component of the
gap (u the gap, w0 a unit vector), a frame axis dotted with the gap, and a
lock of a frame axis or an A-director against a director of B. residual
and jacobian are derived from the table for every pair type. Each row is
quadratic in (q_A, q_B), so its value and gradient at zero and its
constant Hessian follow from the table exactly; the assembly reads them
from there (phmbd.assembly).

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
            prismatic, spelled exactly so (the keys of
            PAIR_CONSTRAINT_COUNTS)
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
        kind = self.pair_type
        if not isinstance(kind, str) or kind not in PAIR_CONSTRAINT_COUNTS:
            raise JointError(f"unknown pair type {kind!r}; "
                             f"expected one of {', '.join(PAIR_CONSTRAINT_COUNTS)}")
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

    The rows are the table alpha, beta (count, 8), u0, w0 (count, 3) and
    c (count,) of the module docstring. The table is built from the
    material anchors X_a, X_b, the A-side joint frame in material
    components, which B-directors the rotation or alignment locks act on,
    and the offset constants that make every lock row vanish at t = 0;
    these are kept too.
    """

    pair_type: str
    body_a: int
    body_b: int
    is_ground: bool
    count: int
    X_a: np.ndarray
    X_b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    u0: np.ndarray
    w0: np.ndarray
    c: np.ndarray
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


def _on_a(axis):
    """Block weights of axis . (d_A1, d_A2, d_A3)."""
    weights = np.zeros(8)
    weights[1:4] = axis
    return weights


def compile_joint(spec, configs):
    """Freeze a JointSpec against the initial body configurations.

    configs is a sequence of 12-vectors indexed by body index. Material
    anchors are pulled back through the initial rotations, the A-side frame
    is completed from the reference axis, and lock offsets are chosen so
    the residual vanishes for the given configurations. For cylindrical and
    revolute pairs the rotation locks default to the first two B-directors;
    a B-director nearly parallel to the joint axis is replaced by the most
    orthogonal remaining ones.

    The rows: spherical, revolute and universal pairs close the anchor gap
    componentwise, cylindrical and prismatic ones across the axis
    (m1 . gap, m2 . gap). Then cylindrical and revolute pairs lock
    n . d_Bj for their two lock_dirs, a universal pair for its one, and a
    prismatic pair locks d_Ai . d_Bj for (i, j) in _PRISMATIC_LOCKS.
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
    locks = []  # (A-side axis in material components, B-director) per lock

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
        locks = [(n_local, j) for j in lock_dirs]
    elif kind == "universal":
        a0 = n_local @ d_a
        j = int(np.argmin(np.abs(d_b @ a0)))
        lock_dirs = (j,)
        offsets = (float(a0 @ d_b[j]),)
        locks = [(n_local, j)]
    elif kind == "prismatic":
        offsets = tuple(float(d_a[i] @ d_b[j]) for i, j in _PRISMATIC_LOCKS)
        locks = [(np.eye(3)[i], j) for i, j in _PRISMATIC_LOCKS]

    # rows as (alpha, beta, w0, c); u0 is zero in every row
    gap = np.concatenate([[-1.0], -X_a, [1.0], X_b])
    if kind in ("cylindrical", "prismatic"):
        rows = [(_on_a(axis), gap, np.zeros(3), 0.0) for axis in (m1_local, m2_local)]
    else:
        rows = [(gap, np.zeros(8), e, 0.0) for e in np.eye(3)]
    rows += [(_on_a(axis), np.eye(8)[5 + j], np.zeros(3), offset)
             for (axis, j), offset in zip(locks, offsets)]
    alpha, beta, w0, c = (np.array(column) for column in zip(*rows))

    return CompiledJoint(
        pair_type=kind,
        body_a=spec.body_a,
        body_b=spec.body_b,
        is_ground=is_ground,
        count=PAIR_CONSTRAINT_COUNTS[kind],
        X_a=X_a,
        X_b=X_b,
        alpha=alpha,
        beta=beta,
        u0=np.zeros_like(w0),
        w0=w0,
        c=c,
        n_local=n_local,
        m1_local=m1_local,
        m2_local=m2_local,
        lock_dirs=lock_dirs,
        offsets=offsets,
    )


def _factors(joint, q_a, q_b):
    """u and w of every row of the pair at (q_A, q_B), shape (count, 3) each."""
    X = np.concatenate([q_a, q_b]).reshape(8, 3)
    return joint.alpha @ X + joint.u0, joint.beta @ X + joint.w0


def residual(joint, q_a, q_b):
    """Constraint residual of one pair, u . w - c per row, shape (joint.count,)."""
    u, w = _factors(joint, q_a, q_b)
    return (u * w).sum(axis=1) - joint.c


def jacobian(joint, q_a, q_b):
    """Constraint Jacobian of one pair with respect to (q_A, q_B).

    Shape (joint.count, 24), columns ordered as the stacked 12-vectors of
    body A then body B: on block p, row r holds alpha[r, p] w_r +
    beta[r, p] u_r. For ground pairs the caller discards the B columns.
    """
    u, w = _factors(joint, q_a, q_b)
    J = joint.alpha[:, :, None] * w[:, None] + joint.beta[:, :, None] * u[:, None]
    return J.reshape(joint.count, 24)
