"""Kinematic pairs between director-formulated rigid bodies.

A pair is a table of rows, built once by compile_joints, which compiles
all pairs of a system in one pass (compile_joint is its one-pair case).
Every row is one dot product of two affine maps of the eight 3-blocks
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

from .directors import _cross, _dots

__all__ = [
    "PAIR_CONSTRAINT_COUNTS",
    "GROUND_CONFIG",
    "JointSpec",
    "CompiledJoint",
    "JointError",
    "joint_frame",
    "compile_joint",
    "compile_joints",
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

# each pair type's rows by slot in compile_joints' table: 0-2 the gap
# componentwise, 3-4 across the axis, 5-7 the locks
_SLOTS = {"spherical": [0, 1, 2], "revolute": [0, 1, 2, 5, 6], "universal": [0, 1, 2, 5],
          "cylindrical": [3, 4, 5, 6], "prismatic": [3, 4, 5, 6, 7]}


class JointError(ValueError):
    """Raised for inconsistent joint definitions; pair is the position of
    the rejected pair among the pairs compiled together (compile_joints)."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


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
    norm = np.sqrt(_dots(n, n))
    if not abs(norm - 1.0) <= 1e-9:
        raise JointError(f"reference axis must be a unit vector, |axis| = {norm}")
    return (n, *_complete(n))


def _complete(n):
    """(m1, m2) of joint_frame for unit axes n, shape (..., 3)."""
    m2 = _cross(n, np.eye(3)[np.argmin(np.abs(n), axis=-1)])
    m2 = m2 / np.sqrt(_dots(m2, m2)[..., None])
    return _cross(m2, n), m2


def _body_checks(q, tol=1e-6):
    """Which bodies of q, shape (bodies, 12), are rejected, and the message
    of body k: a director triad off the orthonormality manifold, else a
    configuration that is not finite. Every body is checked once."""
    d = q[:, 3:].reshape(-1, 3, 3)
    defect = np.abs(d @ d.transpose(0, 2, 1) - np.eye(3)).reshape(-1, 9).max(axis=1)
    orthonormal = defect <= tol

    def message(k):
        return (f"body {k}: configuration must be finite, got {q[k]}" if orthonormal[k] else
                f"body {k}: director triad violates orthonormality by {defect[k]:.2e}")
    return ~(orthonormal & np.isfinite(q).all(axis=1)), message


def compile_joint(spec, configs):
    """Freeze one JointSpec against the initial body configurations: the
    one-pair case of compile_joints."""
    return compile_joints([spec], configs)[0]


def compile_joints(specs, configs):
    """Freeze JointSpecs against the initial body configurations, all at once.

    configs holds the 12-vector of every body, indexed by body index.
    Material anchors are pulled back through the initial rotations, the
    A-side frame is completed from the reference axis, and lock offsets
    are chosen so the residual vanishes for the given configurations. For
    cylindrical and revolute pairs the rotation locks default to the first
    two B-directors; a B-director nearly parallel to the joint axis is
    replaced by the most orthogonal remaining ones.

    The rows: spherical, revolute and universal pairs close the anchor gap
    componentwise, cylindrical and prismatic ones across the axis
    (m1 . gap, m2 . gap). Then cylindrical and revolute pairs lock
    n . d_Bj for their two lock_dirs, a universal pair for its one, and a
    prismatic pair locks d_Ai . d_Bj for (i, j) in _PRISMATIC_LOCKS.

    One pass over the pairs: every body is checked once (_body_checks),
    each quantity is computed for all pairs by stacked products that round
    as the one-pair products do, and every pair's rows are taken from its
    slots (_SLOTS) into one table, of which each CompiledJoint holds its
    slice. A pair is checked in its order: body A, body B, the joint
    location, the reference axis, the rotation lock. Raises JointError
    with the message of the first rejected pair in the order of specs, and
    its position there as `pair`.
    """
    specs = tuple(specs)
    if not specs:
        return ()
    q = np.asarray(configs, dtype=float)
    kind = [s.pair_type for s in specs]
    a, b = np.array([(s.body_a, s.body_b) for s in specs]).T
    ground = a == b
    loc = np.array([s.joint_location for s in specs], dtype=float)
    # a spherical pair, and one missing its axis (rejected below), takes the
    # unit axis e_3 in its place; nothing computed from it is kept
    missing = [kd != "spherical" and s.reference_axis is None for s, kd in zip(specs, kind)]
    axes = np.array([(0.0, 0.0, 1.0) if kd == "spherical" or gone else s.reference_axis
                     for s, kd, gone in zip(specs, kind, missing)], dtype=float)

    # the checks on data alone; a value they overflow on is rejected
    with np.errstate(all="ignore"):
        rejected, body_message = _body_checks(q)
        norm = np.sqrt(_dots(axes, axes))
    checks = (
        (rejected[a], lambda k: body_message(a[k])),
        (~ground & rejected[b], lambda k: body_message(b[k])),
        (~np.isfinite(loc).all(axis=1),
         lambda k: f"joint location must be finite, got {specs[k].joint_location}"),
        (missing, lambda k: f"{kind[k]} pair requires a reference axis"),
        (~(np.abs(norm - 1.0) <= 1e-9),
         lambda k: f"reference axis must be a unit vector, |axis| = {norm[k]}"),
    )
    # the `good` pairs before the first rejected one are compiled, and
    # their rotation locks checked, from valid data alone
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    good = int(np.argmax(failed)) if failed.any() else len(specs)
    ground, loc, axes = ground[:good], loc[:good], axes[:good]

    q_a = q[a[:good]]
    q_b = np.where(ground[:, None], GROUND_CONFIG, q[b[:good]])
    d_a, d_b = q_a[:, 3:].reshape(-1, 3, 3), q_b[:, 3:].reshape(-1, 3, 3)
    X_a = (d_a @ (loc - q_a[:, :3])[:, :, None])[:, :, 0]
    X_b = (d_b @ (loc - q_b[:, :3])[:, :, None])[:, :, 0]
    m1, m2 = _complete(axes)

    # the A-side axis in inertial components and its alignment with each
    # B-director; a rotation lock takes two B-directors, a universal one
    # the least aligned, a prismatic pair those of _PRISMATIC_LOCKS
    n0 = (axes[:, None] @ d_a)[:, 0]
    alignment = np.abs((d_b @ n0[:, :, None])[:, :, 0])
    kinds = np.array(kind[:good])
    universal, prismatic = kinds == "universal", kinds == "prismatic"
    rotation = (kinds == "revolute") | (kinds == "cylindrical")
    dirs = np.where(prismatic[:, None], [j for _, j in _PRISMATIC_LOCKS], [0, 1, 2])
    dirs[universal, 0] = alignment[universal].argmin(axis=1)
    swap = np.flatnonzero(rotation & (alignment[:, :2].max(axis=1) > _ALIGNMENT_LIMIT))
    if swap.size:
        dirs[swap, :2] = np.sort(np.argsort(alignment[swap], axis=1)[:, :2], axis=1)
        degenerate = swap[alignment[swap[:, None], dirs[swap, :2]].max(axis=1) > _ALIGNMENT_LIMIT]
        if degenerate.size:
            k = int(degenerate[0])
            raise JointError(f"{kind[k]} pair: degenerate rotation lock, axis parallel "
                             "to B-directors", k)
    if good < len(specs):
        raise JointError(next(message(good) for mask, message in checks if mask[good]), good)
    # lock l is (A-side axis) . d_B[dirs[l]]: the axis n but for a
    # prismatic pair, whose axes are its A-directors; in material
    # components for the rows and inertial ones for the offsets
    prismatic = prismatic[:, None, None]
    lock_axis = np.where(prismatic, np.eye(3), axes[:, None])
    offsets = _dots(np.where(prismatic, d_a, n0[:, None]), d_b[np.arange(good)[:, None], dirs])

    # every row a pair may have, by slot: the gap componentwise (slots
    # 0-2) and across the axis (3, 4), then the locks (5-7)
    gap = np.empty((good, 8))
    gap[:, 0], gap[:, 1:4], gap[:, 4], gap[:, 5:] = -1.0, -X_a, 1.0, X_b
    alpha, beta = np.zeros((2, good, 8, 8))
    w0, c = np.zeros((good, 8, 3)), np.zeros((good, 8))
    alpha[:, :3], w0[:, :3] = gap[:, None], np.eye(3)
    alpha[:, 3, 1:4], alpha[:, 4, 1:4], beta[:, 3:5] = m1, m2, gap[:, None]
    alpha[:, 5:, 1:4], c[:, 5:] = lock_axis, offsets
    beta[np.arange(good)[:, None], np.arange(5, 8), 5 + dirs] = 1.0
    slots = [_SLOTS[kd] for kd in kind]
    pair = np.repeat(np.arange(good), [len(s) for s in slots])
    slot = np.concatenate(slots)
    alpha, beta, w0, c = alpha[pair, slot], beta[pair, slot], w0[pair, slot], c[pair, slot]
    u0 = np.zeros_like(w0)

    joints, s = [], 0
    for k, (spec, dirs_k, offsets_k) in enumerate(zip(specs, dirs.tolist(), offsets.tolist())):
        e = s + len(slots[k])
        locks = sum(i >= 5 for i in slots[k])
        framed = spec.pair_type != "spherical"
        joints.append(CompiledJoint(
            pair_type=spec.pair_type,
            body_a=spec.body_a,
            body_b=spec.body_b,
            is_ground=spec.body_a == spec.body_b,
            count=e - s,
            X_a=X_a[k],
            X_b=X_b[k],
            alpha=alpha[s:e],
            beta=beta[s:e],
            u0=u0[s:e],
            w0=w0[s:e],
            c=c[s:e],
            n_local=axes[k] if framed else None,
            m1_local=m1[k] if framed else None,
            m2_local=m2[k] if framed else None,
            lock_dirs=() if spec.pair_type == "prismatic" else tuple(dirs_k[:locks]),
            offsets=tuple(offsets_k[:locks]),
        ))
        s = e
    return tuple(joints)


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
