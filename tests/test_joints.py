"""Kinematic pair residuals, Jacobians, and compilation."""
import numpy as np
import numpy.testing as npt
import pytest

from phmbd.joints import (
    GROUND_CONFIG,
    PAIR_CONSTRAINT_COUNTS,
    JointError,
    JointSpec,
    compile_joint,
    jacobian,
    joint_frame,
    residual,
)

from conftest import (
    cylindrical_consistent_pair,
    fd_jacobian,
    random_orthonormal_config,
    rigid_velocity,
    transform_config,
)

SEED = 1723

PAIR_TYPES = ("spherical", "cylindrical", "universal", "revolute", "prismatic")


def _random_pair(rng, kind, ground=False):
    """Compile one pair of the given kind at random consistent configs."""
    q_a = random_orthonormal_config(rng)
    q_b = GROUND_CONFIG.copy() if ground else random_orthonormal_config(rng)
    configs = [q_a, q_b]
    axis = None
    if kind != "spherical":
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
    loc = q_a[:3] + 0.3 * rng.standard_normal(3)
    spec = JointSpec(kind, 0, 0 if ground else 1, loc, axis)
    return compile_joint(spec, configs), q_a, q_b


def test_constraint_counts():
    assert PAIR_CONSTRAINT_COUNTS == {
        "spherical": 3,
        "cylindrical": 4,
        "universal": 4,
        "revolute": 5,
        "prismatic": 5,
    }


def test_joint_frame_canonical_axis():
    n, m1, m2 = joint_frame(np.array([0.0, 0.0, 1.0]))
    npt.assert_allclose(n, [0.0, 0.0, 1.0], atol=0.0)
    npt.assert_allclose(m1, [1.0, 0.0, 0.0], atol=1e-15)
    npt.assert_allclose(m2, [0.0, 1.0, 0.0], atol=1e-15)


def test_joint_frame_right_handed_orthonormal():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        n, m1, m2 = joint_frame(axis)
        T = np.vstack([n, m1, m2])
        npt.assert_allclose(T @ T.T, np.eye(3), atol=1e-12)
        npt.assert_allclose(np.cross(m1, m2), n, atol=1e-12)
        # deterministic
        n2, m12, m22 = joint_frame(axis)
        npt.assert_allclose([n, m1, m2], [n2, m12, m22], atol=0.0)


def test_joint_frame_rejects_zero_axis():
    with pytest.raises(JointError):
        joint_frame(np.zeros(3))
    # a NaN norm fails every comparison, so the check must be written NaN-safe
    with pytest.raises(JointError):
        joint_frame([np.nan, 0.0, 0.0])


def test_compile_joint_rejects_nan_input():
    """A NaN director, a non-finite body position or a NaN joint location is
    rejected, not compiled into non-finite constants; a bad position names
    its body, A or B."""
    nan_director = GROUND_CONFIG.copy()
    nan_director[3] = np.nan
    with pytest.raises(JointError, match="orthonormality"):
        compile_joint(JointSpec("revolute", 0, 1, np.zeros(3), [1.0, 0.0, 0.0]),
                      [GROUND_CONFIG, nan_director])
    with pytest.raises(JointError, match="joint location"):
        compile_joint(JointSpec("spherical", 0, 0, [0.0, np.nan, 0.0]), [GROUND_CONFIG])
    nan_position = GROUND_CONFIG.copy()
    nan_position[0] = np.nan
    with pytest.raises(JointError, match="body 0: configuration must be finite"):
        compile_joint(JointSpec("spherical", 0, 0, np.zeros(3)), [nan_position])
    inf_position = GROUND_CONFIG.copy()
    inf_position[1] = np.inf
    with pytest.raises(JointError, match="body 1: configuration must be finite"):
        compile_joint(JointSpec("revolute", 0, 1, np.zeros(3), [1.0, 0.0, 0.0]),
                      [GROUND_CONFIG, inf_position])


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_residual_vanishes_at_compile_configs(kind):
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        joint, q_a, q_b = _random_pair(rng, kind)
        g = residual(joint, q_a, q_b)
        assert g.shape == (PAIR_CONSTRAINT_COUNTS[kind],)
        npt.assert_allclose(g, 0.0, atol=1e-12)


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_jacobian_matches_fd(kind):
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        joint, q_a, q_b = _random_pair(rng, kind)
        x = np.concatenate([q_a, q_b]) + 0.1 * rng.standard_normal(24)
        J = jacobian(joint, x[:12], x[12:])
        J_fd = fd_jacobian(lambda y: residual(joint, y[:12], y[12:]), x)
        npt.assert_allclose(J, J_fd, atol=1e-6)


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_quadratic_secant_identity(kind):
    # every pair residual is at most quadratic in the configurations
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        joint, q_a, q_b = _random_pair(rng, kind)
        x = np.concatenate([q_a, q_b])
        s = rng.standard_normal(24)
        lhs = residual(joint, x[:12] + s[:12], x[12:] + s[12:]) \
            - residual(joint, x[:12], x[12:])
        xm = x + 0.5 * s
        rhs = jacobian(joint, xm[:12], xm[12:]) @ s
        npt.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("kind", PAIR_TYPES)
def test_rigid_motion_equivariance(kind):
    """Scalar rows are invariant; anchor-gap rows rotate with the frame."""
    rng = np.random.default_rng(SEED)
    from conftest import random_rotation
    for _ in range(10):
        joint, q_a, q_b = _random_pair(rng, kind)
        # evaluate away from the compile point so the residual is nonzero
        q_a2 = q_a + 0.2 * rng.standard_normal(12)
        q_b2 = q_b + 0.2 * rng.standard_normal(12)
        g0 = residual(joint, q_a2, q_b2)
        R, c = random_rotation(rng), rng.standard_normal(3)
        g1 = residual(joint, transform_config(q_a2, R, c),
                      transform_config(q_b2, R, c))
        if kind in ("spherical", "revolute", "universal"):
            npt.assert_allclose(g1[:3], R @ g0[:3], atol=1e-12)
            npt.assert_allclose(g1[3:], g0[3:], atol=1e-12)
        else:
            npt.assert_allclose(g1, g0, atol=1e-12)


def test_cylindrical_free_motions_in_nullspace(flying_pair):
    """Relative slide along and spin about the axis are unconstrained."""
    sys, state = flying_pair
    joint = sys.joints[0]
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        q_a, q_b = cylindrical_consistent_pair(
            joint, state.q[:12], state.q[12:], rng)
        d_a = q_a[3:].reshape(3, 3)
        n = joint.n_local @ d_a
        p_a = q_a[:3] + joint.X_a @ d_a
        J = jacobian(joint, q_a, q_b)

        slide = np.concatenate([np.zeros(12), n, np.zeros(9)])
        spin = np.concatenate(
            [np.zeros(12),
             rigid_velocity(q_b, n, np.cross(n, q_b[:3] - p_a))])
        common = np.concatenate([
            rigid_velocity(q_a, [1.0, -2.0, 0.5], [0.3, 0.0, -1.0]),
            rigid_velocity(q_b, [1.0, -2.0, 0.5],
                           [0.3, 0.0, -1.0] + np.cross([1.0, -2.0, 0.5],
                                                       q_b[:3] - q_a[:3])),
        ])
        for v in (slide, spin, common):
            npt.assert_allclose(J @ v, 0.0, atol=1e-10)


def test_cylindrical_jacobian_lock_row_structure(flying_pair):
    """Rotation-lock rows: no position columns, axis components elsewhere."""
    sys, state = flying_pair
    joint = sys.joints[0]
    q_a, q_b = state.q[:12], state.q[12:]
    d_a = q_a[3:].reshape(3, 3)
    d_b = q_b[3:].reshape(3, 3)
    n = joint.n_local @ d_a
    J = jacobian(joint, q_a, q_b)
    j1 = joint.lock_dirs[0]
    row = J[2]
    npt.assert_allclose(row[:3], 0.0, atol=0.0)
    npt.assert_allclose(row[12:15], 0.0, atol=0.0)
    # derivative with respect to the locked B-director is the axis
    npt.assert_allclose(row[15 + 3 * j1:18 + 3 * j1], n, atol=1e-15)
    # derivative with respect to d_i^A carries the axis components
    for i in range(3):
        npt.assert_allclose(row[3 + 3 * i:6 + 3 * i],
                            joint.n_local[i] * d_b[j1], atol=1e-15)


def test_degenerate_lock_substitution():
    """B-directors aligned with the axis are replaced by orthogonal ones."""
    q = np.concatenate([np.zeros(3), np.eye(3).reshape(-1)])
    spec = JointSpec("revolute", 0, 1, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    joint = compile_joint(spec, [q, q])
    # axis = d_1^B, so the default first lock director must be replaced
    assert tuple(sorted(joint.lock_dirs)) == (1, 2)
    npt.assert_allclose(residual(joint, q, q), 0.0, atol=1e-15)


def test_universal_lock_axis_most_orthogonal():
    q = np.concatenate([np.zeros(3), np.eye(3).reshape(-1)])
    axis = np.array([0.8, 0.6, 0.0])
    axis /= np.linalg.norm(axis)
    spec = JointSpec("universal", 0, 1, np.zeros(3), axis)
    joint = compile_joint(spec, [q, q])
    assert joint.lock_dirs == (2,)  # e3 is the most orthogonal to the axis


def test_ground_pair_uses_fixed_frame():
    rng = np.random.default_rng(SEED)
    joint, q_a, _ = _random_pair(rng, "revolute", ground=True)
    assert joint.is_ground
    npt.assert_allclose(GROUND_CONFIG,
                        np.concatenate([np.zeros(3), np.eye(3).reshape(-1)]),
                        atol=0.0)
    npt.assert_allclose(residual(joint, q_a, GROUND_CONFIG), 0.0, atol=1e-12)


def test_missing_axis_raises():
    q = np.concatenate([np.zeros(3), np.eye(3).reshape(-1)])
    spec = JointSpec("revolute", 0, 1, np.zeros(3), None)
    with pytest.raises(JointError):
        compile_joint(spec, [q, q])


def test_unknown_pair_type_raises():
    """Only the exact names are pair types: no case or space folding."""
    for kind in ("helical", " Revolute ", "REVOLUTE"):
        with pytest.raises(JointError, match="unknown pair type"):
            JointSpec(kind, 0, 1, np.zeros(3), np.array([0.0, 0.0, 1.0]))
