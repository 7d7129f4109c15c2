"""Kinematic pairs as the power-preserving interconnection of body subsystems.

Each body, with its orthonormality rows, gravity and its own loads, is a
port-Hamiltonian system of its own (body_subsystem): state (q, v, lambda)
of sizes 12, 12 and 6 and operators (E, J, z) from assembly.ph_operators.
A pair joins the bodies it acts on through its port map, the column block
of its Jacobian on each of its bodies (joints.jacobian), taken from the
pair's table of rows alone; a ground pair has one block (port_maps). The
pair's multipliers are the shared effort: with C the block on body k, the
reaction -C^T lambda enters body k's momentum rows and the flow C v_k
closes the pair's multiplier rows, so the coupled J stays skew (couple).
The rows of a pair are its reaction channels, in the row form of Betsch
and Leyendecker (2006) and the Dirac-structure view of van der Schaft and
Jeltsema (Port-Hamiltonian Systems Theory, 2014).

Coupling all subsystems through all pairs gives back the assembled system
to rounding: the coupled (E, J, z), reordered, are ph_operators of the
whole system, and the coupled midpoint residual is integrate's
midpoint_residual. The index-reduced operators (ggl_operators) are not
coupled here.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .assembly import BodyLoad, MultibodySystem, ph_operators
from .joints import GROUND_CONFIG, jacobian

__all__ = ["body_subsystem", "port_maps", "couple"]

_SUB_SIZE = 30  # single-body subsystem state (q, v, lambda): 12 + 12 + 6


def body_subsystem(sys, k):
    """Body k of sys as a system of its own, rebased to index 0, with the
    loads that act on it and no pairs."""
    loads = [BodyLoad(0, load.wrench, load.r_material) for load in sys.loads if load.body == k]
    return MultibodySystem([dataclasses.replace(sys.bodies[k], index=0)], (), loads)


def port_maps(sys, q):
    """Port map of every pair at q, in declaration order.

    Each is a tuple of (body, C): C is the (count, 12) column block of
    joints.jacobian of the pair on that body, evaluated on the pair's own
    two bodies, body A first; a ground pair has body A's block only.
    """
    maps = []
    for joint in sys.joints:
        q_b = GROUND_CONFIG if joint.is_ground else sys.body_config(q, joint.body_b)
        C = jacobian(joint, sys.body_config(q, joint.body_a), q_b)
        bodies = (joint.body_a,) if joint.is_ground else (joint.body_a, joint.body_b)
        maps.append(tuple((k, C[:, 12 * i:12 * i + 12]) for i, k in enumerate(bodies)))
    return maps


def couple(sys, q, v, lam):
    """Operators (E, J, z) of the body subsystems of sys joined through all
    its pairs, at the system point (q, v, lam), and the order of the state.

    The coupled state is (x_0, ..., x_{N-1}, lambda_joints) with
    x_k = (q_k, v_k, lambda_k) body k's subsystem state. order[i] is the
    coupled index of entry i of the assembled state (q, v, lambda), so
    E[np.ix_(order, order)], J[np.ix_(order, order)] and z[order] are
    ph_operators(sys, q, v, lam).
    """
    nb = len(sys.bodies)
    size = _SUB_SIZE * nb + sys.m - sys.m_internal
    E, J, z = np.zeros((size, size)), np.zeros((size, size)), np.zeros(size)
    for k in range(nb):
        s = slice(_SUB_SIZE * k, _SUB_SIZE * (k + 1))
        E[s, s], J[s, s], z[s] = ph_operators(body_subsystem(sys, k), sys.body_config(q, k),
                                              sys.body_config(v, k), lam[6 * k:6 * k + 6])
    row = _SUB_SIZE * nb
    z[row:] = lam[sys.m_internal:]
    for joint, blocks in zip(sys.joints, port_maps(sys, q)):
        efforts = slice(row, row + joint.count)
        for k, C in blocks:
            flows = slice(_SUB_SIZE * k + 12, _SUB_SIZE * k + 24)
            J[flows, efforts] = -C.T
            J[efforts, flows] = C
        row += joint.count
    sub = np.arange(_SUB_SIZE * nb).reshape(nb, _SUB_SIZE)
    order = np.concatenate([sub[:, :12].ravel(), sub[:, 12:24].ravel(), sub[:, 24:].ravel(),
                            np.arange(_SUB_SIZE * nb, size)])
    return E, J, z, order
