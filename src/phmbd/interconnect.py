"""Kinematic pairs as the power-preserving interconnection of body subsystems.

Each body, with its orthonormality rows, gravity and its own loads, is a
port-Hamiltonian system of its own, with state (q_k, v_k, lambda_k) of
sizes 12, 12 and 6. Their direct sum is the system's own: its first
m_internal rows are the bodies' orthonormality rows, and its index-2
operators on those rows alone are block-diagonal over the bodies. A pair
joins the bodies it acts on through its port map, the column block of its
Jacobian on each of its bodies (joints.jacobian), taken from the pair's
table of rows alone, never from the system's G; a ground pair has one
block (port_maps). The pair's multipliers are the shared effort: with C
the block on body k, the reaction -C^T lambda enters body k's momentum
rows and the flow C v_k closes the pair's multiplier rows, so the coupled
J stays skew (couple). The rows of a pair are its reaction channels, in
the row form of Betsch and Leyendecker (2006) and the Dirac-structure view
of van der Schaft and Jeltsema (Port-Hamiltonian Systems Theory, 2014).

Coupling the subsystems through all pairs gives back the assembled system
to rounding: the coupled (E, J, z) are ph_operators of the whole system,
in its own order, and the coupled midpoint residual is integrate's
midpoint_residual. The index-reduced operators (ggl_operators) are not
coupled here.
"""
from __future__ import annotations

from .assembly import _operators
from .joints import GROUND_CONFIG, jacobian

__all__ = ["port_maps", "couple"]


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
    its pairs, at the system point (q, v, lam), in the assembled order
    (q, v, lambda) of sys.

    The bodies' direct sum, sys's operators with only its orthonormality
    rows of G written, is the leading (2n + m_internal) block, with
    z = (grad V, v, lam) whole. A pair's port map C on body k, never G,
    then adds -C^T in body k's momentum rows and the pair's multiplier
    columns, and C in the transposed place.
    """
    row = 2 * sys.n + sys.m_internal
    E, J, z, _ = _operators(sys, q, v, lam, 2 * sys.n + sys.m, sys.m_internal)
    for joint, blocks in zip(sys.joints, port_maps(sys, q)):
        efforts = slice(row, row + joint.count)
        for k, C in blocks:
            flows = slice(sys.n + 12 * k, sys.n + 12 * k + 12)
            J[flows, efforts] = -C.T
            J[efforts, flows] = C
        row += joint.count
    return E, J, z
