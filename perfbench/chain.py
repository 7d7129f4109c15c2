"""Seeded pendulum-chain scenario generator.

Emits plain scenario JSON in the format `phmbd.scenario.parse_scenario`
reads, so the library sees only a generated input document. Body 0 hangs
from ground by a revolute pair about the inertial y axis; every further
body hangs from the lower end of its predecessor by a spherical pair. The
seed draws link lengths, masses and initial angles in the x-z plane.

Each link is a slender square rod along its third director. The directors
are an exact rotation about y and the joint anchors are placed at the link
ends, so the initial configuration satisfies every constraint to rounding;
the chain starts at rest, so the velocity constraints hold exactly too.
"""
import json
import math
import random

GRAVITY = (0.0, 0.0, -9.81)
THICKNESS = 0.05


def _link(index, mass, length, angle, top):
    c, s = math.cos(angle), math.sin(angle)
    d1, d2, d3 = (c, 0.0, -s), (0.0, 1.0, 0.0), (s, 0.0, c)
    com = tuple(top[i] - 0.5 * length * d3[i] for i in range(3))
    bottom = tuple(top[i] - length * d3[i] for i in range(3))
    j_bend = mass * (length ** 2 + THICKNESS ** 2) / 12.0
    j_axial = mass * THICKNESS ** 2 / 6.0
    body = {
        "index": index,
        "mass": mass,
        "inertias": [j_bend, j_bend, j_axial],
        "gravity": list(GRAVITY),
        "dimensions": [THICKNESS, THICKNESS, length],
        "initial_position": list(com) + list(d1) + list(d2) + list(d3),
        "initial_velocity": [0.0] * 12,
        "multiplier": [0.0] * 6,
    }
    return body, bottom


def chain_text(bodies, seed, h, t_end):
    """Scenario JSON text of a `bodies`-link pendulum chain."""
    rng = random.Random(seed)
    doc_bodies, joints = [], []
    top = (0.0, 0.0, 0.0)
    for k in range(bodies):
        mass = rng.uniform(0.5, 2.0)
        length = rng.uniform(0.3, 1.0)
        angle = rng.uniform(-0.05, 0.05)
        body, bottom = _link(k, mass, length, angle, top)
        doc_bodies.append(body)
        if k == 0:
            joints.append({"type": "revolute", "body_indices": [0, 0],
                           "joint_location": list(top),
                           "reference_axis": [0.0, 1.0, 0.0]})
        else:
            joints.append({"type": "spherical", "body_indices": [k - 1, k],
                           "joint_location": list(top)})
        top = bottom
    return json.dumps({
        "name": f"chain{bodies}_seed{seed}",
        "bodies": doc_bodies,
        "joints": joints,
        "integrator": {"h": h, "t_end": t_end},
    })
