"""Benchmark scenarios: config parsing, system building, and run output.

The configuration format is a JSON document whose field names mirror the
benchmark setup tables (lower snake case). Three scenarios ship with the
package: flying_pair, closed_loop, and slider_crank. Scenario names are
resolved against the directories in the MBD_SCENARIO_PATH environment
variable first, then against the bundled files, and an explicit file path
always wins.
"""

import dataclasses
import importlib.resources
import json
import os

import numpy as np

from .assembly import BodyLoad, MultibodySystem, SystemState
from .directors import RigidBody, hat, internal_constraints, split_config
from .joints import (GROUND_CONFIG, PAIR_CONSTRAINT_COUNTS, JointError,
                     JointSpec, compile_joint, residual)

__all__ = [
    "ScenarioError",
    "BodyConfig",
    "JointConfig",
    "LoadConfig",
    "ScenarioConfig",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "builtin_scenarios",
    "build_system",
    "slider_crank_initial_velocities",
    "write_trajectory_csv",
    "write_summary_json",
]

CONSISTENCY_TOL = 1e-6

_AXIS_FREE = ("spherical",)


class ScenarioError(ValueError):
    """Configuration rejected during parsing or validation."""


@dataclasses.dataclass(frozen=True)
class BodyConfig:
    index: int
    mass: float
    inertias: tuple
    gravity: tuple
    dimensions: tuple
    initial_position: tuple
    initial_velocity: tuple
    multiplier: tuple


@dataclasses.dataclass(frozen=True)
class JointConfig:
    type: str
    body_indices: tuple
    joint_location: tuple
    reference_axis: tuple | None = None
    constraints: int | None = None


@dataclasses.dataclass(frozen=True)
class LoadConfig:
    body: int
    program: str
    force_scale: tuple
    torque_scale: tuple
    peak: float
    t_peak: float
    t_off: float


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    name: str
    bodies: tuple
    joints: tuple
    loads: tuple
    h: float
    t_end: float


def _check_keys(obj, required, optional, where):
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _vector(obj, key, length, where):
    value = obj[key]
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ScenarioError(f"{where}: {key} must be a list of {length} numbers")
    try:
        return tuple(float(x) for x in value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: {key} must contain only numbers") from None


def _number(obj, key, where):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: {key} must be a number")
    return float(value)


def _parse_body(obj, where):
    _check_keys(obj, ("index", "mass", "inertias", "gravity", "dimensions",
                      "initial_position", "initial_velocity", "multiplier"),
                (), where)
    if not isinstance(obj["index"], int) or isinstance(obj["index"], bool):
        raise ScenarioError(f"{where}: index must be an integer")
    body = BodyConfig(
        index=obj["index"],
        mass=_number(obj, "mass", where),
        inertias=_vector(obj, "inertias", 3, where),
        gravity=_vector(obj, "gravity", 3, where),
        dimensions=_vector(obj, "dimensions", 3, where),
        initial_position=_vector(obj, "initial_position", 12, where),
        initial_velocity=_vector(obj, "initial_velocity", 12, where),
        multiplier=_vector(obj, "multiplier", 6, where),
    )
    # RigidBody's own checks: positive mass, inertias obeying the triangle inequality
    try:
        RigidBody(body.index, body.mass, body.inertias)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    return body


def _parse_joint(obj, where, n_bodies):
    _check_keys(obj, ("type", "body_indices", "joint_location"),
                ("reference_axis", "constraints"), where)
    kind = str(obj["type"]).strip().lower()
    if kind not in PAIR_CONSTRAINT_COUNTS:
        raise ScenarioError(f"{where}: unknown pair type {obj['type']!r}")
    pair = obj["body_indices"]
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(k, int) and not isinstance(k, bool) for k in pair)):
        raise ScenarioError(f"{where}: body_indices must be two integers")
    if not all(0 <= k < n_bodies for k in pair):
        raise ScenarioError(f"{where}: body_indices {list(pair)} out of range")
    axis = None
    if "reference_axis" in obj:
        axis = _vector(obj, "reference_axis", 3, where)
    elif kind not in _AXIS_FREE:
        raise ScenarioError(f"{where}: {kind} pair requires reference_axis")
    count = None
    if "constraints" in obj:
        count = obj["constraints"]
        if count != PAIR_CONSTRAINT_COUNTS[kind]:
            raise ScenarioError(
                f"{where}: constraints = {count} contradicts the {kind} pair "
                f"(expected {PAIR_CONSTRAINT_COUNTS[kind]})")
    return JointConfig(type=kind, body_indices=(pair[0], pair[1]),
                       joint_location=_vector(obj, "joint_location", 3, where),
                       reference_axis=axis, constraints=count)


def _parse_load(obj, where, n_bodies):
    _check_keys(obj, ("body", "program", "force_scale", "torque_scale",
                      "peak", "t_peak", "t_off"), (), where)
    if obj["program"] != "ramp_decay":
        raise ScenarioError(f"{where}: unknown load program {obj['program']!r}")
    body = obj["body"]
    if not isinstance(body, int) or isinstance(body, bool) or not 0 <= body < n_bodies:
        raise ScenarioError(f"{where}: body {body!r} out of range")
    t_peak = _number(obj, "t_peak", where)
    t_off = _number(obj, "t_off", where)
    if not 0.0 < t_peak < t_off:
        raise ScenarioError(f"{where}: need 0 < t_peak < t_off")
    return LoadConfig(body=body, program="ramp_decay",
                      force_scale=_vector(obj, "force_scale", 3, where),
                      torque_scale=_vector(obj, "torque_scale", 3, where),
                      peak=_number(obj, "peak", where), t_peak=t_peak, t_off=t_off)


def _validate_initial_state(config):
    """Initial configurations must sit on the constraint manifold."""
    configs = {}
    for body in config.bodies:
        q = np.asarray(body.initial_position)
        configs[body.index] = q
        g = internal_constraints(q)
        row = int(np.argmax(np.abs(g)))
        if abs(g[row]) > CONSISTENCY_TOL:
            raise ScenarioError(
                f"body {body.index}: internal constraint row {row + 1} violated "
                f"by {g[row]:.3e} in the initial position")
    for k, joint_cfg in enumerate(config.joints):
        where = f"joint {k} ({joint_cfg.type})"
        spec = JointSpec(joint_cfg.type, *joint_cfg.body_indices,
                         np.asarray(joint_cfg.joint_location),
                         None if joint_cfg.reference_axis is None
                         else np.asarray(joint_cfg.reference_axis))
        try:
            compiled = compile_joint(spec, configs)
        except JointError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        q_b = np.asarray(GROUND_CONFIG) if compiled.is_ground else configs[spec.body_b]
        g = residual(compiled, configs[spec.body_a], q_b)
        worst = float(np.abs(g).max()) if g.size else 0.0
        if worst > CONSISTENCY_TOL:
            raise ScenarioError(
                f"{where}: initial configuration violates the pair by {worst:.3e}")


def parse_scenario(text):
    """Parse and validate a scenario document, returning a ScenarioConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object")
    _check_keys(doc, ("name", "bodies", "joints", "integrator"), ("loads",), "scenario")

    if not isinstance(doc["bodies"], list) or not doc["bodies"]:
        raise ScenarioError("bodies must be a non-empty list")
    bodies = tuple(_parse_body(b, f"body entry {k}") for k, b in enumerate(doc["bodies"]))
    indices = sorted(b.index for b in bodies)
    if indices != list(range(len(bodies))):
        raise ScenarioError(f"body indices must be dense from 0, got {indices}")
    bodies = tuple(sorted(bodies, key=lambda b: b.index))

    if not isinstance(doc["joints"], list):
        raise ScenarioError("joints must be a list")
    joints = tuple(_parse_joint(j, f"joint entry {k}", len(bodies))
                   for k, j in enumerate(doc["joints"]))
    loads = tuple(_parse_load(l, f"load entry {k}", len(bodies))
                  for k, l in enumerate(doc.get("loads", [])))

    integ = doc["integrator"]
    if not isinstance(integ, dict):
        raise ScenarioError("integrator must be an object")
    _check_keys(integ, ("h", "t_end"), (), "integrator")
    h = _number(integ, "h", "integrator")
    t_end = _number(integ, "t_end", "integrator")
    if h <= 0 or t_end <= 0:
        raise ScenarioError("integrator: h and t_end must be positive")

    config = ScenarioConfig(name=str(doc["name"]), bodies=bodies, joints=joints,
                            loads=loads, h=h, t_end=t_end)
    _validate_initial_state(config)
    return config


def serialize_scenario(config):
    """Inverse of parse_scenario; parse(serialize(c)) == c."""
    doc = {
        "name": config.name,
        "bodies": [dataclasses.asdict(b) for b in config.bodies],
        "joints": [{key: value for key, value in dataclasses.asdict(j).items()
                    if value is not None} for j in config.joints],
        "integrator": {"h": config.h, "t_end": config.t_end},
    }
    if config.loads:
        doc["loads"] = [dataclasses.asdict(l) for l in config.loads]
    return json.dumps(doc, indent=2) + "\n"


def builtin_scenarios():
    """Names of the scenarios bundled with the package."""
    root = importlib.resources.files("phmbd") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(name_or_path):
    """Resolve a scenario by file path, search path, or builtin name."""
    if os.path.isfile(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    for directory in os.environ.get("MBD_SCENARIO_PATH", "").split(os.pathsep):
        if not directory:
            continue
        candidate = os.path.join(directory, name_or_path + ".json")
        if os.path.isfile(candidate):
            with open(candidate, "r", encoding="utf-8") as fh:
                return parse_scenario(fh.read())
    resource = importlib.resources.files("phmbd") / "scenarios" / (name_or_path + ".json")
    if resource.is_file():
        return parse_scenario(resource.read_text(encoding="utf-8"))
    raise ScenarioError(
        f"unknown scenario {name_or_path!r}; bundled: {', '.join(builtin_scenarios())}")


def _ramp_decay(load):
    scale = np.concatenate([load.force_scale, load.torque_scale]).astype(float)
    peak, t_peak, t_off = load.peak, load.t_peak, load.t_off

    def wrench(t):
        if t <= 0.0 or t > t_off:
            f = 0.0
        elif t <= t_peak:
            f = peak * t / t_peak
        else:
            f = peak * (t_off - t) / (t_off - t_peak)
        return f * scale

    return wrench


def build_system(config):
    """Instantiate (MultibodySystem, initial SystemState) from a config."""
    bodies = [RigidBody(b.index, b.mass, b.inertias, gravity=b.gravity,
                        dimensions=b.dimensions) for b in config.bodies]
    configs = {b.index: np.asarray(b.initial_position) for b in config.bodies}
    joints = []
    for j in config.joints:
        spec = JointSpec(j.type, *j.body_indices, np.asarray(j.joint_location),
                         None if j.reference_axis is None else np.asarray(j.reference_axis))
        joints.append(compile_joint(spec, configs))
    loads = [BodyLoad(l.body, _ramp_decay(l), np.zeros(3)) for l in config.loads]
    system = MultibodySystem(bodies, joints, loads=loads)

    q0 = np.concatenate([np.asarray(b.initial_position) for b in config.bodies])
    v0 = np.concatenate([np.asarray(b.initial_velocity) for b in config.bodies])
    lam0 = np.zeros(system.m)
    lam0[:6 * len(bodies)] = np.concatenate([np.asarray(b.multiplier)
                                             for b in config.bodies])
    return system, SystemState(0.0, q0, v0, lam0)


def slider_crank_initial_velocities(omega_crank, v_crank, rho_ab, rho_bc, rho_c,
                                    d_rod, block_normal, block_axis=(1.0, 0.0, 0.0)):
    """Consistent rod and block velocities of the slider-crank benchmark.

    Solves the 7x7 linear system expressing that the rod's endpoints follow
    the crank tip and the sliding block, and that the rod's spin does not
    violate the locked block direction:

        v_rod - omega_rod x rho_c   - s_dot * axis = 0
        v_rod - omega_rod x rho_bc  = v_crank - omega_crank x rho_ab
        (omega_rod x d3_rod) . n    = 0

    All levers point from the attachment point to the respective center of
    mass (rho_ab: crank COM from the crank tip B; rho_bc / rho_c: rod COM
    from B and from the block anchor C). Returns a dict with the rod and
    block 12-component velocity vectors, omega_rod, and s_dot. Raises
    ScenarioError when the geometry makes the system singular.
    """
    omega_crank = np.asarray(omega_crank, dtype=float)
    v_crank = np.asarray(v_crank, dtype=float)
    rho_ab = np.asarray(rho_ab, dtype=float)
    rho_bc = np.asarray(rho_bc, dtype=float)
    rho_c = np.asarray(rho_c, dtype=float)
    d_rod = np.asarray(d_rod, dtype=float).reshape(3, 3)
    n = np.asarray(block_normal, dtype=float)
    axis = np.asarray(block_axis, dtype=float)

    A = np.zeros((7, 7))
    rhs = np.zeros(7)
    # rod point C velocity equals the block's sliding velocity
    A[0:3, 0:3] = np.eye(3)
    A[0:3, 3:6] = hat(rho_c)
    A[0:3, 6] = -axis
    # rod point B velocity equals the crank tip velocity
    A[3:6, 0:3] = np.eye(3)
    A[3:6, 3:6] = hat(rho_bc)
    rhs[3:6] = v_crank - np.cross(omega_crank, rho_ab)
    # spin compatibility with the locked block direction
    A[6, 3:6] = np.cross(d_rod[2], n)

    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ScenarioError(f"slider-crank geometry is singular: {exc}") from exc
    v_rod, omega_rod, s_dot = x[:3], x[3:6], float(x[6])

    rod = np.concatenate([v_rod, np.cross(omega_rod, d_rod).ravel()])
    block = np.concatenate([s_dot * axis, np.zeros(9)])
    return {"rod": rod, "block": block, "omega_rod": omega_rod, "s_dot": s_dot}


def write_trajectory_csv(traj, path):
    """Write one run as CSV: states, multipliers, and diagnostics per row."""
    n = traj.q.shape[1]
    m = traj.lam.shape[1]
    header = (["t"] + [f"q{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
              + [f"lambda{i}" for i in range(m)]
              + ["H", "Lx", "Ly", "Lz", "max_g", "max_gv", "newton_iters"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(traj.rows):
            fields = ([f"{traj.t[k]:.16e}"]
                      + [f"{x:.16e}" for x in traj.q[k]]
                      + [f"{x:.16e}" for x in traj.v[k]]
                      + [f"{x:.16e}" for x in traj.lam[k]]
                      + [f"{traj.H[k]:.16e}"]
                      + [f"{x:.16e}" for x in traj.L[k]]
                      + [f"{traj.max_g[k]:.16e}", f"{traj.max_gv[k]:.16e}",
                         str(int(traj.newton_iters[k]))])
            fh.write(",".join(fields) + "\n")


def write_summary_json(config, traj, report, scheme, tol, path):
    """JSON sidecar with the config and run summary for reproducibility."""
    summary = {
        "scenario": json.loads(serialize_scenario(config)),
        "integrator": {"scheme": scheme, "h": traj.h, "t_end": config.t_end,
                       "newton_tol": tol},
        "summary": {
            "rows": int(traj.rows),
            "completed": bool(traj.completed),
            "H_initial": float(traj.H[0]),
            "H_final": float(traj.H[-1]),
            "relative_energy_drift": report.relative_energy_drift,
            "max_power_defect": report.max_power_defect,
            "momentum_drift": [float(x) for x in report.momentum_drift],
            "max_g": float(traj.max_g.max()),
            "max_gv": float(traj.max_gv.max()),
            "max_newton_iterations": int(traj.newton_iters.max()),
            "failure": traj.failure,
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
