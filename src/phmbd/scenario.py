"""Benchmark scenarios: config parsing, system building, and run output.

The configuration format is a JSON document whose field names mirror the
benchmark setup tables (lower snake case). Three scenarios ship with the
package: flying_pair, closed_loop, and slider_crank. Scenario names are
resolved against the directories in the MBD_SCENARIO_PATH environment
variable first, then against the bundled files, and an explicit file path
always wins.

parse_scenario checks the document; build_system checks the initial state,
from the exact g(q) that assembly.consistency reports too.
dependent_velocities solves some bodies' velocities from the same system's
exact G(q) v = 0, holding the others; `phmbd init-velocities` uses it to
derive the slider-crank's rod and block velocities from its crank's.
"""

import dataclasses
import importlib.resources
import json
import math
import os

import numpy as np

from .assembly import (BodyLoad, MultibodySystem, SystemState, _constraint_values,
                       _jacobian_values)
from .directors import RigidBody
from .joints import PAIR_CONSTRAINT_COUNTS, JointError, JointSpec, compile_joint

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
    "dependent_velocities",
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
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: must be an object")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {', '.join(unknown)}")


# json.loads gives every number as an int or a float; true and false are
# bools, a type of their own, so they are not numbers here
_NUMBER_TYPES = {int, float}


def _float(x):
    """float(x) of a JSON number, with an integer beyond the float range as
    infinity. Raises TypeError for anything else, a bool or a string too."""
    if type(x) not in _NUMBER_TYPES:
        raise TypeError(f"not a number: {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _vector(obj, key, length, where):
    value = obj[key]
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ScenarioError(f"{where}: {key} must be a list of {length} numbers")
    try:
        numbers = tuple(map(_float, value))
    except TypeError:
        raise ScenarioError(f"{where}: {key} must contain only numbers") from None
    if not all(map(math.isfinite, numbers)):
        raise ScenarioError(f"{where}: {key} must be finite")
    return numbers


def _number(obj, key, where):
    try:
        number = _float(obj[key])
    except TypeError:
        raise ScenarioError(f"{where}: {key} must be a number") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: {key} must be finite")
    return number


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
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in PAIR_CONSTRAINT_COUNTS:
        raise ScenarioError(f"{where}: unknown pair type {kind!r}; "
                            f"expected one of {', '.join(PAIR_CONSTRAINT_COUNTS)}")
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
        if not isinstance(count, int) or isinstance(count, bool):
            raise ScenarioError(f"{where}: constraints must be an integer, got {count!r}")
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


def parse_scenario(text):
    """Parse a scenario document into a ScenarioConfig.

    Checks the document only: fields, types, finite numbers, ranges, pair
    types, and each body's mass and inertias. The name is a file name in
    the working directory (simulate's default output), so neither empty,
    "." nor "..", nor holding a / or \\. Raises ScenarioError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    _check_keys(doc, ("name", "bodies", "joints", "integrator"), ("loads",), "scenario")
    name = doc["name"]
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ScenarioError(f"name must be a file name without / or \\, got {name!r}")

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
    loads = doc.get("loads", [])
    if not isinstance(loads, list):
        raise ScenarioError("loads must be a list")
    loads = tuple(_parse_load(l, f"load entry {k}", len(bodies))
                  for k, l in enumerate(loads))

    integ = doc["integrator"]
    _check_keys(integ, ("h", "t_end"), (), "integrator")
    h = _number(integ, "h", "integrator")
    t_end = _number(integ, "t_end", "integrator")
    if h <= 0 or t_end <= 0:
        raise ScenarioError("integrator: h and t_end must be positive")

    return ScenarioConfig(name=name, bodies=bodies, joints=joints, loads=loads, h=h, t_end=t_end)


def _document(config):
    """The scenario document of config, from shallow copies of its fields."""
    doc = {
        "name": config.name,
        "bodies": [dict(vars(b)) for b in config.bodies],
        "joints": [{k: v for k, v in vars(j).items() if v is not None} for j in config.joints],
        "integrator": {"h": config.h, "t_end": config.t_end},
    }
    if config.loads:
        doc["loads"] = [dict(vars(l)) for l in config.loads]
    return doc


def serialize_scenario(config):
    """Inverse of parse_scenario; parse(serialize(c)) == c."""
    return json.dumps(_document(config), indent=2) + "\n"


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
    """Instantiate (MultibodySystem, initial SystemState) from a config.

    Compiles each pair once, then requires every row of g(q0), from the
    system's exact constraint constants, within CONSISTENCY_TOL. Raises
    ScenarioError naming the pair that fails to compile, or the worst row
    (a NaN one first) as "body k: internal constraint row r" or
    "joint k (type): row r of the pair".
    """
    bodies = [RigidBody(b.index, b.mass, b.inertias, gravity=b.gravity) for b in config.bodies]
    configs = {b.index: np.asarray(b.initial_position) for b in config.bodies}
    joints = []
    for k, j in enumerate(config.joints):
        spec = JointSpec(j.type, *j.body_indices, np.asarray(j.joint_location),
                         None if j.reference_axis is None else np.asarray(j.reference_axis))
        try:
            joints.append(compile_joint(spec, configs))
        except JointError as exc:
            raise ScenarioError(f"joint {k} ({j.type}): {exc}") from exc
    loads = [BodyLoad(l.body, _ramp_decay(l), np.zeros(3)) for l in config.loads]
    system = MultibodySystem(bodies, joints, loads=loads)

    q0 = np.concatenate([np.asarray(b.initial_position) for b in config.bodies])
    v0 = np.concatenate([np.asarray(b.initial_velocity) for b in config.bodies])
    g, _ = _constraint_values(system, q0, v0)
    row = int(np.argmax(np.abs(g)))  # the first NaN row, if there is one
    if not abs(g[row]) <= CONSISTENCY_TOL:
        if row < system.m_internal:
            where = f"body {row // 6}: internal constraint row {row % 6 + 1}"
        else:
            starts = np.cumsum([system.m_internal] + [j.count for j in joints])
            k = int(np.searchsorted(starts, row, side="right")) - 1
            where = f"joint {k} ({joints[k].pair_type}): row {row - starts[k] + 1} of the pair"
        raise ScenarioError(f"{where} violated by {abs(g[row]):.3e} in the initial position")

    lam0 = np.zeros(system.m)
    lam0[:6 * len(bodies)] = np.concatenate([np.asarray(b.multiplier)
                                             for b in config.bodies])
    return system, SystemState(0.0, q0, v0, lam0)


def dependent_velocities(system, q, v, bodies):
    """v with the velocities of `bodies` solved from G(q) v = 0.

    Every velocity outside `bodies` is kept, and the free ones solve
    G(q)[:, free] v_free = -G(q)[:, given] v_given by least squares on the
    system's exact constraint Jacobian; rows that do not touch `bodies` are
    zero in the free columns and do not change the solution. Returns the
    full velocity vector. Raises ScenarioError naming the bodies and the
    rank when G(q)[:, free] lacks full column rank, that is when the
    constraints leave some velocity of `bodies` undetermined, and naming
    an index of `bodies` that is not a body of the system.
    """
    free = np.zeros(system.n, dtype=bool)
    for k in bodies:
        if not 0 <= k < len(system.bodies):
            raise ScenarioError(f"body {k} is not one of the system's {len(system.bodies)} bodies")
        free[12 * k:12 * k + 12] = True
    G = system._G_pattern.dense(_jacobian_values(system, q))
    v = np.array(v, dtype=float)
    solved, _, rank, _ = np.linalg.lstsq(G[:, free], -G[:, ~free] @ v[~free], rcond=None)
    if rank < free.sum():
        raise ScenarioError(f"the constraints do not fix the velocities of bodies "
                            f"{list(bodies)}: rank {rank} of {free.sum()}")
    v[free] = solved
    return v


def write_trajectory_csv(traj, path):
    """Write one run as CSV: states, multipliers, and diagnostics per row,
    every float as %.16e and the Newton iteration count as an integer."""
    n = traj.q.shape[1]
    m = traj.lam.shape[1]
    header = (["t"] + [f"q{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
              + [f"lambda{i}" for i in range(m)]
              + ["H", "Lx", "Ly", "Lz", "max_g", "max_gv", "newton_iters"])
    floats = np.column_stack([traj.t, traj.q, traj.v, traj.lam, traj.H, traj.L,
                              traj.max_g, traj.max_gv])
    row = ",".join(["%.16e"] * floats.shape[1]) + ",%d\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % (*values.tolist(), its)
                      for values, its in zip(floats, traj.newton_iters.tolist()))


def write_summary_json(config, traj, report, scheme, tol, path):
    """JSON sidecar with the config and run summary for reproducibility."""
    summary = {
        "scenario": _document(config),
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
