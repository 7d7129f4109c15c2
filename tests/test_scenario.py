"""Scenario configs: parsing, builtin data, and initial-velocity solving."""
import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest

from phmbd import scenario
from phmbd.assembly import consistency
from phmbd.diagnostics import conservation_report
from phmbd.integrate import IntegratorConfig, Trajectory, simulate
from phmbd.joints import compile_joints
from phmbd.scenario import (
    ScenarioError,
    build_system,
    builtin_scenarios,
    dependent_velocities,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    write_summary_json,
    write_trajectory_csv,
)


def test_builtin_scenario_names():
    assert builtin_scenarios() == ["closed_loop", "flying_pair", "slider_crank"]


def test_roundtrip_serialization():
    for name in builtin_scenarios():
        cfg = load_scenario(name)
        assert parse_scenario(serialize_scenario(cfg)) == cfg


def test_load_scenario_unknown_name():
    with pytest.raises(ScenarioError):
        load_scenario("pendulum")


def test_parse_rejects_malformed_input():
    with pytest.raises(ScenarioError):
        parse_scenario("not json at all {")
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps({"name": "x", "bodies": []}))
    bad = json.loads(serialize_scenario(load_scenario("flying_pair")))
    bad["joints"][0]["type"] = "helical"
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(bad))
    # a pair type is the exact lowercase name, and a pair's constraint count
    # an integer (slider_crank's joint 0 is its revolute pair)
    for field, value, message in (("type", " Revolute ", "unknown pair type ' Revolute '"),
                                  ("type", "REVOLUTE", "unknown pair type 'REVOLUTE'"),
                                  ("type", ["revolute"], "unknown pair type"),
                                  ("constraints", 5.0, "constraints must be an integer"),
                                  ("constraints", True, "constraints must be an integer")):
        bad = json.loads(serialize_scenario(load_scenario("slider_crank")))
        bad["joints"][0][field] = value
        with pytest.raises(ScenarioError, match=f"^joint entry 0: {message}"):
            parse_scenario(json.dumps(bad))
    # RigidBody's checks reject a bad mass or inertia triple while parsing
    for field, value in (("mass", -1.0), ("mass", 0.0), ("inertias", [1.0, 1.0, 3.0])):
        bad = json.loads(serialize_scenario(load_scenario("flying_pair")))
        bad["bodies"][1][field] = value
        with pytest.raises(ScenarioError, match="body entry 1: "):
            parse_scenario(json.dumps(bad))
    # the name is simulate's default output file: a string naming a file in
    # the working directory
    for name in (None, 5, "", "..", "a/b", "..\\x"):
        bad = json.loads(serialize_scenario(load_scenario("flying_pair")))
        bad["name"] = name
        with pytest.raises(ScenarioError, match="^name must be a file name") as info:
            parse_scenario(json.dumps(bad))
        assert "\n" not in str(info.value)
    # NaN and infinite numbers anywhere in the document, and integers
    # beyond the float range
    nan, inf, huge = float("nan"), float("inf"), 10 ** 400
    for path, value in (
            (("bodies", 0, "mass"), nan),
            (("bodies", 0, "inertias", 2), nan),
            (("bodies", 1, "initial_position", 0), nan),  # centre of mass
            (("bodies", 1, "initial_position", 3), nan),  # director
            (("bodies", 1, "initial_velocity", 1), inf),
            (("bodies", 0, "gravity", 2), nan),
            (("joints", 0, "joint_location", 0), nan),
            (("integrator", "h"), nan),
            (("integrator", "t_end"), inf),
            (("bodies", 0, "mass"), huge),
            (("bodies", 0, "inertias", 1), huge),
            (("integrator", "h"), huge)):
        bad = json.loads(serialize_scenario(load_scenario("flying_pair")))
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioError, match="must be finite"):
            parse_scenario(json.dumps(bad))
    # strings and booleans among a vector's entries are not numbers
    for field, value in (("inertias", ["1e-2", "0.02", " 0.025 "]),
                         ("gravity", [True, 0, 0])):
        bad = json.loads(serialize_scenario(load_scenario("flying_pair")))
        bad["bodies"][0][field] = value
        with pytest.raises(ScenarioError, match=f"{field} must contain only numbers"):
            parse_scenario(json.dumps(bad))
    # entries that are not objects, and loads that are not a list
    with pytest.raises(ScenarioError, match="^scenario: must be an object$"):
        parse_scenario("[]")
    for path, value, message in (
            (("bodies", 0), 1, "body entry 0: must be an object"),
            (("joints", 0), "x", "joint entry 0: must be an object"),
            (("integrator",), 3, "integrator: must be an object"),
            (("loads",), 5, "loads must be a list"),
            (("loads",), [3], "load entry 0: must be an object")):
        bad = json.loads(serialize_scenario(load_scenario("flying_pair")))
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            parse_scenario(json.dumps(bad))


def _off_free_director(doc):
    doc["joints"] = []
    doc["bodies"][1]["initial_position"][4] = 1e-5  # d1 . d2


def _off_jointed_director(doc):
    doc["bodies"][1]["initial_position"][4] = 1e-5


def _long_reference_axis(doc):
    doc["joints"][0]["reference_axis"] = [0.0, 0.0, 2.0]


def _amplified_pair_row(doc):
    # within 1e-6 on every orthonormality row of body 0, but the anchor
    # pulled back through its directors misses by 8e-7 per metre
    position = doc["bodies"][0]["initial_position"]
    position[3:] = [(1.0 + 4e-7) * x for x in position[3:]]
    doc["joints"][0]["joint_location"] = [10.0, 0.0, 0.0]


@pytest.mark.parametrize("perturb, message", [
    (_off_free_director, r"^body 1: internal constraint row 4 violated by 1\.000e-05"),
    (_off_jointed_director, r"^joint 0 \(cylindrical\): body 1: director triad violates"),
    (_long_reference_axis, r"^joint 0 \(cylindrical\): reference axis must be a unit"),
    (_amplified_pair_row, r"^joint 0 \(cylindrical\): row 1 of the pair violated by 8\.000e-06"),
], ids=["free_body", "jointed_body", "reference_axis", "pair_row"])
def test_build_system_rejects_inconsistent_initial_state(perturb, message):
    """The document parses; building the system names the body row or the
    pair that the initial state violates."""
    doc = json.loads(serialize_scenario(load_scenario("flying_pair")))
    perturb(doc)
    config = parse_scenario(json.dumps(doc))
    with pytest.raises(ScenarioError, match=message):
        build_system(config)


def test_build_system_rejects_nan_initial_state():
    """A configuration built without parsing: the pair that body 1's NaN
    position enters rejects it when it compiles."""
    config = load_scenario("flying_pair")
    body = config.bodies[1]
    position = (float("nan"),) + body.initial_position[1:]
    bodies = (config.bodies[0], dataclasses.replace(body, initial_position=position))
    with pytest.raises(ScenarioError, match=r"^joint 0 \(cylindrical\): body 1: configuration "
                                            r"must be finite"):
        build_system(dataclasses.replace(config, bodies=bodies))


def _off_manifold(doc, body):
    doc["bodies"][body]["initial_position"][4] = 1e-5  # d1 . d2


@pytest.mark.parametrize("long_axis, bad_body, message", [
    # pair 0 fails at its last check, pairs 2 and 3 (body 2) at their first
    (0, 2, r"^joint 0 \(revolute\): reference axis must be a unit vector, \|axis\| = 2\.0$"),
    # pair 1 fails at its body B, pair 2 at its body B too, pair 3 at its axis
    (3, 1, r"^joint 1 \(spherical\): body 1: director triad violates orthonormality"),
], ids=["earlier_pair_later_check", "later_pair_earlier_check"])
def test_build_system_names_the_first_failing_pair(long_axis, bad_body, message):
    """Every body is checked once and all pairs compile at once, yet where
    several pairs fail the error names the first in declaration order, with
    that pair's own first failing check."""
    doc = json.loads(serialize_scenario(load_scenario("slider_crank")))
    doc["joints"][long_axis]["reference_axis"] = [2.0, 0.0, 0.0]
    _off_manifold(doc, bad_body)
    with pytest.raises(ScenarioError, match=message):
        build_system(parse_scenario(json.dumps(doc)))


def test_each_pair_compiles_once_when_built(monkeypatch):
    """parse_scenario compiles no pair; build_system compiles each once, all
    in one call."""
    calls = []

    def counting(specs, configs):
        calls.extend(specs)
        return compile_joints(specs, configs)

    monkeypatch.setattr(scenario, "compile_joints", counting)
    text = serialize_scenario(load_scenario("slider_crank"))
    config = parse_scenario(text)
    assert calls == []
    build_system(config)
    assert [spec.pair_type for spec in calls] == [j.type for j in config.joints]


def test_flying_pair_setup_data(flying_pair):
    sys, state = flying_pair
    assert [b.mass for b in sys.bodies] == [4.0, 3.0]
    npt.assert_allclose(sys.bodies[0].inertias, [304.0, 304.0, 8.0])
    npt.assert_allclose(sys.bodies[1].inertias, [18.75, 18.75, 19.5])
    assert sys.joints[0].pair_type == "cylindrical"
    npt.assert_allclose(state.q[:3], [0.0, 0.0, 0.0], atol=0.0)
    g_max, gv_max = consistency(sys, state.q, state.v)
    assert g_max <= 1e-12 and gv_max <= 1e-12


def test_slider_crank_setup_data(slider_crank):
    sys, state = slider_crank
    npt.assert_allclose([b.mass for b in sys.bodies], [0.12, 0.5, 2.0])
    kinds = [j.pair_type for j in sys.joints]
    assert kinds == ["revolute", "spherical", "universal", "prismatic"]
    assert sys.joints[0].is_ground and sys.joints[3].is_ground
    assert not sys.joints[1].is_ground and not sys.joints[2].is_ground
    # crank spins at 6 rad/s about e1 (director transport rows)
    d = state.q[3:12].reshape(3, 3)
    dd = state.v[3:12].reshape(3, 3)
    omega = 0.5 * np.cross(d, dd).sum(axis=0)
    npt.assert_allclose(omega, [6.0, 0.0, 0.0], atol=1e-12)


def test_closed_loop_setup_data(closed_loop):
    sys, state = closed_loop
    assert len(sys.bodies) == 4
    assert all(j.pair_type == "spherical" for j in sys.joints)
    assert len(sys.loads) == 1 and sys.loads[0].body == 0
    npt.assert_allclose(state.v, 0.0, atol=0.0)  # starts at rest


def test_closed_loop_load_profile(closed_loop):
    """The bundled closed_loop load ramps to 8 f e1 and 6 f e1 with f = 100
    at t = 0.5 and decays back to zero at t = 1."""
    sys, _ = closed_loop
    closed_loop_load = sys.loads[0].wrench
    t, F = 0.5, closed_loop_load(0.5)
    npt.assert_allclose(F, [800.0, 0, 0, 600.0, 0, 0], atol=0.0)
    npt.assert_allclose(closed_loop_load(0.25), np.array(F) / 2, atol=0.0)
    npt.assert_allclose(closed_loop_load(0.75), np.array(F) / 2, atol=0.0)
    npt.assert_allclose(closed_loop_load(0.0), 0.0, atol=0.0)
    npt.assert_allclose(closed_loop_load(1.0), 0.0, atol=1e-12)
    npt.assert_allclose(closed_loop_load(7.3), 0.0, atol=0.0)


def test_initial_velocity_solver_reproduces_benchmark_rows(slider_crank):
    """Holding the crank, G(q0) v = 0 returns the published starting
    velocities of the rod and the block; an index that is not one of the
    three bodies, or not an integer, is rejected."""
    sys, state = slider_crank
    for bad in (5, -1, 1.5, True):
        with pytest.raises(ScenarioError, match=f"body {bad} is not one of the system's 3"):
            dependent_velocities(sys, state.q, state.v, (bad,))
    v = dependent_velocities(sys, state.q, state.v, (1, 2))
    npt.assert_array_equal(v[:12], state.v[:12])
    d_rod = state.q[15:24].reshape(3, 3)
    omega_rod = 0.5 * np.cross(d_rod, v[15:24].reshape(3, 3)).sum(axis=0)
    npt.assert_allclose(omega_rod, [1.92, -0.96, 0.48], atol=1e-5)
    npt.assert_allclose(v[24], 0.24, atol=1e-6)
    npt.assert_allclose(v[12:24], state.v[12:24], atol=1e-5)
    npt.assert_allclose(v[24:36], state.v[24:36], atol=1e-6)


def test_dependent_velocities_rank_deficient(flying_pair):
    """A cylindrical pair leaves body 1 free to slide along and spin about
    its axis relative to body 0: its 10 rows cannot fix 12 velocities."""
    sys, state = flying_pair
    with pytest.raises(ScenarioError, match=r"bodies \[1\]: rank 10 of 12"):
        dependent_velocities(sys, state.q, state.v, (1,))


def test_build_system_initial_multiplier(slider_crank):
    _, state = slider_crank
    npt.assert_allclose(state.lam, 0.0, atol=0.0)
    assert state.t == 0.0


def test_trajectory_csv_roundtrip(tmp_path, flying_pair):
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.005))
    path = tmp_path / "run.csv"
    write_trajectory_csv(traj, path)
    rows = path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert len(rows) == traj.rows + 1
    assert header[0] == "t" and header[1] == "q0"
    assert header[-3:] == ["max_g", "max_gv", "newton_iters"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    npt.assert_allclose(data[:, 1:1 + sys.n], traj.q, rtol=1e-15)
    npt.assert_allclose(data[:, 0], traj.t, rtol=1e-15)

    # the exact text of a two-row trajectory with one coordinate and one row
    two = Trajectory(t=np.array([0.0, 0.1]), q=np.array([[1.0], [1.0 / 3.0]]),
                     v=np.array([[-2.5], [-0.0]]), lam=np.array([[0.0], [-1e-300]]),
                     H=np.array([1.5, 1.25]),
                     L=np.array([[0.0, 0.0, 1.0], [1e-17, -2.0, 1e300]]),
                     max_g=np.array([0.0, 2.5e-17]), max_gv=np.array([0.0, 7e-16]),
                     newton_iters=np.array([0, 3]), scheme="mp", h=0.1)
    write_trajectory_csv(two, path)
    assert path.read_text() == (
        "t,q0,v0,lambda0,H,Lx,Ly,Lz,max_g,max_gv,newton_iters\n"
        "0.0000000000000000e+00,1.0000000000000000e+00,-2.5000000000000000e+00,"
        "0.0000000000000000e+00,1.5000000000000000e+00,0.0000000000000000e+00,"
        "0.0000000000000000e+00,1.0000000000000000e+00,0.0000000000000000e+00,"
        "0.0000000000000000e+00,0\n"
        "1.0000000000000001e-01,3.3333333333333331e-01,-0.0000000000000000e+00,"
        "-1.0000000000000000e-300,1.2500000000000000e+00,1.0000000000000001e-17,"
        "-2.0000000000000000e+00,1.0000000000000001e+300,2.4999999999999999e-17,"
        "7.0000000000000003e-16,3\n")


def test_summary_json_contents(tmp_path, flying_pair):
    sys, state = flying_pair
    cfg = load_scenario("flying_pair")
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.005))
    rep = conservation_report(traj, sys)
    path = tmp_path / "run.json"
    write_summary_json(cfg, traj, rep, "mp", 1e-9, path)
    doc = json.loads(path.read_text())
    assert doc["scenario"]["name"] == "flying_pair"
    assert doc["integrator"]["scheme"] == "mp"
    assert doc["integrator"]["newton_tol"] == 1e-9
    assert doc["summary"]["completed"] is True
    assert doc["summary"]["rows"] == 6
    assert doc["summary"]["failure"] is None
    assert doc["summary"]["max_g"] <= 1e-9
    assert doc["summary"]["relative_energy_drift"] <= 1e-12
    # the sidecar embeds the scenario document that serialize_scenario writes
    for name in builtin_scenarios():
        cfg = load_scenario(name)
        write_summary_json(cfg, traj, rep, "mp", 1e-9, path)
        doc = json.loads(path.read_text())
        assert doc["scenario"] == json.loads(serialize_scenario(cfg))


def test_load_scenario_from_path(tmp_path):
    cfg = load_scenario("flying_pair")
    p = tmp_path / "copy.json"
    p.write_text(serialize_scenario(cfg))
    assert load_scenario(str(p)) == cfg
