"""Scenario configs: parsing, builtin data, and initial-velocity solving."""
import json

import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import consistency
from phmbd.diagnostics import conservation_report
from phmbd.integrate import IntegratorConfig, simulate
from phmbd.scenario import (
    ScenarioError,
    build_system,
    builtin_scenarios,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    slider_crank_initial_velocities,
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
    # RigidBody's checks reject a bad mass or inertia triple while parsing
    for field, value in (("mass", -1.0), ("mass", 0.0), ("inertias", [1.0, 1.0, 3.0])):
        bad = json.loads(serialize_scenario(load_scenario("flying_pair")))
        bad["bodies"][1][field] = value
        with pytest.raises(ScenarioError, match="body entry 1: "):
            parse_scenario(json.dumps(bad))


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
    """The 7x7 kinematic solve returns the published starting velocities."""
    sys, state = slider_crank
    point_b = np.array([0.0, 0.1, 0.2])
    point_c = np.array([0.2, 0.0, 0.0])
    com_crank, com_rod = state.q[:3], state.q[12:15]
    d_rod = state.q[15:24]
    out = slider_crank_initial_velocities(
        omega_crank=[6.0, 0.0, 0.0],
        v_crank=state.v[:3],
        rho_ab=com_crank - point_b,
        rho_bc=com_rod - point_b,
        rho_c=com_rod - point_c,
        d_rod=d_rod,
        block_normal=[1.0, 0.0, 0.0],
    )
    npt.assert_allclose(out["omega_rod"], [1.92, -0.96, 0.48], atol=1e-5)
    npt.assert_allclose(out["s_dot"], 0.24, atol=1e-6)
    npt.assert_allclose(out["rod"], state.v[12:24], atol=1e-5)
    npt.assert_allclose(out["block"], state.v[24:36], atol=1e-6)


def test_initial_velocity_solver_singular_geometry():
    with pytest.raises(ScenarioError):
        # rod axis parallel to the locked direction degenerates the spin row
        slider_crank_initial_velocities(
            omega_crank=[0.0, 0.0, 0.0], v_crank=[0.0, 0.0, 0.0],
            rho_ab=[0.0, 0.0, 0.0], rho_bc=[0.0, 0.0, 0.0],
            rho_c=[0.0, 0.0, 0.0], d_rod=np.eye(3).reshape(-1),
            block_normal=[0.0, 0.0, 1.0])


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


def test_load_scenario_from_path(tmp_path):
    cfg = load_scenario("flying_pair")
    p = tmp_path / "copy.json"
    p.write_text(serialize_scenario(cfg))
    assert load_scenario(str(p)) == cfg
