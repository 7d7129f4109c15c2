"""Command-line interface."""
import json

import numpy as np
import pytest
from click.testing import CliRunner

from phmbd.assembly import stack_constraints
from phmbd.cli import main, run
from phmbd.scenario import build_system, load_scenario, serialize_scenario


@pytest.fixture
def runner():
    return CliRunner()


def test_validate_builtin(runner):
    result = runner.invoke(main, ["validate", "--scenario", "flying_pair"])
    assert result.exit_code == 0
    assert "OK" in result.output
    assert "n=24" in result.output and "m=16" in result.output


def test_validate_unknown_scenario(runner):
    result = runner.invoke(main, ["validate", "--scenario", "pendulum"])
    assert result.exit_code == 1


def test_simulate_writes_csv_and_summary(runner, tmp_path):
    out = tmp_path / "fp.csv"
    result = runner.invoke(main, [
        "simulate", "--scenario", "flying_pair", "--h", "0.001",
        "--t-end", "0.01", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 12  # header + 11 states
    sidecar = tmp_path / "fp.json"
    doc = json.loads(sidecar.read_text())
    assert doc["summary"]["completed"] is True
    assert doc["summary"]["rows"] == 11


@pytest.mark.parametrize("scheme", ["mp", "mp-ggl"])
def test_simulate_reports_power_defect_under_load(runner, tmp_path, scheme):
    """closed_loop's energy drift is the work of its load; the power defect,
    the violation of the discrete balance dH = supplied energy, is what
    shows conservation, in the sidecar and on the summary line."""
    out = tmp_path / "cl.csv"
    result = runner.invoke(main, ["simulate", "--scenario", "closed_loop",
                                  "--integrator", scheme, "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "cl.json").read_text())["summary"]
    assert summary["completed"] is True
    assert summary["relative_energy_drift"] > 1.0
    assert summary["max_power_defect"] <= 1e-10
    assert f"power defect {summary['max_power_defect']:.3e}" in result.output


@pytest.mark.parametrize("args", [
    ["--h", "-1"],
    ["--h", "0.003", "--t-end", "0.01"],
    ["--tol", "0"],
    ["--h", "1e-3", "--t-end", "1e300"],
])
def test_simulate_rejects_bad_integrator_input(runner, tmp_path, args):
    """Bad step, grid or tolerance: one error line, exit 1, no run."""
    out = tmp_path / "bad.csv"
    result = runner.invoke(main, ["simulate", "--scenario", "flying_pair",
                                  "--out", str(out)] + args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def _rejected_by(runner, tmp_path, command, doc):
    """Run command on doc: one error line, exit 1, no traceback, no output
    file."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bad.csv"
    args = [command, "--scenario", str(path)]
    result = runner.invoke(main, args + (["--out", str(out)] if command == "simulate" else []))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error:") and result.output.count("\n") == 1
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, mass", [
    pytest.param("validate", -1.0, id="validate"),
    pytest.param("simulate", -1.0, id="simulate"),
    pytest.param("validate", float("nan"), id="validate-nan"),
    pytest.param("simulate", float("nan"), id="simulate-nan"),
])
def test_non_physical_body_reports_error(runner, tmp_path, command, mass):
    """A negative or NaN mass: one error line, exit 1, no traceback."""
    doc = json.loads(serialize_scenario(load_scenario("flying_pair")))
    doc["bodies"][0]["mass"] = mass
    _rejected_by(runner, tmp_path, command, doc)


@pytest.mark.parametrize("command", ["validate", "simulate", "init-velocities"])
def test_off_manifold_initial_state_reports_error(runner, tmp_path, command):
    """A director off the orthonormality manifold passes parsing and is
    rejected when the system is built, by every command that loads a
    scenario."""
    doc = json.loads(serialize_scenario(load_scenario("slider_crank")))
    doc["bodies"][1]["initial_position"][3] += 1e-4
    _rejected_by(runner, tmp_path, command, doc)


def test_converge_rejects_misaligned_grid(runner):
    result = runner.invoke(main, [
        "converge", "--scenario", "flying_pair", "--h", "1e-2,3e-3",
        "--ref-h", "1e-4", "--tbar", "0.01"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output


def test_simulate_ggl_integrator_flag(runner, tmp_path):
    out = tmp_path / "ggl.csv"
    result = runner.invoke(main, [
        "simulate", "--scenario", "flying_pair", "--integrator", "mp-ggl",
        "--h", "0.001", "--t-end", "0.005", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "ggl.json").read_text())
    assert doc["integrator"]["scheme"] == "mp-ggl"
    assert doc["summary"]["max_gv"] <= 1e-9


def test_simulate_failure_reports_and_exits_nonzero(runner, tmp_path):
    """A diverging run produces a failure record and a nonzero exit."""
    out = tmp_path / "sc.csv"
    result = runner.invoke(main, [
        "simulate", "--scenario", "slider_crank", "--integrator", "mp-ggl",
        "--h", "0.05", "--out", str(out)])
    assert result.exit_code == 1
    blob = json.loads(result.output.strip().splitlines()[-1])
    assert blob["failure"]["step"] >= 1
    assert out.exists()  # partial trajectory is still written


def test_simulate_unwritable_output_reports_error(runner, tmp_path, monkeypatch):
    """An --out path in a missing directory is one error line, exit 1, found
    before the simulation runs."""
    def no_simulate(*args):
        pytest.fail("simulate ran although its output cannot be written")

    monkeypatch.setattr("phmbd.cli.simulate", no_simulate)
    out = tmp_path / "no_such_dir" / "x.csv"
    result = runner.invoke(main, [
        "simulate", "--scenario", "flying_pair", "--h", "0.001",
        "--t-end", "0.002", "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: cannot write the run's output" in result.output
    assert "no_such_dir" in result.output
    assert not out.parent.exists()


def test_simulate_slider_crank_midpoint_coarse_step(runner, tmp_path):
    """Midpoint at h=0.02: velocity-level oscillations stay bounded and the
    corrector keeps converging, so the run completes."""
    out = tmp_path / "mp.csv"
    result = runner.invoke(main, [
        "simulate", "--scenario", "slider_crank", "--integrator", "mp",
        "--h", "0.02", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "mp.json").read_text())
    assert doc["summary"]["completed"] is True
    assert doc["summary"]["rows"] == 251


def test_converge_prints_slopes(runner, tmp_path):
    out = tmp_path / "conv.json"
    result = runner.invoke(main, [
        "converge", "--scenario", "flying_pair", "--h", "1e-2,2e-3,1e-3",
        "--ref-h", "1e-4", "--tbar", "0.01", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["t_bar"] == 0.01
    assert set(doc["slopes"]) >= {"q", "v", "lam", "H", "L"}
    assert 1.6 <= doc["slopes"]["q"] <= 2.4
    assert "q" in result.output


def test_init_velocities_matches_tables(runner):
    result = runner.invoke(main, ["init-velocities"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    np.testing.assert_allclose(doc["omega_rod"], [1.92, -0.96, 0.48],
                               atol=1e-5)
    np.testing.assert_allclose(doc["s_dot"], 0.24, atol=1e-6)
    assert doc["max_deviation_from_config"] <= 1e-5


def test_init_velocities_satisfy_velocity_constraints(runner):
    """The printed rod and block velocities, with the file's crank
    velocities, satisfy every row of G(q0) v = 0 to rounding."""
    doc = json.loads(runner.invoke(main, ["init-velocities"]).output)
    system, state = build_system(load_scenario("slider_crank"))
    v = np.concatenate([state.v[:12], doc["rod"], doc["block"]])
    _, G = stack_constraints(system, state.q)
    assert np.abs(G @ v).max() <= 1e-12


def test_scenario_file_path_and_search_path(runner, tmp_path, monkeypatch):
    cfg = load_scenario("flying_pair")
    p = tmp_path / "mine.json"
    p.write_text(serialize_scenario(cfg))
    result = runner.invoke(main, ["validate", "--scenario", str(p)])
    assert result.exit_code == 0
    monkeypatch.setenv("MBD_SCENARIO_PATH", str(tmp_path))
    result = runner.invoke(main, ["validate", "--scenario", "mine"])
    assert result.exit_code == 0


def test_programmatic_run_entry():
    assert run(["validate", "--scenario", "flying_pair"]) == 0
    assert run(["validate", "--scenario", "nope"]) == 1
    assert run(["no-such-command"]) != 0
