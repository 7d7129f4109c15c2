"""Command-line interface."""
import json

import numpy as np
import pytest
from click.testing import CliRunner

from phmbd.assembly import stack_constraints
from phmbd.cli import main, run
from phmbd.diagnostics import rms_error
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
    # the sidecar records the run's grid, and its scenario reproduces the run
    assert doc["integrator"]["h"] == 0.001 and doc["integrator"]["t_end"] == 0.01
    assert doc["scenario"]["integrator"] == {"h": 0.001, "t_end": 0.01}
    # the outputs take the mode of a file newly opened for writing
    probe = tmp_path / "probe"
    probe.write_text("")
    modes = {p.stat().st_mode & 0o777 for p in (out, sidecar, probe)}
    assert len(modes) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fp.csv", "fp.json", "probe"]


def test_simulate_writes_to_working_directory_by_default(runner, tmp_path, monkeypatch):
    """Without --out the trajectory goes to <name>_<scheme>.csv in the
    working directory, with its sidecar beside it."""
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [
        "simulate", "--scenario", "flying_pair", "--integrator", "mp-ggl",
        "--h", "0.001", "--t-end", "0.002"])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flying_pair_mp-ggl.csv",
                                                          "flying_pair_mp-ggl.json"]
    assert "wrote flying_pair_mp-ggl.csv and flying_pair_mp-ggl.json" in result.output
    assert len((tmp_path / "flying_pair_mp-ggl.csv").read_text().splitlines()) == 4


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


def _error_line(result):
    """One error line on the output, exit 1, no traceback."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error:") and result.output.count("\n") == 1
    assert "Traceback" not in result.output


def _rejected_by(runner, tmp_path, command, doc):
    """Run command on doc: one error line, exit 1, no traceback, no output
    file."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bad.csv"
    args = [command, "--scenario", str(path)]
    result = runner.invoke(main, args + (["--out", str(out)] if command == "simulate" else []))
    _error_line(result)
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


@pytest.mark.parametrize("command", ["validate", "simulate", "init-velocities"])
def test_escaping_name_reports_error(runner, tmp_path, monkeypatch, command):
    """A name that leaves the working directory is rejected while parsing,
    by every command that loads a scenario; without --out, where the name
    would pick simulate's output path, nothing is written anywhere.
    slider_crank's layout is the one init-velocities accepts."""
    doc = json.loads(serialize_scenario(load_scenario("slider_crank")))
    doc["name"] = "../escaped"
    _rejected_by(runner, tmp_path, command, doc)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    _error_line(runner.invoke(main, [command, "--scenario", str(tmp_path / "bad.json")]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "work"]
    assert not any(work.iterdir())


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


def _no_simulate(*args):
    pytest.fail("simulate ran although the command was bound to fail")


def test_simulate_unwritable_output_reports_error(runner, tmp_path, monkeypatch):
    """An --out path in a missing directory is one error line, exit 1, found
    before the simulation runs."""
    monkeypatch.setattr("phmbd.cli.simulate", _no_simulate)
    out = tmp_path / "no_such_dir" / "x.csv"
    result = runner.invoke(main, [
        "simulate", "--scenario", "flying_pair", "--h", "0.001",
        "--t-end", "0.002", "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: cannot write the run's output" in result.output
    assert "no_such_dir" in result.output
    assert not out.parent.exists()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_simulate_raising_run_keeps_earlier_output(runner, tmp_path, monkeypatch, error):
    """A run that raises, or is interrupted, leaves an earlier output and its
    sidecar as they were, with no temporary file beside them."""
    def _raise(*args):
        raise error

    monkeypatch.setattr("phmbd.cli.simulate", _raise)
    out, sidecar = tmp_path / "x.csv", tmp_path / "x.json"
    out.write_text("earlier run\n")
    sidecar.write_text("earlier summary\n")
    result = runner.invoke(main, ["simulate", "--scenario", "flying_pair", "--out", str(out)])
    assert result.exit_code == 1
    assert out.read_text() == "earlier run\n" and sidecar.read_text() == "earlier summary\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]


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
    """A study fits its slopes, also with a fourth step size equal to
    --ref-h, whose error is exactly zero, beside three others."""
    out = tmp_path / "conv.json"
    for h, ref_h in (("1e-2,2e-3,1e-3", "1e-4"), ("1e-2,5e-3,2e-3,1e-3", "1e-3")):
        result = runner.invoke(main, [
            "converge", "--scenario", "flying_pair", "--h", h,
            "--ref-h", ref_h, "--tbar", "0.01", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["t_bar"] == 0.01
        assert set(doc["slopes"]) >= {"q", "v", "lam", "H", "L"}
        assert 1.6 <= doc["slopes"]["q"] <= 2.4
        assert "q" in result.output


def test_converge_needs_three_step_sizes(runner, monkeypatch):
    """Two step sizes, one step size three times, or a reference coarser
    than a step size it measures cannot fit a slope: one error line before
    any run."""
    monkeypatch.setattr("phmbd.cli.simulate", _no_simulate)
    for h, ref_h, tbar, words in (("1e-2,5e-3", "1e-3", "0.01", "three step sizes"),
                                  ("2e-3,2e-3,2e-3", "1e-3", "0.01", "three step sizes"),
                                  ("2e-3,1e-3,5e-4", "1e-2", "0.02", "--ref-h 0.01 is coarser")):
        result = runner.invoke(main, [
            "converge", "--scenario", "flying_pair", "--h", h,
            "--ref-h", ref_h, "--tbar", tbar])
        _error_line(result)
        assert words in result.output


def test_converge_rejects_non_numeric_step_sizes(runner, monkeypatch):
    monkeypatch.setattr("phmbd.cli.simulate", _no_simulate)
    result = runner.invoke(main, [
        "converge", "--scenario", "flying_pair", "--h", "1e-2,fine,1e-3",
        "--ref-h", "1e-4", "--tbar", "0.01"])
    _error_line(result)
    assert "--h must be a comma-separated list of numbers" in result.output


def test_converge_unwritable_output_reports_error(runner, tmp_path, monkeypatch):
    """An --out path in a missing directory is one error line, exit 1, found
    before the reference and the step sizes run."""
    monkeypatch.setattr("phmbd.cli.simulate", _no_simulate)
    out = tmp_path / "no_such_dir" / "x.json"
    result = runner.invoke(main, [
        "converge", "--scenario", "flying_pair", "--h", "1e-2,5e-3,2e-3",
        "--ref-h", "1e-3", "--tbar", "0.01", "--out", str(out)])
    _error_line(result)
    assert "error: cannot write" in result.output and "no_such_dir" in result.output
    assert not out.parent.exists()


def test_converge_zero_errors_report_error(runner, monkeypatch):
    """A step size equal to the reference's has error exactly zero, which
    leaves two samples for the slope fit: one error line before any run."""
    monkeypatch.setattr("phmbd.cli.simulate", _no_simulate)
    result = runner.invoke(main, [
        "converge", "--scenario", "flying_pair", "--h", "1e-2,2e-3,1e-3",
        "--ref-h", "1e-3", "--tbar", "0.01"])
    _error_line(result)
    assert "three positive errors" in result.output


def test_converge_conserved_quantities_without_slope(runner, tmp_path, monkeypatch):
    """An H error that is exactly zero, as flying_pair's at h = 1e-3 against
    the h = 1e-5 reference is, leaves H without a slope; the study still
    fits q, v and lambda."""
    calls = []

    def exact_energy_once(traj, ref, tbar):
        errors = rms_error(traj, ref, tbar)
        calls.append(traj)
        if len(calls) == 2:
            errors["H"] = 0.0
        return errors

    monkeypatch.setattr("phmbd.cli.rms_error", exact_energy_once)
    out = tmp_path / "conv.json"
    result = runner.invoke(main, [
        "converge", "--scenario", "flying_pair", "--h", "1e-2,2e-3,1e-3",
        "--ref-h", "1e-4", "--tbar", "0.01", "--out", str(out)])
    assert result.exit_code == 0, result.output
    slopes = json.loads(out.read_text())["slopes"]
    assert slopes["H"] is None and isinstance(slopes["L"], float)
    assert 1.6 <= slopes["q"] <= 2.4
    assert any(line.split()[:2] == ["H", "-"] for line in result.output.splitlines())


def test_converge_failed_reference_reports_failure(runner, tmp_path):
    """A reference run that diverges is reported like a failed step-size
    run: the failure record and exit 1, no traceback. An earlier study at
    the --out path is left as it was, with no temporary file beside it."""
    out = tmp_path / "study.json"
    out.write_text("earlier study\n")
    result = runner.invoke(main, [
        "converge", "--scenario", "slider_crank", "--integrator", "mp-ggl",
        "--h", "0.25,0.125,0.1", "--ref-h", "0.05", "--tbar", "0.5", "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    blob = json.loads(result.output.strip().splitlines()[-1])
    assert blob["ref_h"] == 0.05 and blob["failure"]["step"] >= 1
    assert out.read_text() == "earlier study\n"
    assert [p.name for p in tmp_path.iterdir()] == ["study.json"]


def test_converge_failed_step_size_reports_failure(runner, tmp_path):
    """A step-size run that diverges after the reference completed is
    reported by its failure record and step size, exit 1; no study is
    written."""
    out = tmp_path / "study.json"
    result = runner.invoke(main, [
        "converge", "--scenario", "slider_crank", "--integrator", "mp-ggl",
        "--h", "0.1,0.05,0.025", "--ref-h", "0.01", "--tbar", "0.5", "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    blob = json.loads(result.output.strip().splitlines()[-1])
    assert blob["h"] == 0.1 and blob["failure"]["step"] >= 1
    assert list(tmp_path.iterdir()) == []


def test_init_velocities_needs_slider_crank_layout(runner):
    result = runner.invoke(main, ["init-velocities", "--scenario", "flying_pair"])
    _error_line(result)
    assert "does not have the slider-crank layout" in result.output


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
