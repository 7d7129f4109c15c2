"""Command line interface: simulate, converge, init-velocities, validate.

init-velocities holds the slider-crank's crank velocities and solves the
rod's and the block's from the assembled constraint Jacobian, G(q0) v = 0
(scenario.dependent_velocities).
"""

import dataclasses
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager

import click
import numpy as np

from .assembly import consistency
from .diagnostics import conservation_report, convergence_orders, rms_error
from .integrate import SCHEMES, IntegratorConfig, simulate
from .scenario import (ScenarioError, build_system, dependent_velocities, load_scenario,
                       write_summary_json, write_trajectory_csv)


@click.group()
def main():
    """Structure-preserving multibody dynamics in director coordinates."""


def _scenario_options(fn):
    fn = click.option("--scenario", required=True,
                      help="Builtin name, file path, or name on MBD_SCENARIO_PATH.")(fn)
    fn = click.option("--integrator", "scheme", type=click.Choice(SCHEMES),
                      default="mp", show_default=True,
                      help="Plain midpoint or the velocity-projected variant.")(fn)
    fn = click.option("--tol", type=float, default=IntegratorConfig.newton_tol, show_default=True,
                      help="Newton absolute tolerance.")(fn)
    return fn


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load(scenario):
    """(config, system, initial state) of a scenario, or one error line."""
    try:
        config = load_scenario(scenario)
        return (config, *build_system(config))
    except ScenarioError as exc:
        _fail(exc)


def _integrator(scheme, tol, h, t_end):
    try:
        return IntegratorConfig(h=h, t_end=t_end, scheme=scheme, newton_tol=tol)
    except ValueError as exc:
        _fail(exc)


@contextmanager
def _outputs(what, *paths):
    """A new temporary file beside each output path, or one error line: an
    output that cannot be written fails before the runs, not after them.
    Once the block completes, the files replace their paths with the mode of
    a new file; on any other exit they go, and an earlier output stays."""
    temps = []
    try:
        for path in paths:
            fd, temp = tempfile.mkstemp(".tmp", f".{os.path.basename(path)}.",
                                        os.path.dirname(path) or ".")
            os.close(fd)
            temps.append(temp)
        yield temps
        umask = os.umask(0)
        os.umask(umask)
        for temp, path in zip(temps, paths):
            os.chmod(temp, 0o666 & ~umask)
            os.replace(temp, path)
    except OSError as exc:
        _fail(f"cannot write {what}: {exc}")
    finally:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)


@main.command("simulate")
@_scenario_options
@click.option("--h", type=float, default=None, help="Step size override.")
@click.option("--t-end", type=float, default=None, help="End time override.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV output path; a .json sidecar is written next to it.")
def simulate_cmd(scenario, scheme, tol, h, t_end, out):
    """Run one scenario and write the trajectory CSV plus a JSON summary."""
    config, system, state0 = _load(scenario)
    h = config.h if h is None else h
    integ = _integrator(scheme, tol, h, config.t_end if t_end is None else t_end)

    if out is None:
        out = f"{config.name}_{scheme}.csv"
    sidecar = (out[:-4] if out.endswith(".csv") else out) + ".json"
    with _outputs("the run's output", out, sidecar) as (out_temp, sidecar_temp):
        started = time.perf_counter()
        traj = simulate(system, state0, integ)
        elapsed = time.perf_counter() - started
        report = conservation_report(traj, system)
        write_trajectory_csv(traj, out_temp)
        write_summary_json(dataclasses.replace(config, h=h, t_end=integ.t_end), traj, report,
                           scheme, tol, sidecar_temp)

    if not traj.completed:
        click.echo(json.dumps({"failure": traj.failure, "rows": int(traj.rows),
                               "out": out}))
        sys.exit(1)
    click.echo(f"completed {traj.rows - 1} steps of {config.name} ({scheme}, h={h:g}) "
               f"in {elapsed:.2f} s")
    click.echo(f"energy drift {report.relative_energy_drift:.3e}, "
               f"power defect {report.max_power_defect:.3e}, "
               f"max|g| {traj.max_g.max():.3e}, max|Gv| {traj.max_gv.max():.3e}")
    click.echo(f"wrote {out} and {sidecar}")


@main.command()
@_scenario_options
@click.option("--h", "h_list", required=True,
              help="Comma-separated step sizes, e.g. 1e-2,1e-3,1e-4.")
@click.option("--ref-h", type=float, required=True, help="Reference step size.")
@click.option("--tbar", type=float, required=True, help="Comparison time.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Optional JSON output with errors and slopes.")
def converge(scenario, scheme, tol, h_list, ref_h, tbar, out):
    """Convergence study against a fine-step reference solution."""
    _, system, state0 = _load(scenario)
    try:
        steps = [float(tok) for tok in h_list.split(",") if tok]
    except ValueError:
        _fail("--h must be a comma-separated list of numbers")
    ref_integ, *integs = [_integrator(scheme, tol, h, tbar) for h in [ref_h] + steps]
    # a step size equal to --ref-h has error exactly zero
    if len(set(steps)) < len(steps) or len(set(steps) - {ref_h}) < 3:
        _fail(f"--h needs three step sizes other than --ref-h, each once, for three positive "
              f"errors to fit a slope, got {h_list}")
    if ref_h > min(steps):
        _fail(f"--ref-h {ref_h:g} is coarser than the step size {min(steps):g} it measures")
    with _outputs("the study's output", *([out] if out else [])) as temps:
        ref = simulate(system, state0, ref_integ)
        if not ref.completed:
            click.echo(json.dumps({"failure": ref.failure, "ref_h": ref_h}))
            sys.exit(1)
        errors = {name: [] for name in ("q", "v", "lam", "H", "L")}
        for h, integ in zip(steps, integs):
            traj = simulate(system, state0, integ)
            if not traj.completed:
                click.echo(json.dumps({"failure": traj.failure, "h": h}))
                sys.exit(1)
            for name, value in rms_error(traj, ref, tbar).items():
                errors[name].append(value)
        try:
            fits = convergence_orders(steps, {k: errors[k] for k in ("q", "v", "lam")})
        except ValueError as exc:
            _fail(exc)
        # H and L are conserved without loads, so their errors have no order
        # and can be exactly zero: their slopes are null unless three errors
        # are positive
        for name in ("H", "L"):
            fits[name] = (convergence_orders(steps, errors[name])
                          if sum(e > 0.0 for e in errors[name]) >= 3 else None)
        slopes = {k: None if fit is None else fit.slope for k, fit in fits.items()}
        for temp in temps:
            with open(temp, "w", encoding="utf-8") as fh:
                json.dump({"h": steps, "ref_h": ref_h, "t_bar": tbar, "errors": errors,
                           "slopes": slopes}, fh, indent=2)
                fh.write("\n")

    click.echo(f"{'quantity':>8}  {'slope':>7}  errors ({', '.join(f'h={h:g}' for h in steps)})")
    for name in ("q", "v", "lam", "H", "L"):
        err_txt = ", ".join(f"{e:.3e}" for e in errors[name])
        slope = "-" if slopes[name] is None else f"{slopes[name]:.3f}"
        click.echo(f"{name:>8}  {slope:>7}  {err_txt}")
    if out:
        click.echo(f"wrote {out}")


@main.command("init-velocities")
@click.option("--scenario", default="slider_crank", show_default=True)
def init_velocities(scenario):
    """Solve the slider-crank rod and block velocities from G(q0) v = 0,
    holding the crank's."""
    config, system, state0 = _load(scenario)
    joints = {j.type: j for j in config.joints}
    needed = {"revolute", "spherical", "universal", "prismatic"}
    if set(joints) != needed or len(config.joints) != 4 or len(config.bodies) != 3:
        _fail("scenario does not have the slider-crank layout "
              "(revolute + spherical + universal + prismatic, 3 bodies)")

    rod = joints["spherical"].body_indices[1]
    block = joints["prismatic"].body_indices[0]
    try:
        v = dependent_velocities(system, state0.q, state0.v, (rod, block))
    except ScenarioError as exc:
        _fail(exc)

    v_rod, v_block = system.body_config(v, rod), system.body_config(v, block)
    d_rod = system.body_config(state0.q, rod)[3:].reshape(3, 3)
    omega_rod = 0.5 * np.cross(d_rod, v_rod[3:].reshape(3, 3)).sum(axis=0)
    click.echo(json.dumps({
        "rod": v_rod.tolist(),
        "block": v_block.tolist(),
        "omega_rod": omega_rod.tolist(),
        "s_dot": float(v_block[:3] @ np.asarray(joints["prismatic"].reference_axis)),
        # only the rod's and the block's velocities differ from the file's
        "max_deviation_from_config": float(np.abs(v - state0.v).max()),
    }, indent=2))


@main.command()
@click.option("--scenario", required=True)
def validate(scenario):
    """Parse a scenario, check consistency, and report its dimensions."""
    config, system, state0 = _load(scenario)
    max_g, max_gv = consistency(system, state0.q, state0.v)
    click.echo(f"{config.name}: {len(config.bodies)} bodies, {len(config.joints)} joints, "
               f"n={system.n}, m={system.m}")
    click.echo(f"initial max|g| = {max_g:.3e}, max|Gv| = {max_gv:.3e}")
    click.echo("OK")


def run(argv):
    """Programmatic entry point; returns the process exit status."""
    try:
        main(args=list(argv), standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    return 0


if __name__ == "__main__":
    main()
