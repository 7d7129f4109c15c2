"""Command line interface: simulate, converge, init-velocities, validate."""

import json
import sys
import time

import click
import numpy as np

from .assembly import consistency
from .diagnostics import conservation_report, convergence_orders, rms_error
from .integrate import IntegratorConfig, simulate
from .scenario import (ScenarioError, build_system, load_scenario,
                       slider_crank_initial_velocities, write_summary_json,
                       write_trajectory_csv)

_INTEGRATORS = ("mp", "mp-ggl")


@click.group()
def main():
    """Structure-preserving multibody dynamics in director coordinates."""


def _scenario_options(fn):
    fn = click.option("--scenario", required=True,
                      help="Builtin name, file path, or name on MBD_SCENARIO_PATH.")(fn)
    fn = click.option("--integrator", "scheme", type=click.Choice(_INTEGRATORS),
                      default="mp", show_default=True,
                      help="Plain midpoint or the velocity-projected variant.")(fn)
    fn = click.option("--tol", type=float, default=1e-9, show_default=True,
                      help="Newton absolute tolerance.")(fn)
    return fn


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load(scenario):
    try:
        return load_scenario(scenario)
    except ScenarioError as exc:
        _fail(exc)


def _integrator(scheme, tol, h, t_end):
    try:
        return IntegratorConfig(h=h, t_end=t_end, scheme=scheme, newton_tol=tol)
    except ValueError as exc:
        _fail(exc)


@main.command("simulate")
@_scenario_options
@click.option("--h", type=float, default=None, help="Step size override.")
@click.option("--t-end", type=float, default=None, help="End time override.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV output path; a .json sidecar is written next to it.")
def simulate_cmd(scenario, scheme, tol, h, t_end, out):
    """Run one scenario and write the trajectory CSV plus a JSON summary."""
    config = _load(scenario)
    h = config.h if h is None else h
    integ = _integrator(scheme, tol, h, config.t_end if t_end is None else t_end)
    system, state0 = build_system(config)

    started = time.perf_counter()
    traj = simulate(system, state0, integ)
    elapsed = time.perf_counter() - started
    report = conservation_report(traj, system)

    if out is None:
        out = f"{config.name}_{scheme}.csv"
    sidecar = (out[:-4] if out.endswith(".csv") else out) + ".json"
    write_trajectory_csv(traj, out)
    write_summary_json(config, traj, report, scheme, tol, sidecar)

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
    config = _load(scenario)
    try:
        steps = [float(tok) for tok in h_list.split(",") if tok]
    except ValueError:
        _fail("--h must be a comma-separated list of numbers")
    ref_integ, *integs = [_integrator(scheme, tol, h, tbar) for h in [ref_h] + steps]

    def run(integ):
        system, state0 = build_system(config)
        return simulate(system, state0, integ)

    ref = run(ref_integ)
    errors = {name: [] for name in ("q", "v", "lam", "H", "L")}
    for h, integ in zip(steps, integs):
        traj = run(integ)
        if not traj.completed:
            click.echo(json.dumps({"failure": traj.failure, "h": h}))
            sys.exit(1)
        for name, value in rms_error(traj, ref, tbar).items():
            errors[name].append(value)

    fits = convergence_orders(steps, errors)
    click.echo(f"{'quantity':>8}  {'slope':>7}  errors ({', '.join(f'h={h:g}' for h in steps)})")
    for name in ("q", "v", "lam", "H", "L"):
        err_txt = ", ".join(f"{e:.3e}" for e in errors[name])
        click.echo(f"{name:>8}  {fits[name].slope:7.3f}  {err_txt}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"h": steps, "ref_h": ref_h, "t_bar": tbar,
                       "errors": errors,
                       "slopes": {k: fits[k].slope for k in fits}}, fh, indent=2)
            fh.write("\n")
        click.echo(f"wrote {out}")


@main.command("init-velocities")
@click.option("--scenario", default="slider_crank", show_default=True)
def init_velocities(scenario):
    """Re-derive the slider-crank initial velocities from its joints."""
    config = _load(scenario)
    joints = {j.type: j for j in config.joints}
    needed = {"revolute", "spherical", "universal", "prismatic"}
    if set(joints) != needed or len(config.joints) != 4 or len(config.bodies) != 3:
        _fail("scenario does not have the slider-crank layout "
              "(revolute + spherical + universal + prismatic, 3 bodies)")

    crank = config.bodies[joints["spherical"].body_indices[0]]
    rod = config.bodies[joints["spherical"].body_indices[1]]
    point_b = np.asarray(joints["spherical"].joint_location)
    point_c = np.asarray(joints["universal"].joint_location)
    com_crank = np.asarray(crank.initial_position[:3])
    com_rod = np.asarray(rod.initial_position[:3])
    d_crank = np.asarray(crank.initial_position[3:]).reshape(3, 3)
    dd_crank = np.asarray(crank.initial_velocity[3:]).reshape(3, 3)
    omega_crank = 0.5 * np.cross(d_crank, dd_crank).sum(axis=0)

    try:
        solved = slider_crank_initial_velocities(
            omega_crank, np.asarray(crank.initial_velocity[:3]),
            rho_ab=com_crank - point_b, rho_bc=com_rod - point_b,
            rho_c=com_rod - point_c,
            d_rod=np.asarray(rod.initial_position[3:]),
            block_normal=np.asarray(joints["universal"].reference_axis),
            block_axis=np.asarray(joints["prismatic"].reference_axis))
    except ScenarioError as exc:
        _fail(exc)

    block = config.bodies[joints["prismatic"].body_indices[0]]
    deviation = max(
        float(np.abs(solved["rod"] - np.asarray(rod.initial_velocity)).max()),
        float(np.abs(solved["block"] - np.asarray(block.initial_velocity)).max()))
    click.echo(json.dumps({
        "rod": [float(x) for x in solved["rod"]],
        "block": [float(x) for x in solved["block"]],
        "omega_rod": [float(x) for x in solved["omega_rod"]],
        "s_dot": solved["s_dot"],
        "max_deviation_from_config": deviation,
    }, indent=2))


@main.command()
@click.option("--scenario", required=True)
def validate(scenario):
    """Parse a scenario, check consistency, and report its dimensions."""
    config = _load(scenario)
    system, state0 = build_system(config)
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
