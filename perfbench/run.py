"""End-to-end and per-layer benchmark of the phmbd simulate path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bundled-mp --seed 1 --seconds 15 --trace 0

Each case runs the library the way `phmbd simulate --out` does:
load_scenario / parse_scenario -> build_system -> simulate ->
conservation_report -> write_trajectory_csv + write_summary_json, with
every call timed from outside. One pass runs every case of the workload
once; passes repeat, closed loop and one simulation at a time, until
`--seconds` have elapsed. Every simulation is checked (see `check`) and a
failed check counts in `failed`, never dropped.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json.
`--trace 1` spends half the time untraced and half with spans around the
library's public functions (see tracer.py) and reports the per-layer
metrics, per pass of the workload. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The library is imported from `src/` of the checkout; the command fails
without printing a result when it is not there. See README.md for why
each workload exists.
"""
import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: on a shared two-CPU host a second thread made the
# 24-body chain no faster and its run-to-run spread wider.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NEWTON_TOL = 1e-9
MOMENTUM_TOL = 1e-10
SETUP_SECONDS_PER_PASS = 0.2
# The shared host runs this process at two speeds about 1.75x apart,
# switching within a second, and the share of fast stretches in a run
# ranges from none to about half with other tenants' load. A mean or a
# median follows that share; the upper quartile of timings of the same work
# repeated across a run stays in the slow speed unless fast stretches fill
# three quarters of the run. Step times, the rest of each case's user path
# and set-up times are summarised by this quantile.
TIME_QUANTILE = 0.75
MB = 1e6

CHAIN_BODIES = 24


@dataclasses.dataclass(frozen=True)
class Case:
    """One simulation of a workload pass and its correctness bounds."""

    scenario: str
    scheme: str
    h: float
    t_end: float
    max_power_defect: float
    momentum_exact: bool = False

    @property
    def steps(self):
        return int(round(self.t_end / self.h))


# Fixed lengths keep one pass at 2-4 s, so a run holds several passes.
# Step counts are chosen so the pooled per-step median falls inside the
# flying_pair cluster and the 90th percentile inside the slowest case,
# not on a boundary between cases. Power-defect bounds sit ten or more
# times above what these runs show (1.3e-9 on slider_crank mp, whose
# initial data carries a 7.8e-7 constraint defect; below 1e-11 elsewhere).
WORKLOADS = {
    "bundled-mp": (
        Case("flying_pair", "mp", 1e-3, 0.3, 1e-10, momentum_exact=True),
        Case("slider_crank", "mp", 0.01, 1.0, 1e-8),
        Case("closed_loop", "mp", 0.1, 10.0, 1e-10),
    ),
    "bundled-ggl": (
        Case("flying_pair", "mp-ggl", 1e-3, 0.2, 1e-10, momentum_exact=True),
        Case("slider_crank", "mp-ggl", 0.005, 0.5, 1e-10),
        Case("closed_loop", "mp-ggl", 0.1, 4.0, 1e-10),
    ),
    "chain": (
        Case("chain", "mp", 0.01, 0.2, 1e-10),
    ),
}


def scenario_texts(workload, seed):
    """Generated scenario text per case; None means a bundled scenario."""
    import chain

    return [chain.chain_text(CHAIN_BODIES, seed, case.h, case.t_end)
            if case.scenario == "chain" else None
            for case in WORKLOADS[workload]]


def environment(phmbd, numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "phmbd": os.path.relpath(phmbd.__file__, ROOT),
    }


class Bench:
    """Runs the cases of one workload and keeps their timings."""

    def __init__(self, workload, texts, outdir):
        self.cases = WORKLOADS[workload]
        self.texts = texts
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0

    def setup(self, case, text):
        """Scenario text -> (config, system, state), with the two timings."""
        from phmbd.scenario import build_system, load_scenario, parse_scenario

        start = time.perf_counter()
        config = load_scenario(case.scenario) if text is None else parse_scenario(text)
        parsed = time.perf_counter()
        system, state = build_system(config)
        built = time.perf_counter()
        return config, system, state, parsed - start, built - parsed

    def setup_samples(self, seconds):
        """Set-up times of every case of a pass, repeated for `seconds`; at
        least one."""
        samples = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            total = 0.0
            for case, text in zip(self.cases, self.texts):
                _, _, _, parse_s, build_s = self.setup(case, text)
                total += parse_s + build_s
            samples.append(total)
        return samples

    def run_case(self, case, text, simulate):
        """The user path of one case; returns its timings and dimensions."""
        from phmbd import integrate
        from phmbd.diagnostics import conservation_report
        from phmbd.scenario import write_summary_json, write_trajectory_csv

        start = time.perf_counter()
        config, system, state, parse_s, build_s = self.setup(case, text)
        integ = integrate.IntegratorConfig(h=case.h, t_end=case.t_end,
                                           scheme=case.scheme, newton_tol=NEWTON_TOL)
        t0 = time.perf_counter()
        with StepTimer(integrate) as steps:
            traj = simulate(system, state, integ)
        t1 = time.perf_counter()
        report = conservation_report(traj, system)
        t2 = time.perf_counter()
        csv_path = os.path.join(self.outdir, f"{config.name}_{case.scheme}.csv")
        json_path = csv_path[:-4] + ".json"
        write_trajectory_csv(traj, csv_path)
        write_summary_json(config, traj, report, case.scheme, NEWTON_TOL, json_path)
        end = time.perf_counter()
        problems = check(case, traj, report, csv_path, json_path)
        return {
            "wall": end - start, "parse": parse_s, "build": build_s,
            "simulate": t1 - t0, "report": t2 - t1, "write": end - t2,
            "steps": traj.rows - 1, "step_times": steps.times,
            "csv_bytes": os.path.getsize(csv_path),
            "hessian_bytes": 8.0 * system.m * system.n ** 2,
            "problems": problems,
        }

    def run_pass(self, simulate):
        """Every case once; returns the case records."""
        records = []
        for case, text in zip(self.cases, self.texts):
            self.attempted += 1
            try:
                record = self.run_case(case, text, simulate)
            except Exception:  # a broken library must still yield a result line
                traceback.print_exc(file=sys.stderr)
                record = {"problems": ["raised"]}
            if record["problems"]:
                self.failed += 1
                print(f"FAILED {case.scenario} {case.scheme}: "
                      f"{'; '.join(record['problems'])}", file=sys.stderr)
            records.append(record)
        return records

    def measure(self, seconds, simulate, setup=None):
        """Whole passes until `seconds` have elapsed; at least one.

        With a `setup` list, set-up samples are appended to it before each
        pass, so they span the same stretch of time as the passes.
        """
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            if setup is not None:
                setup.extend(self.setup_samples(SETUP_SECONDS_PER_PASS))
            passes.append(self.run_pass(simulate))
        return passes


def check(case, traj, report, csv_path, json_path):
    """Correctness gate of one simulation; returns the violated conditions."""
    problems = []
    if not traj.completed:
        return [f"corrector failure: {traj.failure['message']}"]
    if traj.rows - 1 != case.steps:
        problems.append(f"{traj.rows - 1} steps, expected {case.steps}")
    g_bound = traj.max_g[0] + case.steps * NEWTON_TOL
    if not traj.max_g.max() <= g_bound:
        problems.append(f"max|g| {traj.max_g.max():.3e} > {g_bound:.3e}")
    if not report.max_power_defect <= case.max_power_defect:
        problems.append(f"power defect {report.max_power_defect:.3e} "
                        f"> {case.max_power_defect:.1e}")
    if case.momentum_exact and not report.momentum_drift.max() <= MOMENTUM_TOL:
        problems.append(f"momentum drift {report.momentum_drift.max():.3e} "
                        f"> {MOMENTUM_TOL:.0e}")
    with open(csv_path, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    if lines != traj.rows + 1:
        problems.append(f"CSV has {lines} lines, expected {traj.rows + 1}")
    with open(json_path, encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    if not (summary["completed"] and summary["rows"] == traj.rows
            and summary["max_g"] == float(traj.max_g.max())):
        problems.append("JSON summary disagrees with the trajectory")
    return problems


class StepTimer:
    """Wall time of every `integrate.step` call made while installed."""

    def __init__(self, integrate):
        self.integrate = integrate
        self.times = []

    def __enter__(self):
        original = self.original = self.integrate.step
        times, clock = self.times, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            times.append(clock() - start)
            return result

        self.integrate.step = timed
        return self

    def __exit__(self, *exc):
        self.integrate.step = self.original


def timed(passes):
    """The passes in which every simulation ran to its end, whether or not
    it passed its checks; a simulation that raised leaves no timings."""
    kept = [records for records in passes if all("wall" in r for r in records)]
    if not kept:
        raise SystemExit("error: every pass raised")
    return kept


def quantile(samples):
    """The TIME_QUANTILE quantile of `samples`."""
    ordered = sorted(samples)
    return ordered[int(TIME_QUANTILE * len(ordered))]


def step_table(passes):
    """Per case, (the time of each step, the time outside the steps), each
    the `quantile` over the timed passes of the same step of the same
    simulation. The time outside the steps covers set-up, the rest of
    `simulate`, the report and the output files."""
    cases = []
    for records in zip(*timed(passes)):
        steps = [quantile(times) for times in zip(*(r["step_times"] for r in records))]
        rest = quantile(r["wall"] - sum(r["step_times"]) for r in records)
        cases.append((steps, rest))
    return cases


def steps_per_s(passes):
    """Steps per second of `simulate`, each step taken at its time in
    `step_table`."""
    steps = [t for case_steps, _ in step_table(passes) for t in case_steps]
    return len(steps) / sum(steps)


def end_to_end(bench, seconds):
    from phmbd import integrate

    setup = []
    passes = bench.measure(seconds, integrate.simulate, setup)
    table = step_table(passes)
    steps = [t for case_steps, _ in table for t in case_steps]
    deciles = statistics.quantiles(steps, n=10)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": quantile(setup),
        "steps_per_s": len(steps) / sum(steps),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * deciles[8],
        "run_s": sum(sum(case_steps) + rest for case_steps, rest in table),
        "peak_rss_mb": rss_kb * 1024 / MB,
    }, len(passes), sum(len(r["step_times"]) for records in timed(passes)
                        for r in records)


def per_layer(bench, seconds, phmbd, numpy):
    import tracer

    integrate = phmbd.integrate
    untraced = bench.measure(seconds / 2, integrate.simulate)
    spans = tracer.Tracer(tracer.targets(phmbd, numpy))
    traced_simulate = spans.span("integrate.glue", integrate.simulate)

    def simulate(*args):
        with spans.installed():
            return traced_simulate(*args)

    passes = timed(bench.measure(seconds / 2, simulate))
    records = [r for records in passes for r in records]
    per_pass = 1.0 / len(passes)

    def total(key):
        return per_pass * sum(r[key] for r in records)

    def self_s(layer):
        return per_pass * spans.self_s[layer]

    def ratio(num, den):
        return num / den if den else 0.0

    iters = spans.calls["integrate.solve"]
    steps = sum(r["steps"] for r in records)
    simulate_s = total("simulate")
    metrics = {
        "scenario.parse_s": total("parse"),
        "scenario.build_s": total("build"),
        "scenario.write_s": total("write"),
        "scenario.csv_bytes": total("csv_bytes"),
        "diagnostics.report_s": total("report"),
        "integrate.simulate_s": simulate_s,
        "assembly.hessian_stack_mb": max(r["hessian_bytes"] for r in records) / MB,
        "assembly.stack.calls_per_iter": ratio(spans.calls["assembly.stack"], iters),
        "assembly.D.calls_per_iter": ratio(spans.calls["assembly.D"], iters),
        "assembly.K.bytes_per_call": ratio(spans.counters["K.bytes"],
                                           spans.calls["assembly.K"]),
        "integrate.solve.size": ratio(spans.counters["solve.size"], iters),
        "integrate.solve.flops": per_pass * spans.counters["solve.flops"],
        "integrate.newton_iters_per_step": ratio(iters, steps),
        "integrate.residual_evals_per_step": ratio(spans.calls["integrate.residual"], steps),
        "trace.unattributed_share": ratio(self_s("integrate.glue"), simulate_s),
        "trace.steps_per_s_untraced": steps_per_s(untraced),
        "trace.steps_per_s_traced": steps_per_s(passes),
    }
    metrics["trace.overhead_steps_per_s"] = (metrics["trace.steps_per_s_untraced"]
                                            - metrics["trace.steps_per_s_traced"])
    for layer in ("assembly.stack", "assembly.D", "assembly.K", "assembly.loads",
                  "assembly.record", "joints", "directors", "integrate.residual",
                  "integrate.jacobian", "integrate.solve", "integrate.glue"):
        metrics[f"{layer}.self_s"] = self_s(layer)
    return metrics, len(passes), steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phmbd", "__init__.py")):
        print(f"error: no phmbd sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MBD_SCENARIO_PATH", None)
    sys.path[:0] = [SRC, BENCH_DIR]
    import numpy
    import phmbd
    import phmbd.integrate

    texts = scenario_texts(args.workload, args.seed)
    outdir = tempfile.mkdtemp(prefix=".out-", dir=BENCH_DIR)
    try:
        bench = Bench(args.workload, texts, outdir)
        bench.run_pass(phmbd.integrate.simulate)  # warm-up, checked but not timed
        if args.trace:
            values, passes, steps = per_layer(bench, args.seconds, phmbd, numpy)
            declared = spec["per_layer"]
        else:
            values, passes, steps = end_to_end(bench, args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{passes} passes, {steps} timed steps, {bench.attempted} simulations")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_runs':36s} {bench.failed / bench.attempted:.6g} share")
    print("env " + json.dumps(environment(phmbd, numpy)))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
