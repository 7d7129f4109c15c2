"""Span accounting around the library's public functions, installed from outside.

`Tracer.installed()` replaces module attributes with timing wrappers for
the duration of a `with` block and restores the originals afterwards, so
nothing under `src/` is edited and an untraced run pays nothing. Each
wrapper records one span per call; a span's self time is its duration
minus the durations of the wrapped spans it caused. Spans are folded into
per-layer totals as they close rather than kept one by one: a traced run
closes hundreds of thousands of them, and storing each would distort both
memory and the overhead being measured.

Patch points follow how the library looks names up at call time: the
integrator imported the assembly functions into its own namespace,
`simulate` imports `consistency` from `phmbd.assembly` on each call, and
`stack_constraints` reaches the pair math through the `phmbd.joints`
module and the director math through names imported into `phmbd.assembly`.
"""
import contextlib
import time
from collections import defaultdict


def _solve_counts(args):
    size = args[0].shape[0]
    return {"solve.size": size, "solve.flops": 2.0 * size ** 3 / 3.0}


def _hessian_bytes(args):
    sys = args[0]
    return {"K.bytes": 8.0 * sys.m * sys.n ** 2}


def targets(phmbd, numpy):
    """(owner, attribute, layer, counter) for every wrapped call site."""
    integ, asm, jnt = phmbd.integrate, phmbd.assembly, phmbd.joints
    return [
        (integ, "step", "integrate.glue", None),
        (integ, "newton_solve", "integrate.glue", None),
        (integ, "midpoint_residual", "integrate.residual", None),
        (integ, "ggl_residual", "integrate.residual", None),
        (integ, "midpoint_jacobian", "integrate.jacobian", None),
        (integ, "ggl_jacobian", "integrate.jacobian", None),
        (numpy.linalg, "solve", "integrate.solve", _solve_counts),
        (integ, "stack_constraints", "assembly.stack", None),
        (asm, "stack_constraints", "assembly.stack", None),
        (integ, "constraint_velocity_gradient", "assembly.D", None),
        (integ, "constraint_hessian_contraction", "assembly.K", _hessian_bytes),
        (integ, "input_assembly", "assembly.loads", None),
        (integ, "input_map_jacobian", "assembly.loads", None),
        (asm, "consistency", "assembly.record", None),
        (integ, "hamiltonian", "assembly.record", None),
        (integ, "total_angular_momentum", "assembly.record", None),
        (jnt, "residual", "joints", None),
        (jnt, "jacobian", "joints", None),
        (asm, "internal_constraints", "directors", None),
        (asm, "internal_constraint_gradient", "directors", None),
        (asm, "angular_momentum", "directors", None),
        (asm, "external_wrench_map", "directors", None),
        (asm, "hat", "directors", None),
    ]


class Tracer:
    """Per-layer self time, call counts and computed counters."""

    def __init__(self, sites):
        self.sites = sites
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._children = []

    def span(self, layer, fn, counter=None):
        """Call `fn` inside a span attributed to `layer`."""
        clock = time.perf_counter
        children = self._children
        self_s, calls, counters = self.self_s, self.calls, self.counters

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - children.pop()
                calls[layer] += 1
                if children:
                    children[-1] += elapsed
                if counter is not None:
                    for key, value in counter(args).items():
                        counters[key] += value

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        saved = []
        try:
            for owner, name, layer, counter in self.sites:
                original = getattr(owner, name)
                saved.append((owner, name, original))
                setattr(owner, name, self.span(layer, original, counter))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
