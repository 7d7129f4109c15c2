"""Trajectory diagnostics: conservation, constraints, convergence orders.

Everything here is post-processing on stored states. Conserved quantities
are recomputed from the raw configuration and velocity arrays rather than
trusting values cached during time stepping, so a report doubles as a
check on the integrator's own bookkeeping. The power balance charges each
step with h w^T f, where w is the configuration rate of assembly.port_flow
at the step's midpoint, the same flow both schemes' position update uses.
"""

import dataclasses

import numpy as np

from .assembly import (_jacobian_values, _slope_values, consistency, hamiltonian,
                       input_assembly, port_flow, potential, total_angular_momentum)

__all__ = [
    "DiagnosticsReport",
    "ConvergenceFit",
    "conservation_report",
    "constraint_report",
    "rms_error",
    "convergence_orders",
]


@dataclasses.dataclass(frozen=True)
class DiagnosticsReport:
    """Per-step conservation and constraint record of one trajectory.

    Arrays are aligned with the trajectory's time grid; increment arrays
    (dH, supplied_energy, power_defect) are one entry shorter. supplied_energy
    holds h * (y^{n+1/2})^T u^{n+1/2}, the discrete energy injected by the
    applied loads during each step; power_defect is the violation of the
    discrete energy balance dH = supplied, normalized by the local energy
    scale max(1, |H^n|, |H^{n+1}|).
    """

    t: np.ndarray
    H: np.ndarray
    dH: np.ndarray
    L: np.ndarray
    max_g: np.ndarray
    max_gv: np.ndarray
    newton_iters: np.ndarray
    supplied_energy: np.ndarray
    power_defect: np.ndarray
    metadata: dict

    def __post_init__(self):
        N = self.t.shape[0]
        if not (self.H.shape == (N,) and self.L.shape == (N, 3)):
            raise ValueError("conserved-quantity arrays do not match the time grid")
        if self.dH.shape != (max(N - 1, 0),):
            raise ValueError("increment array must be one shorter than the grid")

    @property
    def relative_energy_drift(self):
        """max |H^n - H^0| over the run, relative to the initial energy."""
        scale = max(1.0, abs(float(self.H[0])))
        return float(np.abs(self.H - self.H[0]).max() / scale)

    @property
    def momentum_drift(self):
        """Per-component max |L^n - L^0|, shape (3,)."""
        return np.abs(self.L - self.L[0]).max(axis=0)

    @property
    def max_power_defect(self):
        return float(self.power_defect.max()) if self.power_defect.size else 0.0


def _collocated_flow(sys, traj, i):
    """Flow w of step i -> i+1 and the applied force f it works against.

    w is the configuration rate of assembly.port_flow at the step's
    midpoint with the step's multipliers, as in the position update of
    either residual: the midpoint velocity for the plain scheme, plus the
    projection term M^-1 G(q)^T gamma for the augmented one.
    """
    q_mid = 0.5 * (traj.q[i] + traj.q[i + 1])
    v_mid = 0.5 * (traj.v[i] + traj.v[i + 1])
    f = input_assembly(sys, q_mid, traj.t[i] + 0.5 * traj.h)
    force = f - potential(sys, q_mid)[1]
    G = _jacobian_values(sys, q_mid)
    gamma = None if traj.gamma is None else traj.gamma[i + 1]
    D = None if gamma is None else _slope_values(sys, v_mid)
    w, _ = port_flow(sys, G, v_mid, traj.lam[i + 1], force, gamma, D)
    return w, f


def conservation_report(traj, sys):
    """Energy, angular momentum, and power-balance record for a run."""
    N = traj.t.shape[0]
    H = np.array([hamiltonian(sys, traj.q[i], traj.v[i]) for i in range(N)])
    L = np.array([total_angular_momentum(sys, traj.q[i], traj.v[i]) for i in range(N)])
    dH = np.diff(H)

    supplied = np.zeros(max(N - 1, 0))
    if sys.loads:
        for i in range(N - 1):
            w, f = _collocated_flow(sys, traj, i)
            supplied[i] = traj.h * float(w @ f)
    scale = np.maximum(1.0, np.maximum(np.abs(H[:-1]), np.abs(H[1:])))
    defect = np.abs(dH - supplied) / scale

    return DiagnosticsReport(
        t=traj.t.copy(),
        H=H,
        dH=dH,
        L=L,
        max_g=traj.max_g.copy(),
        max_gv=traj.max_gv.copy(),
        newton_iters=traj.newton_iters.copy(),
        supplied_energy=supplied,
        power_defect=defect,
        metadata={"scheme": traj.scheme, "h": traj.h, **traj.metadata},
    )


def constraint_report(traj, sys):
    """Per-step (max |g|, max |G v|), recomputed from the stored states."""
    N = traj.t.shape[0]
    max_g = np.zeros(N)
    max_gv = np.zeros(N)
    for i in range(N):
        max_g[i], max_gv[i] = consistency(sys, traj.q[i], traj.v[i])
    return max_g, max_gv


def _align(traj, t_bar, tol):
    idx = int(np.argmin(np.abs(traj.t - t_bar)))
    if abs(traj.t[idx] - t_bar) > tol:
        raise ValueError(
            f"t = {t_bar} is not on the trajectory grid "
            f"(nearest sample at {traj.t[idx]})")
    return idx


def rms_error(traj, ref_traj, t_bar):
    """Componentwise RMS differences at a single comparison time.

    Returns a dict with entries for q, v, lam, H, and L; each is
    sqrt(mean of squared componentwise differences) at t = t_bar. The
    multiplier series compares the midpoint multipliers of the steps
    ending at t_bar (multipliers are step quantities, not state
    quantities). H and L differences are absolute.
    """
    tol = 0.5 * min(traj.h, ref_traj.h)
    i = _align(traj, t_bar, tol)
    j = _align(ref_traj, t_bar, tol)

    def rms(a, b):
        diff = np.atleast_1d(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return float(np.sqrt(np.mean(diff ** 2)))

    if i == 0 or j == 0:
        raise ValueError("multiplier comparison needs a step ending at t_bar")
    return {
        "q": rms(traj.q[i], ref_traj.q[j]),
        "v": rms(traj.v[i], ref_traj.v[j]),
        "lam": rms(traj.lam[i], ref_traj.lam[j]),
        "H": rms(traj.H[i], ref_traj.H[j]),
        "L": rms(traj.L[i], ref_traj.L[j]),
    }


@dataclasses.dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares slope of log(error) against log(h)."""

    slope: float
    intercept: float
    excluded: tuple


def convergence_orders(h_values, errors):
    """Fit observed convergence orders from (h, error) samples.

    errors may be a sequence of scalars (one fit) or a mapping of quantity
    name to sequence (one fit per quantity). Nonpositive errors carry no
    information on a log scale; those sample indices are excluded and
    reported in the fit. Requires at least three usable samples.
    """
    if hasattr(errors, "items"):
        return {name: convergence_orders(h_values, series)
                for name, series in errors.items()}

    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape:
        raise ValueError("h and error samples must align")
    keep = e > 0.0
    excluded = tuple(int(k) for k in np.nonzero(~keep)[0])
    if keep.sum() < 3:
        raise ValueError("need at least three positive errors to fit a slope")
    coeffs = np.polyfit(np.log(h[keep]), np.log(e[keep]), 1)
    return ConvergenceFit(slope=float(coeffs[0]), intercept=float(coeffs[1]),
                          excluded=excluded)
