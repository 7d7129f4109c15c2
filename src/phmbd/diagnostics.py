"""Trajectory diagnostics: conservation, convergence orders.

Everything here is post-processing on stored states. The energy, angular
momentum and constraint series are the trajectory's own, filled by
integrate.simulate in one pass over its stored rows. The power balance
charges each step with h w^T f, where w is the configuration rate of
assembly.port_flow at the step's midpoint, the same flow both schemes'
position update uses.
"""

import dataclasses

import numpy as np

from .assembly import _constraint_values, _dots, input_assembly

__all__ = [
    "DiagnosticsReport",
    "ConvergenceFit",
    "conservation_report",
    "rms_error",
    "convergence_orders",
]


@dataclasses.dataclass(frozen=True)
class DiagnosticsReport:
    """Energy balance of one trajectory.

    H and L are the trajectory's own series, not copies; the increment
    arrays (dH, supplied_energy, power_defect) are one entry shorter.
    supplied_energy holds h * (y^{n+1/2})^T u^{n+1/2}, the discrete energy
    injected by the applied loads during each step; power_defect is the
    violation of the discrete energy balance dH = supplied, normalized by
    the local energy scale max(1, |H^n|, |H^{n+1}|).
    """

    H: np.ndarray
    dH: np.ndarray
    L: np.ndarray
    supplied_energy: np.ndarray
    power_defect: np.ndarray

    def __post_init__(self):
        N = self.H.shape[0]
        if self.L.shape != (N, 3):
            raise ValueError("H and L do not share a time grid")
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


def _supplied_energy(sys, traj):
    """h w^T f of every step, with the flow w of assembly.port_flow and the
    applied force f at the step's midpoint and multipliers: h v_mid . f,
    plus h gamma . G(q_mid) M^-1 f for the augmented scheme, whose w adds
    M^-1 G^T gamma to v_mid. f is evaluated per step, since the loads'
    wrenches take one time each."""
    q_mid = 0.5 * (traj.q[:-1] + traj.q[1:])
    v_mid = 0.5 * (traj.v[:-1] + traj.v[1:])
    f = np.array([input_assembly(sys, q, t)
                  for q, t in zip(q_mid, traj.t[:-1] + 0.5 * traj.h)]).reshape(q_mid.shape)
    wf = _dots(v_mid, f)
    if traj.gamma is not None:
        wf += _dots(traj.gamma[1:], _constraint_values(sys, q_mid, sys.mass_diag_inv * f)[1])
    return traj.h * wf


def conservation_report(traj, sys):
    """Energy, angular momentum, and power-balance record for a run, from
    the trajectory's H and L series."""
    H = traj.H
    dH = np.diff(H)
    supplied = _supplied_energy(sys, traj) if sys.loads else np.zeros(dH.size)
    scale = np.maximum(1.0, np.maximum(np.abs(H[:-1]), np.abs(H[1:])))
    defect = np.abs(dH - supplied) / scale
    return DiagnosticsReport(H=H, dH=dH, L=traj.L, supplied_energy=supplied,
                             power_defect=defect)


def _align(traj, t_bar):
    # a sample time up to the rounding of simulate's summed step times, at
    # the slack that IntegratorConfig allows for t_end / h
    idx = int(np.argmin(np.abs(traj.t - t_bar)))
    if abs(traj.t[idx] - t_bar) > 1e-9 * max(1.0, abs(t_bar)):
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
    i = _align(traj, t_bar)
    j = _align(ref_traj, t_bar)

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
    reported in the fit. Raises ValueError unless the kept samples span
    three distinct step sizes.
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
    if np.unique(h[keep]).size < 3:
        raise ValueError("need three positive errors at distinct step sizes to fit a slope")
    coeffs = np.polyfit(np.log(h[keep]), np.log(e[keep]), 1)
    return ConvergenceFit(slope=float(coeffs[0]), intercept=float(coeffs[1]),
                          excluded=excluded)
