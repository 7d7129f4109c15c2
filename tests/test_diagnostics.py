"""Conservation reports, error norms, and convergence-order fits."""
import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import hamiltonian, total_angular_momentum
from phmbd.diagnostics import (
    ConvergenceFit,
    conservation_report,
    constraint_report,
    convergence_orders,
    rms_error,
)
from phmbd.integrate import IntegratorConfig, simulate


@pytest.mark.parametrize("scheme", ["mp", "mp-ggl"])
def test_conservation_report_power_identity(closed_loop, scheme):
    """The collocated supply accounts for every joule, per step."""
    sys, state = closed_loop
    traj = simulate(sys, state, IntegratorConfig(h=0.1, t_end=2.0, scheme=scheme))
    rep = conservation_report(traj, sys)
    assert rep.power_defect.max() <= 1e-12
    # per-step series live on the intervals; load switches off at t = 1
    assert rep.dH.shape == rep.supplied_energy.shape == (traj.rows - 1,)
    after = rep.t[1:] > 1.0 + 1e-12
    npt.assert_allclose(rep.supplied_energy[after], 0.0, atol=0.0)
    npt.assert_allclose(rep.dH[after], 0.0, atol=1e-9)
    assert rep.metadata["scheme"] == scheme
    assert rep.metadata["h"] == 0.1


def test_conservation_report_flat_without_loads(flying_pair):
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.02))
    rep = conservation_report(traj, sys)
    npt.assert_allclose(rep.supplied_energy, 0.0, atol=0.0)
    assert np.abs(rep.dH).max() <= 1e-9 * abs(rep.H[0])


def test_constraint_report_matches_stored_series(flying_pair):
    """The series simulate records per step are those of the stored states:
    the constraint measures as constraint_report recomputes them, and H
    and L, which conservation_report takes as they are, exactly."""
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.01))
    max_g, max_gv = constraint_report(traj, sys)
    npt.assert_allclose(max_g, traj.max_g, atol=1e-15)
    npt.assert_allclose(max_gv, traj.max_gv, atol=1e-15)
    npt.assert_array_equal(traj.H, [hamiltonian(sys, q, v) for q, v in zip(traj.q, traj.v)])
    npt.assert_array_equal(traj.L, [total_angular_momentum(sys, q, v)
                                    for q, v in zip(traj.q, traj.v)])


def test_rms_error_zero_against_itself(flying_pair):
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.01))
    err = rms_error(traj, traj, 0.01)
    assert set(err) >= {"q", "v", "lam", "H", "L"}
    for key in ("q", "v", "lam", "H", "L"):
        assert err[key] == 0.0


def test_rms_error_decreases_with_step(flying_pair):
    """q and v errors shrink with h; H and L errors stay at solver precision.

    The scheme conserves H and L exactly on the load-free flying pair, so
    their errors are the reference's own drift and their order across h is
    rounding noise; they are held to the bounds of the conservation check
    in test_acceptance.py instead.
    """
    sys, state = flying_pair
    ref = simulate(sys, state, IntegratorConfig(h=1e-4, t_end=0.01))
    coarse = simulate(sys, state, IntegratorConfig(h=1e-2, t_end=0.01))
    fine = simulate(sys, state, IntegratorConfig(h=1e-3, t_end=0.01))
    e_coarse = rms_error(coarse, ref, 0.01)
    e_fine = rms_error(fine, ref, 0.01)
    for key in ("q", "v"):
        assert e_fine[key] < e_coarse[key]
    for err in (e_coarse, e_fine):
        assert err["H"] <= 1e-9 * abs(ref.H[0])
        assert err["L"] <= 1e-8 * np.linalg.norm(ref.L[0])


def test_convergence_orders_exact_powers():
    h = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    fits = convergence_orders(h, {"second": 3.0 * h**2, "first": 0.5 * h})
    assert isinstance(fits["second"], ConvergenceFit)
    npt.assert_allclose(fits["second"].slope, 2.0, atol=1e-10)
    npt.assert_allclose(fits["first"].slope, 1.0, atol=1e-10)
    assert fits["second"].excluded == ()


def test_convergence_orders_excludes_nonpositive():
    fit = convergence_orders([1e-2, 1e-3, 1e-4, 1e-5],
                             [1e-4, 0.0, 1e-8, 1e-10])
    npt.assert_allclose(fit.slope, 2.0, atol=1e-10)
    assert fit.excluded == (1,)


def test_convergence_orders_needs_three_points():
    with pytest.raises(ValueError):
        convergence_orders([1e-2, 1e-3], [1.0, 0.1])
