"""Conservation reports, error norms, and convergence-order fits."""
import numpy as np
import numpy.testing as npt
import pytest

from phmbd.assembly import consistency, hamiltonian, total_angular_momentum
from phmbd.diagnostics import (
    ConvergenceFit,
    conservation_report,
    convergence_orders,
    rms_error,
)
from phmbd.integrate import IntegratorConfig, simulate
from reference import loop_supplied_energy


@pytest.mark.parametrize("scheme", ["mp", "mp-ggl"])
def test_conservation_report_power_identity(closed_loop, scheme):
    """The collocated supply accounts for every joule, per step."""
    sys, state = closed_loop
    traj = simulate(sys, state, IntegratorConfig(h=0.1, t_end=2.0, scheme=scheme))
    rep = conservation_report(traj, sys)
    assert rep.power_defect.max() <= 1e-12
    # per-step series live on the intervals; load switches off at t = 1
    assert rep.dH.shape == rep.supplied_energy.shape == (traj.rows - 1,)
    after = traj.t[1:] > 1.0 + 1e-12
    npt.assert_allclose(rep.supplied_energy[after], 0.0, atol=0.0)
    npt.assert_allclose(rep.dH[after], 0.0, atol=1e-9)
    # the step loop's h w . f; the augmented scheme's gamma term is summed
    # in another order, so it agrees to rounding
    ref = loop_supplied_energy(sys, traj)
    if scheme == "mp":
        npt.assert_array_equal(rep.supplied_energy, ref)
    else:
        npt.assert_allclose(rep.supplied_energy, ref, rtol=0.0,
                            atol=1e-14 * np.abs(ref).max())


def test_conservation_report_flat_without_loads(flying_pair):
    sys, state = flying_pair
    traj = simulate(sys, state, IntegratorConfig(h=0.001, t_end=0.02))
    rep = conservation_report(traj, sys)
    npt.assert_allclose(rep.supplied_energy, 0.0, atol=0.0)
    assert np.abs(rep.dH).max() <= 1e-9 * abs(rep.H[0])


@pytest.mark.parametrize("scenario, scheme, h, t_end, rows", [
    ("flying_pair", "mp", 0.001, 0.01, 11),
    ("flying_pair", "mp-ggl", 0.001, 0.01, 11),
    ("slider_crank", "mp", 0.01, 0.1, 11),
    ("slider_crank", "mp-ggl", 0.01, 0.1, 11),
    ("closed_loop", "mp", 0.1, 1.0, 11),
    ("closed_loop", "mp-ggl", 0.1, 1.0, 11),
    # stops at step 6 as diverged: the series cover the partial rows
    ("slider_crank", "mp-ggl", 0.05, 0.5, 6),
])
def test_stored_series_match_per_row_calls(scenario, scheme, h, t_end, rows, request):
    """simulate fills H, L, max_g and max_gv in one pass over the stored
    rows; each row is the 1-D call on that row's state, bit for bit."""
    sys, state = request.getfixturevalue(scenario)
    traj = simulate(sys, state, IntegratorConfig(h=h, t_end=t_end, scheme=scheme))
    assert traj.rows == rows and traj.completed == (rows == 11)
    states = list(zip(traj.q, traj.v))
    npt.assert_array_equal(traj.H, [hamiltonian(sys, q, v) for q, v in states])
    npt.assert_array_equal(traj.L, [total_angular_momentum(sys, q, v) for q, v in states])
    max_g, max_gv = np.array([consistency(sys, q, v) for q, v in states]).T
    npt.assert_array_equal(traj.max_g, max_g)
    npt.assert_array_equal(traj.max_gv, max_gv)
    rep = conservation_report(traj, sys)
    assert rep.H is traj.H and rep.L is traj.L


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
