"""Acceptance gate: every headline quantitative claim at its stated tolerance.

Each test realizes one numbered criterion, registers a PASS/FAIL line for the
terminal summary, and asserts.  The expensive norm sweeps are shared through
module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy.special import erf

from conftest import record_criterion
from fracwave import (CompactBump, Gaussian, GaussianDerivative, GridBackend,
                      GridSpec, Parameters, QuadratureBackend, RadialGaussian,
                      ZERO, area_sums, check_pointwise_bound, check_riesz_bound,
                      check_riesz_bound_zero_mean, evolve_state, fourier_at,
                      gagliardo_constant, gagliardo_seminorm, hs_seminorm,
                      l1_norm, log_growth_integral, log_lower_bound,
                      log_upper_bound, measure_constant, moment0,
                      power_lower_bound, power_upper_bound, riesz_energy,
                      sample_norm_curve, sandwich_check, select_theta0,
                      weighted_l1_norm)
from fracwave.errors import DivergenceError
from fracwave.profiles import l2_norm as profile_l2
from fracwave.ratefit import fit_log_rate, fit_power_exponent
from support import run_solver_invariant_cases

SQPI = np.sqrt(np.pi)
POWER_ORDERS = (0.6, 0.75, 0.9)


@pytest.fixture(scope="module")
def power_sweeps():
    """Norm curves for the power-law regime: u0 = 0, u1 = gaussian."""
    t_grid = np.logspace(2, 5, 40)
    out = {}
    for s in POWER_ORDERS:
        start = time.perf_counter()
        series = sample_norm_curve((ZERO, Gaussian()), Parameters(s), t_grid,
                                   QuadratureBackend())
        out[s] = (series, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def log_sweep():
    """Norm curve at the critical order: u0 = 0, u1 = gaussian, t to 1e6."""
    t_grid = np.logspace(2, 6, 40)
    return sample_norm_curve((ZERO, Gaussian()), Parameters(0.5), t_grid,
                             QuadratureBackend())


def test_criterion_01_energy_conservation():
    backend = GridBackend(GridSpec(40.0, 4096))
    data = (Gaussian(), Gaussian())
    worst_drift = 0.0
    worst_time = 0.0
    for s in (0.3, 0.5, 0.75):
        params = Parameters(s)
        e0 = evolve_state(data, params, 0.0, backend).energy()
        for t in (0.1, 1.0, 10.0, 100.0):
            start = time.perf_counter()
            e = evolve_state(data, params, t, backend).energy()
            elapsed = time.perf_counter() - start
            worst_drift = max(worst_drift, abs(e - e0) / e0)
            worst_time = max(worst_time, elapsed)
    ok = worst_drift <= 1e-9 and worst_time < 1.0
    record_criterion(1, f"energy conservation (drift {worst_drift:.1e}, "
                        f"slowest case {worst_time * 1e3:.0f} ms)", ok)
    assert worst_drift <= 1e-9
    assert worst_time < 1.0


def test_criterion_02_power_law_exponents(power_sweeps):
    details = []
    ok = True
    for s in POWER_ORDERS:
        series, elapsed = power_sweeps[s]
        fit = fit_power_exponent(series)
        target = 1.0 - 1.0 / (2.0 * s)
        good = abs(fit.exponent - target) <= 0.02 and elapsed < 60.0
        ok = ok and good
        details.append(f"s={s}: {fit.exponent:.4f} vs {target:.4f} "
                       f"({elapsed:.1f} s)")
    record_criterion(2, "power-law exponents " + "; ".join(details), ok)
    for s in POWER_ORDERS:
        series, elapsed = power_sweeps[s]
        fit = fit_power_exponent(series)
        assert abs(fit.exponent - (1.0 - 1.0 / (2.0 * s))) <= 0.02
        assert elapsed < 60.0


def test_criterion_03_power_sandwich(power_sweeps):
    theta0 = select_theta0()
    P = moment0(Gaussian())
    M1 = profile_l2(ZERO) + l1_norm(Gaussian())
    results = {}
    for s in POWER_ORDERS:
        series, _ = power_sweeps[s]
        rep = sandwich_check(series,
                             power_lower_bound(P, theta0, s),
                             power_upper_bound(M1, s))
        results[s] = rep
    ok = all(rep.passed and rep.t0 is not None and
             rep.t0 <= results[s].window[1] for s, rep in results.items())
    onsets = ", ".join(f"s={s}: t0={rep.t0:g}" for s, rep in results.items())
    record_criterion(3, f"power sandwich holds ({onsets})", ok)
    for rep in results.values():
        assert rep.passed
        assert rep.t0 is not None


def test_criterion_04_log_sandwich(log_sweep):
    P = moment0(Gaussian())
    M2 = profile_l2(ZERO) + profile_l2(Gaussian()) + l1_norm(Gaussian())
    rep = sandwich_check(log_sweep, log_lower_bound(P), log_upper_bound(M2))
    fit = fit_log_rate(log_sweep)
    ok = rep.passed and rep.t0 is not None and (fit.r_squared or 0) >= 0.99
    record_criterion(4, f"log sandwich at s=1/2 (t0={rep.t0:g}, "
                        f"R^2={fit.r_squared:.5f}, slope={fit.slope:.4f})", ok)
    assert rep.passed and rep.t0 is not None
    assert fit.r_squared >= 0.99
    # squared-norm form of the envelopes, checked directly
    t = log_sweep.t
    v2 = log_sweep.values ** 2
    assert np.all(P ** 2 / (9 * np.e ** 2) * np.log(t) <= v2)
    assert np.all(v2 <= 4.0 * M2 ** 2 * np.log(t))
    # the fitted slope lands inside the same envelope range
    assert P ** 2 / (9 * np.e ** 2) <= fit.slope <= 4.0 * M2 ** 2


def test_criterion_05_zero_moment_boundedness():
    u0 = Gaussian()
    u1 = GaussianDerivative()
    t_grid = np.logspace(1, 5, 16)
    backend = QuadratureBackend()
    family = [GaussianDerivative(), GaussianDerivative(width=0.7),
              GaussianDerivative(amplitude=2.0, width=1.5)]
    details = []
    ok = True
    for s in (0.5, 0.75):
        params = Parameters(s)
        series = sample_norm_curve((u0, u1), params, t_grid, backend, level="u")
        alpha = fit_power_exponent(series).exponent
        sup = float(np.max(series.values))
        flat = abs(alpha) <= 0.01
        bounded = True
        for gamma in (s - 0.5, 1.0):
            def pure_velocity_excess(member):
                vals = sample_norm_curve((ZERO, member), params, t_grid,
                                         backend, level="u").values
                rhs = profile_l2(member) + weighted_l1_norm(member, gamma)
                return float(np.max(vals)), rhs

            C = measure_constant(family, pure_velocity_excess)
            ceiling = (np.sqrt(2.0) * profile_l2(u0)
                       + C * (profile_l2(u1) + weighted_l1_norm(u1, gamma)))
            bounded = bounded and sup <= ceiling
        ok = ok and flat and bounded
        details.append(f"s={s}: alpha={alpha:+.1e}, sup={sup:.4f}")
    record_criterion(5, "zero-moment boundedness " + "; ".join(details), ok)
    assert ok, details


def test_criterion_06_area_estimation_chain():
    worst_ratio = 0.0
    worst_cover = 0.0
    for t in (10.0, 1e3, 1e5):
        rep = area_sums(t, tolerance=1e-10)
        worst_ratio = max(worst_ratio, float(np.max(rep.B / rep.A)))
        worst_cover = max(worst_cover, rep.full_integral / rep.sum_A)
    ok = worst_ratio <= 2.0 and worst_cover <= 3.0
    record_criterion(6, f"area chain (max B/A {worst_ratio:.4f} <= 2, "
                        f"integral/sum {worst_cover:.4f} <= 3)", ok)
    assert worst_ratio <= 2.0
    assert worst_cover <= 3.0


def test_criterion_07_log_growth_minorant():
    from fracwave.quadrature import gauss_panels
    ts = np.logspace(1, 6, 20)
    margins = []
    closed_err = 0.0
    for t in ts:
        k1 = log_growth_integral(t)
        minorant = 2.0 / (3.0 * np.e) * (np.log(t) + np.log(4.0) - np.log(np.pi))
        margins.append(k1 - minorant)
        if t >= 1e3:
            # K1 = 2 log(2t) + 3 gamma / 2 up to a remainder that decays
            # faster than any power of 1/t (about 4e-14 relative at t = 1e3)
            closed = 2.0 * np.log(2.0 * t) + 1.5 * np.euler_gamma
            closed_err = max(closed_err, abs(k1 - closed) / k1)
    # quadrature accuracy: order-12 panels against order-24 at spot checks
    quad_err = 0.0
    for t in (10.0, 1e3, 1e6):
        edges = np.pi * np.arange(int(np.ceil(2.8 * t / np.pi)) + 1, dtype=float)
        ref = 4.0 * gauss_panels(
            lambda v: np.exp(-(v / t) ** 4) * np.sin(v) ** 2 / v, edges, order=24)
        quad_err = max(quad_err, abs(log_growth_integral(t) - ref) / ref)
    ok = min(margins) > 0 and quad_err <= 1e-6 and closed_err <= 1e-12
    record_criterion(7, f"log-growth integral minorant (min margin "
                        f"{min(margins):.3f}, quad err {quad_err:.1e}, "
                        f"closed-form err {closed_err:.1e})", ok)
    assert min(margins) > 0
    assert quad_err <= 1e-6
    assert closed_err <= 1e-12


def test_criterion_08_pointwise_bound_constant_two():
    family = [Gaussian(), Gaussian(amplitude=0.7, width=1.4, center=0.5),
              GaussianDerivative(), GaussianDerivative(1.3, 0.8, -0.4),
              CompactBump(), CompactBump(amplitude=0.9, radius=2.0)]
    xi = np.logspace(-3, 2, 500)
    checked = 0
    passed = 0
    worst = -np.inf
    for p in family:
        for gamma in (0.0, 0.25, 0.5, 1.0):
            check = check_pointwise_bound(p, gamma, xi)
            checked += 1
            passed += check.passed
            worst = max(worst, check.ratio)
    origin_ok = all(
        abs(abs(fourier_at(p, 0.0)) - abs(moment0(p))) <= 1e-12 * max(1.0, abs(moment0(p)))
        for p in family)
    ok = passed == checked and origin_ok
    record_criterion(8, f"pointwise bound C=2 ({passed}/{checked} combos, "
                        f"worst ratio {worst:.3f}; origin equality)", ok)
    assert passed == checked
    assert origin_ok


def test_criterion_09_riesz_boundaries():
    finite_gauss = check_riesz_bound(Gaussian(), theta=0.4, n=1)
    finite_deriv = check_riesz_bound_zero_mean(GaussianDerivative(), theta=0.9,
                                               gamma=0.5, n=1)
    diverged = False
    try:
        riesz_energy(Gaussian(), theta=0.5, n=1)
    except DivergenceError:
        diverged = True
    radial = check_riesz_bound(RadialGaussian(dimension=2), theta=0.9, n=2)
    ok = (finite_gauss.passed and finite_deriv.passed and diverged
          and radial.passed)
    record_criterion(9, "Riesz boundary (finite at 0.4 / zero-mean 0.9; "
                        "divergent at 0.5; n=2 radial passes)", ok)
    assert finite_gauss.passed and np.isfinite(finite_gauss.ratio)
    assert finite_deriv.passed and np.isfinite(finite_deriv.ratio)
    assert diverged
    assert radial.passed


def test_criterion_10_oracle_anchors():
    # classical propagation anchor at s = 1
    backend = GridBackend(GridSpec(40.0, 4096))
    t = 5.0
    snap = evolve_state((ZERO, Gaussian()), Parameters(1.0), t, backend)
    x = backend.grid.x()
    exact = SQPI / 4.0 * (erf(x + t) - erf(x - t))
    wave_err = float(np.max(np.abs(snap.u.real - exact)) / np.max(np.abs(exact)))

    # normalizing constant of the fractional seminorm
    c_err = abs(gagliardo_constant(0.5) - 1.0 / np.pi) * np.pi

    # double-integral vs spectral seminorm
    gag_err = 0.0
    for s in (0.3, 0.5, 0.7):
        lhs = gagliardo_seminorm(Gaussian(), s) ** 2
        rhs = 2.0 / gagliardo_constant(s) * hs_seminorm(Gaussian(), s) ** 2
        gag_err = max(gag_err, abs(lhs - rhs) / rhs)

    # grid vs quadrature agreement for t <= 100 on gaussian data; the box
    # grows with t because low frequencies outrun any fixed grid
    agree_err = 0.0
    params = Parameters(0.75)
    data = (ZERO, Gaussian())
    grids = {1.0: GridSpec(160.0, 4096), 10.0: GridSpec(4096.0, 2 ** 16),
             50.0: GridSpec(32768.0, 2 ** 19), 100.0: GridSpec(65536.0, 2 ** 20)}
    for t_cmp, grid in grids.items():
        g = evolve_state(data, params, t_cmp, GridBackend(grid)).physical_l2()
        q = evolve_state(data, params, t_cmp, QuadratureBackend()).physical_l2()
        agree_err = max(agree_err, abs(g - q) / q)

    ok = wave_err <= 1e-6 and c_err <= 1e-6 and gag_err <= 1e-3 and agree_err <= 1e-6
    record_criterion(10, f"oracle anchors (wave {wave_err:.1e}, C(1,1/2) "
                         f"{c_err:.1e}, seminorm {gag_err:.1e}, backends "
                         f"{agree_err:.1e})", ok)
    assert wave_err <= 1e-6
    assert c_err <= 1e-6
    assert gag_err <= 1e-3
    assert agree_err <= 1e-6


def test_criterion_11_solver_invariants():
    failures = run_solver_invariant_cases(100, seed=20240817)
    ok = not failures
    record_criterion(11, "solver invariants over 100 seeded random cases "
                         f"({len(failures)} violations)", ok)
    assert not failures, failures
