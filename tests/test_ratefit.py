"""Norm series, growth-law fits, sandwich scanning."""

import dataclasses

import numpy as np
import pytest

from fracwave import (BoundSpec, Gaussian, GridBackend, GridSpec, NormSeries,
                      Parameters, QuadratureBackend, ZERO, evolve_state,
                      fit_log_rate, fit_power_exponent, log_lower_bound,
                      power_lower_bound, power_upper_bound, sample_norm_curve,
                      sandwich_check)
from fracwave import experiments
from fracwave.errors import (BackendCapError, ConventionError, FracwaveError,
                             SeriesError)
from fracwave.ratefit import default_window


def _power_series(c=2.0, alpha=1 / 3, n=30):
    t = np.logspace(1, 4, n)
    return NormSeries(t, c * t ** alpha)


class TestNormSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormSeries(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            NormSeries(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            NormSeries(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            NormSeries(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            NormSeries(np.array([1.0, 2.0]), np.array([1.0, 1.0]), level="raw")

    def test_zero_variant(self):
        z = NormSeries(np.array([1.0, 2.0]), np.zeros(2), zero=True)
        assert z.zero
        with pytest.raises(ValueError):
            NormSeries(np.array([1.0, 2.0]), np.array([0.0, 1.0]), zero=True)

    def test_restrict(self):
        s = _power_series()
        sub = s.restrict(100.0, 1000.0)
        assert np.all(sub.t >= 100.0) and np.all(sub.t <= 1000.0)


class TestSampling:
    def test_zero_data_returns_zero_series(self):
        series = sample_norm_curve((ZERO, ZERO), Parameters(0.75),
                                   np.array([1.0, 2.0]), QuadratureBackend())
        assert series.zero
        assert np.all(series.values == 0.0)

    def test_grid_cap_instructs_quadrature(self):
        with pytest.raises(BackendCapError, match="quadrature"):
            sample_norm_curve((ZERO, Gaussian()), Parameters(0.75),
                              np.array([10.0, 1e4]), GridBackend())

    def test_bad_grid_rejected_before_any_sample(self, monkeypatch):
        from fracwave import spectral
        calls = []

        def counting(*args):
            calls.append(args[2])
            return evolve_state(*args)

        # a quadrature sweep evolves each sample in QuadratureBackend.evolve_many
        monkeypatch.setattr(spectral, "evolve_state", counting)
        data, params = (ZERO, Gaussian()), Parameters(0.9)
        for bad in ([1e6, 1e5], [0.0, 1.0], [1.0, 1.0]):
            with pytest.raises(SeriesError, match="strictly increasing"):
                sample_norm_curve(data, params, np.array(bad))
        assert calls == []
        sample_norm_curve(data, params, np.array([1.0, 2.0]))
        assert calls == [1.0, 2.0]

    def test_grid_time_past_cap_rejected_before_any_sample(self, monkeypatch):
        calls = []
        half_forward = GridSpec.half_forward

        def counting(grid, values):
            # a grid sweep first transforms the data
            calls.append(values)
            return half_forward(grid, values)

        monkeypatch.setattr(GridSpec, "half_forward", counting)
        for data in ((ZERO, Gaussian()), (ZERO, ZERO)):
            with pytest.raises(BackendCapError, match="requested t=150"):
                sample_norm_curve(data, Parameters(0.75),
                                  np.array([1.0, 10.0, 99.0, 150.0]), GridBackend())
        assert calls == []

    def test_samples_go_through_map_times(self, monkeypatch):
        calls = []
        mapper = experiments.map_times

        def counting(fn, data, params, ts, backend):
            calls.append((len(ts), backend))
            return mapper(fn, data, params, ts, backend)

        monkeypatch.setattr(experiments, "map_times", counting)
        t = np.array([1.0, 4.0, 9.0])
        data, params = (ZERO, Gaussian()), Parameters(0.75)
        series = sample_norm_curve(data, params, t, QuadratureBackend())
        assert calls == [(3, QuadratureBackend())]
        direct = [evolve_state(data, params, ti, QuadratureBackend()).spectral_l2()
                  for ti in t]
        assert series.values.tolist() == direct

    def test_levels_differ_by_plancherel(self):
        t = np.array([1.0, 4.0, 9.0])
        hat = sample_norm_curve((ZERO, Gaussian()), Parameters(0.75), t,
                                QuadratureBackend(), level="u_hat")
        phys = sample_norm_curve((ZERO, Gaussian()), Parameters(0.75), t,
                                 QuadratureBackend(), level="u")
        assert np.allclose(hat.values, np.sqrt(2 * np.pi) * phys.values, rtol=1e-12)

    def test_strictly_increasing_trend_in_power_regime(self):
        t = np.logspace(2, 4, 12)
        series = sample_norm_curve((ZERO, Gaussian()), Parameters(0.75), t,
                                   QuadratureBackend())
        assert np.all(np.diff(series.values) > 0)


def test_bad_inputs_raise_a_fracwave_value_error():
    bad = [lambda: NormSeries(np.array([2.0, 1.0]), np.array([1.0, 1.0])),
           lambda: fit_power_exponent(_power_series(n=5)),
           lambda: fit_log_rate(NormSeries(np.array([1.0, 2.0]), np.zeros(2),
                                           zero=True)),
           lambda: sample_norm_curve((ZERO, Gaussian()), Parameters(0.75), [])]
    for call in bad:
        with pytest.raises(SeriesError) as info:
            call()
        assert isinstance(info.value, FracwaveError)
        assert isinstance(info.value, ValueError)


class TestFits:
    def test_power_fit_exact_on_synthetic(self):
        fit = fit_power_exponent(_power_series())
        assert fit.exponent == pytest.approx(1 / 3, abs=1e-12)
        assert fit.residual < 1e-12

    def test_power_fit_scale_invariance(self):
        s1 = _power_series(c=1.0)
        s2 = NormSeries(s1.t, 17.0 * s1.values)
        f1 = fit_power_exponent(s1)
        f2 = fit_power_exponent(s2)
        assert f1.exponent == pytest.approx(f2.exponent, abs=1e-13)

    def test_log_fit_exact_on_synthetic(self):
        t = np.logspace(1, 5, 40)
        c = 1.7
        series = NormSeries(t, np.sqrt(c * c * np.log(t)))
        fit = fit_log_rate(series)
        assert fit.slope == pytest.approx(c * c, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_needs_enough_points(self):
        s = _power_series(n=30)
        with pytest.raises(ValueError):
            fit_power_exponent(s, window=(s.t[-2], s.t[-1]))

    def test_default_window_is_last_two_decades(self):
        s = _power_series(n=30)          # grid spans 1e1..1e4
        lo, hi = default_window(s)
        assert hi == pytest.approx(1e4)
        assert lo == pytest.approx(1e2)
        lo2, _ = default_window(s, t0=350.0)
        assert lo2 == pytest.approx(350.0)

    def test_zero_series_rejected(self):
        z = NormSeries(np.array([1.0, 2.0]), np.zeros(2), zero=True)
        with pytest.raises(ValueError):
            fit_power_exponent(z)

    def test_out_of_regime_window_has_low_r_squared(self):
        # pure power-law data fitted as a log law far from any log regime
        t = np.logspace(2, 4, 25)
        series = NormSeries(t, 0.5 * t ** (1 / 3))
        fit = fit_log_rate(series)
        assert (fit.r_squared or 1.0) < 0.99


class TestSandwich:
    def test_series_on_lower_curve_passes(self):
        lower = power_lower_bound(np.sqrt(np.pi), 0.99, 0.75)
        upper = power_upper_bound(10.0, 0.75)
        t = np.logspace(1, 4, 20)
        series = NormSeries(t, lower.evaluate(t))
        rep = sandwich_check(series, lower, upper)
        assert rep.passed
        assert rep.t0 == pytest.approx(t[0])

    def test_halved_upper_fails_with_first_violation(self):
        s = 0.75
        lower = power_lower_bound(np.sqrt(np.pi), 0.99, s)
        upper = power_upper_bound(10.0, s)
        t = np.logspace(1, 4, 20)
        mid = NormSeries(t, 0.9 * upper.evaluate(t))
        ok = sandwich_check(mid, lower, upper)
        assert ok.passed
        halved = BoundSpec("upper", "power", upper.constant * 0.05,
                           upper.exponent)
        rep = sandwich_check(mid, lower, halved)
        assert not rep.passed
        assert rep.detail["first_upper_violation"] == pytest.approx(t[0])

    def test_level_mismatch_rejected(self):
        lower = dataclasses.replace(power_lower_bound(1.0, 0.99, 0.75), level="u")
        upper = power_upper_bound(10.0, 0.75)
        series = _power_series()
        with pytest.raises(ConventionError):
            sandwich_check(series, lower, upper)

    def test_kind_order_enforced(self):
        lower = power_lower_bound(1.0, 0.99, 0.75)
        upper = power_upper_bound(10.0, 0.75)
        with pytest.raises(ValueError):
            sandwich_check(_power_series(), upper, lower)

    def test_unit_rescaling_invariance(self):
        # scaling series and both bounds by the same factor keeps verdicts
        lower = power_lower_bound(np.sqrt(np.pi), 0.99, 0.75)
        upper = power_upper_bound(4.0, 0.75)
        t = np.logspace(1, 4, 16)
        series = NormSeries(t, 2.0 * t ** (1 / 3))
        rep = sandwich_check(series, lower, upper)
        k = 0.037
        scaled_series = NormSeries(t, k * series.values)
        scaled_rep = sandwich_check(
            scaled_series,
            BoundSpec("lower", "power", k * lower.constant, lower.exponent),
            BoundSpec("upper", "power", k * upper.constant, upper.exponent))
        assert rep.passed == scaled_rep.passed
        assert rep.t0 == scaled_rep.t0

    def test_onset_scan_skips_early_dip(self):
        lower = BoundSpec("lower", "power", 1.0, 0.5)
        upper = BoundSpec("upper", "power", 10.0, 0.5)
        t = np.logspace(0, 3, 16)
        values = 3.0 * np.sqrt(t)
        values[:4] = 0.1 * np.sqrt(t[:4])   # below the lower bound early on
        rep = sandwich_check(NormSeries(t, values), lower, upper)
        assert rep.passed
        assert rep.t0 == pytest.approx(t[4])

    def test_log_bound_validity_clips_samples(self):
        lower = log_lower_bound(1.0)
        upper = BoundSpec("upper", "sqrtlog", 50.0)
        t = np.logspace(-0.5, 3, 14)        # includes t <= 1 samples
        series = NormSeries(t, 10.0 * np.sqrt(np.log(np.maximum(t, 1.01))) + 0.5)
        rep = sandwich_check(series, lower, upper)
        assert rep.passed
        assert rep.t0 is not None and rep.t0 > 1.0
