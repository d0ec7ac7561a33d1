"""Bound curves, splitting, the log-growth integral, area sums."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from fracwave import (AreaSumReport, BoundSpec, Gaussian, Parameters, ZERO,
                      area_sums, fourier_split, log_growth_integral,
                      log_lower_bound, log_upper_bound, measure_constant,
                      power_lower_bound, power_upper_bound, select_theta0,
                      uniform_bound)
from fracwave.errors import (InfeasibleThresholdError, ValidityError,
                             WrongRegimeError)
from fracwave.estimates import _exp1
from fracwave.profiles import weighted_l1_norm
from support import log_growth_sweep

SQPI = np.sqrt(np.pi)


class TestTheta0:
    def test_default(self):
        theta0 = select_theta0()
        assert theta0 == 0.99
        # dense-sampling oracle: the minimum of sin(x)/x on (0, 0.99]
        grid = np.linspace(1e-9, 0.99, 300001)
        assert np.min(np.sin(grid) / grid) >= 0.5
        assert np.min(np.sin(grid) / grid) == pytest.approx(0.844471, abs=1e-5)

    def test_weak_threshold_still_capped(self):
        assert select_theta0(threshold=1e-6) == 0.99

    def test_infeasible_reports_supremum(self):
        with pytest.raises(InfeasibleThresholdError) as err:
            select_theta0(threshold=0.9)
        sup = err.value.feasible_sup
        # independent bisection oracle on the decreasing function sin(x)/x
        lo, hi = 0.1, 3.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if np.sin(mid) / mid >= 0.9:
                lo = mid
            else:
                hi = mid
        assert sup == pytest.approx(lo, abs=1e-6)
        assert sup == pytest.approx(0.786683, abs=1e-4)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            select_theta0(threshold=0.0)


class TestBoundSpec:
    def test_power_evaluation(self):
        b = BoundSpec("upper", "power", constant=2.0, exponent=0.5)
        assert b.evaluate(4.0) == pytest.approx(4.0)
        assert np.allclose(b.evaluate(np.array([1.0, 9.0])), [2.0, 6.0])

    def test_log_form_validity(self):
        b = BoundSpec("lower", "sqrtlog", constant=1.0)
        with pytest.raises(ValidityError):
            b.evaluate(1.0)
        with pytest.raises(ValidityError):
            b.evaluate(np.array([0.5, 2.0]))
        assert b.evaluate(np.e) == pytest.approx(1.0)

    def test_validity_floor_respected(self):
        b = BoundSpec("lower", "power", constant=1.0, exponent=1.0, validity=10.0)
        with pytest.raises(ValidityError):
            b.evaluate(5.0)
        assert b.evaluate(10.0) == pytest.approx(10.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BoundSpec("middle", "power", 1.0, exponent=1.0)
        with pytest.raises(ValueError):
            BoundSpec("upper", "power", -1.0, exponent=1.0)
        with pytest.raises(ValueError):
            BoundSpec("upper", "power", 1.0)  # missing exponent


class TestEnvelopeConstants:
    def test_power_exponent_value(self):
        assert power_lower_bound(1.0, 0.99, 0.75).exponent == pytest.approx(1 / 3)
        assert power_upper_bound(1.0, 0.9).exponent == pytest.approx(4 / 9)

    def test_zero_moment_gives_zero_lower(self):
        assert power_lower_bound(0.0, 0.99, 0.75).constant == 0.0
        assert log_lower_bound(0.0).constant == 0.0

    def test_lower_value_frozen(self):
        # independent formula evaluation: (0.99/4) sqrt(pi) * (1e4)^(1/3)
        value = power_lower_bound(SQPI, 0.99, 0.75).evaluate(1e4)
        assert value == pytest.approx(0.25 * 0.99 * SQPI * 1e4 ** (1 / 3), rel=1e-12)
        assert value == pytest.approx(9.451124, abs=2e-6)

    def test_wrong_regime(self):
        for s in (0.5, 0.3, 1.0):
            with pytest.raises(WrongRegimeError):
                power_lower_bound(1.0, 0.99, s)
            with pytest.raises(WrongRegimeError):
                power_upper_bound(1.0, s)

    def test_log_lower_at_e(self):
        assert log_lower_bound(SQPI).evaluate(np.e) == pytest.approx(
            SQPI / (3 * np.e), rel=1e-12)
        assert SQPI / (3 * np.e) == pytest.approx(0.21735, abs=1e-5)

    def test_log_upper_plugin(self):
        assert log_upper_bound(1.0).evaluate(np.e ** 2) == pytest.approx(
            2 * np.sqrt(2), rel=1e-12)


class TestFourierSplit:
    PARAMS = Parameters(0.75)

    def test_requires_large_time(self):
        with pytest.raises(ValidityError):
            fourier_split((ZERO, Gaussian()), self.PARAMS, 1.0, 0.99)

    def test_zero_data(self):
        rep = fourier_split((ZERO, ZERO), self.PARAMS, 10.0, 0.99)
        assert rep.i_low == rep.i_high == rep.total == 0.0

    @pytest.mark.parametrize("t", [5.0, 100.0])
    def test_decomposition_closure(self, t):
        rep = fourier_split((ZERO, Gaussian()), self.PARAMS, t, 0.99)
        assert rep.i_low >= 0 and rep.i_high >= 0
        assert rep.i_low + rep.i_high == pytest.approx(rep.total, rel=1e-8)
        assert rep.cut == pytest.approx(0.99 * t ** (-1 / 0.75))

    def test_low_frequency_lower_bound_chain(self):
        # I_low >= (theta0/8) P^2 t^(2-1/s) - C^2 theta0 ||u1||_{1,s}^2 t^(-1/s)
        # with the pointwise-bound constant C = 2
        s, t, theta0 = 0.75, 100.0, 0.99
        rep = fourier_split((ZERO, Gaussian()), Parameters(s), t, theta0)
        P = SQPI
        w = weighted_l1_norm(Gaussian(), s)
        rhs = theta0 / 8 * P ** 2 * t ** (2 - 1 / s) - 4 * theta0 * w ** 2 * t ** (-1 / s)
        assert rep.i_low >= rhs > 0


class TestLogGrowthIntegral:
    def test_validity(self):
        with pytest.raises(ValidityError):
            log_growth_integral(1.0)

    def test_against_scipy_at_moderate_t(self):
        # r-space form: 2 int e^(-r^2) sin^2(t sqrt(r)) / r dr
        t = 50.0
        ref = 2 * quad(lambda r: np.exp(-r * r) * np.sin(t * np.sqrt(r)) ** 2 / r,
                       0, 8.0, epsabs=1e-14, epsrel=1e-12, limit=20000)[0]
        assert log_growth_integral(t) == pytest.approx(ref, rel=1e-9)

    def test_self_convergence_at_large_t(self):
        t = 1e6
        v12 = log_growth_integral(t)
        # independent evaluation: Gauss-24 on pi-panels in v = t sqrt(r)
        v24 = log_growth_sweep(t, order=24)
        assert v12 == pytest.approx(v24, rel=1e-9)

    @pytest.mark.parametrize("t", [1e3, 1e4, 1e6])
    def test_matches_closed_form_asymptotics(self, t):
        # K1(t) = 2 log(2t) + 3 gamma/2 up to a remainder that decays faster
        # than any power of 1/t (4e-14 relative at t = 1e3)
        exact = 2.0 * np.log(2.0 * t) + 1.5 * np.euler_gamma
        assert log_growth_integral(t) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [10.0, 100.0])
    def test_matches_panel_sweep(self, t):
        assert log_growth_integral(t) == pytest.approx(log_growth_sweep(t), rel=1e-12,
                                                       abs=0.0)

    @pytest.mark.parametrize("t", [10.0, 1e3, 1e6])
    def test_logarithmic_minorant(self, t):
        assert log_growth_integral(t) >= (2 / (3 * np.e)) * (
            np.log(t) + np.log(4) - np.log(np.pi))

    def test_monotone_over_decades(self):
        vals = [log_growth_integral(t) for t in np.logspace(1, 6, 11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestExp1:
    def test_matches_scipy_to_four_ulp(self):
        x = np.concatenate([np.geomspace(1e-12, 750.0, 20001),
                            np.linspace(0.5, 5.0, 4501)])
        ref = exp1(x)
        assert np.all(np.abs(_exp1(x) - ref) <= 4.0 * np.spacing(ref))

    def test_shapes(self):
        assert _exp1(np.float64(2.0)) == pytest.approx(exp1(2.0), rel=1e-15, abs=0.0)
        assert _exp1(np.array([[0.5, 2.0]])).shape == (1, 2)


class TestAreaSums:
    def test_endpoints_at_t_pi(self):
        rep = area_sums(np.pi)
        assert rep.a[0] == pytest.approx(1 / 16)
        assert rep.b[0] == pytest.approx(9 / 16)

    def test_requires_t_above_quarter_pi(self):
        with pytest.raises(ValidityError):
            area_sums(0.7)

    @pytest.mark.parametrize("t", [10.0, 1e3])
    def test_panel_structure(self, t):
        rep = area_sums(t)
        assert isinstance(rep, AreaSumReport)
        assert np.all(rep.a < rep.b)
        assert np.all(rep.b[:-1] < rep.a[1:])
        assert np.all(rep.A > 0) and np.all(rep.B > 0)
        assert rep.tail <= rep.tolerance * rep.sum_A

    def test_bump_dominates_gap(self):
        rep = area_sums(1e3)
        assert np.all(rep.B <= 2.0 * rep.A)
        # the sharp panel ratio from monotonicity: 1 + 1/(1+2i)
        i = np.arange(rep.A.size)
        assert np.all(rep.B / rep.A <= 1.0 + 1.0 / (1.0 + 2.0 * i))

    def test_full_integral_bounded_by_three_bump_sums(self):
        for t in (10.0, 300.0):
            rep = area_sums(t)
            assert rep.full_integral <= 3.0 * rep.sum_A

    def test_panels_against_scipy(self):
        rep = area_sums(20.0)
        for i in (0, 3, 10):
            ref, _ = quad(lambda r: np.exp(-r * r) / r, rep.a[i], rep.b[i],
                          epsabs=1e-15, epsrel=1e-13)
            assert rep.A[i] == pytest.approx(ref, rel=1e-11)
        ref_tail, _ = quad(lambda r: np.exp(-r * r) / r, rep.a[0], 30.0,
                           epsabs=1e-16, epsrel=1e-13, limit=400)
        assert rep.full_integral == pytest.approx(ref_tail, rel=1e-10)

    @pytest.mark.parametrize("t", [20.0, 1e5])
    def test_next_edge_is_shared(self, t, monkeypatch):
        # a_(i+1) is the next panel's a_i, so E1 is taken at 2n + 1 points
        # per block of n panels, and A, B and the tail are bit for bit those
        # of E1 taken at a_i, b_i and a_(i+1) apart
        from fracwave import estimates
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return _exp1(x)

        monkeypatch.setattr(estimates, "_exp1", counted)
        rep = area_sums(t, tolerance=1e-10)
        i_hard = int(np.ceil(1.7 * t)) + 8
        starts = range(0, rep.A.size, 8192)
        assert len(starts) == (1 if t < 1e3 else 8)
        assert sizes == [2 * min(8192, i_hard + 1 - start) + 1 for start in starts]

        i = np.arange(rep.A.size, dtype=float)
        a = ((i + 0.25) * np.pi / t) ** 2
        b = ((i + 0.75) * np.pi / t) ** 2
        a_next = ((i + 1.25) * np.pi / t) ** 2
        edges = np.concatenate([a, b, a_next])
        e_a, e_b, e_next = np.split(0.5 * _exp1(edges * edges), 3)
        assert np.array_equal(rep.a, a) and np.array_equal(rep.b, b)
        assert np.array_equal(rep.A, e_a - e_b)
        assert np.array_equal(rep.B, e_b - e_next)
        assert rep.tail == e_next[-1]


class TestUniformBoundAndConstants:
    def test_uniform_bound_value(self):
        b = uniform_bound(C=2.0, u0_l2=1.0, u1_l2=0.5, u1_integral_norm=1.5)
        assert b.form == "constant"
        assert b.level == "u"
        assert b.evaluate(123.0) == pytest.approx(np.sqrt(2) + 2.0 * 2.0)

    def test_uniform_bound_validation(self):
        with pytest.raises(ValueError):
            uniform_bound(C=0.0, u0_l2=1.0, u1_l2=1.0, u1_integral_norm=1.0)
        with pytest.raises(ValueError):
            uniform_bound(C=1.0, u0_l2=-1.0, u1_l2=1.0, u1_integral_norm=1.0)
        with pytest.raises(TypeError):
            uniform_bound(C=1.0, u0_l2=1.0, u1_l2=1.0)

    def test_measure_constant_homogeneity(self):
        # scaled copies of one profile share the ratio: both sides quadratic
        family = [Gaussian(amplitude=a) for a in (0.5, 1.0, 3.0)]

        def functional(p):
            return (weighted_l1_norm(p, 0.5) ** 2, p.amplitude ** 2)

        base = weighted_l1_norm(Gaussian(), 0.5) ** 2
        assert measure_constant(family, functional) == pytest.approx(base, rel=1e-10)

    def test_measure_constant_skips_degenerate(self):
        family = [0.0, 2.0]
        assert measure_constant(family, lambda a: (a, a)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            measure_constant([0.0, 0.0], lambda a: (a, a))

    def test_measure_constant_riesz_family(self):
        from fracwave import check_riesz_bound
        family = [Gaussian(), Gaussian(width=0.6), Gaussian(2.0, 1.5, 0.3)]

        def ratio(p):
            check = check_riesz_bound(p, theta=0.2)
            return check.left, check.right

        C = measure_constant(family, ratio)
        assert 0.0 < C < np.inf

    def test_position_only_data_sits_under_uniform_bound(self):
        # u1 = 0: the bound collapses to sqrt(2)||u0||_2 and the evolved norm
        # is a cosine contraction of ||u0||_2
        from fracwave import Parameters, QuadratureBackend, evolve_state
        from fracwave.profiles import l2_norm
        u0 = Gaussian()
        bound = uniform_bound(C=1.0, u0_l2=l2_norm(u0), u1_l2=0.0,
                              u1_integral_norm=0.0)
        assert bound.evaluate(0.0) == pytest.approx(np.sqrt(2) * l2_norm(u0))
        for t in (0.5, 20.0, 500.0):
            snap = evolve_state((u0, ZERO), Parameters(0.6), t,
                                QuadratureBackend())
            assert snap.physical_l2() <= l2_norm(u0) * (1 + 1e-10)
            assert snap.physical_l2() <= bound.evaluate(t)

    def test_zero_data_bound_is_zero(self):
        b = uniform_bound(C=3.0, u0_l2=0.0, u1_l2=0.0, u1_integral_norm=0.0)
        assert b.evaluate(10.0) == 0.0
