"""Riesz energies, pointwise transform bound, Gagliardo identity, C(1,s)."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

import fracwave
from fracwave import (CompactBump, Gaussian, GaussianDerivative,
                      RadialGaussian, RadialGaussianLaplacian,
                      check_pointwise_bound, check_riesz_bound,
                      check_riesz_bound_zero_mean, gagliardo_constant,
                      gagliardo_seminorm, hs_seminorm, moment0, riesz_energy,
                      scaled)
from fracwave.errors import DivergenceError, PreconditionError
from fracwave.lemmas import sphere_area

SQPI = np.sqrt(np.pi)


class TestRieszEnergy:
    def test_theta_zero_is_plancherel(self):
        # int |fhat|^2 dxi = 2 pi ||f||_2^2 = 2 pi sqrt(pi/2) for the gaussian
        val = riesz_energy(Gaussian(), theta=0.0)
        assert val == pytest.approx(2 * np.pi * np.sqrt(np.pi / 2), rel=1e-9)

    def test_finite_below_boundary(self):
        ref = 2 * quad(lambda x: np.pi * np.exp(-x * x / 2) * x ** (-0.8),
                       0, 14, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
        assert riesz_energy(Gaussian(), theta=0.4) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("theta", [0.47, 0.48, 0.49])
    def test_finite_next_to_boundary(self, theta):
        # 2 int_0^inf pi e^(-xi^2/2) xi^(-2 theta) d xi in closed form; the
        # refused band is only 1/(2 HEAD_DYADIC) wide in theta
        exact = 2 * np.pi * 2 ** (-theta - 0.5) * math.gamma(0.5 - theta)
        assert riesz_energy(Gaussian(), theta) == pytest.approx(exact, rel=1e-14)

    def test_divergence_on_boundary(self):
        with pytest.raises(DivergenceError):
            riesz_energy(Gaussian(), theta=0.5)

    def test_divergence_above_boundary(self):
        with pytest.raises(DivergenceError):
            riesz_energy(Gaussian(), theta=0.8)

    def test_zero_mean_crosses_boundary(self):
        ref = 2 * quad(lambda x: np.pi * x * x * np.exp(-x * x / 2) * x ** (-1.8),
                       0, 14, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
        assert riesz_energy(GaussianDerivative(), theta=0.9) == pytest.approx(
            ref, rel=1e-8)

    def test_radial_reduction_n2(self):
        # n=2 gaussian, theta=0.9 < n/2: finite, matches 1-d radial quadrature
        g = RadialGaussian(dimension=2)
        ref = sphere_area(2) * quad(
            lambda r: (np.pi * np.exp(-r * r / 4)) ** 2 * r ** (2 - 1 - 1.8),
            0, 16, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
        assert riesz_energy(g, theta=0.9, n=2) == pytest.approx(ref, rel=1e-8)

    def test_radial_divergence_n2(self):
        with pytest.raises(DivergenceError):
            riesz_energy(RadialGaussian(dimension=2), theta=1.0, n=2)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            riesz_energy(RadialGaussian(dimension=3), theta=0.5, n=2)
        with pytest.raises(PreconditionError):
            riesz_energy(Gaussian(), theta=0.5, n=2)


class TestRieszChecks:
    @pytest.mark.parametrize("profile", [Gaussian(), GaussianDerivative()])
    def test_riesz_checks_refuse_a_line_profile_in_two_dimensions(self, profile):
        # every Riesz entry point refuses a (datum, n) pair the one way
        message = "radial Gaussian families only"
        with pytest.raises(PreconditionError, match=message):
            riesz_energy(profile, 0.9, n=2)
        with pytest.raises(PreconditionError, match=message):
            check_riesz_bound(profile, 0.9, n=2)
        with pytest.raises(PreconditionError, match=message):
            check_riesz_bound_zero_mean(profile, 0.9, 0.5, n=2)

    def test_riesz_hypotheses_enforced(self):
        with pytest.raises(PreconditionError):
            check_riesz_bound(Gaussian(), theta=0.5)          # theta >= n/2
        with pytest.raises(PreconditionError):
            check_riesz_bound_zero_mean(GaussianDerivative(), theta=1.0,
                                        gamma=0.5)            # theta >= gamma+n/2
        with pytest.raises(PreconditionError):
            check_riesz_bound_zero_mean(GaussianDerivative(), theta=0.5,
                                        gamma=1.5)            # gamma outside [0,1]
        with pytest.raises(PreconditionError):
            check_riesz_bound_zero_mean(Gaussian(), theta=0.5, gamma=0.5)  # mean != 0

    def test_finite_ratios(self):
        c1 = check_riesz_bound(Gaussian(), theta=0.4)
        assert c1.passed and 0 < c1.ratio < np.inf
        c2 = check_riesz_bound_zero_mean(GaussianDerivative(), theta=0.9, gamma=0.5)
        assert c2.passed and 0 < c2.ratio < np.inf

    def test_zero_mean_next_to_boundary(self):
        # theta = 1.47 < gamma + n/2 = 1.5: the hypothesis holds and the
        # energy, whose singularity is xi^-0.94, is finite
        assert check_riesz_bound_zero_mean(GaussianDerivative(), 1.47, 1.0).passed

    def test_scaling_invariance(self):
        base = check_riesz_bound(Gaussian(), theta=0.2)
        big = check_riesz_bound(scaled(Gaussian(), 5.0), theta=0.2)
        assert big.ratio == pytest.approx(base.ratio, rel=1e-9)

    def test_n3_zero_mean_family(self):
        p = RadialGaussianLaplacian(dimension=3)
        assert p.moment0() == 0.0
        check = check_riesz_bound_zero_mean(p, theta=1.6, gamma=0.5, n=3)
        assert check.passed and np.isfinite(check.ratio)


class TestPointwiseBound:
    XI = np.logspace(-3, 2, 500)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("profile", [Gaussian(), GaussianDerivative(),
                                         CompactBump(),
                                         Gaussian(amplitude=2.0, width=0.6)])
    def test_constant_two_holds(self, profile, gamma):
        check = check_pointwise_bound(profile, gamma, self.XI)
        assert check.passed
        assert check.ratio <= 2.0

    def test_equality_at_origin(self):
        for p in (Gaussian(), GaussianDerivative(), CompactBump()):
            assert abs(p.fourier(np.array([0.0]))[0]) == pytest.approx(
                abs(moment0(p)), abs=1e-12)

    def test_zero_mean_pure_power_bound(self):
        # with P = 0 the bound reduces to |fhat| <= 2 |xi|^g ||f||_{1,g}
        from fracwave import weighted_l1_norm
        dg = GaussianDerivative()
        w = weighted_l1_norm(dg, 0.5)
        vals = np.abs(dg.fourier(self.XI))
        assert np.all(vals <= 2.0 * self.XI ** 0.5 * w)

    def test_gamma_guard(self):
        with pytest.raises(PreconditionError):
            check_pointwise_bound(Gaussian(), 1.2, self.XI)


class TestGagliardo:
    def test_constant_at_half(self):
        assert gagliardo_constant(0.5) == pytest.approx(1 / np.pi, rel=1e-8)

    @pytest.mark.parametrize("s", [0.2, 0.3, 0.5, 0.7, 0.9])
    def test_constant_against_gamma_closed_form(self, s):
        # int_0^inf (1-cos z) z^(-1-2s) dz = -Gamma(-2s) cos(pi s)  (s != 1/2)
        if s == 0.5:
            closed = np.pi
        else:
            closed = 2.0 * (-gamma_fn(-2.0 * s) * np.cos(np.pi * s))
        assert gagliardo_constant(s) == pytest.approx(1.0 / closed, rel=1e-9)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_constant_matches_closed_form_sharply(self, s):
        # C(1, s) = s 4^s Gamma(1/2 + s) / (sqrt(pi) Gamma(1 - s))
        closed = s * 4.0 ** s * gamma_fn(0.5 + s) / (np.sqrt(np.pi) * gamma_fn(1.0 - s))
        assert gagliardo_constant(s) == pytest.approx(closed, rel=1e-13, abs=0.0)

    def test_order_guard(self):
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                gagliardo_constant(bad)
            with pytest.raises(ValueError):
                gagliardo_seminorm(Gaussian(), bad)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_identity_with_spectral_seminorm(self, s):
        # both sides by independent quadratures
        lhs = gagliardo_seminorm(Gaussian(), s) ** 2
        rhs = 2.0 / gagliardo_constant(s) * hs_seminorm(Gaussian(), s) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-3)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_seminorm_against_lag_closed_form(self):
        # D(h) = 2 sqrt(pi/2) (1 - e^(-h^2/2)) for the unit gaussian, so
        # [u]^2 = 4 sqrt(pi/2) int_0^inf (1 - e^(-h^2/2)) h^(-1-2s) dh
        s = 0.6
        body = quad(lambda h: (1 - np.exp(-h * h / 2)) * h ** (-1 - 2 * s),
                    0, 12, epsabs=1e-12, epsrel=1e-10, limit=400)[0]
        tail = 12.0 ** (-2 * s) / (2 * s)  # e^(-h^2/2) is ~1e-32 out there
        ref = 4 * np.sqrt(np.pi / 2) * (body + tail)
        assert gagliardo_seminorm(Gaussian(), s) ** 2 == pytest.approx(ref, rel=1e-6)

    ORDERS = [0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99]

    @pytest.mark.parametrize("s", ORDERS)
    @pytest.mark.parametrize("p, rel", [(Gaussian(), 1e-10), (GaussianDerivative(), 1e-10),
                                        (Gaussian(center=2.0), 1e-10), (CompactBump(), 5e-9)],
                             ids=["gaussian", "derivative", "off-centre", "bump"])
    def test_identity_holds_sharply(self, p, rel, s):
        # the head coefficient must not carry cancellation noise: as s -> 1
        # the head below h_min is a large share of the total
        lhs = gagliardo_seminorm(p, s) ** 2
        rhs = 2.0 / gagliardo_constant(s) * hs_seminorm(p, s) ** 2
        assert lhs == pytest.approx(rhs, rel=rel, abs=0.0)

    @pytest.mark.parametrize("s, value", [(0.3, 2.968085745696066),
                                          (0.5, 2.5066282746310002),
                                          (0.7, 2.56794051799479)])
    def test_moderate_orders_keep_their_values(self, s, value):
        # values of the single-array evaluation with the head at 1e-12,
        # which is accurate at these orders
        assert gagliardo_seminorm(Gaussian(), s) == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_allocation_stays_bounded(self):
        gagliardo_seminorm(Gaussian(), 0.5)        # warm the rule caches
        tracemalloc.start()
        try:
            gagliardo_seminorm(Gaussian(), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_zero_profile(self):
        from fracwave import ZERO
        assert gagliardo_seminorm(ZERO, 0.5) == 0.0
        assert hs_seminorm(ZERO, 0.5) == 0.0


def test_radial_gaussian_norms_closed_forms():
    g = RadialGaussian(amplitude=2.0, width=1.5, dimension=3)
    sig = 1.5
    assert g.l1() == pytest.approx(2.0 * (sig * SQPI) ** 3, rel=1e-12)
    assert g.l2() == pytest.approx(2.0 * (sig * np.sqrt(np.pi / 2)) ** 1.5, rel=1e-12)
    # weighted norm against direct radial quadrature
    gamma = 0.7
    ref = sphere_area(3) * quad(
        lambda r: (1 + r ** gamma) * 2.0 * np.exp(-(r / sig) ** 2) * r ** 2,
        0, 20, epsabs=1e-13, epsrel=1e-12)[0]
    assert g.weighted_l1(gamma) == pytest.approx(ref, rel=1e-9)


def test_bump_riesz_energy_against_cosine_transform():
    # independent route: QUADPACK's cosine-weighted transform inside an
    # adaptive outer integral; |fhat(400)| is 3e-11 |fhat(0)|
    def bump(x):
        return np.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1.0 else 0.0

    def fhat_sq(k):
        return (2.0 * quad(bump, 0.0, 1.0, weight="cos", wvar=k, epsabs=1e-14,
                           epsrel=1e-12, limit=200)[0]) ** 2

    theta = 0.4
    head = quad(fhat_sq, 0.0, 1.0, weight="alg", wvar=(-2.0 * theta, 0.0),
                epsabs=0.0, epsrel=1e-12)[0]
    body = quad(lambda k: fhat_sq(k) * k ** (-2.0 * theta), 1.0, 400.0,
                epsabs=0.0, epsrel=1e-12, limit=500)[0]
    assert riesz_energy(CompactBump(), theta) == pytest.approx(
        2.0 * (head + body), rel=1e-10)


def test_bump_lemmas_run_fits_in_two_gib(tmp_path):
    cfg = tmp_path / "bump.txt"
    cfg.write_text("experiment = bump-lemmas\nu0 = none\nu1 = bump a=1 r=1\n")
    code = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from fracwave.cli import main
        sys.exit(main(["lemmas", "--config", {str(cfg)!r},
                       "--out", {str(tmp_path / "out")!r}]))
    """)
    src = str(Path(fracwave.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "PASS all_inequalities_hold" in proc.stdout
