"""Solver: multipliers, evolution, norms, energy, backends."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.special import gamma as gamma_fn

from fracwave import (Gaussian, GaussianDerivative, GridBackend, GridSpec,
                      Parameters, QuadratureBackend, SampledProfile, ZERO,
                      evolve_state, hs_norm, hs_seminorm, l2_norm,
                      sine_multiplier)
from fracwave.spectral import SpectralField, propagate
from fracwave.errors import (BackendCapError, BackendMismatchError,
                             UnsupportedDimensionError)
from fracwave.lemmas import gagliardo_constant

SQPI = np.sqrt(np.pi)
BACKEND = GridBackend(GridSpec(40.0, 4096))


class TestSineMultiplier:
    def test_removable_singularity(self):
        assert sine_multiplier(0.5, 2.0, 0.0) == 2.0

    def test_unit_frequency(self):
        assert sine_multiplier(1.0, np.pi / 2.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("s,t", [(0.5, 3.0), (0.75, 11.0), (1.0, 2.0)])
    def test_zero_at_phase_pi(self, s, t):
        xi = (np.pi / t) ** (1.0 / s)
        assert abs(sine_multiplier(s, t, xi)) < 1e-12 * t

    def test_series_branch_continuity(self):
        s, t = 0.7, 1.0
        # straddle the series switch; values must agree to full precision
        xi_lo = (0.9e-8 / t) ** (1.0 / s)
        xi_hi = (1.1e-8 / t) ** (1.0 / s)
        lo = sine_multiplier(s, t, xi_lo)
        hi = sine_multiplier(s, t, xi_hi)
        assert lo == pytest.approx(hi, rel=1e-12)
        assert lo == pytest.approx(t, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sine_multiplier(0.5, -1.0, 1.0)

    def test_vectorized(self):
        xi = np.linspace(-4, 4, 101)
        vals = sine_multiplier(0.6, 2.0, xi)
        assert vals.shape == xi.shape
        assert np.allclose(vals, vals[::-1])  # even in xi


class TestEvolution:
    def test_time_zero_identity(self):
        snap = evolve_state((Gaussian(), GaussianDerivative()), Parameters(0.6),
                            0.0, BACKEND)
        grid = BACKEND.grid
        assert np.array_equal(snap.u_hat.values, grid.forward(Gaussian().evaluate(grid.x())))
        assert np.array_equal(snap.ut_hat.values,
                              grid.forward(GaussianDerivative().evaluate(grid.x())))

    def test_zero_data_zero_snapshot(self):
        for t in (0.0, 3.0):
            snap = evolve_state((ZERO, ZERO), Parameters(0.5), t, BACKEND)
            assert snap.energy() == 0.0
            assert (snap.spectral_l2(), snap.physical_l2(), snap.ut_l2(),
                    snap.hs_seminorm(0.5)) == (0.0, 0.0, 0.0, 0.0)
            assert not np.any(snap.u) and not np.any(snap.ut)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            evolve_state((ZERO, Gaussian()), Parameters(0.5, n=2), 1.0, BACKEND)

    def test_negative_time_guard(self):
        with pytest.raises(ValueError):
            evolve_state((ZERO, Gaussian()), Parameters(0.5), -0.5, BACKEND)

    def test_grid_time_cap(self):
        with pytest.raises(BackendCapError):
            evolve_state((ZERO, Gaussian()), Parameters(0.5), 101.0, BACKEND)

    def test_sampled_needs_grid_backend(self):
        grid = BACKEND.grid
        p = SampledProfile(Gaussian().evaluate(grid.x()), grid)
        with pytest.raises(BackendMismatchError):
            evolve_state((ZERO, p), Parameters(0.5), 1.0, QuadratureBackend())
        snap = evolve_state((ZERO, p), Parameters(0.5), 1.0, BACKEND)
        ref = evolve_state((ZERO, Gaussian()), Parameters(0.5), 1.0, BACKEND)
        assert snap.spectral_l2() == pytest.approx(ref.spectral_l2(), rel=1e-13)

    def test_sampled_wrong_grid_rejected(self):
        other = GridSpec(20.0, 512)
        for values in (Gaussian().evaluate(other.x()), np.zeros(other.points)):
            p = SampledProfile(values, other)
            with pytest.raises(BackendMismatchError):
                evolve_state((ZERO, p), Parameters(0.5), 1.0, BACKEND)

    def test_zero_datum_is_not_transformed(self, monkeypatch):
        calls = []
        original = GridSpec.forward

        def counted(grid, values):
            calls.append(grid)
            return original(grid, values)

        monkeypatch.setattr(GridSpec, "forward", counted)
        snap = evolve_state((ZERO, Gaussian()), Parameters(0.5), 2.0, BACKEND)
        snap.energy()
        assert len(calls) == 1
        zero = SampledProfile(np.zeros(BACKEND.grid.points), BACKEND.grid)
        evolve_state((zero, Gaussian()), Parameters(0.5), 2.0, BACKEND).energy()
        assert len(calls) == 2

    def test_fields_are_built_on_first_read(self):
        snap = evolve_state((Gaussian(0.5, 1.0, 0.3), Gaussian()), Parameters(0.6),
                            4.0, BACKEND)
        snap.spectral_l2()
        snap.physical_l2()
        # a norm of u builds one field, u on the half spectrum, and no
        # full-length field: neither ut_hat, u, ut nor u_hat itself
        assert not {"u_hat", "ut_hat", "u", "ut"} & set(snap.__dict__)
        assert _built_fields(snap) == [BACKEND.grid.points // 2 + 1]
        ut_l2 = snap.ut_l2()
        assert _built_fields(snap) == [BACKEND.grid.points // 2 + 1] * 2
        assert "ut_hat" not in snap.__dict__
        # energy builds both fields at once; the values do not depend on how
        fresh = evolve_state((Gaussian(0.5, 1.0, 0.3), Gaussian()), Parameters(0.6),
                             4.0, BACKEND)
        assert fresh.energy() == snap.energy()
        assert fresh.ut_l2() == ut_l2
        assert np.array_equal(fresh.u_hat.values, snap.u_hat.values)

    @pytest.mark.parametrize("u0", [ZERO, Gaussian(0.5, 1.0, 0.3)])
    @pytest.mark.parametrize("s,t", [(0.3, 0.5), (0.75, 10.0), (1.0, 60.0)])
    def test_fields_match_the_multiplier_formula(self, u0, s, t):
        grid = GridSpec(400.0, 2 ** 16)
        u1 = Gaussian()
        snap = evolve_state((u0, u1), Parameters(s), t, GridBackend(grid))
        xi = grid.xi()
        u0_hat = grid.forward(u0.evaluate(grid.x()))
        u1_hat = grid.forward(u1.evaluate(grid.x()))
        xi_s = np.abs(xi) ** s
        sin_w, cos_w = np.sin(t * xi_s), np.cos(t * xi_s)
        ratio = np.empty_like(xi)
        nonzero = xi != 0.0
        ratio[nonzero] = sin_w[nonzero] / xi_s[nonzero]
        ratio[~nonzero] = t
        for field, expected in (
                (snap.u_hat, ratio * u1_hat + cos_w * u0_hat),
                (snap.ut_hat, cos_w * u1_hat - xi_s * sin_w * u0_hat)):
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(field.values - expected)) <= 1e-14 * scale

    def test_dalembert_oracle(self):
        # s = 1, u0 = 0, u1 gaussian: u(t,x) = (sqrt(pi)/4)(erf(x+t) - erf(x-t))
        t = 5.0
        snap = evolve_state((ZERO, Gaussian()), Parameters(1.0), t, BACKEND)
        x = BACKEND.grid.x()
        exact = SQPI / 4.0 * (erf(x + t) - erf(x - t))
        err = np.max(np.abs(snap.u.real - exact)) / np.max(np.abs(exact))
        assert err < 1e-12
        # velocity: u_t = (g(x+t) + g(x-t)) / 2
        exact_ut = 0.5 * (np.exp(-(x + t) ** 2) + np.exp(-(x - t) ** 2))
        assert np.max(np.abs(snap.ut.real - exact_ut)) < 1e-12

    @pytest.mark.parametrize("s", [0.3, 0.75, 1.0])
    def test_cosine_contraction(self, s):
        # u1 = 0: every bin is multiplied by cos, so the norm cannot grow
        u0 = Gaussian()
        base = l2_norm(u0)
        for t in (0.5, 3.0, 40.0):
            snap = evolve_state((u0, ZERO), Parameters(s), t, BACKEND)
            assert snap.physical_l2() <= base * (1.0 + 1e-12)

    def test_small_time_linear_growth(self):
        # u0 = 0: uhat ~ t * u1hat for small t
        params = Parameters(1.0)
        n1 = evolve_state((ZERO, Gaussian()), params, 1e-4, BACKEND).spectral_l2()
        n2 = evolve_state((ZERO, Gaussian()), params, 2e-4, BACKEND).spectral_l2()
        assert n2 / n1 == pytest.approx(2.0, rel=1e-6)


def _built_fields(snap):
    """Lengths of the arrays and fields a grid snapshot has built so far."""
    built = [v for k, v in vars(snap).items() if k != "_data"
             and isinstance(v, (np.ndarray, SpectralField))]
    return [len(v.values if isinstance(v, SpectralField) else v) for v in built]


@pytest.mark.filterwarnings("ignore::fracwave.profiles.TruncationWarning")
class TestHalfSpectrum:
    """Fields live on bins -N/2..0; norms and full fields must not notice."""

    GRID = GridSpec(40.0, 4096)

    @classmethod
    def _data(cls):
        # white noise: every bin, the Nyquist and zero bins included, is nonzero
        rng = np.random.default_rng(20261018)
        return tuple(SampledProfile(rng.standard_normal(cls.GRID.points), cls.GRID)
                     for _ in range(2))

    def _full_fields(self, data, s, t):
        spectra = [self.GRID.forward(p.values) for p in data]
        return propagate(s, t, self.GRID.xi(), *spectra)

    def test_data_fill_the_end_bins(self):
        for p in self._data():
            spectrum = self.GRID.forward(p.values)
            assert abs(spectrum[0]) > 0 and abs(spectrum[self.GRID.points // 2]) > 0

    @pytest.mark.parametrize("s,t", [(0.3, 0.1), (0.6, 7.0), (0.75, 0.0),
                                     (1.0, 100.0)])
    def test_full_fields_are_the_full_axis_propagation(self, s, t):
        data = self._data()
        snap = evolve_state(data, Parameters(s), t, GridBackend(self.GRID))
        u_full, ut_full = self._full_fields(data, s, t)
        assert np.array_equal(snap.u_hat.values, u_full)
        assert np.array_equal(snap.ut_hat.values, ut_full)
        # energy() builds both halves at once; the mirrors are the same
        fused = evolve_state(data, Parameters(s), t, GridBackend(self.GRID))
        fused.energy()
        assert np.array_equal(fused.u_hat.values, u_full)
        assert np.array_equal(fused.ut_hat.values, ut_full)

    @pytest.mark.parametrize("s,t", [(0.3, 0.1), (0.6, 7.0), (0.75, 0.0),
                                     (1.0, 100.0)])
    def test_norms_match_full_bin_sums(self, s, t):
        data = self._data()
        backend = GridBackend(self.GRID)
        u_full, ut_full = self._full_fields(data, s, t)
        dxi, xi = self.GRID.dxi, self.GRID.xi()

        def line_sum(density):
            return dxi * np.sum(density)

        u_sq, ut_sq = np.abs(u_full) ** 2, np.abs(ut_full) ** 2
        s_other = 0.45
        expected = {
            "spectral_l2": np.sqrt(line_sum(u_sq)),
            "ut_l2": np.sqrt(line_sum(ut_sq) / (2 * np.pi)),
            "hs_seminorm": np.sqrt(line_sum(np.abs(xi) ** (2 * s_other) * u_sq)
                                   / (2 * np.pi)),
            "energy": 0.5 * (line_sum(ut_sq)
                             + line_sum(np.abs(xi) ** (2 * s) * u_sq)) / (2 * np.pi),
        }
        snap = evolve_state(data, Parameters(s), t, backend)
        got = {"spectral_l2": snap.spectral_l2(), "ut_l2": snap.ut_l2(),
               "hs_seminorm": snap.hs_seminorm(s_other),
               "energy": evolve_state(data, Parameters(s), t, backend).energy()}
        for name, value in got.items():
            assert value == pytest.approx(expected[name], rel=1e-14), name

    def test_norms_on_the_smallest_grid(self):
        # N = 2: the half spectrum is the whole axis, bins -1 and 0
        grid = GridSpec(1.0, 2)
        data = (SampledProfile(np.array([0.5, -1.25]), grid),
                SampledProfile(np.array([2.0, 0.75]), grid))
        snap = evolve_state(data, Parameters(0.6), 3.0, GridBackend(grid))
        u_full = snap.u_hat.values
        assert snap.spectral_l2() == pytest.approx(
            np.sqrt(grid.dxi * np.sum(np.abs(u_full) ** 2)), rel=1e-15)


class TestInvariants:
    def test_linearity_binwise(self):
        params = Parameters(0.7)
        d1 = (Gaussian(), GaussianDerivative())
        d2 = (GaussianDerivative(width=1.5), Gaussian(width=0.8))
        a, b = 1.7, -0.4
        combined = (
            _lincomb(a, d1[0], b, d2[0]),
            _lincomb(a, d1[1], b, d2[1]),
        )
        t = 7.0
        s_comb = evolve_state(combined, params, t, BACKEND)
        s1 = evolve_state(d1, params, t, BACKEND)
        s2 = evolve_state(d2, params, t, BACKEND)
        expected = a * s1.u_hat.values + b * s2.u_hat.values
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(s_comb.u_hat.values - expected)) < 1e-12 * scale

    def test_cocycle(self):
        params = Parameters(0.6)
        data = (Gaussian(), GaussianDerivative())
        one_shot = evolve_state(data, params, 9.0, BACKEND)
        two_step = evolve_state(data, params, 5.5, BACKEND).advance(3.5)
        scale = np.max(np.abs(one_shot.u_hat.values))
        assert np.max(np.abs(two_step.u_hat.values - one_shot.u_hat.values)) < 1e-12 * scale
        assert np.max(np.abs(two_step.ut_hat.values - one_shot.ut_hat.values)) < 1e-12 * scale
        assert two_step.t == pytest.approx(9.0)

    def test_reality(self):
        snap = evolve_state((Gaussian(center=0.5), GaussianDerivative()),
                            Parameters(0.45), 12.0, BACKEND)
        for field in (snap.u, snap.ut):
            scale = np.max(np.abs(field))
            assert np.max(np.abs(field.imag)) < 1e-12 * scale

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
    def test_energy_conserved(self, s):
        params = Parameters(s)
        data = (Gaussian(), Gaussian())
        e0 = evolve_state(data, params, 0.0, BACKEND).energy()
        for t in (0.1, 1.0, 10.0, 100.0):
            e = evolve_state(data, params, t, BACKEND).energy()
            assert abs(e - e0) / e0 < 1e-12


class TestNormsAndEnergy:
    def test_gaussian_l2(self):
        assert l2_norm(Gaussian()) == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-12)

    def test_zero_field_all_norms_vanish(self):
        assert l2_norm(ZERO) == 0.0
        assert hs_seminorm(ZERO, 0.5) == 0.0
        assert hs_norm(ZERO, 0.5) == 0.0
        grid = BACKEND.grid
        from fracwave import SpectralField
        field = SpectralField(np.zeros(grid.points, dtype=complex), grid)
        assert l2_norm(field) == 0.0
        assert hs_seminorm(field, 0.7) == 0.0

    def test_plancherel_factor(self):
        snap = evolve_state((ZERO, Gaussian()), Parameters(0.5), 2.0, BACKEND)
        assert snap.spectral_l2() == pytest.approx(
            np.sqrt(2 * np.pi) * snap.physical_l2(), rel=1e-14)

    def test_energy_velocity_only(self):
        # E = 0.5 ||u1||_2^2 = 0.5 sqrt(pi/2), independent of s and t
        expected = 0.5 * np.sqrt(np.pi / 2.0)
        for s in (0.3, 0.8):
            snap = evolve_state((ZERO, Gaussian()), Parameters(s), 4.0, BACKEND)
            assert snap.energy() == pytest.approx(expected, rel=1e-10)

    def test_energy_position_only_quadrature_oracle(self):
        # E = (1/(4 pi)) int |xi| |u0hat|^2 dxi at s = 1/2, oracle by quadrature
        oracle, _ = quad(lambda xi: xi * np.pi * np.exp(-xi * xi / 2.0), 0, 20)
        expected = 2.0 * oracle / (4.0 * np.pi)
        assert expected == pytest.approx(0.5, rel=1e-12)
        snap = evolve_state((Gaussian(), ZERO), Parameters(0.5), 7.0,
                            QuadratureBackend())
        assert snap.energy() == pytest.approx(expected, rel=1e-10)
        # the grid value carries the |xi| kink + fat-tail truncation error
        grid_snap = evolve_state((Gaussian(), ZERO), Parameters(0.5), 7.0, BACKEND)
        assert grid_snap.energy() == pytest.approx(expected, rel=1e-3)

    def test_negative_order_rejected(self):
        snap = evolve_state((Gaussian(), ZERO), Parameters(0.5), 1.0, BACKEND)
        with pytest.raises(ValueError):
            hs_seminorm(snap, -0.2)

    def test_hs_norm_combines_l2_and_seminorm(self):
        g = Gaussian()
        s = 0.5
        a = l2_norm(g)
        b = hs_seminorm(g, s)
        expected = np.sqrt(a * a + 2.0 / gagliardo_constant(s) * b * b)
        assert hs_norm(g, s) == pytest.approx(expected, rel=1e-12)

    def test_quadrature_snapshot_norms_match_grid(self):
        # the |xi|^(2s) weights are kinked at 0 and fractional derivatives of
        # gaussians have algebraic tails, so grid values of ut/seminorm/energy
        # carry small discretization error; the plain norm is clean
        params = Parameters(0.75)
        data = (Gaussian(), GaussianDerivative())
        t = 2.0
        gs = evolve_state(data, params, t, BACKEND)
        qs = evolve_state(data, params, t, QuadratureBackend())
        assert qs.spectral_l2() == pytest.approx(gs.spectral_l2(), rel=5e-4)
        assert qs.ut_l2() == pytest.approx(gs.ut_l2(), rel=5e-4)
        assert qs.hs_seminorm(params.s) == pytest.approx(
            gs.hs_seminorm(params.s), rel=5e-4)
        assert qs.energy() == pytest.approx(gs.energy(), rel=5e-4)

    def test_quadrature_norms_match_scipy_oracle(self):
        params = Parameters(0.75)
        t = 2.0
        qs = evolve_state((Gaussian(), GaussianDerivative()), params, t,
                          QuadratureBackend())

        def u_density(xi):
            om = np.abs(xi) ** params.s
            r1 = np.sin(t * om) / om if om > 0 else t
            u1h = 1j * xi * SQPI * np.exp(-xi ** 2 / 4.0)
            u0h = SQPI * np.exp(-xi ** 2 / 4.0)
            return np.abs(r1 * u1h + np.cos(t * om) * u0h) ** 2

        def ut_density(xi):
            om = np.abs(xi) ** params.s
            u1h = 1j * xi * SQPI * np.exp(-xi ** 2 / 4.0)
            u0h = SQPI * np.exp(-xi ** 2 / 4.0)
            return np.abs(np.cos(t * om) * u1h - om * np.sin(t * om) * u0h) ** 2

        for density, value in ((u_density, qs.spectral_l2() ** 2),
                               (ut_density, 2 * np.pi * qs.ut_l2() ** 2)):
            ref = (quad(density, 0, 16, limit=2000)[0]
                   + quad(lambda x: density(-x), 0, 16, limit=2000)[0])
            assert value == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 1.0])
    def test_static_weighted_mass_at_time_zero(self, s):
        # int |u0hat|^2 |xi|^(2s) dxi = 2 pi 2^(s - 1/2) Gamma(s + 1/2) for e^(-x^2)
        exact = 2.0 * np.pi * 2.0 ** (s - 0.5) * gamma_fn(s + 0.5)
        snap = evolve_state((Gaussian(), ZERO), Parameters(s), 0.0,
                            QuadratureBackend())
        assert snap.spectral_mass(0.0, weight_exp=2.0 * s) == pytest.approx(
            exact, rel=1e-12)
        assert 2.0 * np.pi * hs_seminorm(Gaussian(), s) ** 2 == pytest.approx(
            exact, rel=1e-12)

    def test_quadrature_energy_constant_at_large_t(self):
        params = Parameters(0.6)
        data = (Gaussian(), Gaussian())
        e_small = evolve_state(data, params, 2.0, QuadratureBackend()).energy()
        e_large = evolve_state(data, params, 1e4, QuadratureBackend()).energy()
        assert e_large == pytest.approx(e_small, rel=1e-8)

    def test_field_values_from_xi_or_from_supplied_phase(self):
        s, t = 0.6, 40.0
        u0, u1 = Gaussian(0.5, 1.0, 0.3), Gaussian()
        snap = evolve_state((u0, u1), Parameters(s), t, QuadratureBackend())
        xi = np.array([0.0, 0.3, 2.0])
        # from xi alone, xi = 0 is admissible: uhat(0) = t u1hat(0) + u0hat(0)
        assert snap.u_hat_at(xi)[0] == pytest.approx(
            t * u1.fourier(0.0) + u0.fourier(0.0), rel=1e-15)
        # the densities take the propagator at the unit phases; their form
        # at the true (sin w, cos w) is the squared field from xi alone
        xs = xi[1:]
        xi_s = xs ** s
        sin_w, cos_w = np.sin(t * xi_s), np.cos(t * xi_s)
        for field, values in (("u", snap.u_hat_at(xs)), ("ut", snap.ut_hat_at(xs))):
            alpha, beta, gamma = snap._field_density(field, 2 * s)(xs, xi_s)
            np.testing.assert_allclose(
                alpha * sin_w ** 2 + beta * cos_w ** 2 + gamma * sin_w * cos_w,
                np.abs(values) ** 2 * xs ** (2 * s), rtol=1e-14)

    def test_quadrature_snapshot_shares_integrals(self, monkeypatch):
        # the five norm functionals of one sample need three spectral masses:
        # |uhat|^2, |uthat|^2 and |uhat|^2 |xi|^(2s)
        from fracwave import spectral
        calls = []
        original = spectral.oscillatory_integral

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "oscillatory_integral", counted)
        params = Parameters(0.75)
        snap = evolve_state((Gaussian(0.5, 1.0, 0.3), Gaussian()), params, 1e3,
                            QuadratureBackend())
        first = (snap.spectral_l2(), snap.physical_l2(), snap.ut_l2(),
                 snap.hs_seminorm(params.s), snap.energy())
        assert len(calls) == 3
        again = (snap.spectral_l2(), snap.physical_l2(), snap.ut_l2(),
                 snap.hs_seminorm(params.s), snap.energy())
        assert again == first and len(calls) == 3
        assert snap.energy() == 0.5 * (first[2] ** 2 + first[3] ** 2)

    @pytest.mark.parametrize("t", [5.0, 50.0, 200.0])
    def test_quadrature_norm_against_physical_space_oracle(self, t):
        # s = 1 admits the closed-form wave integral; integrating its square
        # in x-space is a route entirely independent of the spectral panels
        snap = evolve_state((ZERO, Gaussian()), Parameters(1.0), t,
                            QuadratureBackend())

        def u_sq(x):
            return (SQPI / 4.0 * (erf(x + t) - erf(x - t))) ** 2

        ref, _ = quad(u_sq, -t - 8.0, t + 8.0, epsabs=1e-13, epsrel=1e-12,
                      limit=800)
        assert snap.physical_l2() == pytest.approx(np.sqrt(ref), rel=1e-9)


def _lincomb(a, p, b, q):
    from fracwave import combine
    return combine((a, p), (b, q))


def test_parameters_validation():
    with pytest.raises(ValueError):
        Parameters(s=0.0)
    with pytest.raises(ValueError):
        Parameters(s=1.2)
    with pytest.raises(ValueError):
        Parameters(s=0.5, n=0)


@pytest.mark.parametrize("t", [0.1, 5.0, 100.0])
@pytest.mark.parametrize("s", [0.3, 0.75, 1.0])
def test_grid_evolve_is_advance_from_time_zero(s, t):
    data = (Gaussian(0.5, 1.0, 0.3), Gaussian())
    direct = BACKEND.evolve(data, Parameters(s), t)
    stepped = BACKEND.evolve(data, Parameters(s), 0.0).advance(t)
    assert direct.t == stepped.t == t
    assert np.array_equal(direct.u_hat.values, stepped.u_hat.values)
    assert np.array_equal(direct.ut_hat.values, stepped.ut_hat.values)
