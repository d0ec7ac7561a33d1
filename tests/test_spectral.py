"""Solver: multipliers, evolution, norms, energy, backends."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.special import gamma as gamma_fn

from fracwave import spectral
from fracwave import (CompactBump, Gaussian, GaussianDerivative, GridBackend,
                      GridSpec, Parameters, QuadratureBackend, SampledProfile,
                      ZERO, combine, evolve_state, hs_norm, hs_seminorm,
                      l2_norm, scaled, sine_multiplier)
from fracwave.grid import _xi_axis
from fracwave.spectral import (GridSnapshot, QuadratureSnapshot, SpectralField,
                               propagate)
from fracwave.errors import (BackendCapError, BackendMismatchError, FracwaveError,
                             NumericalFailureError)
from fracwave.lemmas import gagliardo_constant
from fracwave.profiles import TruncationWarning
from fracwave.quadrature import (frequency_cutoff, oscillatory_integral,
                                 panel_width)

from support import evolve_further, random_profile

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

    @pytest.mark.parametrize("s,t", [(0.3, 1.0), (0.7, 1.0), (1.0, 2.5),
                                     (0.5, 1e6), (0.75, 0.0)])
    def test_is_the_propagator_bit_for_bit(self, s, t):
        # sin(w)/|xi|^s with the series t(1 - w^2/6) below phase 1e-8, written
        # out here; propagate's u for u0 = 0 and u1hat = c is c times it
        switch = (1e-8 / t) ** (1.0 / s) if t else 1.0
        xi = np.concatenate([[0.0, -0.0, switch, -switch],
                             switch * np.array([0.5, 0.9, 0.999, 1.001, 1.1, 2.0]),
                             np.logspace(-30, 3, 200), -np.logspace(-9, 2, 40)])
        xi_s = np.abs(xi) ** s
        w = t * xi_s
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.sin(w) / xi_s
        small = w < 1e-8
        expected[small] = t * (1.0 - w[small] * w[small] / 6.0)
        assert small.any() and (t == 0.0 or not small.all())
        vals = sine_multiplier(s, t, xi)
        assert np.array_equal(vals, expected)
        c = np.full(xi.shape, 0.75 - 0.5j)
        assert np.array_equal(propagate(s, t, xi, None, c, "u"), vals * c)
        for k, x in enumerate(xi[:10]):
            scalar = sine_multiplier(s, t, np.float64(x))
            assert type(scalar) is float and scalar == expected[k]
            assert type(sine_multiplier(s, t, np.array(x))) is float
            assert sine_multiplier(s, t, float(x)) == expected[k]
        assert np.array_equal(sine_multiplier(s, t, xi[:200].reshape(10, 20)),
                              expected[:200].reshape(10, 20))


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

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        """The grids of every ``GridSpec.half_forward`` call from here on:
        the backend's transform of a datum."""
        calls = []
        original = GridSpec.half_forward

        def counted(grid, values):
            calls.append(grid)
            return original(grid, values)

        monkeypatch.setattr(GridSpec, "half_forward", counted)
        return calls

    def test_zero_datum_is_not_transformed(self, forward_calls):
        snap = evolve_state((ZERO, Gaussian()), Parameters(0.5), 2.0, BACKEND)
        snap.energy()
        assert len(forward_calls) == 1
        zero = SampledProfile(np.zeros(BACKEND.grid.points), BACKEND.grid)
        evolve_state((zero, Gaussian()), Parameters(0.5), 2.0, BACKEND).energy()
        assert len(forward_calls) == 2

    def test_equal_data_are_transformed_once(self, forward_calls, monkeypatch):
        # two equal but distinct data take one transform per norm spectrum
        # (and one for the full fields), with the bits of two transforms
        from fracwave import spectral
        data, params = (Gaussian(0.5, 1.0, 0.3), Gaussian(0.5, 1.0, 0.3)), Parameters(0.6)
        assert data[0] is not data[1] and BACKEND.grid.points == 2 ** 12

        def norms(snap):
            return [snap.spectral_l2(), snap.ut_l2(), snap.hs_seminorm(0.6),
                    snap.energy()]

        def outputs(snap):
            return norms(snap), snap.u_hat.values, snap.ut_hat.values

        equal = evolve_state(data, params, 4.0, BACKEND)
        first = norms(equal)
        assert len(forward_calls) == 1
        fields = equal.u_hat.values, equal.ut_hat.values
        assert len(forward_calls) == 2
        shared = outputs(evolve_state((data[0], data[0]), params, 4.0, BACKEND))
        monkeypatch.setattr(spectral, "_same_datum", lambda p, q: p is q)
        forward_calls.clear()
        apart = outputs(evolve_state(data, params, 4.0, BACKEND))
        assert len(forward_calls) == 4
        for other in (shared, apart):
            assert other[0] == first
            assert all(np.array_equal(a, b) for a, b in zip(other[1:], fields))

    def test_shared_datum_is_transformed_once(self, forward_calls):
        g, h = Gaussian(0.5, 1.0, 0.3), GaussianDerivative()
        separate = evolve_state((g, Gaussian(0.5, 1.0, 0.3)), Parameters(0.6), 4.0, BACKEND)
        forward_calls.clear()
        shared = evolve_state((g, g), Parameters(0.6), 4.0, BACKEND)
        assert len(forward_calls) == 1
        forward_calls.clear()
        evolve_state((g, h), Parameters(0.6), 4.0, BACKEND)
        assert len(forward_calls) == 2
        assert np.array_equal(shared.u_hat.values, separate.u_hat.values)
        assert np.array_equal(shared.ut_hat.values, separate.ut_hat.values)
        assert shared.energy() == separate.energy()

    def test_fields_are_built_on_first_read(self):
        snap = evolve_state((Gaussian(0.5, 1.0, 0.3), Gaussian()), Parameters(0.6),
                            4.0, BACKEND)
        snap.spectral_l2()
        snap.physical_l2()
        # a norm of u builds one field, u on the band -K..0 up to the data's
        # frequency cutoff, and no full-length field: neither ut_hat, u, ut
        # nor u_hat itself
        assert not {"u_hat", "ut_hat", "u", "ut"} & set(snap.__dict__)
        band = int(frequency_cutoff([Gaussian()]) / BACKEND.grid.dxi) + 1
        assert band < BACKEND.grid.points // 2
        assert _built_fields(snap) == [band]
        ut_l2 = snap.ut_l2()
        assert _built_fields(snap) == [band] * 2
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


@pytest.mark.filterwarnings("ignore::fracwave.profiles.TruncationWarning")
@pytest.mark.parametrize("kind", ["windowed", "edge", "sampled"])
@pytest.mark.parametrize("order", ["norms first", "fields first", "energy first",
                                   "u_hat, then energy"])
def test_grid_snapshot_builds_each_bin_entry_once(monkeypatch, kind, order):
    # windowed data propagate a band for the norms and every bin for the
    # fields; data that reach the box edge, or are sampled, share one set
    grid, params, t = BACKEND.grid, Parameters(0.6), 4.0
    rng = np.random.default_rng(21)
    data = {"windowed": (Gaussian(0.5, 1.0, 0.3), Gaussian()),
            "edge": (Gaussian(0.5, 12.0, 0.3), Gaussian(1.0, 12.0)),
            "sampled": tuple(SampledProfile(np.exp(-grid.x() ** 2) * rng.uniform(
                0.5, 1.5, grid.points), grid) for _ in range(2))}[kind]
    norms = [lambda snap: snap.spectral_l2(), lambda snap: snap.ut_l2(),
             lambda snap: snap.hs_seminorm(0.45), lambda snap: snap.energy()]
    fields = [lambda snap: snap.u_hat.values, lambda snap: snap.ut_hat.values,
              lambda snap: snap.u, lambda snap: snap.ut]
    reads = {"norms first": norms + fields, "fields first": fields + norms,
             "energy first": norms[::-1] + fields,
             "u_hat, then energy": fields[:1] + norms[::-1] + fields[1:]}[order]
    reference = evolve_state(data, params, t, BACKEND)
    expected = [read(reference) for read in norms + fields]

    built = []
    original = spectral.propagate

    def counting(s, t, xi, u0_hat, u1_hat, field=None):
        built.extend((f, len(xi)) for f in ([field] if field else ["u", "ut"]))
        return original(s, t, xi, u0_hat, u1_hat, field)

    monkeypatch.setattr(spectral, "propagate", counting)
    snap = evolve_state(data, params, t, BACKEND)
    for read in reads:
        read(snap)
    got = [read(snap) for read in norms + fields]
    assert got[:4] == expected[:4]
    assert all(np.array_equal(a, b) for a, b in zip(got[4:], expected[4:]))
    half = grid.points // 2 + 1
    entries = {(f, half) for f in ("u", "ut")}
    assert snap._shared == (kind != "windowed")
    if not snap._shared:
        band = snap._band + 1
        assert band < half
        entries |= {("u", band), ("ut", band)}
    assert sorted(built) == sorted(entries)
    assert sorted(snap._bins) == sorted({(f, full) for f in ("u", "ut")
                                         for full in {True, snap._shared}})


def _built_fields(snap):
    """Lengths of the bins and fields a grid snapshot has built so far."""
    built = [*snap._bins.values(), *(v for v in vars(snap).values()
                                     if isinstance(v, (np.ndarray, SpectralField)))]
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


class TestSupportWindowAndBand:
    """Analytic data are sampled inside their support and norms sum the bins
    up to the data's frequency cutoff; against every bin of the full
    sampling, norms move by rounding only, and not at all for data that
    reach the box edge or are sampled."""

    GRID = GridSpec(40.0, 4096)
    NORMS = ("spectral_l2", "ut_l2", "hs_seminorm", "energy")

    def _reference(self, data, s, t):
        """The norms from ``propagate`` on every bin -N/2..0 of
        ``forward(evaluate(x))``, with the backend's Hermitian sum."""
        grid, half = self.GRID, self.GRID.points // 2 + 1
        spectra = [None if p.is_zero else grid.forward(
            p.values if isinstance(p, SampledProfile) else p.evaluate(grid.x()))[:half]
            for p in data]
        xi = grid.xi()[:half]
        u, ut = propagate(s, t, xi, *spectra)

        def norm(values, weight_exp, over=1.0):
            density = np.abs(values) ** 2
            if weight_exp != 0.0:
                density = np.abs(xi) ** weight_exp * density
            mass = grid.dxi * (2.0 * np.sum(density) - density[0] - density[-1])
            return float(np.sqrt(mass / over))

        ut_l2 = norm(ut, 0.0, 2 * np.pi)
        return {"spectral_l2": norm(u, 0.0), "ut_l2": ut_l2,
                "hs_seminorm": norm(u, 0.9, 2 * np.pi),
                "energy": 0.5 * (ut_l2 ** 2 + norm(u, 2 * s, 2 * np.pi) ** 2)}

    def _norms(self, data, s, t):
        backend = GridBackend(self.GRID)
        snap = evolve_state(data, Parameters(s), t, backend)
        return {"spectral_l2": snap.spectral_l2(), "ut_l2": snap.ut_l2(),
                "hs_seminorm": snap.hs_seminorm(0.45),
                "energy": evolve_state(data, Parameters(s), t, backend).energy()}

    @pytest.mark.parametrize("profile", [
        Gaussian(), GaussianDerivative(1.0, 0.8, 3.5), CompactBump(1.0, 2.0),
        combine((1.0, Gaussian(1.0, 0.7, -1.0)), (0.5, CompactBump(1.0, 1.5)))],
        ids=["gaussian", "derivative-off-centre", "bump", "sum"])
    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("s", [0.3, 0.75, 1.0])
    def test_norms_match_every_bin(self, profile, s, t):
        data = (profile, scaled(profile, -0.6))
        expected = self._reference(data, s, t)
        for name, value in self._norms(data, s, t).items():
            assert value == pytest.approx(expected[name], rel=1e-15, abs=0.0), name

    def test_narrow_data_keep_the_grids_highest_frequency(self):
        # the cutoff of a width-0.01 Gaussian is past the highest frequency
        data = (ZERO, Gaussian(1.0, 0.01))
        expected = self._reference(data, 0.75, 10.0)
        for name, value in self._norms(data, 0.75, 10.0).items():
            assert value == pytest.approx(expected[name], rel=1e-15, abs=0.0), name

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("s", [0.3, 0.75, 1.0])
    def test_wide_and_sampled_data_keep_every_bin(self, s, t):
        # sigma = 12 reaches the box edge: the edge cuts the data off, so
        # their spectrum past the cutoff is real and every bin is summed
        wide = (ZERO, Gaussian(1.0, 12.0))
        with pytest.warns(TruncationWarning):
            assert self._norms(wide, s, t) == self._reference(wide, s, t)
        sampled = (SampledProfile(Gaussian(1.0, 1.5, 0.2).evaluate(self.GRID.x()),
                                  self.GRID),
                   SampledProfile(GaussianDerivative().evaluate(self.GRID.x()),
                                  self.GRID))
        assert self._norms(sampled, s, t) == self._reference(sampled, s, t)

    def test_data_are_evaluated_inside_their_support_only(self, monkeypatch):
        seen = []
        original = Gaussian.evaluate
        monkeypatch.setattr(Gaussian, "evaluate",
                            lambda p, x: seen.append(np.array(x)) or original(p, x))
        grid, g = self.GRID, Gaussian(1.0, 1.0, 2.0)
        snap = evolve_state((ZERO, g), Parameters(0.75), 1.0, GridBackend(grid))
        lo, hi = g.support()
        (x,) = seen
        # the points of GridSpec.x() in [lo, hi], bit for bit
        assert np.array_equal(x, grid.x()[(grid.x() >= lo) & (grid.x() <= hi)])
        snap.spectral_l2()
        assert len(seen) == 1
        # the fields are built from the data sampled at every point
        assert np.array_equal(snap.u_hat.values, propagate(
            0.75, 1.0, grid.xi(), None, grid.forward(original(g, grid.x())), "u"))

    # the oracles' boxes that grow with t (L, N, t)
    BOXES = ((4096.0, 2 ** 16, 10.0), (32768.0, 2 ** 19, 50.0),
             (65536.0, 2 ** 20, 100.0))

    @staticmethod
    def _box_norms(half_width, points, t):
        snap = evolve_state((Gaussian(), Gaussian(1.0, 1.5)), Parameters(0.75), t,
                            GridBackend(GridSpec(half_width, points)))
        return [snap.spectral_l2(), snap.ut_l2(), snap.hs_seminorm(0.75),
                snap.energy()]

    def test_band_axis_gives_the_full_axis_norms(self, monkeypatch):
        # the band's frequencies, made afresh, give bit for bit the norms of
        # the slice of GridSpec.xi() that they replace
        fresh = [self._box_norms(*box) for box in self.BOXES]

        def sliced(snap, k):
            half = snap.grid.points // 2
            return snap.grid.xi()[half - k:half + 1]

        monkeypatch.setattr(GridSnapshot, "_axis", sliced)
        try:
            assert [self._box_norms(*box) for box in self.BOXES] == fresh
        finally:
            _xi_axis.cache_clear()

    def test_band_norms_leave_the_full_axis_uncached(self):
        before = _xi_axis.cache_info()
        norms = self._box_norms(*self.BOXES[-1])
        after = _xi_axis.cache_info()
        assert all(np.isfinite(norms))
        assert after.currsize == before.currsize
        assert after.hits + after.misses == before.hits + before.misses


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
        # the state at t = 5.5, taken as data and evolved by 3.5, is the
        # state at t = 9
        params = Parameters(0.6)
        data = (Gaussian(), GaussianDerivative())
        one_shot = evolve_state(data, params, 9.0, BACKEND)
        two_step = evolve_further(evolve_state(data, params, 5.5, BACKEND), 3.5)
        scale = np.max(np.abs(one_shot.u_hat.values))
        assert np.max(np.abs(two_step.u_hat.values - one_shot.u_hat.values)) < 1e-12 * scale
        assert np.max(np.abs(two_step.ut_hat.values - one_shot.ut_hat.values)) < 1e-12 * scale

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

    @pytest.mark.parametrize("t", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9, 1.0])
    def test_quadrature_energy_closed_form(self, s, t):
        # u0 = u1 = e^(-x^2): E = (||u1||^2 + ||(-Lap)^(s/2) u0||^2)/2
        # = (sqrt(pi/2) + 2^(s - 1/2) Gamma(s + 1/2))/2 at every t
        exact = 0.5 * (np.sqrt(np.pi / 2.0) + 2.0 ** (s - 0.5) * gamma_fn(s + 0.5))
        snap = evolve_state((Gaussian(), Gaussian()), Parameters(s), t,
                            QuadratureBackend())
        energy = snap.energy()
        assert energy == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert snap.ut_l2() ** 2 + snap.hs_seminorm(s) ** 2 == pytest.approx(
            2.0 * energy, rel=1e-13, abs=0.0)

    def test_field_values_from_xi_or_from_supplied_phase(self):
        s, t = 0.6, 40.0
        u0, u1 = Gaussian(0.5, 1.0, 0.3), Gaussian()
        snap = evolve_state((u0, u1), Parameters(s), t, QuadratureBackend())
        xi = np.array([0.0, 0.3, 2.0])
        # from xi alone, xi = 0 is admissible: uhat(0) = t u1hat(0) + u0hat(0)
        assert snap.u_hat_at(xi)[0] == pytest.approx(
            t * u1.fourier(0.0) + u0.fourier(0.0), rel=1e-15)
        # the weighted densities' form at the true (sin w, cos w) is the
        # squared field from xi alone
        xs = xi[1:]
        xi_s = xs ** s
        sin_w, cos_w = np.sin(t * xi_s), np.cos(t * xi_s)
        for field, values in (("u", snap.u_hat_at(xs)), ("ut", snap.ut_hat_at(xs))):
            alpha, beta, gamma = snap._field_density(field, 2 * s)(xs, xi_s)
            np.testing.assert_allclose(
                alpha * sin_w ** 2 + beta * cos_w ** 2 + gamma * sin_w * cos_w,
                np.abs(values) ** 2 * xs ** (2 * s), rtol=1e-14)

    @pytest.mark.parametrize("field", ["u", "ut"])
    @pytest.mark.parametrize("zero", [None, "u0", "u1"])
    def test_closed_form_density_is_the_squared_propagator(self, zero, field):
        # alpha sin^2 w + beta cos^2 w + gamma sin w cos w = |propagate|^2 at
        # random xi > 0, t, and data with random phases, each datum zero or
        # not, to 1e-14 of alpha + beta = |a|^2 + |b|^2: where the two terms
        # of the field cancel, rounding leaves no relative accuracy in
        # |fieldhat|^2 itself
        rng = np.random.default_rng(20261018)
        for _ in range(20):
            s, t = rng.uniform(0.2, 1.0), 10.0 ** rng.uniform(-2.0, 6.0)
            u0 = ZERO if zero == "u0" else random_profile(rng)
            u1 = ZERO if zero == "u1" else random_profile(rng)
            xi = 10.0 ** rng.uniform(-3.0, 1.0, size=200)
            xi_s = xi ** s
            alpha, beta, gamma = QuadratureSnapshot(t, Parameters(s), u0, u1)._field_density(
                field, 0.0)(xi, xi_s)
            sin_w, cos_w = np.sin(t * xi_s), np.cos(t * xi_s)
            field_hat = propagate(s, t, xi, None if u0.is_zero else u0.fourier(xi),
                                  None if u1.is_zero else u1.fourier(xi), field)
            form = alpha * sin_w ** 2 + beta * cos_w ** 2 + gamma * sin_w * cos_w
            assert np.all(np.abs(form - np.abs(field_hat) ** 2) <= 1e-14 * (alpha + beta))

    def test_quadrature_snapshot_shares_integrals(self, monkeypatch):
        # the five norm functionals of one sample need three spectral masses,
        # |uhat|^2, |uthat|^2 and |uhat|^2 |xi|^(2s), all on one interval:
        # one rule (one set of Filon moments) and one transform per datum
        from fracwave import quadrature, spectral
        counts = {"integrals": 0, "moments": 0, "transforms": 0}

        def counting(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        params = Parameters(0.75)
        data = (Gaussian(0.5, 1.0, 0.3), Gaussian())

        readers = (lambda q: q.spectral_l2(), lambda q: q.physical_l2(),
                   lambda q: q.ut_l2(), lambda q: q.hs_seminorm(params.s),
                   lambda q: q.energy())

        def functionals(snap):
            return tuple(read(snap) for read in readers)

        def fresh():
            return evolve_state(data, params, 1e3, QuadratureBackend())

        # each functional on a snapshot of its own, so on a rule of its own
        separate = [read(fresh()) for read in readers]
        monkeypatch.setattr(spectral, "oscillatory_integral",
                            counting("integrals", spectral.oscillatory_integral))
        monkeypatch.setattr(quadrature, "_whole_filon",
                            counting("moments", quadrature._whole_filon))
        monkeypatch.setattr(Gaussian, "fourier", counting("transforms", Gaussian.fourier))
        snap = fresh()
        first = functionals(snap)
        assert counts == {"integrals": 3, "moments": 1, "transforms": 2}
        assert list(first) == separate
        assert functionals(snap) == first
        assert counts == {"integrals": 3, "moments": 1, "transforms": 2}
        assert snap.energy() == 0.5 * (first[2] ** 2 + first[3] ** 2)

    def test_sample_forms_the_data_once_per_rule(self, monkeypatch):
        # the five functionals of a sample read one form (P, Q, R) on its
        # one rule, and two equal but distinct data take one transform
        from fracwave import spectral
        counts = {"forms": 0, "transforms": 0}

        def counting(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(spectral, "_squared_form",
                            counting("forms", spectral._squared_form))
        monkeypatch.setattr(Gaussian, "fourier", counting("transforms", Gaussian.fourier))
        for t in (1e2, 1e3, 1e4):
            snap = evolve_state((Gaussian(), Gaussian()), Parameters(0.75), t,
                                QuadratureBackend())
            first = (snap.spectral_l2(), snap.physical_l2(), snap.ut_l2(),
                     snap.hs_seminorm(0.75), snap.energy())
            assert len(snap._rules) == 1
            assert first[-1] == 0.5 * (first[2] ** 2 + first[3] ** 2)
        assert counts == {"forms": 3, "transforms": 3}

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("data", [(ZERO, Gaussian()), (Gaussian(), ZERO),
                                      (Gaussian(), Gaussian()),
                                      (GaussianDerivative(0.7, 1.0, 0.7),
                                       Gaussian(0.5, 1.3, -0.2))],
                             ids=["u1", "u0", "u0=u1", "offcentre"])
    def test_norms_match_the_transforms_squared_per_mass(self, data, s):
        # every functional against the same rule applied to a density that
        # squares the complex transforms for each mass, and weights by
        # |xi|^p: a few rounding units apart.  hs_seminorm at another
        # order than s takes a weight other than xi^s xi^s
        for t in (0.05, 1.0, 1e2, 1e4, 1e6):
            snap = evolve_state(data, Parameters(s), t, QuadratureBackend())
            got = (snap.spectral_l2(), snap.ut_l2(), snap.hs_seminorm(s),
                   snap.energy(), snap.hs_seminorm(0.5 * s))
            ref = transforms_squared_norms(data, s, t, 0.5 * s)
            assert got == pytest.approx(ref, rel=1e-15, abs=0.0), t

    @pytest.mark.parametrize("t", [0.05, 0.3])
    def test_shared_rule_splits_as_separate_rules_do(self, t):
        # at small t the half-periods are wider than the data's panel width
        # and are split per form; the shared rule keeps the rule on the
        # parts, and each mass equals the one from a rule of its own
        params = Parameters(0.75)
        data = (Gaussian(0.5, 1.0, 0.3), Gaussian())

        def fresh():
            return evolve_state(data, params, t, QuadratureBackend())

        shared = fresh()
        for read in (lambda q: q.spectral_l2(), lambda q: q.ut_l2(),
                     lambda q: q.hs_seminorm(params.s)):
            assert read(shared) == read(fresh())

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


def transforms_squared_norms(data, s, t, other_order):
    """(spectral_l2, ut_l2, hs_seminorm(s), energy, hs_seminorm(other_order))
    of the quadrature backend, each mass on a rule of its own, from the
    complex transforms squared for that mass: the field is a sin w + b cos w
    with (a, b) = (u1hat/xi^s, u0hat) for u and (-xi^s u0hat, u1hat) for
    u_t, and the form is (|a|^2, |b|^2, 2 Re(a conj b)) |xi|^p."""
    u0, u1 = data
    live = [p for p in data if not p.is_zero]
    cutoff, width = frequency_cutoff(live), panel_width(live)

    def density(field, weight_exp):
        def f(xi, xi_s):
            u0_hat = None if u0.is_zero else u0.fourier(xi)
            u1_hat = None if u1.is_zero else u1.fourier(xi)
            m, datum, b = ((1.0 / xi_s, u1_hat, u0_hat) if field == "u"
                           else (-xi_s, u0_hat, u1_hat))
            a = None if datum is None else m * datum
            zero = np.zeros(xi.shape)
            coeffs = (zero if a is None else a.real ** 2 + a.imag ** 2,
                      zero if b is None else b.real ** 2 + b.imag ** 2,
                      zero if a is None or b is None
                      else 2.0 * (a.real * b.real + a.imag * b.imag))
            weight = np.abs(xi) ** weight_exp
            return tuple(c * weight for c in coeffs)
        return f

    def mass(field, weight_exp):
        return 2.0 * oscillatory_integral(density(field, weight_exp), t, s,
                                          cutoff, width=width)

    l2 = np.sqrt(mass("u", 0.0))
    ut = np.sqrt(mass("ut", 0.0) / (2.0 * np.pi))
    hs = np.sqrt(mass("u", 2.0 * s) / (2.0 * np.pi))
    return (l2, ut, hs, 0.5 * (ut ** 2 + hs ** 2),
            np.sqrt(mass("u", 2.0 * other_order) / (2.0 * np.pi)))


def _lincomb(a, p, b, q):
    from fracwave import combine
    return combine((a, p), (b, q))


def test_parameters_validation():
    with pytest.raises(ValueError):
        Parameters(s=0.0)
    with pytest.raises(ValueError):
        Parameters(s=1.2)


@pytest.mark.parametrize("t", [0.1, 5.0, 100.0])
@pytest.mark.parametrize("s", [0.3, 0.75, 1.0])
def test_grid_evolve_is_advance_from_time_zero(s, t):
    # the state at t = 0, taken as data and evolved by t, is the state at t
    data = (Gaussian(0.5, 1.0, 0.3), Gaussian())
    direct = BACKEND.evolve(data, Parameters(s), t)
    stepped = evolve_further(BACKEND.evolve(data, Parameters(s), 0.0), t)
    assert direct.t == stepped.t == t
    for lhs, rhs in ((direct.u_hat, stepped.u_hat), (direct.ut_hat, stepped.ut_hat)):
        scale = np.max(np.abs(lhs.values))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * scale


@pytest.mark.parametrize("t", [1e50, 1e100, 1e150, 1e300])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 1.0])
def test_large_time_is_finite_or_refused(s, t):
    # past where the rule's lowest frequency underflows, the quadrature
    # backend refuses t by name instead of returning nan or inf
    snap = evolve_state((Gaussian(0.5, 1.0, 0.3), Gaussian()), Parameters(s), t,
                        QuadratureBackend())
    for norm in (snap.spectral_l2, snap.ut_l2, lambda: snap.hs_seminorm(s)):
        try:
            value = norm()
        except FracwaveError as exc:
            assert f"t = {t:g}" in str(exc) and f"s = {s:g}" in str(exc)
        else:
            assert np.isfinite(value)


U1_HAT_NORM = np.sqrt(2.0 * np.pi * np.sqrt(np.pi / 2.0))   # of e^(-x^2)


@pytest.mark.parametrize("t", [1e-150, 1e-153, 1e-160, 1e-170, 1e-200, 1e-300])
@pytest.mark.parametrize("s", [0.3, 0.75])
def test_tiny_time_u1_only_norm_is_right_or_refused(s, t):
    # u(t) = t*u1 to first order; its square underflows below t ~ 1e-154
    snap = evolve_state((ZERO, Gaussian()), Parameters(s), t, QuadratureBackend())
    try:
        value = snap.spectral_l2()
    except NumericalFailureError as exc:
        assert f"t = {t:g}" in str(exc)
    else:
        assert value / t == pytest.approx(U1_HAT_NORM, rel=1e-14)


@pytest.mark.parametrize("t", [1e-140, 1e-150, 1e-160, 1e-300])
@pytest.mark.parametrize("s", [0.3, 0.75])
def test_tiny_time_u0_only_velocity_is_right_or_refused(s, t):
    # u_t(t) = -t (-Lap)^s u0 to first order: the same sin^2 w form
    u0 = Gaussian()
    snap = evolve_state((u0, ZERO), Parameters(s), t, QuadratureBackend())
    try:
        value = snap.ut_l2()
    except NumericalFailureError as exc:
        assert f"t = {t:g}" in str(exc)
    else:
        assert value / t == pytest.approx(hs_seminorm(u0, 2 * s), rel=1e-14)


@pytest.mark.parametrize("t", [1e-160, 1e-200, 1e-300])
def test_tiny_time_grid_norm_survives_underflow(t):
    # |t u1hat|^2 leaves the normal doubles: the mass is taken on the field
    # scaled by its largest bin
    params = Parameters(0.75)
    u1_hat = evolve_state((Gaussian(), ZERO), params, 0.0, BACKEND).spectral_l2()
    value = evolve_state((ZERO, Gaussian()), params, t, BACKEND).spectral_l2()
    assert value / t == pytest.approx(u1_hat, rel=1e-14)


def test_tiny_amplitude_grid_norms_survive_underflow():
    params, a = Parameters(0.75), 1e-160
    tiny, unit = (evolve_state((ZERO, Gaussian(amp)), params, 1.0, BACKEND)
                  for amp in (a, 1.0))
    for norm in ("spectral_l2", "ut_l2", "physical_l2"):
        assert getattr(tiny, norm)() / a == pytest.approx(getattr(unit, norm)(),
                                                          rel=1e-14), norm
    assert tiny.hs_seminorm(0.75) / a == pytest.approx(unit.hs_seminorm(0.75),
                                                       rel=1e-14)


@pytest.mark.parametrize("t", [0.0, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("both", [False, True], ids=["u1", "u0-u1"])
def test_tiny_amplitude_quadrature_norms_survive_underflow(both, t):
    params, a = Parameters(0.75), 1e-160
    tiny, unit = (evolve_state((Gaussian(amp) if both else ZERO, Gaussian(amp)),
                               params, t, QuadratureBackend())
                  for amp in (a, 1.0))
    for norm, args in (("spectral_l2", ()), ("ut_l2", ()), ("hs_seminorm", (0.75,))):
        assert getattr(tiny, norm)(*args) / a == pytest.approx(
            getattr(unit, norm)(*args), rel=1e-14), norm


def test_grid_solve_sample_takes_each_band_sum_once(monkeypatch):
    from fracwave.spectral import GridSnapshot
    data, params = (Gaussian(center=0.3), Gaussian()), Parameters(0.6)

    # as run_solve reads them: energy() takes ut_l2 and hs_seminorm(s)
    reads = [lambda snap: snap.energy(), lambda snap: snap.spectral_l2(),
             lambda snap: snap.physical_l2(), lambda snap: snap.ut_l2(),
             lambda snap: snap.hs_seminorm(0.6)]
    # each norm from a snapshot of its own shares no band sum
    alone = [read(evolve_state(data, params, 2.0, BACKEND)) for read in reads]
    sums = []
    band_mass = GridSnapshot._band_mass

    def counting(snap, values, weight_exp):
        sums.append(weight_exp)
        return band_mass(snap, values, weight_exp)

    monkeypatch.setattr(GridSnapshot, "_band_mass", counting)
    snap = evolve_state(data, params, 2.0, BACKEND)
    shared = [read(snap) for read in reads]
    assert sorted(sums) == [0.0, 0.0, 1.2]
    assert shared == alone


@pytest.mark.parametrize("t", [1e-160, 1e-300])
@pytest.mark.parametrize("s", [0.3, 0.75])
def test_tiny_time_with_u0_keeps_computing(s, t):
    data = (Gaussian(), Gaussian())
    at = [evolve_state(data, Parameters(s), tt, QuadratureBackend())
          for tt in (0.0, t)]
    assert at[1].spectral_l2() == pytest.approx(at[0].spectral_l2(), rel=1e-15)


@pytest.mark.parametrize("c", [1e12, 1e300])
def test_far_centred_data_match_centred_data(c):
    params, t = Parameters(0.75), 100.0
    far, near = (evolve_state((Gaussian(center=c), Gaussian(center=c)), params, t,
                              QuadratureBackend()),
                 evolve_state((Gaussian(), Gaussian()), params, t,
                              QuadratureBackend()))
    for norm in ("spectral_l2", "ut_l2", "energy"):
        assert getattr(far, norm)() == pytest.approx(getattr(near, norm)(), rel=1e-15)


def test_data_far_apart_are_refused_before_allocating():
    # the cross term oscillates with period 2 pi / 1e12 in xi
    import tracemalloc
    snap = evolve_state((Gaussian(center=1e12), Gaussian()), Parameters(0.75),
                        10.0, QuadratureBackend())
    tracemalloc.start()
    try:
        with pytest.raises(NumericalFailureError, match="MAX_PANELS"):
            snap.spectral_l2()
        assert tracemalloc.get_traced_memory()[1] < 50 * 2 ** 20
    finally:
        tracemalloc.stop()
