"""Profiles: closed-form transforms, moments, weighted norms."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from fracwave import (CompactBump, Gaussian, GaussianDerivative, GridSpec,
                      Parameters, QuadratureSnapshot, SampledProfile, ZERO,
                      combine, fourier_at, l1_norm, moment0, scaled,
                      sine_multiplier, weighted_l1_norm)
from fracwave.errors import BackendMismatchError
from fracwave.experiments import canonical_text, parse_config
from fracwave.profiles import TruncationWarning, l2_norm
from fracwave.quadrature import (_OscillatoryRule, frequency_cutoff,
                                 gauss_rule, panel_width, static_integral)
from support import body_nodes, reference_density, xi_panel_reference

SQPI = np.sqrt(np.pi)


def test_gaussian_transform_closed_form():
    g = Gaussian()
    xi = np.linspace(-8, 8, 41)
    assert np.allclose(g.fourier(xi), SQPI * np.exp(-xi ** 2 / 4.0), rtol=1e-14)
    assert fourier_at(g, 0.0) == pytest.approx(SQPI, rel=1e-15)


def test_gaussian_transform_against_quadrature():
    g = Gaussian(amplitude=0.8, width=1.3, center=0.6)
    for xi in (0.0, 0.7, 3.0):
        re, _ = quad(lambda x: g.evaluate(x) * np.cos(x * xi), -12, 12, limit=200)
        im, _ = quad(lambda x: -g.evaluate(x) * np.sin(x * xi), -12, 12, limit=200)
        assert fourier_at(g, xi) == pytest.approx(re + 1j * im, abs=1e-12)


def test_derivative_transform_sign_convention():
    # transform of f' is (i xi) fhat under fhat(xi) = int e^{-i x xi} f dx,
    # checked against direct quadrature of the derivative profile
    dg = GaussianDerivative()
    for xi in (0.4, 1.7):
        re, _ = quad(lambda x: dg.evaluate(x) * np.cos(x * xi), -12, 12, limit=200)
        im, _ = quad(lambda x: -dg.evaluate(x) * np.sin(x * xi), -12, 12, limit=200)
        expected = 1j * xi * SQPI * np.exp(-xi ** 2 / 4.0)
        assert re + 1j * im == pytest.approx(expected, abs=1e-12)
        assert fourier_at(dg, xi) == pytest.approx(expected, rel=1e-14)


def test_moment0():
    assert moment0(Gaussian()) == pytest.approx(SQPI, rel=1e-14)
    assert moment0(GaussianDerivative()) == 0.0
    both = combine((2.5, Gaussian()), (3.0, GaussianDerivative()))
    assert moment0(both) == pytest.approx(2.5 * SQPI, rel=1e-14)
    assert moment0(ZERO) == 0.0


@pytest.mark.parametrize("gamma,expected", [
    (0.0, 2.0 * SQPI),            # weight is identically 2
    (1.0, SQPI + 1.0),            # int |x| e^{-x^2} dx = 1
    (0.5, SQPI + gamma_fn(0.75)), # int |x|^g e^{-x^2} dx = Gamma((g+1)/2)
])
def test_weighted_l1_gaussian_closed_forms(gamma, expected):
    assert weighted_l1_norm(Gaussian(), gamma) == pytest.approx(expected, rel=1e-10)


def test_weighted_l1_domain_and_zero():
    with pytest.raises(ValueError):
        weighted_l1_norm(Gaussian(), 1.5)
    with pytest.raises(ValueError):
        weighted_l1_norm(Gaussian(), -0.1)
    assert weighted_l1_norm(ZERO, 0.7) == 0.0


def test_weighted_l1_monotone_in_gamma_and_above_l1():
    g = Gaussian()
    values = [weighted_l1_norm(g, gamma) for gamma in (0.25, 0.5, 0.75, 1.0)]
    assert all(v >= l1_norm(g) for v in values)
    # gaussian mass concentrates below |x| = 1, so the weight term shrinks
    assert values == sorted(values, reverse=True)
    bump = CompactBump(radius=3.0)  # mass mostly beyond |x| = 1
    assert weighted_l1_norm(bump, 1.0) >= weighted_l1_norm(bump, 0.5)


def test_l2_norm_gaussian():
    assert l2_norm(Gaussian()) == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-12)
    assert l2_norm(GaussianDerivative()) == pytest.approx(
        (np.pi / 2.0) ** 0.25, rel=1e-10)


def test_l1_norm_derivative_closed_form():
    assert l1_norm(GaussianDerivative()) == pytest.approx(2.0, rel=1e-10)
    assert l1_norm(GaussianDerivative(amplitude=3.0, width=2.0)) == pytest.approx(
        6.0, rel=1e-10)


def test_transform_bounded_by_l1():
    xi = np.logspace(-3, 2, 1000)
    for p in (Gaussian(), GaussianDerivative(), CompactBump(),
              Gaussian(amplitude=-2.0, width=0.5, center=1.0)):
        bound = l1_norm(p) * (1.0 + 1e-10)
        assert np.all(np.abs(p.fourier(xi)) <= bound)


def test_transform_at_zero_equals_moment():
    for p in (Gaussian(width=1.7), CompactBump(), GaussianDerivative(),
              combine((1.0, Gaussian()), (-0.5, CompactBump()))):
        assert abs(fourier_at(p, 0.0)) == pytest.approx(abs(moment0(p)),
                                                        abs=1e-12)


def test_bump_fourier_cache_and_quadrature():
    bump = CompactBump()
    xi = np.array([0.0, 1.0, 4.0])
    first = bump.fourier(xi)
    second = bump.fourier(xi)
    assert np.array_equal(first, second)
    for i, x0 in enumerate(xi):
        ref, _ = quad(lambda x: bump.evaluate(x) * np.cos(x * x0), -1, 1,
                      limit=200)
        assert first[i].real == pytest.approx(ref, abs=1e-13)
        assert abs(first[i].imag) < 1e-15


def test_bump_fourier_in_chunks_and_bounded_cache():
    bump = CompactBump()
    # 3000 frequencies up to 1500 exceed one block of (node, frequency) pairs
    xi = np.linspace(0.0, 1500.0, 3000)
    fhat = bump.fourier(xi)
    for i in (0, 1, 700, 2999):
        ref = 2.0 * quad(bump.evaluate, 0.0, 1.0, weight="cos", wvar=xi[i],
                         epsabs=1e-16, epsrel=1e-12, limit=200)[0]
        assert fhat[i].real == pytest.approx(ref, abs=1e-13 * fhat[0].real)
    for k in range(10):
        bump.fourier(np.array([float(k)]))
    assert len(bump._fourier_cache) <= 4
    # the quadrature transform floors near 1e-15 relative: the probe stops
    assert bump.frequency_radius() < 2e3


# QUADPACK notes roundoff where the transform is near 1e-15 of fhat(0)
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_bump_fourier_takes_one_x_panel_per_period(monkeypatch):
    bump = CompactBump()
    xi = np.linspace(0.0, 400.0, 201)
    nodes = []
    original = CompactBump.evaluate
    monkeypatch.setattr(CompactBump, "evaluate",
                        lambda p, x: nodes.append(np.size(x)) or original(p, x))
    fhat = bump.fourier(xi)
    monkeypatch.undo()
    ref = np.array([2.0 * quad(bump.evaluate, 0.0, 1.0, weight="cos", wvar=k,
                               epsabs=1e-16, epsrel=1e-12, limit=200)[0] for k in xi])
    assert np.max(np.abs(fhat.real - ref)) <= 1e-13 * fhat[0].real
    # 16 Gauss nodes on each of 400/(2 pi) + 12 panels: about half of one
    # panel per half-period
    assert nodes == [16 * (int(np.ceil(400.0 / (2.0 * np.pi))) + 12)]
    assert nodes[0] <= 0.55 * 16 * (int(np.ceil(400.0 / np.pi)) + 12)
    assert [CompactBump(radius=r).frequency_radius() for r in (1.0, 1.5, 3.0)] == [
        1536.0, 1024.0, 512.0]


def converged_bump_transform(bump, xi):
    """2 int_0^r cos(x xi) f(x) dx on 3*ceil(r xi/pi) + 40 equal Gauss-16
    x-panels: six per period of the cosine and forty across the flat ends."""
    n = 3 * int(np.ceil(bump.radius * xi / np.pi)) + 40
    edges = np.linspace(0.0, bump.radius, n + 1)
    nodes, weights = gauss_rule(16)
    half = 0.5 * np.diff(edges)
    x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * nodes
    return 2.0 * np.sum(np.cos(x * xi) * bump.evaluate(x) * weights * half[:, None])


@pytest.mark.parametrize("bump", [CompactBump(), CompactBump(2.0, 1.5)])
def test_bump_fourier_resolves_the_flat_ends(bump):
    # exp(-1/(1 - x^2)) is flat to all orders at the ends, which Gauss-16
    # resolves on 12 x-panels at least to a few rounding units of fhat
    # (on 8, to 1e-13)
    for xi in (0.0, 0.5, 3.0):
        got = bump.fourier(np.array([xi]))[0]
        assert got.imag == 0.0
        assert got.real == pytest.approx(converged_bump_transform(bump, xi),
                                         rel=1e-14, abs=0.0)


def test_bump_frequency_radius_is_scanned_once_per_instance(monkeypatch):
    scans = []
    original = CompactBump._fourier_uncached
    monkeypatch.setattr(CompactBump, "_fourier_uncached",
                        lambda p, xi: scans.append(p) or original(p, xi))
    bump = CompactBump(2.0, 1.5)
    radius = bump.frequency_radius()
    scanned = len(scans)
    assert scanned > 1
    assert bump.frequency_radius() == radius and len(scans) == scanned
    # the kept radius is not part of the value
    twin = CompactBump(2.0, 1.5)
    assert twin == bump and hash(twin) == hash(bump)
    assert dataclasses.replace(bump, radius=3.0).frequency_radius() != radius
    assert len(scans) > scanned


def test_bump_data_on_the_quadrature_backend():
    # the transform keeps the input's shape, scalars included, so the
    # snapshot's norm is a plain number
    bump = CompactBump()
    assert np.shape(bump.fourier(0.5)) == ()
    assert bump.fourier(np.array([[0.5, 1.0]])).shape == (1, 2)
    s, t = 0.75, 1.0
    got = QuadratureSnapshot(t, Parameters(s), ZERO, bump).spectral_mass(0.0)

    def density(xi):
        return np.abs(sine_multiplier(s, t, xi) * bump.fourier(xi)) ** 2

    # xi-panels at t = 1 resolve the few oscillations; |fhat(400)| ~ 3e-11
    ref = 2.0 * static_integral(density, 400.0, width=0.5)
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("t", [0.01, 0.1])
def test_bump_mass_at_small_t(t):
    # at small t the head's half-periods span hundreds of bump oscillations
    # in xi, and must be split to the bump's panel width
    s, bump = 0.75, CompactBump()
    got = QuadratureSnapshot(t, Parameters(s), ZERO, bump).spectral_mass(0.0)

    def density(xi):
        return np.abs(sine_multiplier(s, t, xi) * bump.fourier(xi)) ** 2

    ref = 2.0 * static_integral(density, 400.0, width=0.25)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [1.0, 10.0])
def test_bump_mass_matches_xi_panels(t):
    # the snapshot integrates to its cutoff, 1536; past |xi| = 400, where
    # the reference stops, |fhat|^2 is below 1e-21 of its peak.  At t = 1
    # half-periods near the mass are wider than the bump's panel width,
    # 2*pi, and must be split; at t = 10 the panels are laid out narrower
    # by the edges' moves to w = k*pi, and none is
    s, bump = 0.75, CompactBump()
    got = QuadratureSnapshot(t, Parameters(s), ZERO, bump).spectral_mass(0.0)
    ref = 2.0 * xi_panel_reference(reference_density(s, t, ZERO, bump, "u", 0.0),
                                   t, s, 400.0, width=0.5)
    assert got == pytest.approx(ref, rel=1e-12)
    rule = _OscillatoryRule.build(t, s, 0.0, frequency_cutoff([bump]),
                                  panel_width([bump]))
    assert rule.splits == (t == 1.0)


def test_bump_mass_nodes_do_not_grow_with_t():
    bump = CompactBump()
    assert body_nodes(ZERO, bump, 0.75, 1e4) <= body_nodes(ZERO, bump, 0.75, 10.0)


def test_scaled_keeps_shape():
    g = scaled(Gaussian(width=2.0), -3.0)
    assert isinstance(g, Gaussian)
    assert g.amplitude == -3.0
    x = np.linspace(-2, 2, 11)
    assert np.allclose(g.evaluate(x), -3.0 * Gaussian(width=2.0).evaluate(x))


def test_scaled_copies_every_field_and_not_the_bump_cache():
    assert (scaled(GaussianDerivative(1.0, 2.0, 0.5), -3.0)
            == GaussianDerivative(-3.0, 2.0, 0.5))
    bump = CompactBump(2.0, 1.5)
    xi = np.array([0.0, 1.0, 4.0])
    base = bump.fourier(xi)
    half = scaled(bump, 0.5)
    assert half == CompactBump(1.0, 1.5)
    assert half._fourier_cache is not bump._fourier_cache
    np.testing.assert_allclose(half.fourier(xi), 0.5 * base, rtol=1e-14)


@pytest.mark.parametrize("cls", [Gaussian, GaussianDerivative])
def test_gaussian_profiles_keep_their_identity_on_one_base(cls):
    # the two Gaussian profiles share their fields, width check and zero
    # test; each keeps its own repr, equality, hash, copies and config kind
    p = cls(2.0, 0.5, -1.0)
    other = GaussianDerivative if cls is Gaussian else Gaussian
    assert repr(p) == f"{cls.__name__}(amplitude=2.0, width=0.5, center=-1.0)"
    assert cls(1, 1, 0) != other(1, 1, 0) and p != other(2.0, 0.5, -1.0)
    assert hash(p) == hash(cls(2.0, 0.5, -1.0)) == hash((2.0, 0.5, -1.0))
    for copy in (dataclasses.replace(p, center=3.0), scaled(p, -2.0)):
        assert type(copy) is cls
    assert scaled(p, -2.0) == cls(-4.0, 0.5, -1.0)
    assert cls(amplitude=0.0).is_zero and not p.is_zero
    for width in (0.0, -1.0):
        with pytest.raises(ValueError, match="width must be positive"):
            cls(width=width)
        with pytest.raises(ValueError, match="width must be positive"):
            dataclasses.replace(p, width=width)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.amplitude = 3.0
    cfg = dataclasses.replace(
        parse_config("experiment = x\ns = 0.75\nu0 = none\n"
                     "u1 = gaussian a=1 sigma=1 c=0\nt_grid = list 1\n"),
        u0=p, u1=scaled(p, -0.25))
    text = canonical_text(cfg)
    assert f"u0 = {'gaussian' if cls is Gaussian else 'gaussian_derivative'} " \
        "a=2 sigma=0.5 c=-1\n" in text
    again = parse_config(text)
    assert again == cfg and type(again.u0) is type(again.u1) is cls


def test_sampled_profile():
    grid = GridSpec(half_width=20.0, points=512)
    samples = Gaussian().evaluate(grid.x())
    p = SampledProfile(samples, grid)
    assert not p.has_analytic_fourier
    with pytest.raises(BackendMismatchError):
        p.fourier(np.array([0.5]))
    assert moment0(p) == pytest.approx(SQPI, rel=1e-12)
    spec = p.spectrum()
    assert np.max(np.abs(spec - Gaussian().fourier(grid.xi()))) < 1e-12


def test_sampled_profiles_compare_and_hash_by_value():
    grid = GridSpec(half_width=20.0, points=512)
    values = Gaussian().evaluate(grid.x())
    p = SampledProfile(values, grid)
    # two copies of one array are one datum
    q = SampledProfile(values.copy(), grid)
    assert p == q and not p != q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1
    # -0.0 == 0.0, so a sign flip of a zero sample keeps the hash
    zeros = np.zeros(grid.points)
    assert SampledProfile(zeros, grid) == SampledProfile(-zeros, grid)
    assert hash(SampledProfile(zeros, grid)) == hash(SampledProfile(-zeros, grid))
    # other samples, another grid or another profile type differ
    other = values.copy()
    other[100] += 1e-12
    assert p != SampledProfile(other, grid) and not p == SampledProfile(other, grid)
    assert p != SampledProfile(Gaussian().evaluate(GridSpec(10.0, 512).x()),
                               GridSpec(10.0, 512))
    assert p != Gaussian() and Gaussian() != p


def test_sampled_profile_boundary_warning():
    grid = GridSpec(half_width=4.0, points=256)
    p = SampledProfile(Gaussian(width=3.0).evaluate(grid.x()), grid)
    with pytest.warns(TruncationWarning):
        moment0(p)


def test_bump_cache_concurrent_reads():
    from concurrent.futures import ThreadPoolExecutor
    bump = CompactBump()
    xi = np.logspace(-2, 1, 64)
    expected = bump.fourier(xi)  # single-threaded warm-up
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: bump.fourier(xi), range(32)))
    for r in results:
        assert np.array_equal(r, expected)


def test_support_is_an_interval_around_the_centre():
    r = np.sqrt(np.log(1e18))
    assert Gaussian(width=2.0, center=5.0).support() == (5.0 - 2 * r, 5.0 + 2 * r)
    assert GaussianDerivative(center=-1.0).support() == (-1.0 - (r + 2), -1.0 + r + 2)
    assert CompactBump(radius=3.0).support() == (-3.0, 3.0)
    assert combine((1.0, Gaussian(center=-4.0)), (2.0, CompactBump(radius=9.0))
                   ).support() == (-4.0 - r, 9.0)


@pytest.mark.parametrize("c", [-50.0, 1e3, 1e6])
def test_off_centre_norms_match_centred_norms(c):
    far, near = Gaussian(center=c), Gaussian()
    assert l1_norm(far) == pytest.approx(l1_norm(near), rel=1e-11)
    assert l2_norm(far) == pytest.approx(l2_norm(near), rel=1e-11)
