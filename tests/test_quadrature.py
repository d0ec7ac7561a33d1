"""Quadrature engines: Filon panels, singular origins, divergence detection."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc
from scipy.special import spherical_jn

from fracwave import quadrature
from fracwave.errors import DivergenceError, NumericalFailureError
from fracwave.profiles import (ZERO, CompactBump, Gaussian,
                               GaussianDerivative, combine, weighted_l1_norm)
from fracwave.quadrature import (CUTOFF_TOL, FILON_ORDER, HEAD_DYADIC,
                                 LEAD_HALFPERIODS, MAX_PANELS, _equal_panels,
                                 _filon_parts, _filon_weights, _form_weights,
                                 _head_edges, _moment_map, _OscillatoryRule,
                                 _scaled_head, _spherical_jn, _whole_filon,
                                 adaptive, check_time, frequency_cutoff,
                                 gauss_panels, gauss_rule, log_spaced_panels,
                                 oscillatory_integral, panel_width,
                                 singular_origin_integral, static_integral)
from fracwave.spectral import Parameters, QuadratureSnapshot
from support import (body_nodes, quad_reference, reference_density,
                     xi_panel_reference)


def test_gauss_panels_exp_closed_form():
    edges = np.linspace(0.0, 1.0, 1001)
    assert gauss_panels(np.exp, edges, order=8) == pytest.approx(np.e - 1.0, rel=1e-14)


def test_gauss_panels_polynomial_exact():
    # degree-23 polynomial integrated exactly by order-12 panels
    coeffs = np.arange(1.0, 25.0)

    def poly(x):
        return np.polyval(coeffs, x)

    val = gauss_panels(poly, np.array([-1.0, 0.3, 2.0]), order=12)
    exact = np.polyval(np.polyint(coeffs), 2.0) - np.polyval(np.polyint(coeffs), -1.0)
    assert val == pytest.approx(exact, rel=1e-14)


def test_adaptive_matches_closed_form():
    assert adaptive(np.exp, 0.0, 1.0) == pytest.approx(np.e - 1.0, rel=1e-12)


# kinks that only an adaptive rule finds: |x - c| off the breakpoint, the sign
# changes of a profile sum, and a power at the breakpoint
KINKED = {
    "abs-offset": (lambda x: np.abs(x - 0.37) * np.exp(-x * x), -6.0, 6.0, [0.0]),
    "sign-changing-sum": (lambda x: np.abs(combine(
        (1.0, Gaussian(1.0, 1.0, -0.6)), (-0.8, Gaussian(1.0, 0.7, 0.9))).evaluate(x)),
        -7.0, 7.0, [0.0]),
    "power-0.25": (lambda x: np.abs(x) ** 0.25 * np.exp(-x * x), -6.0, 6.0, [0.0]),
    "power-0.5": (lambda x: np.abs(x) ** 0.5 * np.exp(-x * x), -6.0, 6.0, [0.0]),
}


@pytest.mark.parametrize("name", sorted(KINKED))
def test_adaptive_matches_quadpack_on_kinks(name):
    f, a, b, points = KINKED[name]
    ref = quad(f, a, b, points=points, epsabs=0.0, epsrel=1e-13, limit=1000)[0]
    assert adaptive(f, a, b, rel_tol=1e-10, limit=800, points=points) == pytest.approx(
        ref, rel=1e-10, abs=0.0)


@pytest.fixture
def kronrod_log(monkeypatch):
    """The (lo, hi) interval arrays of every ``_kronrod`` pass."""
    log = []
    original = quadrature._kronrod

    def logged(f, lo, hi):
        log.append((lo.copy(), hi.copy()))
        return original(f, lo, hi)

    monkeypatch.setattr(quadrature, "_kronrod", logged)
    return log


@pytest.mark.parametrize("gamma", [0.05, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("profile", [Gaussian(), GaussianDerivative(), CompactBump(),
                                     Gaussian(1.0, 1.0, 0.7)],
                         ids=["gaussian", "derivative", "bump", "off-centre"])
def test_weighted_l1_norms_match_quadpack(profile, gamma):
    def f(x):
        return (1.0 + np.abs(x) ** gamma) * np.abs(profile.evaluate(x))

    lo, hi = profile.support()
    ref = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=1000)[0]
              for a, b in ((lo, 0.0), (0.0, hi)))
    assert weighted_l1_norm(profile, gamma) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("gamma", [0.05, 0.25, 0.5])
def test_graded_breakpoint_takes_few_passes(kronrod_log, gamma):
    # the dyadic cascade toward 0 resolves |x|^gamma without bisecting to it
    def f(x):
        return np.abs(x) ** gamma * np.exp(-x * x)

    ref = quad(f, -6.0, 6.0, points=[0.0], epsabs=0.0, epsrel=1e-13, limit=1000)[0]
    assert adaptive(f, -6.0, 6.0, rel_tol=1e-10, limit=800, points=[0.0]) == pytest.approx(
        ref, rel=1e-10, abs=0.0)
    assert len(kronrod_log) <= 5


def test_graded_breakpoint_fits_a_small_limit(kronrod_log):
    # the full cascade is 70 intervals; with limit 20 or 40 it is cut to fit,
    # leaves no room to bisect, and the estimate is refused
    f = KINKED["power-0.25"][0]
    for limit in (20, 40):
        kronrod_log.clear()
        with pytest.raises(NumericalFailureError, match="did not converge"):
            adaptive(f, -6.0, 6.0, rel_tol=1e-10, limit=limit, points=[0.0])
        assert [lo.size for lo, _ in kronrod_log] == [limit]


@pytest.mark.parametrize("c", [1e6, 1e12])
def test_graded_edges_never_round_onto_each_other(kronrod_log, c):
    # points an ulp or a few apart: cascade edges that round onto a point or
    # onto each other merge, so no interval is narrower than one ulp
    w = c / 10.0

    def f(x):
        u = (x - c) / w
        return np.sqrt(np.abs(u)) * np.exp(-u * u)

    ulp = np.spacing(c)
    for points in ([c], [c, c + 4 * ulp], [c - 3 * ulp, c], [c, c + ulp]):
        kronrod_log.clear()
        assert adaptive(f, c - 6.4 * w, c + 6.4 * w, rel_tol=1e-10, limit=800,
                        points=points) == pytest.approx(w * gamma_fn(0.75), rel=1e-10)
        lo = np.concatenate([lo for lo, _ in kronrod_log])
        hi = np.concatenate([hi for _, hi in kronrod_log])
        assert np.all(hi - lo >= np.spacing(lo))


@pytest.mark.parametrize("t,s", [(10.0, 0.75), (200.0, 0.5), (50.0, 0.9)])
def test_oscillatory_integral_vs_scipy(t, s):
    def f(xi, xi_s):
        amp = np.exp(-xi * xi / 2.0)
        return amp, 0.0 * amp, 0.0 * amp      # sin^2 w times amp

    def g(xi):
        return np.sin(t * xi ** s) ** 2 * np.exp(-xi * xi / 2.0)

    ref, _ = quad(g, 0.0, 10.0, epsabs=1e-15, epsrel=1e-13, limit=20000)
    val = oscillatory_integral(f, t, s, 10.0)
    assert val == pytest.approx(ref, rel=1e-10)


def test_oscillatory_integral_offset_interval():
    t, s = 300.0, 0.6

    def f(xi, xi_s):
        amp = 1.0 / (1.0 + xi ** 2)
        return 0.0 * amp, amp, 0.0 * amp      # cos^2 w times amp

    def g(xi):
        return np.cos(t * xi ** s) ** 2 / (1.0 + xi ** 2)

    ref, _ = quad(g, 0.2, 5.0, epsabs=1e-15, epsrel=1e-13, limit=20000)
    assert oscillatory_integral(f, t, s, 5.0, xi_lo=0.2) == pytest.approx(
        ref, rel=1e-10)


def test_oscillatory_integral_no_phase():
    # at t = 0, sin w = 0 and cos w = 1: only the cos^2 coefficient counts
    val = oscillatory_integral(lambda xi, xi_s: (1.0 / xi, xi * xi, 1.0 / xi),
                               0.0, 0.5, 3.0)
    assert val == pytest.approx(9.0, rel=1e-12)


@pytest.mark.parametrize("lo,hi", [(0.0, 5.0), (0.0, 0.5), (0.37, 5.0),
                                   (1.5, 4.0), (1e-9, 2.0)])
def test_static_integral_vs_scipy(lo, hi):
    # the xi^0.6 kink at the origin is what the singular-origin head is for
    def f(xi):
        return xi ** 0.6 * np.exp(-xi * xi)

    ref, _ = quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    assert static_integral(f, hi, xi_lo=lo) == pytest.approx(ref, rel=1e-10)


def test_static_integral_detects_divergence():
    with pytest.raises(DivergenceError):
        static_integral(lambda xi: xi ** -1.2 * np.exp(-xi), 5.0)


# ---------------------------------------------------------------------------
# the Filon body against the xi-panel rule it replaced
# ---------------------------------------------------------------------------

def phase_rule_vs_reference(s, t, u0, u1, field="u", weight_exp=0.0,
                            lo=0.0, hi=12.0):
    snap = QuadratureSnapshot(t, Parameters(s), u0, u1)
    got = snap.spectral_mass(lo, hi, field=field, weight_exp=weight_exp)
    ref = 2.0 * xi_panel_reference(
        reference_density(s, t, u0, u1, field, weight_exp), t, s, hi, xi_lo=lo)
    return got, ref


@pytest.mark.parametrize("t", [1e2, 1e4, 1e5])
@pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_phase_panels_match_xi_panels(s, t):
    got, ref = phase_rule_vs_reference(s, t, ZERO, Gaussian())
    assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("field,weight", [("u", "2s"), ("ut", 0.0), ("ut", "2s")])
@pytest.mark.parametrize("s,t", [(0.5, 1e4), (0.75, 1e5), (1.0, 1e2)])
def test_phase_panels_match_xi_panels_fields_and_weights(s, t, field, weight):
    # an off-centre u0 makes uhat complex, so the cross term runs
    weight_exp = 2.0 * s if weight == "2s" else weight
    got, ref = phase_rule_vs_reference(s, t, Gaussian(0.7, 1.3, 0.8), Gaussian(),
                                       field=field, weight_exp=weight_exp)
    assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("s,t", [(0.5, 1e4), (0.6, 1e5), (0.9, 1e4)])
def test_phase_panels_match_xi_panels_offset_and_mid_panel_end(s, t):
    u0, u1 = Gaussian(0.7, 1.3, 0.8), Gaussian()
    # xi_lo > 0 as in estimates.fourier_split; xi_hi half-way through a panel
    lo = 0.37
    hi = ((np.floor(t * 2.5 ** s / np.pi) + 0.5) * np.pi / t) ** (1.0 / s)
    for field in ("u", "ut"):
        got, ref = phase_rule_vs_reference(s, t, u0, u1, field=field, lo=lo, hi=hi)
        assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("s,t", [(0.5, 1e4), (0.75, 1e3), (1.0, 1e2)])
def test_filon_body_keeps_the_sign_of_the_cross_term(s, t):
    # the sin w cos w coefficient dominates, and its xi^-s rise at the origin
    # keeps its share of the integral well above rounding: a lost sign of
    # gamma, or of the sin 2w moments, would flip that share
    def coefficients(xi):
        amp = np.exp(-xi * xi / 4.0)
        return 0.1 * amp, 0.05 * amp, xi ** -s * amp

    def f(xi, xi_s):
        return coefficients(xi)

    def form(xi, sign):
        w = t * xi ** s
        alpha, beta, gamma = coefficients(xi)
        return (alpha * np.sin(w) ** 2 + beta * np.cos(w) ** 2
                + sign * gamma * np.sin(w) * np.cos(w))

    scale = np.sqrt(np.pi)     # integral of the amplitude over the half-line
    ref = xi_panel_reference(lambda xi: form(xi, 1.0), t, s, 12.5)
    flipped = xi_panel_reference(lambda xi: form(xi, -1.0), t, s, 12.5)
    assert abs(flipped - ref) > 1e-6 * scale
    assert oscillatory_integral(f, t, s, 12.5) == pytest.approx(
        ref, rel=1e-13, abs=1e-13 * scale)


def two_term_sq_norm(s, t):
    """||uhat(t)||^2 for u0 = 0, u1 = e^(-x^2) up to o(1) as t -> inf.

    P^2 c_s^2 t^(2-1/s) + D with P^2 = pi, mu = 1/s - 2,
    c_s^2 = (2/s)(-Gamma(mu) cos(mu pi/2)/2^(mu+1)) and
    D = (pi/2) 2^((1-2s)/2) Gamma((1-2s)/2); at s = 1/2 it is
    2 P^2 log t + 2 pi (5/4 log 2 + 3/4 gamma_Euler).
    """
    if s == 0.5:
        return 2.0 * np.pi * (np.log(t) + 1.25 * np.log(2.0) + 0.75 * np.euler_gamma)
    mu = 1.0 / s - 2.0
    c_sq = (2.0 / s) * (-gamma_fn(mu) * np.cos(mu * np.pi / 2.0) / 2.0 ** (mu + 1.0))
    d = (np.pi / 2.0) * 2.0 ** ((1.0 - 2.0 * s) / 2.0) * gamma_fn((1.0 - 2.0 * s) / 2.0)
    return np.pi * c_sq * t ** (2.0 - 1.0 / s) + d


@pytest.mark.parametrize("t", [1e5, 1e6])
@pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9])
def test_long_time_mass_matches_two_term_expansion(s, t):
    snap = QuadratureSnapshot(t, Parameters(s), ZERO, Gaussian())
    assert snap.spectral_mass(0.0) == pytest.approx(two_term_sq_norm(s, t),
                                                     rel=1e-12)


@pytest.mark.parametrize("s", [0.5, 0.75, 0.9, 1.0])
def test_filon_nodes_do_not_grow_with_t(s):
    assert body_nodes(Gaussian(0.7, 1.3, 0.8), Gaussian(), s, 1e6) <= (
        2 * body_nodes(Gaussian(0.7, 1.3, 0.8), Gaussian(), s, 1e2))


@pytest.mark.parametrize("t", [10.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.6, 0.75, 0.9, 1.0])
def test_head_matches_quadpack(s, t):
    # the head alone: [0, xi_lead] is the first LEAD_HALFPERIODS half-periods
    u0, u1 = Gaussian(0.7, 1.3, 0.8), Gaussian()
    snap = QuadratureSnapshot(t, Parameters(s), u0, u1)
    lead = (LEAD_HALFPERIODS * np.pi / t) ** (1.0 / s)
    for field in ("u", "ut"):
        for weight_exp in (0.0, 2.0 * s):
            got = oscillatory_integral(snap._field_density(field, weight_exp),
                                       t, s, lead)
            ref = quad_reference(
                reference_density(s, t, u0, u1, field, weight_exp), 0.0, lead)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s,t,weight_exp", [(1.0, 10.0, -0.9), (0.75, 1e2, -0.5),
                                             (0.5, 1e3, -0.8), (0.3, 1e4, -0.95),
                                             (1.0, 1e-2, -0.9)])
def test_integrable_singularity_at_origin(s, t, weight_exp):
    # |xi|^p with p near -1 keeps a visible share of the integral below the
    # head's lowest dyadic panel, which the geometric tail must restore
    u0, u1 = Gaussian(0.7, 1.3, 0.8), Gaussian()
    got = QuadratureSnapshot(t, Parameters(s), u0, u1).spectral_mass(
        0.0, 12.0, weight_exp=weight_exp)
    g = reference_density(s, t, u0, u1, "u", weight_exp)
    edges = np.concatenate([[0.0], np.geomspace(1e-12, 12.0, 60)])
    ref = sum(quad_reference(g, a, b) for a, b in zip(edges[:-1], edges[1:]))
    assert got == pytest.approx(2.0 * ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("t", [1e-2, 0.3])
@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_short_interval_matches_quadpack(s, t):
    # at small t the whole cutoff is inside the head, and its panels are
    # split to the data's width
    u0, u1 = Gaussian(0.7, 1.3, 0.8), Gaussian()
    got = QuadratureSnapshot(t, Parameters(s), u0, u1).spectral_mass(0.0, 12.0)
    g = reference_density(s, t, u0, u1, "u", 0.0)
    edges = np.linspace(0.0, 12.0, 25)
    ref = sum(quad_reference(g, a, b) for a, b in zip(edges[:-1], edges[1:]))
    assert got == pytest.approx(2.0 * ref, rel=1e-13, abs=0.0)


def spherical_jn_omegas():
    # the domain omega > pi: a narrower panel takes the Gauss rule
    omega = np.concatenate([[0.0], np.geomspace(1e-8, 1e6, 4001),
                            np.linspace(0.5, 40.0, 2001)])
    return omega[omega > np.pi]


def test_spherical_jn_matches_scipy():
    omega = spherical_jn_omegas()
    ref = spherical_jn(np.arange(FILON_ORDER), omega[:, None])
    # scipy's own j_10 is 1.5e-15 off near omega = 9.9 (checked at 40 digits)
    np.testing.assert_allclose(_spherical_jn(FILON_ORDER, omega), ref,
                               rtol=0.0, atol=2e-15)


def mpmath_jn(mpmath, omega):
    """j_k(omega), k < FILON_ORDER, at an mpmath omega."""
    scale = mpmath.sqrt(mpmath.pi / (2 * omega))
    return [float(scale * mpmath.besselj(k + 0.5, omega)) for k in range(FILON_ORDER)]


def test_spherical_jn_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    omega = np.concatenate([np.geomspace(1e-8, 1e6, 29),
                            np.linspace(9.5, 10.5, 3), np.linspace(21.0, 23.5, 6)])
    omega = omega[omega > np.pi]
    got = _spherical_jn(FILON_ORDER, omega)
    for x, row in zip(omega, got):
        np.testing.assert_allclose(row, mpmath_jn(mpmath, mpmath.mpf(x)),
                                   rtol=0.0, atol=1e-15)


def test_filon_weights_match_mpmath():
    # the table (whole half-periods below FILON_TABLE), the closed Hankel
    # form (from FILON_TABLE half-periods up, whole or not) and the
    # recurrence of split parts, against j_k(m*pi + d) at 40 digits taken
    # through the same moment map; pi is exact in the panel widths
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    whole = np.concatenate([np.arange(2.0, 41.0),
                            np.round(np.geomspace(41.0, 1e6, 12))])
    m = np.concatenate([whole, [32.0, 32.0, 40.0, 317.0, 1e4, 1e6, 3.0, 20.0]])
    d = np.concatenate([np.zeros(whole.size),
                        [1e-9, 0.3, -0.9, 2.5, -3.0, 1.0, 0.5, -1.2]])
    got = _filon_weights(m, d)
    moments = _moment_map(FILON_ORDER)
    for mk, dk, row in zip(m, d, got):
        exact = mpmath_jn(mpmath, int(mk) * mpmath.pi + mpmath.mpf(dk))
        np.testing.assert_allclose(row, np.array(exact) @ moments,
                                   rtol=0.0, atol=1e-15)


def largest_accepted_time(s):
    """The largest t that ``check_time`` accepts at order s, where
    t^(-1/s) is subnormal."""
    t = LEAD_HALFPERIODS * np.pi / np.finfo(float).tiny ** s
    while True:
        try:
            check_time(t, s)
            return t
        except NumericalFailureError:
            t = np.nextafter(t, 0.0)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 0.9, 1.0])
def test_unsplit_filon_panels_span_whole_halfperiods(s):
    # every panel wider than pi is m*pi, m >= 2, so its weights are a row of
    # _whole_filon; only the last, partial half-period is not whole
    times = list(np.geomspace(1e-2, 1e6, 17))
    if s == 0.3:
        times.append(largest_accepted_time(s))
    for data in ([Gaussian(0.7, 1.3, 0.8), Gaussian()], [CompactBump()],
                 [GaussianDerivative(0.7, 1.0, 0.7)]):
        for t in times:
            rule = _OscillatoryRule.build(t, s, 0.0, frequency_cutoff(data),
                                          panel_width(data))
            ka, da, kb, db = rule.edges
            wide = (kb - ka) * np.pi + (db - da) > np.pi
            assert np.all(da[wide] == 0.0) and np.all(db[wide] == 0.0)
            assert np.all(kb[wide] - ka[wide] >= 2.0)
            assert np.all(np.diff(ka * np.pi + da) > 0.0)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_whole_filon_rows_are_the_phased_filon_weights():
    # a panel of m whole half-periods has the phase (-1)^m: its rows, from
    # the signed table below FILON_TABLE and the cosine half of Hankel's
    # form above, are that phase times _filon_weights(m, 0), to the bit
    m = np.concatenate([np.arange(2.0, 41.0),
                        np.round(np.geomspace(41.0, 1e6, 12))])
    sign = 1.0 - 2.0 * (m % 2.0)
    want = _filon_parts(sign[:, None] * _filon_weights(m, np.zeros_like(m)))
    assert same_bits(_whole_filon(m), want)


def reference_form_weights(t, s, ka, da, kb, db):
    """``_form_weights`` with one formula for every wide panel: the phase
    (-1)^(ka+kb) e^(i(da+db)) times ``_filon_weights``, with no table of
    whole half-periods."""
    omega = (kb - ka) * np.pi + (db - da)
    half = 0.5 * omega
    x, wts = gauss_rule(FILON_ORDER)
    offset = da[:, None] + half[:, None] * (1.0 + x)
    w = ka[:, None] * np.pi + offset
    xi_s = w / t
    xi = xi_s ** (1.0 / s)
    scale = half[:, None] * (xi / (s * w))
    weights = np.empty((3,) + xi.shape)
    narrow = omega <= np.pi
    sin_w, cos_w = np.sin(offset[narrow]), np.cos(offset[narrow])
    gauss = scale[narrow] * wts
    weights[0, narrow] = sin2 = gauss * sin_w ** 2
    faint = None
    r, cols = np.nonzero(sin2 < np.finfo(float).tiny)
    if r.size:
        faint = (np.nonzero(narrow)[0][r], cols, gauss[r, cols], sin_w[r, cols])
        weights[0, faint[0], cols] = 0.0
    weights[1, narrow] = gauss * cos_w ** 2
    weights[2, narrow] = gauss * (sin_w * cos_w)
    wide = ~narrow
    if np.any(wide):
        sign = 1.0 - 2.0 * ((ka[wide] + kb[wide]) % 2.0)
        phase = sign * np.exp(1j * (da[wide] + db[wide]))
        filon = phase[:, None] * _filon_weights(kb[wide] - ka[wide],
                                                db[wide] - da[wide])
        scale = 0.5 * scale[wide]
        weights[0, wide] = scale * (wts - filon.real)
        weights[1, wide] = scale * (wts + filon.real)
        weights[2, wide] = scale * filon.imag
    return xi, xi_s, weights, faint


def reference_edges(t, s, xi_lo, xi_hi, width):
    """(k, d) of a rule's edges k*pi + d, with its body's k sorted and
    deduplicated by ``np.unique``, and whether the head table applies."""
    w_lo, w_hi = t * xi_lo ** s, t * xi_hi ** s
    k_lead = int(np.floor(w_lo / np.pi)) + LEAD_HALFPERIODS
    scaled = w_lo == 0 and w_hi > k_lead * np.pi and _scaled_head(t, s) is not None
    k, d = _head_edges(w_lo, w_hi, k_lead)
    if w_hi <= k_lead * np.pi:
        return k, d, scaled
    xi_lead = (k_lead * np.pi / t) ** (1.0 / s)
    xi_edges = [_equal_panels(max(xi_lead, 1.0), xi_hi, width)]
    if xi_lead < 1.0:
        xi_edges.insert(0, 0.5 ** np.arange(np.ceil(-np.log2(xi_lead)) - 1, 0, -1))
    body = np.unique(np.round(t * np.concatenate(xi_edges) ** s / np.pi))
    k_end = np.floor(w_hi / np.pi)
    body = np.concatenate([body[(body > k_lead) & (body < k_end)],
                           [k_end] if k_end > k_lead else []])
    d_body = np.zeros_like(body)
    if w_hi > k_end * np.pi:
        body = np.append(body, k_end)
        d_body = np.append(d_body, w_hi - k_end * np.pi)
    return np.concatenate([k, body]), np.concatenate([d, d_body]), scaled


def assert_rule_bits(rule, xi_lo, xi_hi, width):
    """The rule's edges, nodes, weights and faint nodes, bit for bit: the
    head's rows are ``_scaled_head``'s, or the body's formula where the
    table does not apply, and the body's are ``reference_form_weights``."""
    t, s = rule.t, rule.s
    k, d, scaled = reference_edges(t, s, xi_lo, xi_hi, width)
    edges = (k[:-1], d[:-1], k[1:], d[1:])
    assert all(same_bits(got, want) for got, want in zip(rule.edges, edges))
    xi, xi_s, weights, faint = reference_form_weights(t, s, *edges)
    if scaled:
        c, root, w, table = _scaled_head(t, s)[1]
        rows = root.shape[0]
        xi[:rows], xi_s[:rows], weights[:, :rows] = c * root, w / t, c * table
        assert faint is None or np.all(faint[0] >= rows)
    assert same_bits(rule.xi, xi) and same_bits(rule.xi_s, xi_s)
    assert same_bits(rule.weights, weights)
    assert (rule.faint is None) == (faint is None)
    if faint is not None:
        assert all(same_bits(got, want) for got, want in zip(rule.faint, faint))


@pytest.mark.parametrize("s", [0.3, 0.5, 0.6, 0.75, 0.9, 1.0])
def test_rules_are_the_one_formula_to_the_bit(s):
    data = [Gaussian(0.7, 1.3, 0.8), Gaussian()]
    cutoff, width = frequency_cutoff(data), panel_width(data)
    for t in np.geomspace(1e-2, 1e6, 17):
        rule = _OscillatoryRule.build(t, s, 0.0, cutoff, width)
        assert_rule_bits(rule, 0.0, cutoff, width)


def test_split_offset_and_faint_rules_are_the_one_formula_to_the_bit():
    data = [Gaussian(0.5, 1.0, 0.3), Gaussian()]
    cutoff, width = frequency_cutoff(data), panel_width(data)
    # xi_lo > 0, whose head is not the table's
    assert_rule_bits(_OscillatoryRule.build(1e3, 0.75, 0.5, cutoff, width),
                     0.5, cutoff, width)
    # the subnormal head weights of tiny t
    rule = _OscillatoryRule.build(1e-150, 0.3, 0.0, cutoff, width)
    assert rule.faint is not None
    assert_rule_bits(rule, 0.0, cutoff, width)
    # a rule that splits, and the rule on its parts, whose edges are not
    # whole half-periods
    rule = _OscillatoryRule.build(0.05, 0.75, 0.0, cutoff, width)
    assert rule.splits
    assert_rule_bits(rule, 0.0, cutoff, width)
    parts = rule._split(tuple(np.nonzero(rule.pieces > 1)[0].tolist()))
    xi, xi_s, weights, faint = reference_form_weights(parts.t, parts.s,
                                                      *parts.edges)
    assert np.any(parts.edges[1] != 0.0)
    assert same_bits(parts.xi, xi) and same_bits(parts.xi_s, xi_s)
    assert same_bits(parts.weights, weights) and parts.faint is faint is None


def test_second_unsplit_build_takes_no_recurrence(monkeypatch):
    from fracwave import quadrature
    calls = []

    def counted(*args):
        calls.append(args)
        return _spherical_jn(*args)

    data = [Gaussian()]
    cutoff, width = frequency_cutoff(data), panel_width(data)
    _OscillatoryRule.build(1e2, 0.75, 0.0, cutoff, width)
    monkeypatch.setattr(quadrature, "_spherical_jn", counted)
    for t in (3e2, 1e4, 1e6):
        rule = _OscillatoryRule.build(t, 0.75, 0.0, cutoff, width)
        assert not np.any(rule.pieces > 1)
    assert calls == []


@pytest.mark.parametrize("t", [1e2, 1e4, 1e6])
@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
def test_unsplittable_rule_sums_as_the_split_test_does(s, t):
    # a rule with no panel wider than the data's width skips the split
    # test; with the test forced on, every mass is the same to the bit
    data = [Gaussian(0.5, 1.0, 0.3), Gaussian()]
    rule = _OscillatoryRule.build(t, s, 0.0, frequency_cutoff(data), panel_width(data))
    assert not rule.splits and not np.any(rule.pieces > 1)
    snap = QuadratureSnapshot(t, Parameters(s), *data)
    for field, weight_exp in (("u", 0.0), ("ut", 0.0), ("u", 2.0 * s)):
        density = snap._field_density(field, weight_exp)
        rule.splits = False
        skipped = rule.integrate(density)
        rule.splits = True
        tested = rule.integrate(density)
        assert skipped == tested
    assert _OscillatoryRule.build(0.05, s, 0.0, frequency_cutoff(data),
                                  panel_width(data)).splits


def assert_after_fresh_import(check):
    """Run ``check`` on fracwave.quadrature, as q, in a fresh process."""
    import fracwave
    src = str(Path(fracwave.__file__).parents[1])
    code = f"import fracwave, fracwave.quadrature as q; assert {check}"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_import_does_not_build_the_filon_table():
    # the signed table is built on first use, so that importing stays cheap
    assert_after_fresh_import(
        "q._filon_table.cache_info().currsize == 0 "
        "and q._whole_filon(q.np.array([2.0, 40.0])).shape == (3, 2, q.FILON_ORDER) "
        "and q._filon_table.cache_info().currsize == 1")


def test_import_does_not_build_a_head_table():
    assert_after_fresh_import("q._head_table.cache_info().currsize == 0")


def assert_direct_build(rule):
    """The rule's nodes and weights are ``_form_weights`` on all its panels,
    bit for bit: the head table was not used."""
    xi, xi_s, weights, faint = _form_weights(rule.t, rule.s, *rule.edges)
    assert np.array_equal(rule.xi, xi) and np.array_equal(rule.xi_s, xi_s)
    assert np.array_equal(rule.weights, weights)
    assert (rule.faint is None) == (faint is None)
    if faint is not None:
        for got, want in zip(rule.faint, faint):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 0.9, 1.0])
def test_head_table_matches_the_direct_build(s):
    # Each side is a few rounding units from the exact values.  The direct
    # build rounds w/t before the power 1/s, which multiplies that rounding
    # by 1/s; the table rounds t^(-1/s), w^(1/s) and their product.  The
    # weights add the roundings of their products on each side.
    eps = np.finfo(float).eps
    data = [Gaussian(0.7, 1.3, 0.8), Gaussian()]
    cutoff, width = frequency_cutoff(data), panel_width(data)
    for t in np.geomspace(1e-2, 1e6, 17):
        rule = _OscillatoryRule.build(t, s, 0.0, cutoff, width)
        xi, xi_s, weights, faint = _form_weights(t, s, *rule.edges)
        assert np.array_equal(rule.xi_s, xi_s)
        np.testing.assert_allclose(rule.xi, xi, rtol=(1 / s + 4) * eps / 2, atol=0)
        np.testing.assert_allclose(rule.weights, weights,
                                   rtol=(1 / s + 16) * eps / 2, atol=0)
        assert rule.faint is None and faint is None


def test_sweep_forms_the_head_once(monkeypatch):
    from fracwave import quadrature
    quadrature._head_table.cache_clear()
    head_rows = []

    def counted(t, s, ka, *edges, head=None):
        # the head rows formed here, not scaled from the table
        given = 0 if head is None else head[1].shape[0]
        head_rows.append(int(np.sum(ka[given:] < LEAD_HALFPERIODS)))
        return _form_weights(t, s, ka, *edges, head=head)

    monkeypatch.setattr(quadrature, "_form_weights", counted)
    for t in np.geomspace(1e2, 1e6, 10):
        QuadratureSnapshot(t, Parameters(0.75), ZERO, Gaussian()).spectral_l2()
    # the 61 dyadic panels below pi and the three whole half-periods above
    assert sum(head_rows) == HEAD_DYADIC + LEAD_HALFPERIODS - 1 == 64
    assert len(head_rows) == 11


def test_rules_the_head_table_does_not_cover_are_built_directly():
    data = [Gaussian()]
    cutoff, width = frequency_cutoff(data), panel_width(data)
    # the upper part of a split interval, xi_lo > 0
    assert_direct_build(_OscillatoryRule.build(1e3, 0.75, 0.5, cutoff, width))
    # a head that ends before LEAD_HALFPERIODS*pi, at small t
    rule = _OscillatoryRule.build(1e-2, 0.75, 0.0, cutoff, width)
    assert 1e-2 * cutoff ** 0.75 < LEAD_HALFPERIODS * np.pi
    assert_direct_build(rule)
    # the tiny t of the underflow tests, whose head weights are subnormal
    for t in (1e-150, 1e-300):
        rule = _OscillatoryRule.build(t, 0.3, 0.0, cutoff, width)
        assert rule.faint is not None
        assert_direct_build(rule)
    # the largest t that check_time accepts at s = 0.3: t^(-1/s) is subnormal
    t = largest_accepted_time(0.3)
    assert_direct_build(_OscillatoryRule.build(t, 0.3, 0.0, cutoff, width))
    with pytest.raises(NumericalFailureError):
        check_time(np.nextafter(t, np.inf), 0.3)


@pytest.mark.parametrize("q", [0.0, 0.4, 0.8])
def test_singular_origin_convergent_power(q):
    # int_0^1 x^-q e^-x dx, compared against scipy with endpoint handling
    def f(x):
        return x ** (-q) * np.exp(-x)

    ref, _ = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    assert singular_origin_integral(f, 1.0) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("q", [1.0, 1.3])
def test_singular_origin_divergent(q):
    with pytest.raises(DivergenceError):
        singular_origin_integral(lambda x: x ** (-q) * np.exp(-x), 1.0)


def test_singular_origin_next_to_the_boundary():
    # int_0^1 x^-0.95 e^-x dx = gamma(0.05, 1), the lower incomplete gamma
    exact = gamma_fn(0.05) * gammainc(0.05, 1.0)
    got = singular_origin_integral(lambda x: x ** -0.95 * np.exp(-x), 1.0)
    assert got == pytest.approx(exact, rel=1e-13)


def test_singular_origin_evaluates_once():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x) * x ** -0.5

    singular_origin_integral(f, 1.0)
    assert len(calls) == 1


def test_singular_origin_refuses_a_non_finite_integrand():
    with pytest.raises(NumericalFailureError, match=r"not finite on \(0, 1\]"):
        singular_origin_integral(lambda x: np.full(x.shape, np.inf), 1.0)


def test_singular_origin_flat_envelope_not_divergent():
    # a wide envelope inflates early increment ratios; the depth gate must
    # keep a plainly convergent integral from being flagged
    def f(x):
        return np.exp(-(8.0 * x) ** 2 / 2.0) * x ** (-0.4)

    ref, _ = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    assert singular_origin_integral(f, 1.0) == pytest.approx(ref, rel=1e-8)


def test_log_spaced_panels():
    edges = log_spaced_panels(1e-6, 1.0, per_decade=2)
    assert edges[0] == pytest.approx(1e-6)
    assert edges[-1] == pytest.approx(1.0)
    assert np.all(np.diff(np.log(edges)) > 0)
    with pytest.raises(ValueError):
        log_spaced_panels(0.0, 1.0)


def test_adaptive_failure_reported():
    # an integrand quad cannot pin down: wild oscillation with tiny tolerance
    def nasty(x):
        return np.sin(1e9 * x)

    with pytest.raises(NumericalFailureError):
        adaptive(nasty, 0.0, 1.0, rel_tol=1e-13, limit=3)


def test_adaptive_refuses_an_interval_its_doubles_cannot_resolve():
    def bell(x):
        return np.exp(-(x - c) ** 2)

    # 12.8 wide at 1e6: the ends' rounding unit is 1e-11 of the width; a
    # breakpoint at the centre is graded toward only once that passes
    c = 1e6
    for points in (None, [c]):
        assert adaptive(bell, c - 6.4, c + 6.4, rel_tol=1e-10,
                        points=points) == pytest.approx(np.sqrt(np.pi), rel=1e-10)
    # at 3e6 it is 3.6e-11, and moves the value by 2.4e-10
    for c in (3e6, 1e300):
        for points in (None, [c]):
            with pytest.raises(NumericalFailureError, match="cannot resolve"):
                adaptive(bell, c - 6.4, c + 6.4, rel_tol=1e-10, points=points)
        with pytest.raises(NumericalFailureError, match="cannot resolve"):
            weighted_l1_norm(Gaussian(center=c), 0.5)


def test_panel_width_of_centred_data_is_two_pi_over_the_radius():
    radius = np.sqrt(np.log(1.0 / CUTOFF_TOL))
    assert panel_width([Gaussian()]) == 2.0 * np.pi / radius
    # the hull of the data, not their distance from the origin
    assert panel_width([Gaussian(center=1e12)]) == pytest.approx(
        2.0 * np.pi / radius, rel=1e-4)
    assert panel_width([Gaussian(center=1e300)]) == np.inf
    assert panel_width([Gaussian(center=-3.0), Gaussian(center=3.0)]) == (
        4.0 * np.pi / (6.0 + 2.0 * radius))


def test_panel_budget_refuses_before_allocating():
    width = 4.0 * np.pi / 1e12
    with pytest.raises(NumericalFailureError, match="MAX_PANELS"):
        static_integral(np.exp, 10.0, width=width)
    with pytest.raises(NumericalFailureError, match="MAX_PANELS"):
        oscillatory_integral(lambda xi, xi_s: (xi, xi, xi), 1e3, 0.5, 10.0,
                             width=width)
    # the budget stands far above what real data need
    assert MAX_PANELS > 10 * 1573


def test_rule_refusal_names_what_sets_its_lowest_edge():
    def form(xi, xi_s):
        return np.ones_like(xi), np.ones_like(xi), np.zeros_like(xi)

    # a cutoff of 1e-299 puts t*cutoff^s*2^-61 below the normal doubles at
    # any t: the cutoff is named, not t
    for t in (1.0, 10.0):
        with pytest.raises(NumericalFailureError,
                           match=r"frequency cutoff, 1e-299, is too small for s = 0\.75"):
            oscillatory_integral(form, t, 0.75, 1e-299)
    with pytest.raises(NumericalFailureError, match=r"t = 1e\+300 is too large"):
        oscillatory_integral(form, 1e300, 0.75, 10.0)
