"""Quadrature engines: phase panels, singular origins, divergence detection."""

import numpy as np
import pytest
from scipy.integrate import quad

from fracwave.errors import DivergenceError, NumericalFailureError
from fracwave.profiles import ZERO, Gaussian
from fracwave.quadrature import (adaptive, gauss_panels, log_spaced_panels,
                                 oscillatory_integral,
                                 singular_origin_integral, static_integral)
from fracwave.spectral import Parameters, QuadratureSnapshot, sine_multiplier


def test_gauss_panels_blocking_matches_unblocked():
    edges = np.linspace(0.0, 1.0, 1001)
    full = gauss_panels(np.exp, edges, order=8)
    chunked = gauss_panels(np.exp, edges, order=8, block=97)
    assert chunked == pytest.approx(full, rel=1e-15)
    assert chunked == pytest.approx(np.e - 1.0, rel=1e-14)


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


@pytest.mark.parametrize("t,s", [(10.0, 0.75), (200.0, 0.5), (50.0, 0.9)])
def test_oscillatory_integral_vs_scipy(t, s):
    def f(xi, xi_s, sin_w, cos_w):
        return sin_w ** 2 * np.exp(-xi * xi / 2.0)

    def g(xi):
        return np.sin(t * xi ** s) ** 2 * np.exp(-xi * xi / 2.0)

    ref, _ = quad(g, 0.0, 10.0, epsabs=1e-15, epsrel=1e-13, limit=20000)
    val = oscillatory_integral(f, t, s, 10.0)
    assert val == pytest.approx(ref, rel=1e-10)


def test_oscillatory_integral_offset_interval():
    t, s = 300.0, 0.6

    def f(xi, xi_s, sin_w, cos_w):
        return cos_w ** 2 / (1.0 + xi ** 2)

    def g(xi):
        return np.cos(t * xi ** s) ** 2 / (1.0 + xi ** 2)

    ref, _ = quad(g, 0.2, 5.0, epsabs=1e-15, epsrel=1e-13, limit=20000)
    assert oscillatory_integral(f, t, s, 5.0, xi_lo=0.2) == pytest.approx(
        ref, rel=1e-10)


def test_oscillatory_integral_no_phase():
    val = oscillatory_integral(lambda xi, xi_s, sin_w, cos_w: xi * xi, 0.0, 0.5, 3.0)
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
# phase-variable panels against the xi-panel rule they replaced
# ---------------------------------------------------------------------------

def xi_panel_reference(g, t, s, xi_hi, xi_lo=0.0, order=12, lead_halfperiods=4,
                       rel_tol=1e-11):
    """Integral of g(xi) on Gauss panels in xi, one half-period of t*xi^s each.

    The same adaptive head as ``oscillatory_integral``, then panel edges
    xi_k = (k*pi/t)^(1/s) and the integrand's own sin/cos at every node.
    """
    k_lo = int(np.floor(t * xi_lo ** s / np.pi))
    k_hi = int(np.ceil(t * xi_hi ** s / np.pi))
    if k_hi - k_lo <= lead_halfperiods + 1:
        return adaptive(g, xi_lo, xi_hi, rel_tol=rel_tol)
    k_lead = k_lo + lead_halfperiods
    xi_lead = (k_lead * np.pi / t) ** (1.0 / s)
    head = adaptive(g, xi_lo, xi_lead, rel_tol=rel_tol)
    edges = (np.arange(k_lead, k_hi + 1, dtype=float) * np.pi / t) ** (1.0 / s)
    edges[0] = xi_lead
    edges = np.append(edges[edges < xi_hi], xi_hi)
    return head + gauss_panels(g, edges, order=order)


def reference_density(s, t, u0, u1, field, weight_exp):
    """|fieldhat(t, xi)|^2 |xi|^weight computed from xi alone."""
    def g(xi):
        xi = np.asarray(xi, dtype=float)
        w = t * xi ** s
        if field == "u":
            vals = sine_multiplier(s, t, xi) * u1.fourier(xi) + np.cos(w) * u0.fourier(xi)
        else:
            vals = np.cos(w) * u1.fourier(xi) - xi ** s * np.sin(w) * u0.fourier(xi)
        return np.abs(vals) ** 2 * xi ** weight_exp
    return g


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
def test_phase_panels_keep_the_sign_of_sin_and_cos(s, t):
    # odd powers of sin w and cos w: a lost (-1)^k would flip whole panels
    def f(xi, xi_s, sin_w, cos_w):
        return (sin_w + 0.5 * cos_w) * np.exp(-xi * xi / 4.0)

    def g(xi):
        w = t * xi ** s
        return (np.sin(w) + 0.5 * np.cos(w)) * np.exp(-xi * xi / 4.0)

    scale = np.sqrt(np.pi)     # integral of the amplitude over the half-line
    ref = xi_panel_reference(g, t, s, 12.5)
    assert oscillatory_integral(f, t, s, 12.5) == pytest.approx(
        ref, rel=1e-13, abs=1e-13 * scale)


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
