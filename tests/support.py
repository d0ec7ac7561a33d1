"""Shared helpers for the test suite: randomized data, invariant sweeps and
the xi-panel reference for oscillatory spectral integrals."""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from fracwave import (Gaussian, GaussianDerivative, GridBackend, GridSpec,
                      Parameters, SampledProfile, combine, evolve_state)
from fracwave.profiles import TruncationWarning
from fracwave.quadrature import (LEAD_HALFPERIODS, frequency_cutoff,
                                 gauss_panels, oscillatory_integral,
                                 panel_width)
from fracwave.spectral import QuadratureSnapshot, sine_multiplier

INVARIANT_BACKEND = GridBackend(GridSpec(24.0, 1024))


def evolve_further(snap, dt):
    """Evolve a grid snapshot's state (u, u_t) by a further dt on its grid.

    The fields are sampled on the grid as new initial data.  The periodic
    problem is a group, so the result is the original data evolved to
    snap.t + dt, up to the rounding of the transforms in between.
    """
    data = tuple(SampledProfile(field.real, snap.grid) for field in (snap.u, snap.ut))
    with warnings.catch_warnings():
        # the state may reach the box edges; on the periodic grid that is exact
        warnings.simplefilter("ignore", TruncationWarning)
        return evolve_state(data, snap.params, dt, GridBackend(snap.grid))


def random_profile(rng):
    kind = rng.integers(0, 3)
    a = float(rng.uniform(-2.0, 2.0))
    sigma = float(rng.uniform(0.5, 1.6))
    c = float(rng.uniform(-2.0, 2.0))
    if kind == 0:
        return Gaussian(a, sigma, c)
    if kind == 1:
        return GaussianDerivative(a, sigma, c)
    return combine((a, Gaussian(1.0, sigma, c)),
                   (0.5 * a, GaussianDerivative(1.0, max(0.5, sigma - 0.2), -c)))


def random_case(rng):
    s = float(rng.uniform(0.25, 1.0))
    t = float(rng.uniform(0.0, 20.0))
    return (random_profile(rng), random_profile(rng)), Parameters(s), t


def run_solver_invariant_cases(n_cases: int, seed: int,
                               backend=INVARIANT_BACKEND) -> list[str]:
    """Check linearity, cocycle, reality, and determinism on random data.

    Returns a list of human-readable violation messages (empty = all held).
    """
    rng = np.random.default_rng(seed)
    failures = []
    for case in range(n_cases):
        (u0, u1), params, t = random_case(rng)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        d2 = (random_profile(rng), random_profile(rng))
        dt = float(rng.uniform(0.0, 10.0))

        snap = evolve_state((u0, u1), params, t, backend)
        snap2 = evolve_state(d2, params, t, backend)

        mixed = evolve_state((combine((a, u0), (b, d2[0])),
                              combine((a, u1), (b, d2[1]))), params, t, backend)
        expected = a * snap.u_hat.values + b * snap2.u_hat.values
        scale = max(np.max(np.abs(expected)), 1e-12)
        if np.max(np.abs(mixed.u_hat.values - expected)) >= 1e-11 * scale:
            failures.append(f"case {case}: linearity violated")

        direct = evolve_state((u0, u1), params, t + dt, backend)
        stepped = evolve_further(snap, dt)
        for name, lhs, rhs in (("u", stepped.u_hat.values, direct.u_hat.values),
                               ("ut", stepped.ut_hat.values, direct.ut_hat.values)):
            scale = max(np.max(np.abs(rhs)), 1e-12)
            if np.max(np.abs(lhs - rhs)) >= 1e-11 * scale:
                failures.append(f"case {case}: cocycle violated on {name}")

        for name, field in (("u", snap.u), ("ut", snap.ut)):
            fscale = max(np.max(np.abs(field)), 1e-12)
            if np.max(np.abs(field.imag)) >= 1e-12 * fscale:
                failures.append(f"case {case}: reality violated on {name}")

        again = evolve_state((u0, u1), params, t, backend)
        if not (np.array_equal(snap.u_hat.values, again.u_hat.values)
                and np.array_equal(snap.ut_hat.values, again.ut_hat.values)):
            failures.append(f"case {case}: determinism violated")
    return failures


def quad_reference(g, lo, hi, rel_tol=2e-14):
    """QUADPACK's adaptive integral of a scalar function g on [lo, hi]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(g, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=1000)[0]


def xi_panel_reference(g, t, s, xi_hi, xi_lo=0.0, order=12, lead_halfperiods=4,
                       width=np.inf):
    """Integral of g(xi) on Gauss panels in xi, one half-period of t*xi^s each.

    The first ``lead_halfperiods`` half-periods, which hold the kink at the
    origin, go to ``quad_reference``; then panel edges
    xi_k = (k*pi/t)^(1/s) and the integrand's own sin/cos at every node.
    A half-period wider than ``width`` is split into equal parts.
    """
    k_lo = int(np.floor(t * xi_lo ** s / np.pi))
    k_hi = int(np.ceil(t * xi_hi ** s / np.pi))
    if k_hi - k_lo <= lead_halfperiods + 1:
        return quad_reference(g, xi_lo, xi_hi)
    k_lead = k_lo + lead_halfperiods
    xi_lead = (k_lead * np.pi / t) ** (1.0 / s)
    head = quad_reference(g, xi_lo, xi_lead)
    edges = (np.arange(k_lead, k_hi + 1, dtype=float) * np.pi / t) ** (1.0 / s)
    edges[0] = xi_lead
    edges = np.append(edges[edges < xi_hi], xi_hi)
    if np.isfinite(width):
        parts = np.ceil(np.diff(edges) / width).astype(int)
        edges = np.concatenate([np.linspace(a, b, n + 1)[:-1] for a, b, n
                                in zip(edges[:-1], edges[1:], parts)] + [[xi_hi]])
    return head + gauss_panels(g, edges, order=order)


def log_growth_sweep(t, order=12, block=65536):
    """K1(t) = 4 int_0^inf e^(-(v/t)^4) sin^2(v)/v dv on Gauss panels of
    length pi in v = t sqrt(r) out to 2.8 t, in blocks of panels."""
    edges = np.pi * np.arange(int(np.ceil(2.8 * t / np.pi)) + 1, dtype=float)

    def integrand(v):
        return np.exp(-(v / t) ** 4) * np.sin(v) ** 2 / v

    return 4.0 * sum(gauss_panels(integrand, edges[i:i + block + 1], order=order)
                     for i in range(0, edges.size - 1, block))


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


def body_nodes(u0, u1, s, t):
    """Density nodes of the Filon body in one |uhat|^2 mass at time t: the
    nodes past the head's LEAD_HALFPERIODS half-periods of w."""
    snap = QuadratureSnapshot(t, Parameters(s), u0, u1)
    density = snap._field_density("u", 0.0)
    nodes = []

    def counted(xi, xi_s):
        nodes.append(np.count_nonzero(t * xi_s > LEAD_HALFPERIODS * np.pi))
        return density(xi, xi_s)

    data = [p for p in (u0, u1) if not p.is_zero]
    oscillatory_integral(counted, t, s, frequency_cutoff(data),
                         width=panel_width(data))
    return sum(nodes)
