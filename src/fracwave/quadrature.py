"""Quadrature engines shared across the package.

Every spectral norm of the quadrature backend and of the lemma oracles is one
integral, int |fhat|^2 |xi|^p m(t, xi) dxi, cut off at ``frequency_cutoff``.
It is evaluated by one of two rules, chosen by whether m oscillates:

* static integrands (t = 0 norms, Riesz energies with p < 0, H^s seminorms of
  profiles) -> ``static_integral``: ``singular_origin_integral`` on (0, 1],
  which resolves the |xi|^p kink or singularity at the origin and detects a
  divergent one (settings ORIGIN_ORDER, ORIGIN_MAX_DEPTH, FLAT_RATIO,
  FLAT_RUNS, MIN_DEPTH), then equal Gauss-Legendre panels (``gauss_panels``)
  out to the cutoff;
* oscillatory integrands with phase w = t*|xi|^s -> Gauss panels in the phase
  variable w itself (``oscillatory_integral``), with the first
  LEAD_HALFPERIODS half-periods handed to adaptive quadrature in xi (at
  LEAD_REL_TOL) because the integrand has an algebraic |xi|^(2s) kink at the
  origin.

``gauss_panels`` and ``adaptive`` also serve the smooth integrands of the
estimates and the profile norms.

The phase-panel rule is the workhorse.  After the substitution
xi = (w/t)^(1/s) every panel is a half-period [k*pi, (k+1)*pi] of w, so the
Gauss nodes sit at the same offsets in every panel and sin w, cos w there are
one fixed vector times (-1)^k.  A node then costs one power (to recover xi)
and the integrand's own amplitude; no trigonometric function is evaluated in
the body.  A degree-12 rule (PHASE_ORDER) per half-period resolves the
trigonometric factors to near machine precision, so the cost is O(number of
oscillations) with a tiny constant, which keeps t = 1e6 sweeps well under a
second.  These settings are module constants, the same for every norm.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DivergenceError, NumericalFailureError

# Panels per block of the phase-panel body.  At order 12 the largest per-node
# temporary (complex, 96 KiB) stays below glibc's initial 128 KiB mmap
# threshold, so the allocator reuses heap memory from block to block.  With
# temporaries above it, every block mapped or trimmed and then faulted its
# memory in again, depending on what the process had allocated before: on a
# 2-core x86 VM one t = 1e6 norm at s = 0.9 took 1.0-1.2 s at 512-768 panels
# in every process state tried, and 1.1-2.3 s at 1024-4096 panels.
PHASE_BLOCK = 512

#: spectral integrals stop where every transform is below this fraction of
#: its peak
CUTOFF_TOL = 1e-18

#: Gauss nodes per half-period of w in the phase-panel body
PHASE_ORDER = 12
#: leading half-periods of w, which hold the |xi|^(2s) kink at 0, that go to
#: ``adaptive`` at relative tolerance LEAD_REL_TOL
LEAD_HALFPERIODS = 4
LEAD_REL_TOL = 1e-11
# settings of ``singular_origin_integral``; its docstring gives their reasons
ORIGIN_ORDER = 24
ORIGIN_MAX_DEPTH = 600
FLAT_RATIO = 0.95
FLAT_RUNS = 3
MIN_DEPTH = 8

# Cache of Gauss-Legendre rules keyed by order.
_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = rule
    return rule


def gauss_panels(f, edges: np.ndarray, order: int = 12,
                 block: int = 262144) -> float:
    """Integrate a vectorized function over consecutive panels.

    Parameters
    ----------
    f : callable
        Accepts an ndarray of abscissae, returns integrand values.
    edges : ndarray
        Strictly increasing panel boundaries, shape (n+1,).
    order : int
        Gauss-Legendre order per panel.
    block : int
        Panels are processed in blocks of this size to bound the peak
        memory of long panel sweeps.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        return 0.0
    nodes, weights = gauss_rule(order)
    total = 0.0
    for start in range(0, edges.size - 1, block):
        stop = min(start + block, edges.size - 1)
        a = edges[start:stop]
        b = edges[start + 1:stop + 1]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * nodes[None, :]
        vals = f(x)
        total += float(np.einsum("pj,j,p->", vals, weights, half))
    return total


def adaptive(f, a: float, b: float, rel_tol: float = 1e-11, limit: int = 400,
             points=None) -> float:
    """Adaptive Gauss-Kronrod integration of a scalar-callable on [a, b].

    Raises NumericalFailureError when the reported error estimate is not
    consistent with the requested relative tolerance.
    """
    with warnings.catch_warnings():
        # non-convergence is converted to NumericalFailureError below
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, epsabs=0.0, epsrel=rel_tol, limit=limit,
                        points=points)
    scale = max(abs(val), 1e-300)
    if not np.isfinite(val) or err > max(1e3 * rel_tol * scale, 1e-290):
        raise NumericalFailureError(
            f"adaptive quadrature on [{a:g}, {b:g}] did not converge: "
            f"value={val:.6e}, error estimate={err:.2e}"
        )
    return float(val)


def log_spaced_panels(lo: float, hi: float, per_decade: int = 4) -> np.ndarray:
    """Geometrically spaced panel edges covering [lo, hi]."""
    if lo <= 0:
        raise ValueError("log panels need lo > 0")
    n = max(1, int(np.ceil(per_decade * np.log10(hi / lo))))
    return np.geomspace(lo, hi, n + 1)


def frequency_cutoff(profiles, weight_exp: float = 0.0) -> float:
    """Upper limit of int |fhat|^2 |xi|^weight_exp dxi over the given profiles.

    The largest ``frequency_radius(CUTOFF_TOL)``, widened by
    (1 + max(weight_exp, 0)/4): a polynomial weight only nudges the
    Gaussian-type decay radius.  With no profiles the limit is 1.
    """
    radii = [p.frequency_radius(CUTOFF_TOL) for p in profiles]
    if not radii:
        return 1.0
    return max(radii) * (1.0 + 0.25 * max(weight_exp, 0.0))


def panel_width(profiles) -> float:
    """Widest panel in xi that resolves |fhat|^2 of the given 1-d profiles.

    Data inside |x| <= R make |fhat|^2 oscillate with period pi/R or longer
    (for example the transform of a compact bump), and one Gauss-16 panel
    resolves two such periods.
    """
    radii = [p.spatial_radius(CUTOFF_TOL) for p in profiles]
    return 2.0 * np.pi / max(radii) if radii else np.inf


def static_integral(f, xi_hi: float, *, xi_lo: float = 0.0,
                    width: float = np.inf) -> float:
    """Integrate a non-oscillatory f over [xi_lo, xi_hi].

    The part in (0, 1] goes to ``singular_origin_integral``, which resolves a
    power-law kink or singularity at the origin and raises DivergenceError
    for a non-integrable one.  [1, xi_hi] gets 63 equal Gauss-16 panels, or
    more where that keeps each no wider than ``width`` (``panel_width``).
    An interval starting at xi_lo > 0 never reaches the origin, so its part
    below 1 uses geometric panels toward xi_lo instead.
    """
    if xi_hi <= xi_lo:
        return 0.0
    split = min(1.0, xi_hi)
    if xi_lo == 0.0:
        head = singular_origin_integral(f, split, rel_tol=1e-10)
    elif xi_lo < split:
        head = gauss_panels(f, log_spaced_panels(xi_lo, split), order=16)
    else:
        head = 0.0
    lo = max(xi_lo, 1.0)
    if xi_hi <= lo:
        return head
    n = max(63, int(np.ceil((xi_hi - lo) / width)))
    return head + gauss_panels(f, np.linspace(lo, xi_hi, n + 1), order=16)


def oscillatory_integral(f, t: float, s: float, xi_hi: float, *,
                         xi_lo: float = 0.0,
                         static_width: float = np.inf) -> float:
    """Integrate an integrand with phase w = t*xi^s over xi in [xi_lo, xi_hi].

    The routine owns the phase: it calls ``f(xi, xi_s, sin_w, cos_w)`` with
    arrays (or scalars) of the abscissae xi > 0, of xi_s = xi^s and of sin w,
    cos w at w = t*xi_s, and f returns the integrand values in xi.

    At t <= 0 nothing oscillates and the integral is ``static_integral``
    with panels no wider than ``static_width``.
    Otherwise the first LEAD_HALFPERIODS half-periods of w (where
    xi^(2s)-type kinks live when the interval starts at 0) go to adaptive
    quadrature in xi, which computes the phase from xi at each point.  The
    rest, the body, is integrated in w: the Jacobian is d xi/dw = xi/(s*w),
    every full panel is [k*pi, (k+1)*pi], and the trigonometric values at its
    Gauss nodes are the fixed vector (sin, cos)(pi*(1+x_j)/2) times (-1)^k,
    which is exact where sin or cos of a large w would carry the rounding of
    w.  Only the final partial panel [k_end*pi, w_hi] takes sin and cos of
    its own nodes.

    Panels are processed ``PHASE_BLOCK`` at a time.
    """
    if xi_hi <= xi_lo:
        return 0.0

    def pointwise(xi):
        xi_s = xi ** s
        w = t * xi_s
        return f(xi, xi_s, np.sin(w), np.cos(w))

    if t <= 0:
        return static_integral(pointwise, xi_hi, xi_lo=xi_lo, width=static_width)

    w_lo = t * xi_lo ** s
    w_hi = t * xi_hi ** s
    k_lo = int(np.floor(w_lo / np.pi))
    k_hi = int(np.ceil(w_hi / np.pi))

    if k_hi - k_lo <= LEAD_HALFPERIODS + 1:
        return adaptive(pointwise, xi_lo, xi_hi, rel_tol=LEAD_REL_TOL)

    k_lead = k_lo + LEAD_HALFPERIODS
    xi_lead = (k_lead * np.pi / t) ** (1.0 / s)
    total = adaptive(pointwise, xi_lo, xi_lead, rel_tol=LEAD_REL_TOL)

    x, wts = gauss_rule(PHASE_ORDER)
    phi = 0.5 * np.pi * (1.0 + x)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    k_end = int(np.floor(w_hi / np.pi))
    for start in range(k_lead, k_end, PHASE_BLOCK):
        ks = np.arange(start, min(start + PHASE_BLOCK, k_end), dtype=float)
        total += _phase_panels(f, t, s, ks, phi, sin_phi, cos_phi,
                               0.5 * np.pi * wts)
    tail = w_hi - k_end * np.pi
    if tail > 0.0:
        phi = 0.5 * tail * (1.0 + x)
        total += _phase_panels(f, t, s, np.array([float(k_end)]), phi,
                               np.sin(phi), np.cos(phi), 0.5 * tail * wts)
    return total


def _phase_panels(f, t, s, ks, phi, sin_phi, cos_phi, wts) -> float:
    """Gauss sum of f * d xi/dw over the w-panels with nodes k*pi + phi.

    ``ks`` holds the panels' k, ``phi`` the node offsets within a panel and
    ``wts`` the matching weights in w.
    """
    sign = (1.0 - 2.0 * (ks % 2.0))[:, None]
    xi_s = (ks[:, None] * np.pi + phi) / t
    xi = xi_s ** (1.0 / s)
    vals = f(xi, xi_s, sign * sin_phi, sign * cos_phi)
    return float(np.sum((vals * (xi / xi_s)) @ wts)) / (s * t)


def singular_origin_integral(f, upper: float, *, rel_tol: float = 1e-9) -> float:
    """Integrate f over (0, upper] when f may have a power singularity at 0.

    Works down the dyadic panels [upper*2^-(j+1), upper*2^-j], each one
    Gauss rule of ORIGIN_ORDER nodes, which resolves a power law over a
    factor of 2; after ORIGIN_MAX_DEPTH panels (down to upper*2^-600, far
    below where a convergent integrand settles) it gives up.  For an
    integrand ~ c*xi^(-q) near zero the panel increments form a geometric
    sequence with ratio 2^(q-1); the integral converges iff that ratio is
    below one.  Divergence is declared once FLAT_RUNS successive increments
    each fail to decay below FLAT_RATIO times their predecessor (this also
    catches the marginal q = 1 log-divergence, whose increments are
    asymptotically constant).  Ratios are only counted past MIN_DEPTH
    panels, deep enough for any smooth envelope to flatten; the flip side
    is that exponents within ~0.04 of the divergence boundary are
    conservatively rejected.  For convergent integrals the remaining tail is
    added by geometric extrapolation.
    """
    total = 0.0
    prev_inc = None
    flat_count = 0
    last_ratio = None
    b = float(upper)
    for depth in range(ORIGIN_MAX_DEPTH):
        a = 0.5 * b
        inc = gauss_panels(f, np.array([a, b]), order=ORIGIN_ORDER)
        total += inc
        if prev_inc is not None and prev_inc > 0 and inc > 0:
            last_ratio = inc / prev_inc
            if depth >= MIN_DEPTH and last_ratio >= FLAT_RATIO:
                flat_count += 1
                if flat_count >= FLAT_RUNS:
                    raise DivergenceError(
                        f"integral diverges at the origin: dyadic increments "
                        f"stopped decaying (last ratio {last_ratio:.3f} over "
                        f"{FLAT_RUNS} panels, partial sum {total:.6e})"
                    )
            else:
                flat_count = 0
        if depth >= MIN_DEPTH and total == 0.0 and inc == 0.0:
            return 0.0
        if (depth >= MIN_DEPTH and total > 0 and inc < rel_tol * total
                and prev_inc is not None and inc <= prev_inc):
            # geometric tail below the last resolved panel
            if last_ratio is not None and last_ratio < FLAT_RATIO:
                total += inc * last_ratio / (1.0 - last_ratio)
            return total
        prev_inc = inc
        b = a
    raise NumericalFailureError(
        f"singular-origin integral did not settle within {ORIGIN_MAX_DEPTH} dyadic panels "
        f"(partial sum {total:.6e}, last increment {prev_inc!r})"
    )
