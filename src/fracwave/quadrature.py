"""Quadrature engines shared across the package.

Every spectral norm of the quadrature backend and of the lemma oracles is one
integral, int |fhat|^2 |xi|^p m(t, xi) dxi, cut off at ``frequency_cutoff``.
It is evaluated by one of two rules, chosen by whether m oscillates:

* static integrands (t = 0 norms, Riesz energies with p < 0, H^s seminorms of
  profiles) -> ``static_integral``: ``singular_origin_integral`` on (0, 1],
  which resolves the |xi|^p kink or singularity at the origin and detects a
  divergent one (settings ORIGIN_ORDER, ORIGIN_MAX_DEPTH, FLAT_RATIO,
  FLAT_RUNS, MIN_DEPTH), then EQUAL_PANELS equal Gauss-Legendre panels
  (``gauss_panels``) out to the cutoff;
* oscillatory integrands with phase w = t*|xi|^s -> ``oscillatory_integral``:
  the first LEAD_HALFPERIODS half-periods go to adaptive quadrature in xi
  (at LEAD_REL_TOL) because the integrand has an algebraic |xi|^(2s) kink at
  the origin, and the rest, the body, to a Legendre-Filon rule in w.

``gauss_panels`` and ``adaptive`` also serve the smooth integrands of the
estimates and the profile norms.

The Filon body makes a norm at t = 1e6 cost about what one at t = 1e2 does.
Every density here is a quadratic form in (sin w, cos w), so in the variable
w the body integrand is A0(w) + A1(w) cos 2w + A2(w) sin 2w, whose
amplitudes do not oscillate.  Its panels are the static rule's xi-panels
with their edges moved to w = k*pi, so their number does not grow with the
number of turns of w.  On each panel A0 gets a Gauss sum, and A1 and A2 are
replaced by their Legendre interpolant at the same FILON_ORDER nodes, whose
products with e^(2iw) have exact moments (the Filon idea of Iserles &
Norsett, Proc. R. Soc. A 461 (2005) 1383, in the Legendre form of Bakhvalov
& Vasil'eva, USSR Comput. Math. Math. Phys. 8 (1968)).  These settings are
module constants, the same for every norm.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import spherical_jn

from .errors import DivergenceError, NumericalFailureError

#: spectral integrals stop where every transform is below this fraction of
#: its peak
CUTOFF_TOL = 1e-18

#: equal panels of the static rule on [1, cutoff], at least
EQUAL_PANELS = 63
#: Gauss nodes per panel of the Filon body; the amplitudes are interpolated
#: by Legendre polynomials of one degree less.  16 nodes left 1.5e-12 of a
#: Gaussian norm (power-law amplitudes on the ratio-2 panels at the origin)
#: and 7e-11 of a CompactBump norm (two periods of |fhat|^2 per panel); 24
#: leave under 1e-13 of both.
FILON_ORDER = 24
#: a Filon panel wider than the data's ``panel_width`` is split unless its
#: share of the integral is below this
SPLIT_TOL = 1e-16
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


def _equal_panels(lo: float, hi: float, width: float) -> np.ndarray:
    """Edges of EQUAL_PANELS equal panels on [lo, hi], or of more where that
    keeps each no wider than ``width``."""
    n = max(EQUAL_PANELS, int(np.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, n + 1)


def static_integral(f, xi_hi: float, *, xi_lo: float = 0.0,
                    width: float = np.inf) -> float:
    """Integrate a non-oscillatory f over [xi_lo, xi_hi].

    The part in (0, 1] goes to ``singular_origin_integral``, which resolves a
    power-law kink or singularity at the origin and raises DivergenceError
    for a non-integrable one.  [1, xi_hi] gets Gauss-16 panels on
    ``_equal_panels``, no wider than ``width`` (``panel_width``).
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
    return head + gauss_panels(f, _equal_panels(lo, xi_hi, width), order=16)


def oscillatory_integral(f, t: float, s: float, xi_hi: float, *,
                         xi_lo: float = 0.0, width: float = np.inf) -> float:
    """Integrate a density with phase w = t*xi^s over xi in [xi_lo, xi_hi].

    The density is a quadratic form in (sin w, cos w), and the routine owns
    the phase: ``f(xi, xi_s)`` takes arrays (or scalars) of the abscissae
    xi > 0 and of xi_s = xi^s and returns the coefficients (alpha, beta,
    gamma) of the integrand alpha sin^2 w + beta cos^2 w + gamma sin w cos w.

    At t <= 0 nothing oscillates and the integral is ``static_integral`` of
    beta, with panels no wider than ``width``.  Otherwise the first
    LEAD_HALFPERIODS half-periods of w (where xi^(2s)-type kinks live when
    the interval starts at 0) go to adaptive quadrature in xi, which composes
    the form with sin and cos of its own points.  The rest, the body, is
    integrated in w by ``_filon_body``, as A0 + A1 cos 2w + A2 sin 2w with
    A0 = (alpha + beta)/2, A1 = (beta - alpha)/2 and A2 = gamma/2, each
    times d xi/dw.  Its panels are the static rule's, so their number grows
    with t only through the ratio-2 panels below xi = 1, that is as log t.
    """
    if xi_hi <= xi_lo:
        return 0.0

    def pointwise(xi):
        xi_s = xi ** s
        w = t * xi_s
        sin_w, cos_w = np.sin(w), np.cos(w)
        alpha, beta, gamma = f(xi, xi_s)
        return alpha * sin_w ** 2 + beta * cos_w ** 2 + gamma * (sin_w * cos_w)

    if t <= 0:
        return static_integral(lambda xi: f(xi, xi ** s)[1], xi_hi,
                               xi_lo=xi_lo, width=width)

    w_lo = t * xi_lo ** s
    w_hi = t * xi_hi ** s
    k_lo = int(np.floor(w_lo / np.pi))
    k_hi = int(np.ceil(w_hi / np.pi))

    if k_hi - k_lo <= LEAD_HALFPERIODS + 1:
        return adaptive(pointwise, xi_lo, xi_hi, rel_tol=LEAD_REL_TOL)

    k_lead = k_lo + LEAD_HALFPERIODS
    xi_lead = (k_lead * np.pi / t) ** (1.0 / s)
    head = adaptive(pointwise, xi_lo, xi_lead, rel_tol=LEAD_REL_TOL)
    return head + _filon_body(f, t, s, k_lead, xi_lead, xi_hi, width, head)


def _filon_body(f, t, s, k_lead, xi_lead, xi_hi, width, scale) -> float:
    """Legendre-Filon integral in w of the form f over [k_lead*pi, w_hi].

    Each panel edge is held as w = k*pi + d with integer k and a small offset
    d, so e^(2iw) = e^(2id) is exact however large w is.  The xi-edges are
    those of the static rule: ratio-2 panels from xi_lead up to 1, then
    ``_equal_panels``.  Each is moved to the nearest k*pi (d = 0); the last
    edge is w_hi itself.  At small t that merges panels into half-periods
    wider than ``width``; such a panel is split into equal xi-parts unless
    its share of the integral (``scale`` being the rest of it) is below
    SPLIT_TOL, where no error of it can show.
    """
    w_hi = t * xi_hi ** s
    xi_edges = [_equal_panels(max(xi_lead, 1.0), xi_hi, width)]
    if xi_lead < 1.0:
        xi_edges.insert(0, 0.5 ** np.arange(np.ceil(-np.log2(xi_lead)) - 1, 0, -1))
    k = np.unique(np.round(t * np.concatenate(xi_edges) ** s / np.pi))
    k = k[(k > k_lead) & (k * np.pi < w_hi)]
    k_end = np.floor(w_hi / np.pi)
    ks = np.concatenate([[float(k_lead)], k, [k_end]])
    ds = np.zeros_like(ks)
    ds[-1] = w_hi - k_end * np.pi

    parts = _filon_panels(f, t, s, ks[:-1], ds[:-1], ks[1:], ds[1:])
    xi = ((ks * np.pi + ds) / t) ** (1.0 / s)
    pieces = np.ceil(np.diff(xi) / width)
    split = (pieces > 1) & (np.abs(parts) > SPLIT_TOL * (abs(scale) + np.sum(np.abs(parts))))
    total = float(np.sum(parts[~split]))
    if np.any(split):
        ka, da, kb, db = [], [], [], []
        for i in np.nonzero(split)[0]:
            w = t * np.linspace(xi[i], xi[i + 1], int(pieces[i]) + 1)[1:-1] ** s
            k = np.concatenate([[ks[i]], np.floor(w / np.pi), [ks[i + 1]]])
            d = np.concatenate([[ds[i]], w - k[1:-1] * np.pi, [ds[i + 1]]])
            ka.append(k[:-1])
            da.append(d[:-1])
            kb.append(k[1:])
            db.append(d[1:])
        total += float(np.sum(_filon_panels(
            f, t, s, *map(np.concatenate, (ka, da, kb, db)))))
    return total


def _filon_panels(f, t, s, ka, da, kb, db) -> np.ndarray:
    """Integrals of the form f over the w-panels [ka*pi + da, kb*pi + db].

    On a panel [a, b] with half-width h, w = (a + b)/2 + h*x and

        int_a^b G(w) e^(2iw) dw = h e^(i(a+b)) int_{-1}^{1} G e^(i(b-a)x) dx,

    whose right-hand side is the sum of the Legendre coefficients of G times
    the moments int_{-1}^{1} P_k(x) e^(i omega x) dx = 2 i^k j_k(omega), with
    j_k the spherical Bessel function and omega = b - a.  The integrand is
    A0 + Re((A1 - i A2) e^(2iw)) times the Jacobian d xi/dw = xi/(s*w).
    """
    omega = (kb - ka) * np.pi + (db - da)
    half = 0.5 * omega
    sign = 1.0 - 2.0 * ((ka + kb) % 2.0)
    phase = sign * np.exp(1j * (da + db))

    x, wts = gauss_rule(FILON_ORDER)
    w = (ka * np.pi + da)[:, None] + half[:, None] * (1.0 + x)
    xi_s = w / t
    xi = xi_s ** (1.0 / s)
    jac = xi / (s * w)
    alpha, beta, gamma = f(xi, xi_s)
    mean = (0.5 * (alpha + beta) * jac) @ wts
    wave = (0.5 * (beta - alpha) - 0.5j * gamma) * jac

    filon_wts = spherical_jn(np.arange(FILON_ORDER), omega[:, None]) @ _moment_map(FILON_ORDER)
    osc = (phase * np.einsum("pj,pj->p", filon_wts, wave)).real
    return half * (mean + osc)


@functools.lru_cache(maxsize=None)
def _moment_map(order: int) -> np.ndarray:
    """Matrix taking j_k(omega), k < order, to Filon weights at the nodes.

    Row k is 2 i^k times (k + 1/2) w_j P_k(x_j), the Gauss sum that projects
    values at the nodes onto P_k: exact for their degree-(order - 1)
    interpolant.
    """
    nodes, weights = gauss_rule(order)
    degree = np.arange(order)
    analysis = (degree + 0.5)[:, None] * (
        np.polynomial.legendre.legvander(nodes, order - 1) * weights[:, None]).T
    return (2.0 * 1j ** (degree % 4))[:, None] * analysis


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
