"""Quadrature engines shared across the package.

Every spectral norm of the quadrature backend and of the lemma oracles is one
integral, int |fhat|^2 |xi|^p m(t, xi) dxi, cut off at ``frequency_cutoff``.
It is evaluated by one of two rules, chosen by whether m oscillates:

* static integrands (t = 0 norms, Riesz energies with p < 0, H^s seminorms of
  profiles) -> ``static_integral``: ``singular_origin_integral`` on (0, 1],
  the dyadic panels of the oscillatory rule's head taken in xi, then
  EQUAL_PANELS equal Gauss-Legendre panels (``gauss_panels``) to the cutoff;
* oscillatory integrands with phase w = t*|xi|^s -> ``oscillatory_integral``,
  integrated in w.  The first LEAD_HALFPERIODS half-periods, the head, hold
  the algebraic |xi|^(2s) kink at the origin: there w is cut into the
  half-periods [k*pi, (k+1)*pi] and, below pi, into HEAD_DYADIC dyadic panels
  [pi*2^-(j+1), pi*2^-j], on which the integrand is a power of w times a
  smooth function, and each panel gets one Gauss rule of FILON_ORDER nodes.
  The rest, the body, goes to a Legendre-Filon rule in w.  A rule is its
  nodes plus the weights of the density's form there, built once per
  interval and applied to each density on it as a dot product.  In both
  rules ``_below_head`` adds the origin's tail, or raises DivergenceError.
  A rule from the origin that reaches past the head has the same 64 head
  panels in w at every t and s, so their nodes, sines, cosines and weights
  are a table per order s, built on first use (``_head_table``); at t,
  xi = (w/t)^(1/s) and every weight are the table's times c = t^(-1/s).

``gauss_panels`` also serves smooth integrands of the profiles and lemmas;
``adaptive``, a Gauss-Kronrod rule with global bisection, serves integrands
with kinks at places only it finds (|x - c|, the sign changes of a sum); a
kink it is told of, such as |x|^gamma at 0, is graded toward in advance.

The Filon body makes a norm at t = 1e6 cost about what one at t = 1e2 does.
Every density here is a quadratic form in (sin w, cos w), so in the variable
w the body integrand is A0(w) + A1(w) cos 2w + A2(w) sin 2w, whose
amplitudes do not oscillate.  Its panels are the static rule's xi-panels
with their edges moved to w = k*pi, so their number does not grow with the
number of turns of w, and the last, partial half-period is a panel of its
own.  A panel at most one half-period wide gets the head's Gauss rule.  On
each wider one A0 gets a Gauss sum, and A1 and A2 are replaced by their
Legendre interpolant at the same FILON_ORDER nodes, whose products with
e^(2iw) have exact moments (the Filon idea of Iserles & Norsett, Proc. R.
Soc. A 461 (2005) 1383, in the Legendre form of Bakhvalov & Vasil'eva, USSR
Comput. Math. Math. Phys. 8 (1968)).  The moments are spherical Bessel
functions j_k(omega) of the panel's width omega, a whole number m of
half-periods, whose phase e^(i(a+b)) is (-1)^m, so the weights depend on m
alone (``_whole_filon``): rows of a signed table below FILON_TABLE
half-periods, built once per process, and the cosine half of Hankel's
terminating form (DLMF 10.49.2) above.  Only the parts of a split panel, at
small t, take a phase of their own and ``_filon_weights``.  One pass writes
a rule's head and body rows into one node and weight set.  These settings
are module constants, the same for every norm.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DivergenceError, NumericalFailureError

#: spectral integrals stop where every transform is below this fraction of
#: its peak
CUTOFF_TOL = 1e-18

#: equal panels of the static rule on [1, cutoff], at least
EQUAL_PANELS = 63
#: Gauss nodes per panel of the oscillatory rule, head and body, and of the
#: static rule's head; the body's amplitudes are interpolated by Legendre
#: polynomials of one degree less.
#: 16 nodes left 1.5e-12 of a Gaussian norm (power-law amplitudes on the
#: ratio-2 panels at the origin) and 7e-11 of a CompactBump norm (two periods
#: of |fhat|^2 per panel); 24 leave under 1e-13 of both.
FILON_ORDER = 24
#: most panels a rule may take on [1, cutoff] or in one split, refused before
#: allocating: at about 4 kB a panel, a rule and its splits stay near 0.5 GB,
#: two threads of them under 2 GiB.  Data 1e12 apart would need 1e12
MAX_PANELS = 1 << 16
#: an oscillatory integral below this, taken on subnormal head weights at
#: tiny t, has lost digits to underflow and is refused (u(t) from u1 alone
#: is about t*u1, so its squared norm gets there below t = 1e-150)
MASS_FLOOR = 1e-300
#: a panel of the oscillatory rule wider than the data's ``panel_width`` is
#: split unless its share of the integral is below this
SPLIT_TOL = 1e-16
#: leading half-periods of w, which hold the |xi|^(2s) kink at 0: the head
LEAD_HALFPERIODS = 4
#: dyadic head panels below w = pi, and below xi = 1 in the static rule; the
#: part below pi*2^-HEAD_DYADIC is a share of about 2^(-HEAD_DYADIC (1 + p)/s)
#: of an |xi|^p-weighted spectral integral, and is extrapolated from the
#: panels above it
HEAD_DYADIC = 61
#: a Filon panel of at least this many half-periods takes its weights from
#: Hankel's closed form; a narrower one of whole half-periods from a table
FILON_TABLE = 32
#: Miller's backward recurrence starts this many orders above the highest
BESSEL_MILLER_EXTRA = 20
#: orders s whose head table (``_head_table``, about 60 kB each) is kept
HEAD_TABLES = 8


@functools.lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], per process."""
    return np.polynomial.legendre.leggauss(order)


def gauss_panels(f, edges: np.ndarray, order: int = 12) -> float:
    """Integrate a vectorized function over consecutive panels.

    Parameters
    ----------
    f : callable
        Accepts an ndarray of abscissae, returns integrand values.
    edges : ndarray
        Strictly increasing panel boundaries, shape (n+1,).
    order : int
        Gauss-Legendre order per panel.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        return 0.0
    nodes, weights = gauss_rule(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    vals = f(mid[:, None] + half[:, None] * nodes[None, :])
    return float(np.einsum("pj,j,p->", vals, weights, half))


# Kronrod-15 nodes on [0, 1] (descending, the last is 0), their weights, and
# the weights of the Gauss-7 rule on the odd-numbered ones (QUADPACK's qk15).
_KRONROD_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GAUSS7_W = np.array([0.0, 0.129484966168869693270611432679082,
                      0.0, 0.279705391489276667901467771423780,
                      0.0, 0.381830050505118944950369775488975,
                      0.0, 0.417959183673469387755102040816327])
_K15_X = np.concatenate([-_KRONROD_X[:-1], _KRONROD_X[::-1]])
_K15_W = np.concatenate([_KRONROD_W[:-1], _KRONROD_W[::-1]])
_G7_W = np.concatenate([_GAUSS7_W[:-1], _GAUSS7_W[::-1]])


def _kronrod(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod-15 integrals of f over the intervals [lo, hi], with QUADPACK's
    error estimates: the Gauss-7 difference, sharpened by the integrand's
    spread on the interval and floored at 50 rounding units of |f|'s
    integral."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _K15_X
    vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kronrod = vals @ _K15_W
    spread = np.abs(vals - 0.5 * kronrod[:, None]) @ _K15_W * np.abs(half)
    absolute = np.abs(vals) @ _K15_W * np.abs(half)
    err = np.abs((kronrod - vals @ _G7_W) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((spread > 0) & (err > 0),
                       spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5), err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * absolute)
    return kronrod * half, err


def adaptive(f, a: float, b: float, rel_tol: float = 1e-11, limit: int = 400,
             points=None) -> float:
    """Adaptive Gauss-Kronrod integration of a vectorized f on [a, b].

    [a, b] is first cut at the interior ``points``, each approached by a
    dyadic cascade of edges (``_graded_edges``), so that a kink or an
    |x - p|^gamma factor at p takes no bisection toward it (QUADPACK's
    grading for algebraic end-point singularities).  Each interval gets a
    Kronrod-15 rule and an error estimate (``_kronrod``); while the summed
    estimate exceeds rel_tol times the value, every interval whose estimate
    is above its even share of that target is bisected, worst first, up to
    ``limit`` intervals in all.  Raises NumericalFailureError when the
    estimate is not consistent with the requested relative tolerance, and
    at once when a rounding unit of the ends exceeds rel_tol/10 of b - a:
    the abscissae's rounding then moves the value by about rel_tol (a
    unit-width datum centred past 1e6, at rel_tol = 1e-10).
    """
    if not rel_tol * (b - a) >= 10.0 * np.spacing(max(abs(a), abs(b))):
        raise NumericalFailureError(
            f"adaptive quadrature cannot resolve [{a:.17g}, {b:.17g}]: a "
            f"rounding unit of its ends is more than rel_tol/10 = "
            f"{rel_tol / 10:g} of its width")
    inner = sorted(p for p in (points or ()) if a < p < b)
    edges = _graded_edges(np.array([a, *inner, b], dtype=float), rel_tol, limit)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _kronrod(f, lo, hi)
    while True:
        val, err = float(np.sum(vals)), float(np.sum(errs))
        target = rel_tol * abs(val)
        room = limit - lo.size
        if not np.isfinite(val) or err <= target or room <= 0:
            break
        worst = np.argsort(errs)[::-1]
        split = worst[errs[worst] > target / lo.size][:room]
        mid = 0.5 * (lo[split] + hi[split])
        new_vals, new_errs = _kronrod(f, np.concatenate([lo[split], mid]),
                                      np.concatenate([mid, hi[split]]))
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
    scale = max(abs(val), 1e-300)
    if not np.isfinite(val) or err > max(1e3 * rel_tol * scale, 1e-290):
        raise NumericalFailureError(
            f"adaptive quadrature on [{a:g}, {b:g}] did not converge: "
            f"value={val:.6e}, error estimate={err:.2e}"
        )
    return val


def _graded_edges(edges: np.ndarray, rel_tol: float, limit: int) -> np.ndarray:
    """``edges`` with each interior one p approached from both neighbours q
    by the dyadic cascade p + (q - p) 2^-j, j = 1..log2(1/rel_tol), cut to fit
    ``limit`` intervals; edges that round onto p or onto each other merge."""
    k = edges.size - 2
    depth = min(math.ceil(-math.log2(rel_tol)), (limit - k - 1) // max(2 * k, 1))
    p, q = edges[1:-1, None], np.stack([edges[:-2], edges[2:]])[..., None]
    return np.unique(np.append(edges, p + (q - p) * 0.5 ** np.arange(1, depth + 1)))


def log_spaced_panels(lo: float, hi: float, per_decade: int = 4) -> np.ndarray:
    """Geometrically spaced panel edges covering [lo, hi]."""
    if lo <= 0:
        raise ValueError("log panels need lo > 0")
    n = max(1, int(np.ceil(per_decade * np.log10(hi / lo))))
    return np.geomspace(lo, hi, n + 1)


def frequency_cutoff(profiles) -> float:
    """Upper limit of the spectral integrals of the given profiles.

    The largest ``frequency_radius()``, where |fhat|^2 is at most
    CUTOFF_TOL^2 of its peak.  Every norm of one data set, weighted by
    |xi|^p or not, stops there, so they all share the nodes of one rule.
    With no profiles the limit is 1.
    """
    radii = [p.frequency_radius() for p in profiles]
    return max(radii) if radii else 1.0


def support_hull(profiles) -> tuple[float, float]:
    """The hull of the profiles' ``support()``; (-1, 1) for none."""
    if not profiles:
        return -1.0, 1.0
    los, his = zip(*(p.support() for p in profiles))
    return min(los), max(his)


def panel_width(profiles) -> float:
    """Widest panel in xi that resolves |fhat|^2 of the given 1-d profiles.

    |fhat|^2 transforms f's autocorrelation, so data whose ``support_hull``
    has length L make it oscillate with period 2*pi/L or longer, and one
    Gauss-16 panel resolves two periods.  A hull that rounds to a point (a
    datum centred near 1e300) sets no width: where it sits changes nothing.
    """
    lo, hi = support_hull(profiles) if profiles else (0.0, 0.0)
    return 4.0 * np.pi / (hi - lo) if hi > lo else np.inf


def _equal_panels(lo: float, hi: float, width: float) -> np.ndarray:
    """Edges of EQUAL_PANELS equal panels on [lo, hi], or of more where that
    keeps each no wider than ``width``."""
    n = (hi - lo) / width
    _check_panel_count(n, "[{:g}, {:g}] in panels of width {:.3g}", lo, hi, width)
    return np.linspace(lo, hi, max(EQUAL_PANELS, int(np.ceil(n))) + 1)


def _check_panel_count(n: float, what: str, *args) -> None:
    """Raise NumericalFailureError, before allocating, when n > MAX_PANELS;
    ``what.format(*args)`` names the panels."""
    if not n <= MAX_PANELS:
        raise NumericalFailureError(f"{what.format(*args)} needs {n:.3g} panels, "
                                    f"more than MAX_PANELS = {MAX_PANELS}")


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
        head = singular_origin_integral(f, split)
    elif xi_lo < split:
        head = gauss_panels(f, log_spaced_panels(xi_lo, split), order=16)
    else:
        head = 0.0
    lo = max(xi_lo, 1.0)
    if xi_hi <= lo:
        return head
    return head + gauss_panels(f, _equal_panels(lo, xi_hi, width), order=16)


def singular_origin_integral(f, upper: float) -> float:
    """Integrate f over (0, upper] when f may have a power singularity at 0.

    The oscillatory rule's head, taken in xi: the HEAD_DYADIC dyadic panels
    [upper*2^-(j+1), upper*2^-j], each with a Gauss rule of FILON_ORDER
    nodes, which resolves a power law over a factor of 2.  f is evaluated
    once, on the nodes of every panel, and ``_below_head`` adds the
    geometric tail below the lowest.  For an integrand ~ c*xi^(-q) near
    zero it raises DivergenceError when q >= 1, and also in the band
    1 - 1/HEAD_DYADIC < q < 1, where the tail outweighs the panels.  Raises
    NumericalFailureError when f is not finite on a panel.
    """
    edges = upper * 0.5 ** np.arange(HEAD_DYADIC, -1, -1)
    nodes, weights = gauss_rule(FILON_ORDER)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    parts = f(mid[:, None] + half[:, None] * nodes[None, :]) @ weights * half
    if not np.all(np.isfinite(parts)):
        raise NumericalFailureError(
            f"the integrand is not finite on (0, {upper:g}]")
    return float(np.sum(parts)) + _below_head(parts)


def oscillatory_integral(f, t: float, s: float, xi_hi: float, *,
                         xi_lo: float = 0.0, width: float = np.inf,
                         rules: dict | None = None) -> float:
    """Integrate a density with phase w = t*xi^s over xi in [xi_lo, xi_hi].

    The density is a quadratic form in (sin w, cos w), and the routine owns
    the phase: ``f(xi, xi_s)`` takes arrays of the abscissae xi > 0 and of
    xi_s = xi^s and returns the coefficients (alpha, beta, gamma) of the
    integrand alpha sin^2 w + beta cos^2 w + gamma sin w cos w.

    At t <= 0 nothing oscillates and the integral is ``static_integral`` of
    beta, with panels no wider than ``width``.  Otherwise it is an
    ``_OscillatoryRule`` applied to f.  The rule depends on the arguments
    other than f alone; a dict ``rules`` keeps it under them, so that every
    density integrated over the same interval with that dict shares it.
    """
    if xi_hi <= xi_lo:
        return 0.0
    if t <= 0:
        return static_integral(lambda xi: f(xi, xi ** s)[1], xi_hi,
                               xi_lo=xi_lo, width=width)
    key = (t, s, xi_lo, xi_hi, width)
    rule = None if rules is None else rules.get(key)
    if rule is None:
        rule = _OscillatoryRule.build(t, s, xi_lo, xi_hi, width)
        if rules is not None:
            rules[key] = rule
    return rule.integrate(f)


class _OscillatoryRule:
    """The rule of ``oscillatory_integral`` on one interval.

    The integral is taken in w, times d xi/dw = xi/(s*w), on panels held as
    edges w = k*pi + d with integer k, so that the phase is known exactly
    however large w is.  The head, the first LEAD_HALFPERIODS half-periods
    of w, gets ``_head_edges``; the body gets ``_body_edges``.  Both rules
    are linear in the form (alpha, beta, gamma), so the rule is its nodes
    (xi, xi^s) and the three weight arrays of ``_form_weights``, and a
    panel's integral is a dot product with the form at its nodes.  A rule
    from the origin that reaches past the head takes the head's rows from
    ``_scaled_head``, the per-s table scaled to t, unless a scaled value
    leaves the normal doubles; split parts are always formed directly.

    A panel that spans more than ``width`` in xi is split into equal
    xi-parts unless its share of the integral is below SPLIT_TOL, where no
    error of it can show.  That share depends on the form, so ``integrate``
    splits; the rule on the parts is kept for the next form that splits the
    same panels.  A rule with no panel wider than ``width`` (``splits``
    False) sums its panels without that test.
    """

    def __init__(self, t, s, ka, da, kb, db, width=np.inf, from_origin=False,
                 head=None):
        self.t, self.s = t, s
        self.edges = (ka, da, kb, db)
        self.from_origin = from_origin
        self.xa = ((ka * np.pi + da) / t) ** (1.0 / s)
        self.xb = ((kb * np.pi + db) / t) ** (1.0 / s)
        self.pieces = np.ceil((self.xb - self.xa) / width)
        # whether any panel is wider than width, so that a form can split it
        self.splits = bool((self.pieces > 1).any())
        self.xi, self.xi_s, self.weights, self.faint = _form_weights(
            t, s, *self.edges, head=head)
        self._splits: dict[tuple, _OscillatoryRule] = {}

    @classmethod
    def build(cls, t: float, s: float, xi_lo: float, xi_hi: float,
              width: float = np.inf) -> "_OscillatoryRule":
        """The rule on [xi_lo, xi_hi] at t > 0, panels no wider than width,
        refused by ``check_time`` before it allocates."""
        w_lo = t * xi_lo ** s
        w_hi = t * xi_hi ** s
        k_lead = int(np.floor(w_lo / np.pi)) + LEAD_HALFPERIODS
        if w_lo > 0 or w_hi >= np.pi:
            check_time(t, s, w_lo or np.pi * 0.5 ** HEAD_DYADIC, k_lead)
        else:
            check_time(t, s, w_hi * 0.5 ** HEAD_DYADIC, k_lead, cutoff=xi_hi)
        head = _scaled_head(t, s) if w_lo == 0 and w_hi > k_lead * np.pi else None
        k, d = _head_edges(w_lo, w_hi, k_lead) if head is None else head[0]
        if w_hi > k_lead * np.pi:
            k_body, d_body = _body_edges(t, s, k_lead, w_hi, xi_hi, width)
            k, d = np.concatenate([k, k_body]), np.concatenate([d, d_body])
        return cls(t, s, k[:-1], d[:-1], k[1:], d[1:], width,
                   from_origin=w_lo == 0, head=None if head is None else head[1])

    def panels(self, f) -> np.ndarray:
        """The integral of the form f over each panel."""
        alpha, beta, gamma = f(self.xi, self.xi_s)
        weights = self.weights
        parts = np.sum(alpha * weights[0] + beta * weights[1]
                       + gamma * weights[2], axis=1)
        if self.faint is not None:
            rows, cols, gauss, sin_w = self.faint
            alpha = np.broadcast_to(alpha, self.xi.shape)[rows, cols]
            parts += np.bincount(rows, ((alpha * gauss) * sin_w) * sin_w,
                                 minlength=parts.size)
        return parts

    def integrate(self, f) -> float:
        """The integral of the form f over the rule's interval."""
        parts = self.panels(f)
        total = _below_head(parts) if self.from_origin else 0.0
        if not self.splits:
            total += float(np.sum(parts))
        else:
            split = (self.pieces > 1) & (np.abs(parts) > SPLIT_TOL * np.sum(np.abs(parts)))
            total += float(np.sum(parts[~split]))
            if np.any(split):
                which = tuple(np.nonzero(split)[0].tolist())
                sub = self._splits.get(which)
                if sub is None:
                    sub = self._splits[which] = self._split(which)
                total += float(np.sum(sub.panels(f)))
        if self.faint is not None and abs(total) < MASS_FLOOR:
            raise NumericalFailureError(
                f"at t = {self.t:g} the integral, {total:.3g}, has lost its "
                f"digits to underflow")
        return total

    def _split(self, which) -> "_OscillatoryRule":
        """The rule on the equal xi-parts of the panels ``which``."""
        t, s = self.t, self.s
        ka, da, kb, db = self.edges
        _check_panel_count(float(np.sum(self.pieces[list(which)])),
                           "splitting the rule at t = {:g}", t)
        sub = []
        for i in which:
            w = t * np.linspace(self.xa[i], self.xb[i], int(self.pieces[i]) + 1)[1:-1] ** s
            k = np.concatenate([[ka[i]], np.floor(w / np.pi), [kb[i]]])
            d = np.concatenate([[da[i]], w - k[1:-1] * np.pi, [db[i]]])
            sub.append((k[:-1], d[:-1], k[1:], d[1:]))
        return _OscillatoryRule(t, s, *(np.concatenate(e) for e in zip(*sub)))


def check_time(t: float, s: float, w_lowest: float = np.pi * 0.5 ** HEAD_DYADIC,
               k_lead: int = LEAD_HALFPERIODS, cutoff: float | None = None) -> None:
    """Raise NumericalFailureError, naming t and s, when xi^(2s) at the
    rule's lowest edge w_lowest (a density's 1/xi^(2s)) or xi at the head's
    end k_lead*pi (the body's first edge) is not a normal double; xi alone
    may underflow there.  The defaults are a rule from the origin with a
    full head, which runners check on the whole time grid before any
    sample.  ``cutoff`` is the data's frequency cutoff when t*cutoff^s sets
    w_lowest: t cancels from that edge's test, so its error names the
    cutoff instead."""
    tiny = np.finfo(float).tiny
    if cutoff is not None and not t * np.sqrt(tiny) <= w_lowest:
        raise NumericalFailureError(
            f"the data's frequency cutoff, {cutoff:g}, is too small for "
            f"s = {s:g}: the oscillatory rule's frequencies are not normal "
            f"doubles")
    if not (t * np.sqrt(tiny) <= w_lowest and t * tiny ** s <= k_lead * np.pi):
        raise NumericalFailureError(
            f"t = {t:g} is too large for s = {s:g}: the oscillatory rule's "
            f"frequencies are not normal doubles")


def _below_head(parts: np.ndarray) -> float:
    """The integral below the lowest dyadic head panel, in both rules.

    There the integrand is c*v^(q-1) for some q, in the head's variable v
    (w or xi), so the dyadic panels' integrals fall geometrically with ratio
    2^-q, read off the lowest two; the rest of the series is their geometric
    tail.  It is far below rounding for every weight |xi|^p with p >= 0, and
    makes up the part that an integrable singularity (p near -1) keeps close
    to the origin.  A ratio >= 1 (q <= 0) is a divergent integral, and so,
    as far as the panels can tell, is a tail larger in magnitude than their
    sum: that refuses the band 0 < q < 1/HEAD_DYADIC as well.
    """
    ratio = parts[0] / parts[1] if parts[1] != 0 else 0.0
    tail = float(parts[0] * ratio / (1.0 - ratio)) if 0.0 < ratio < 1.0 else 0.0
    resolved = float(np.sum(parts))
    if ratio >= 1.0 or abs(tail) > abs(resolved):
        raise DivergenceError(
            f"integral diverges at the origin, or is within 1/{HEAD_DYADIC} of "
            f"doing so (lowest dyadic panel ratio {ratio:.4f}, tail "
            f"{tail:.6e}, panels' sum {resolved:.6e})")
    return tail


def _head_edges(w_lo: float, w_hi: float, k_lead: int):
    """(k, d) of the head's edges k*pi + d, in order.

    The head runs from w_lo to w_end = min(w_hi, k_lead*pi).  Its edges are
    the whole half-periods k*pi and, below b = min(pi, w_end), the dyadic
    points b*2^-j for j <= HEAD_DYADIC.  A head that starts at w = 0 starts
    at the last of these instead, and ``_below_head`` adds what lies below.
    """
    if w_hi >= k_lead * np.pi:
        w_end, k_end = k_lead * np.pi, float(k_lead)
    else:
        w_end, k_end = w_hi, np.floor(w_hi / np.pi)
    top = min(np.pi, w_end)
    dyadic = top * 0.5 ** np.arange(HEAD_DYADIC, 0, -1)
    whole = np.arange(np.floor(w_lo / np.pi) + 1.0, k_lead + 1.0)
    w = np.concatenate([dyadic, np.pi * whole])
    k = np.concatenate([np.zeros(HEAD_DYADIC), whole])
    first = w_lo if w_lo > 0 else dyadic[0]
    inner = (w > first) & (w < w_end)
    k_first = np.floor(first / np.pi)
    ks = np.concatenate([[k_first], k[inner], [k_end]])
    ds = np.concatenate([[first - k_first * np.pi],
                         w[inner] - k[inner] * np.pi,
                         [w_end - k_end * np.pi]])
    return ks, ds


def _body_edges(t, s, k_lead, w_hi, xi_hi, width):
    """(k, d) of the Filon panels' edges k*pi + d on (k_lead*pi, w_hi].

    The xi-edges are those of the static rule: ratio-2 panels from the head's
    end up to 1, then ``_equal_panels``.  Each is moved to the nearest k*pi
    (d = 0), so that every panel spans whole half-periods, but the partial
    half-period [floor(w_hi/pi)*pi, w_hi] at the end, which is a panel of its
    own.  At small t that merges panels into half-periods wider than
    ``width``, which ``oscillatory_integral`` splits.
    """
    xi_lead = (k_lead * np.pi / t) ** (1.0 / s)
    xi_edges = [_equal_panels(max(xi_lead, 1.0), xi_hi, width)]
    if xi_lead < 1.0:
        xi_edges.insert(0, 0.5 ** np.arange(np.ceil(-np.log2(xi_lead)) - 1, 0, -1))
    k_end = np.floor(w_hi / np.pi)
    k = np.round(t * np.concatenate(xi_edges) ** s / np.pi)
    # the xi-edges ascend, so the k do: keep the last of each run of equal k
    k = k[np.concatenate([k[1:] != k[:-1], [True]]) & (k > k_lead) & (k < k_end)]
    partial = w_hi > k_end * np.pi
    k = np.concatenate([k, [k_end] * (int(k_end > k_lead) + int(partial))])
    d = np.zeros_like(k)
    if partial:
        d[-1] = w_hi - k_end * np.pi
    return k, d


@functools.lru_cache(maxsize=HEAD_TABLES)
def _head_table(s: float):
    """The head of every rule from the origin at order s, as
    (edges, w, w^(1/s), weights, low, high): ``_form_weights`` at t = 1 on
    the edges of ``_head_edges`` with a full head, and the least and the
    greatest of w^(1/s) and |weights|.  None where one of these is not a
    normal double (at s below about 0.07).  Built on first use per s."""
    k, d = edges = _head_edges(0.0, LEAD_HALFPERIODS * np.pi, LEAD_HALFPERIODS)
    root, w, weights, faint = _form_weights(1.0, s, k[:-1], d[:-1], k[1:], d[1:])
    magnitudes = np.abs(weights)
    low = min(root.min(), magnitudes.min())
    high = max(root.max(), magnitudes.max())
    info = np.finfo(float)
    if faint is not None or not info.tiny <= low <= high <= info.max:
        return None
    return edges, w, root, weights, low, high


def _scaled_head(t: float, s: float):
    """(edges, (c, w^(1/s), w, weights)) of the head of a rule from the
    origin at t, from ``_head_table``: with c = t^(-1/s), xi = (w/t)^(1/s)
    is c*w^(1/s) and every weight is c times its value at t = 1.  None where
    c or a scaled value leaves the normal doubles; the head is then formed
    like the body, which handles subnormal weights (``faint``)."""
    table = _head_table(s)
    if table is None:
        return None
    edges, w, root, weights, low, high = table
    c = t ** (-1.0 / s)
    info = np.finfo(float)
    if not (info.tiny <= c and info.tiny <= c * low and c * high <= info.max):
        return None
    return edges, (c, root, w, weights)


def _form_weights(t, s, ka, da, kb, db, head=None):
    """Nodes and form weights on the w-panels [ka*pi + da, kb*pi + db].

    Returns xi and xi^s at FILON_ORDER Gauss nodes per panel, and the
    weights of (alpha, beta, gamma) there, stacked on a first axis of 3.
    ``head``, from ``_scaled_head``, gives the first panels' rows instead.
    The integrand is the form times the Jacobian jac = d xi/dw = xi/(s*w).
    On a panel at most one half-period wide (the head's, and the body's last
    and single half-periods) the Gauss rule takes the form itself, with
    sin w and cos w from the offset w - ka*pi (the form is unchanged by the
    sign (-1)^ka): node j of a panel of half-width h has the weights
    h w_j jac (sin^2 w, cos^2 w, sin w cos w).  In the head the amplitudes
    can be as singular as xi^(-2s) while the form stays bounded, so they are
    never integrated apart.

    On a wider panel the form is A0 + Re((A1 - i A2) e^(2iw)) with
    A0 = (alpha + beta)/2, A1 = (beta - alpha)/2 and A2 = gamma/2.  On a
    panel [a, b], w = (a + b)/2 + h*x and

        int_a^b G(w) e^(2iw) dw = h e^(i(a+b)) int_{-1}^{1} G e^(i(b-a)x) dx,

    whose right-hand side is the sum of the Legendre coefficients of G times
    the moments int_{-1}^{1} P_k(x) e^(i omega x) dx = 2 i^k j_k(omega), with
    j_k the spherical Bessel function and omega = b - a.  With pf_j the
    Filon weight of node j times the phase e^(i(a+b)), the node's weights
    are h jac/2 times ``_filon_parts``.  An unsplit rule's wide panels span
    m whole half-periods, whose phase is (-1)^m: they take ``_whole_filon``.

    At tiny t a head weight gauss*sin^2 w can be subnormal where alpha =
    |u1hat|^2/xi^(2s) is large.  Such weights are set to 0, and ``faint`` =
    (rows, columns, gauss, sin w) of their nodes lets ``panels`` take
    ((alpha*gauss)*sin w)*sin w there; it is None at every t > 1e-100.
    """
    xi, xi_s = np.empty((2, ka.size, FILON_ORDER))
    weights = np.empty((3,) + xi.shape)
    first = 0
    if head is not None:
        c, root, w_head, table = head
        first = root.shape[0]
        np.multiply(c, root, out=xi[:first])
        np.divide(w_head, t, out=xi_s[:first])
        np.multiply(c, table, out=weights[:, :first])
        ka, da, kb, db = ka[first:], da[first:], kb[first:], db[first:]
    omega = (kb - ka) * np.pi + (db - da)
    half = 0.5 * omega
    x, wts = gauss_rule(FILON_ORDER)
    offset = da[:, None] + half[:, None] * (1.0 + x)
    w = ka[:, None] * np.pi + offset
    body_s = np.divide(w, t, out=xi_s[first:])
    body_xi = np.power(body_s, 1.0 / s, out=xi[first:])
    scale = half[:, None] * (body_xi / (s * w))
    body = weights[:, first:]

    narrow = omega <= np.pi
    sin_w, cos_w = np.sin(offset[narrow]), np.cos(offset[narrow])
    gauss = scale[narrow] * wts
    body[0, narrow] = sin2 = gauss * sin_w ** 2
    faint, tiny = None, np.finfo(float).tiny
    if sin2.min(initial=np.inf) < tiny:
        r, cols = np.nonzero(sin2 < tiny)
        rows = np.nonzero(narrow)[0][r]
        body[0, rows, cols] = 0.0
        faint = (rows + first, cols, gauss[r, cols], sin_w[r, cols])
    body[1, narrow] = gauss * cos_w ** 2
    body[2, narrow] = gauss * (sin_w * cos_w)

    wide = ~narrow
    if wide.any():
        ka, da, kb, db = ka[wide], da[wide], kb[wide], db[wide]
        if da.any() or db.any():
            # the parts of split panels, each with a phase of its own
            phase = (1.0 - 2.0 * ((ka + kb) % 2.0)) * np.exp(1j * (da + db))
            parts = _filon_parts(phase[:, None] * _filon_weights(kb - ka, db - da))
        else:
            parts = _whole_filon(kb - ka)
        body[:, wide] = (0.5 * scale[wide]) * parts
    for a in (xi, xi_s, weights):
        a.setflags(write=False)
    return xi, xi_s, weights, faint


def _whole_filon(m: np.ndarray) -> np.ndarray:
    """``_filon_parts`` of (-1)^m times the Filon weights of m >= 2 whole
    half-periods: the rows of ``_filon_table`` below FILON_TABLE, and above
    the cosine half of Hankel's form, as sin(m*pi) = 0 and (-1)^m cos(m*pi)
    = 1: the powers (1/(m*pi))^(p+1) times the second of ``_hankel_maps``."""
    # a row from FILON_TABLE up reads the table's last, then is replaced
    out = _filon_table().take(np.minimum(m, FILON_TABLE - 1).astype(int) - 2, 1)
    far = m >= FILON_TABLE
    if far.any():
        u = 1.0 / (m[far] * np.pi)
        out[:, far] = _filon_parts((u[:, None] * u[:, None] ** np.arange(
            FILON_ORDER)) @ _hankel_maps(FILON_ORDER)[1])
    return out


def _filon_parts(pf: np.ndarray) -> np.ndarray:
    """(w_j - Re pf_j, w_j + Re pf_j, Im pf_j) of phased Filon weights pf,
    stacked on a first axis of 3."""
    wts = gauss_rule(FILON_ORDER)[1]
    return np.stack([wts - pf.real, wts + pf.real, pf.imag])


def _filon_weights(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The Filon weights j_k(omega) @ ``_moment_map`` of panels of width
    omega = m*pi + d > pi, shape omega.shape + (FILON_ORDER,): from
    FILON_TABLE*pi up the closed Hankel form of ``_hankel_maps``, two matrix
    products with the powers of 1/omega, where sin omega = (-1)^m sin d and
    cos omega = (-1)^m cos d are exact however large m is, and below it
    ``_spherical_jn``.  Only ``_filon_table`` and split parts take them.
    """
    omega = m * np.pi + d
    out = np.empty(omega.shape + (FILON_ORDER,), dtype=complex)
    far = omega >= FILON_TABLE * np.pi
    if np.any(far):
        u = 1.0 / omega[far]
        sign = 1.0 - 2.0 * (m[far] % 2.0)
        powers = (sign * u)[:, None] * u[:, None] ** np.arange(FILON_ORDER)
        by_sin, by_cos = _hankel_maps(FILON_ORDER)
        out[far] = ((powers * np.sin(d[far])[:, None]) @ by_sin
                    + (powers * np.cos(d[far])[:, None]) @ by_cos)
    if not np.all(far):
        out[~far] = (_spherical_jn(FILON_ORDER, omega[~far])
                     @ _moment_map(FILON_ORDER))
    return out


@functools.lru_cache(maxsize=None)
def _filon_table() -> np.ndarray:
    """[:, m - 2] holds ``_filon_parts`` of (-1)^m times the Filon weights
    of omega = m*pi, 2 <= m < FILON_TABLE.  Built on first use, once per
    process, so that importing the module stays cheap."""
    m = np.arange(2.0, FILON_TABLE)
    sign = 1.0 - 2.0 * (m % 2.0)
    table = _filon_parts(sign[:, None] * _filon_weights(m, np.zeros_like(m)))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _hankel_maps(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices taking the powers (1/omega)^(p+1), p < order, to the Filon
    weights' parts in sin omega and in cos omega.

    Hankel's expansion terminates for half-integer orders (DLMF 10.49.2):

        omega j_n(omega) = sin(omega - n pi/2) sum_(k even) (-1)^(k/2) a_k u^k
                         + cos(omega - n pi/2) sum_(k odd) (-1)^((k-1)/2) a_k u^k

    with u = 1/omega and a_k = (n + k)!/(2^k k! (n - k)!), k <= n.  Expanding
    the shifted sine and cosine gives omega j_n = S_n(u) sin omega +
    C_n(u) cos omega; the coefficient matrices S and C, each folded into
    ``_moment_map``, are the two maps.  From omega = 32 pi up it is
    within 7e-18 of j_n; at omega = 16 pi it is 1.4e-16 off, as its terms
    for n = 23 grow to about 40 there (4 at 32 pi) before they cancel.
    """
    by_sin, by_cos = np.zeros((order, order)), np.zeros((order, order))
    for n in range(order):
        c, s = (1, 0, -1, 0)[n % 4], (0, 1, 0, -1)[n % 4]
        for k in range(n + 1):
            a = math.factorial(n + k) // (
                2 ** k * math.factorial(k) * math.factorial(n - k))
            coeff = float((-1) ** (k // 2) * a)
            # the even powers carry sin(omega - n pi/2), the odd ones cos
            sin_part, cos_part = (c, -s) if k % 2 == 0 else (s, c)
            by_sin[k, n], by_cos[k, n] = sin_part * coeff, cos_part * coeff
    moments = _moment_map(order)
    return by_sin @ moments, by_cos @ moments


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


def _spherical_jn(order: int, omega: np.ndarray) -> np.ndarray:
    """j_k(omega) for k < order and omega > pi, shape omega.shape + (order,).

    Two classical rules, each where it is stable:

    * omega >= order - 1: the upward recurrence
      j_(k+1) = (2k + 1)/omega j_k - j_(k-1) from j_0 = sin(omega)/omega and
      j_1 = (j_0 - cos omega)/omega, stable while k <= omega;
    * below: Miller's backward recurrence from BESSEL_MILLER_EXTRA orders
      above the highest, scaled to the closed forms of j_0 and j_1 by least
      squares (j_0 alone has zeros).

    Only the Filon weights of ``_filon_table`` and of split panels narrower
    than FILON_TABLE half-periods come from here; a panel of omega <= pi
    takes the Gauss rule instead.
    """
    omega = np.asarray(omega, dtype=float)
    out = np.empty(omega.shape + (order,))
    upward = omega >= order - 1
    miller = ~upward
    if np.any(upward):
        x = omega[upward]
        j = np.empty(x.shape + (order,))
        j[:, 0] = np.sin(x) / x
        j[:, 1] = (j[:, 0] - np.cos(x)) / x
        for k in range(1, order - 1):
            j[:, k + 1] = (2 * k + 1) / x * j[:, k] - j[:, k - 1]
        out[upward] = j
    if np.any(miller):
        x = omega[miller]
        j = np.empty(x.shape + (order,))
        ahead, here = np.zeros_like(x), np.ones_like(x)
        for k in range(order + BESSEL_MILLER_EXTRA, 0, -1):
            ahead, here = here, (2 * k + 1) / x * here - ahead
            if k <= order:
                j[:, k - 1] = here
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        scale = (j0 * j[:, 0] + j1 * j[:, 1]) / (j[:, 0] ** 2 + j[:, 1] ** 2)
        out[miller] = j * scale[:, None]
    return out
