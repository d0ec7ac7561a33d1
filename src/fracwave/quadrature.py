"""Quadrature engines shared across the package.

Every spectral norm of the quadrature backend and of the lemma oracles is one
integral, int |fhat|^2 |xi|^p m(t, xi) dxi, cut off at ``frequency_cutoff``.
It is evaluated by one of two rules, chosen by whether m oscillates:

* static integrands (t = 0 norms, Riesz energies with p < 0, H^s seminorms of
  profiles) -> ``static_integral``: ``singular_origin_integral`` on (0, 1],
  the dyadic panels of the oscillatory rule's head taken in xi, then Gauss
  panels (``gauss_panels``) to the cutoff on the graded layout of
  ``_graded_panels``: ratio-2 panels from 1 while they are no wider than the
  data's ``panel_width``, then as few equal ones as keep within it;
* oscillatory integrands with phase w = t*|xi|^s -> ``oscillatory_integral``,
  integrated in w.  The first LEAD_HALFPERIODS half-periods, the head, hold
  the algebraic |xi|^(2s) kink at the origin: there w is cut into the
  half-periods [k*pi, (k+1)*pi] and, below pi, into HEAD_DYADIC dyadic panels
  [pi*2^-(j+1), pi*2^-j], on which the integrand is a power of w times a
  smooth function, and each panel gets one Gauss rule of FILON_ORDER nodes.
  The rest, the body, goes to a Legendre-Filon rule in w.  A rule is its
  nodes plus the weights of the density's form there, kept per interval and
  applied to each density on it as a dot product; the rules of many t on
  one interval are built together (``oscillatory_rules``), with the bits of
  each rule's own build.  In both rules ``_below_head`` adds the origin's
  tail, or raises DivergenceError.
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
amplitudes do not oscillate.  Its panels are the graded layout from the
head's end, narrowed by the moves of their edges to w = k*pi, so their
number does not grow with the number of turns of w, and the last, partial
half-period is a panel of its own.  Every panel is one of two kinds.  On a
panel of m >= 2 whole half-periods A0 gets a Gauss sum, and A1 and A2 are
replaced by their Legendre interpolant at the same FILON_ORDER nodes, whose
products with e^(2iw) have exact moments (the Filon idea of Iserles &
Norsett, Proc. R. Soc. A 461 (2005) 1383, in the Legendre form of Bakhvalov
& Vasil'eva, USSR Comput. Math. Math. Phys. 8 (1968)).  The moments are
spherical Bessel functions j_k(omega) of the panel's width omega = m*pi,
whose phase e^(i(a+b)) is (-1)^m, so the weights depend on m alone
(``_whole_filon``): rows of a signed table below FILON_TABLE half-periods,
built once per process, and the cosine half of Hankel's terminating form
(DLMF 10.49.2) above.  Every other panel, at most one half-period wide, gets
the head's Gauss rule: the head's, the body's last, and the parts of a
panel wider than the data's ``panel_width``, which at small t is split on
``_graded_panels`` too.  Each panel's weights are a product of its own
(``_by_rows``), the same bits whichever panels share its call.  One pass
writes a rule's head and body rows into one node and weight set.  These
settings are module constants, the same for every norm.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DivergenceError, NumericalFailureError

#: spectral integrals stop where every transform is below this fraction of
#: its peak
CUTOFF_TOL = 1e-18

#: Gauss nodes per panel of the oscillatory rule, head and body, and of the
#: static rule's head; the body's amplitudes are interpolated by Legendre
#: polynomials of one degree less.
#: 16 nodes left 1.5e-12 of a Gaussian norm (power-law amplitudes on the
#: ratio-2 panels at the origin) and 7e-11 of a CompactBump norm (two periods
#: of |fhat|^2 per panel); 24 leave under 1e-13 of both.
FILON_ORDER = 24
#: most panels a rule may take above its head or in one split, refused before
#: allocating: at about 4 kB a panel, a rule and its splits stay near
#: 0.5 GB.  Data 1e12 apart would need 1e12
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


def _graded_panels(lo: float, hi: float, width: float) -> np.ndarray:
    """Edges of both rules' panels above their heads, on [lo, hi], 0 < lo:
    ratio-2 edges lo*2^j while a ratio-2 panel is no wider than ``width``,
    which resolve a power of xi at every scale (Gauss convergence is set by
    the distance of the singularity at xi = 0 relative to the panel, as in
    Trefethen, SIAM Rev. 50 (2008) 67), then the fewest equal panels to hi
    within ``width``.  hi <= lo gives the edges [lo, hi]."""
    octave = math.log2(lo)
    ratio = max(0, math.floor(min(math.ceil(math.log2(hi) - octave) - 1,
                                  math.log2(width) - octave + 1)))
    if ratio and math.ldexp(lo, ratio) >= hi:
        # hi/lo a power of 2 (a split dyadic head panel) rounds the ceil up
        ratio -= 1
    start = math.ldexp(lo, ratio)
    n = (hi - start) / width
    _check_panel_count(n + ratio, "[{:g}, {:g}] in panels of width {:.3g}", lo, hi, width)
    n = max(1, math.ceil(n))
    edges = np.concatenate([np.ldexp(lo, np.arange(ratio)),
                            np.arange(n + 1) * ((hi - start) / n) + start])
    edges[-1] = hi
    return edges


def _check_panel_count(n: float, what: str, *args) -> None:
    """Raise NumericalFailureError, before allocating, when n > MAX_PANELS;
    ``what.format(*args)`` names the panels."""
    if not n <= MAX_PANELS:
        raise NumericalFailureError(f"{what.format(*args)} needs {n:.3g} panels, "
                                    f"more than MAX_PANELS = {MAX_PANELS}")


def static_integral(f, xi_hi: float, *, xi_lo: float = 0.0,
                    width: float = np.inf) -> float:
    """Integrate a non-oscillatory f over [xi_lo, xi_hi].

    An interval from the origin has its part in (0, 1] taken by
    ``singular_origin_integral``, which resolves a power-law kink or
    singularity at the origin and raises DivergenceError for a
    non-integrable one, and the rest from 1.  The rest, or an interval from
    xi_lo > 0, gets Gauss-16 panels on ``_graded_panels``: ratio-2 panels
    while they are no wider than ``width`` (``panel_width``), then equal ones
    within it.
    """
    if xi_hi <= xi_lo:
        return 0.0
    lo, head = xi_lo, 0.0
    if xi_lo == 0.0:
        lo, head = 1.0, singular_origin_integral(f, min(1.0, xi_hi))
        if xi_hi <= lo:
            return head
    return head + gauss_panels(f, _graded_panels(lo, xi_hi, width), order=16)


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
    integrand alpha sin^2 w + beta cos^2 w + gamma sin w cos w, None for a
    coefficient that is zero, which is then not multiplied out.

    At t <= 0 nothing oscillates and the integral is ``static_integral`` of
    beta, with panels no wider than ``width``.  Otherwise it is an
    ``_OscillatoryRule`` applied to f.  The rule depends on the arguments
    other than f alone; a dict ``rules`` keeps it under them, so that every
    density integrated over the same interval with that dict shares it.
    """
    if xi_hi <= xi_lo:
        return 0.0
    if t <= 0:
        def beta(xi):
            value = f(xi, xi ** s)[1]
            return np.zeros(xi.shape) if value is None else value

        return static_integral(beta, xi_hi, xi_lo=xi_lo, width=width)
    key = (t, s, xi_lo, xi_hi, width)
    rule = None if rules is None else rules.get(key)
    if rule is None:
        rule = _OscillatoryRule.build(t, s, xi_lo, xi_hi, width)
        if rules is not None:
            rules[key] = rule
    return rule.integrate(f)


def oscillatory_rules(ts, s: float, xi_hi: float, *, xi_lo: float = 0.0,
                      width: float = np.inf) -> list[dict]:
    """For each t > 0 of ``ts``, a ``rules`` dict that holds the rule
    ``oscillatory_integral`` takes at t on [xi_lo, xi_hi] with panels no
    wider than ``width``.  The rules are built together
    (``_OscillatoryRule.build_many``), each the bits of a build of its own.
    """
    rules = _OscillatoryRule.build_many(ts, s, xi_lo, xi_hi, width)
    return [{(t, s, xi_lo, xi_hi, width): rule} for t, rule in zip(ts, rules)]


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
    leaves the normal doubles.  ``build_many`` builds the rules of many t
    on one interval together, and ``build`` is a block of one.

    A panel that spans more than ``width`` in xi (``pieces``) is split unless
    its share of the integral is below SPLIT_TOL, where no error of it can
    show.  Its parts are laid out on ``_graded_panels`` within ``width``,
    like the body, and are Gauss panels.  That share depends on the form, so
    ``integrate`` splits; the rule on the parts is kept for the next form
    that splits the same panels.  A rule with no panel wider than ``width``
    (``splits`` False) sums its panels without that test.
    """

    def __init__(self, t, s, edges, bounds, formed, head=None, width=np.inf,
                 from_origin=False):
        self.t, self.s, self.width = t, s, width
        self.edges = edges
        self.from_origin = from_origin
        # each panel's ends in xi, and the panels wider than width, which a
        # form can split
        self.xa, self.xb = bounds
        self.pieces = self.xb - self.xa > width
        self.splits = bool(self.pieces.any())
        # _form_weights' rows, and those of _scaled_head above them, or None
        self._formed, self._head = formed, head
        self._splits: dict[tuple, _OscillatoryRule] = {}

    @functools.cached_property
    def _nodes(self):
        """(xi, xi_s, weights, faint) of every panel: the table head's rows,
        scaled by c on first use, above the formed rows, so that the rules
        of a block hold no head until they are used."""
        if self._head is None:
            return self._formed
        xi, xi_s, weights, faint = self._formed
        c, root, w, table = self._head
        first = root.shape[0]
        nodes = np.empty((5, first + xi.shape[0], FILON_ORDER))
        np.multiply(c, root, out=nodes[0, :first])
        np.divide(w, self.t, out=nodes[1, :first])
        np.multiply(c, table, out=nodes[2:, :first])
        nodes[0, first:], nodes[1, first:], nodes[2:, first:] = xi, xi_s, weights
        nodes.setflags(write=False)
        return (nodes[0], nodes[1], nodes[2:],
                None if faint is None else (faint[0] + first, *faint[1:]))

    xi = property(lambda self: self._nodes[0])
    xi_s = property(lambda self: self._nodes[1])
    weights = property(lambda self: self._nodes[2])
    faint = property(lambda self: self._nodes[3])

    @classmethod
    def build(cls, t: float, s: float, xi_lo: float, xi_hi: float,
              width: float = np.inf) -> "_OscillatoryRule":
        """The rule on [xi_lo, xi_hi] at t > 0, panels no wider than width,
        refused by ``check_time`` before it allocates."""
        return cls.build_many([t], s, xi_lo, xi_hi, width)[0]

    @classmethod
    def build_many(cls, ts, s: float, xi_lo: float, xi_hi: float,
                   width: float = np.inf) -> list["_OscillatoryRule"]:
        """The rules on [xi_lo, xi_hi] at each t > 0 of ``ts``, every one
        the bits ``build`` gives it alone.

        ``_rule_edges`` lays out the edges of every rule.  The rows of every
        rule but its table head are formed in one ``_form_weights`` call,
        with t a per-row column; each row's weights are a product of its own
        (``_by_rows``), whichever rows share the call.  A table head is
        scaled by its rule's own c = t^(-1/s), a scalar power (an array
        power of the ts rounds otherwise), when the rule is first used.
        """
        edges, heads, origins = _rule_edges(ts, s, xi_lo, xi_hi, width)
        t_col = np.array(ts, dtype=float)
        sizes = [k.size for k, _ in edges]
        # each rule forms every row but its table head's
        firsts = [0 if head is None else head[1].shape[0] for head in heads]
        rows = [size - 1 - first for size, first in zip(sizes, firsts)]
        xi, xi_s, weights, faint = _form_weights(t_col.repeat(rows), s, *(
            np.concatenate(e) for e in zip(*[
                (k[first:-1], d[first:-1], k[first + 1:], d[first + 1:])
                for (k, d), first in zip(edges, firsts)])))
        # every edge in xi, ((k*pi + d)/t)^(1/s)
        k_all, d_all = (np.concatenate(e) for e in zip(*edges))
        x = ((k_all * np.pi + d_all) / t_col.repeat(sizes)) ** (1.0 / s)
        rules, lo, a = [], 0, 0
        for t, (k, d), head, origin, hi, size in zip(
                ts, edges, heads, origins, np.cumsum(rows).tolist(), sizes):
            mine = None
            if faint is not None:
                inside = (faint[0] >= lo) & (faint[0] < hi)
                if inside.any():
                    mine = (faint[0][inside] - lo, *(f[inside] for f in faint[1:]))
            rules.append(cls(t, s, (k[:-1], d[:-1], k[1:], d[1:]),
                             (x[a:a + size - 1], x[a + 1:a + size]),
                             (xi[lo:hi], xi_s[lo:hi], weights[:, lo:hi], mine),
                             head, width, origin))
            lo, a = hi, a + size
        return rules

    def panels(self, f) -> np.ndarray:
        """The integral of the form f over each panel."""
        form, terms = f(self.xi, self.xi_s), None
        for c, weights in zip(form, self.weights):
            if c is not None:
                if terms is None:
                    terms = c * weights
                else:
                    terms += c * weights
        parts = (np.zeros(self.xi.shape[0]) if terms is None
                 else np.sum(terms, axis=1))
        if self.faint is not None and form[0] is not None:
            rows, cols, gauss, sin_w = self.faint
            alpha = np.broadcast_to(form[0], self.xi.shape)[rows, cols]
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
            split = self.pieces & (np.abs(parts) > SPLIT_TOL * np.sum(np.abs(parts)))
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
        """The rule on the parts of the panels ``which``, each laid out on
        ``_graded_panels`` within ``width``."""
        t, s = self.t, self.s
        ka, da, kb, db = self.edges
        sub, parts = [], 0
        for i in which:
            xi = _graded_panels(self.xa[i], self.xb[i], self.width)
            parts += xi.size - 1
            _check_panel_count(parts, "splitting the rule at t = {:g}", t)
            w = t * xi[1:-1] ** s
            k = np.concatenate([[ka[i]], np.floor(w / np.pi), [kb[i]]])
            d = np.concatenate([[da[i]], w - k[1:-1] * np.pi, [db[i]]])
            sub.append((k[:-1], d[:-1], k[1:], d[1:], xi[:-1], xi[1:]))
        *edges, xa, xb = (np.concatenate(e) for e in zip(*sub))
        return _OscillatoryRule(t, s, tuple(edges), (xa, xb), _form_weights(t, s, *edges))


def _rule_edges(ts, s, xi_lo, xi_hi, width):
    """(edges, heads, origins) of the rules on [xi_lo, xi_hi] at each t of
    ts: edges[i] is (k, d) of rule i's edges k*pi + d, heads[i]
    ``_scaled_head``'s rows of its head, or None where the head is formed
    like the body (``_head_edges``), and origins[i] whether its w starts at
    0.  Each t is refused by ``check_time`` before anything is allocated.

    The head runs to k_lead*pi, LEAD_HALFPERIODS half-periods above w_lo;
    the body's edges are then ``_graded_panels`` in xi from the head's end
    xi_lead to the cutoff xi_hi, as in the static rule, with each inner one
    moved to the nearest k*pi (d = 0), so that every panel spans whole
    half-periods, but the partial half-period [floor(w_hi/pi)*pi, w_hi] at
    the end, which is a panel of its own.  A move is at most half a
    half-period, in xi (pi/2)*xi^(1-s)/(s*t) to first order, which for
    s <= 1 grows with xi: taken half a half-period above the cutoff, it
    bounds every move.  The panels are laid out within ``width`` less two
    such moves, so that a moved panel stays within ``width`` and is not
    split.  At small t, where that would leave less than half of ``width``,
    they take half of it, and half-periods wider than ``width`` are split
    by ``integrate``.  The xi-edges of all the bodies are moved in one pass
    of elementwise operations, which give each edge the bits of its own.
    """
    lo_s, hi_s = xi_lo ** s, xi_hi ** s
    edges, heads, origins, bodies = [], [], [], []
    for t in ts:
        w_lo, w_hi = t * lo_s, t * hi_s
        k_lead = math.floor(w_lo / math.pi) + LEAD_HALFPERIODS
        if w_lo > 0 or w_hi >= math.pi:
            check_time(t, s, w_lo or math.pi * 0.5 ** HEAD_DYADIC, k_lead)
        else:
            check_time(t, s, w_hi * 0.5 ** HEAD_DYADIC, k_lead, cutoff=xi_hi)
        head = _scaled_head(t, s) if w_lo == 0 and w_hi > k_lead * math.pi else None
        edges.append(_head_edges(w_lo, w_hi, k_lead) if head is None else head[0])
        heads.append(None if head is None else head[1])
        origins.append(w_lo == 0)
        if w_hi > k_lead * math.pi:
            xi_lead = (k_lead * math.pi / t) ** (1.0 / s)
            top = ((w_hi + 0.5 * math.pi) / t) ** (1.0 / s)
            moved = math.pi * top ** (1.0 - s) / (s * t)
            bodies.append((len(edges) - 1, t / math.pi, float(math.floor(w_hi / math.pi)),
                           w_hi, _graded_panels(xi_lead, xi_hi,
                                                width - min(moved, 0.5 * width))))
    if bodies:
        where, t_pi, k_end, w_hi, xi = zip(*bodies)
        counts = [x.size for x in xi]
        # each xi-edge's nearest k, and each beyond the last whole
        # half-period k_end that one
        ks = np.minimum(np.round(np.concatenate(xi) ** s * np.array(t_pi).repeat(counts)),
                        np.array(k_end).repeat(counts))
        start = 0
        for i, count, last, end in zip(where, counts, k_end, w_hi):
            # the k ascend from the head's end k_lead; of each run of equal
            # k the first is kept, then the partial half-period past the
            # last whole one, if any
            k = ks[start:start + count]
            k = k[1:][k[1:] > k[:-1]]
            start += count
            k_tail, d_tail = (([last], [end - last * math.pi]) if end > last * math.pi
                              else ([], []))
            edges[i] = (np.concatenate([edges[i][0], k, k_tail]),
                        np.concatenate([edges[i][1], np.zeros(k.size), d_tail]))
    return edges, heads, origins


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


def _form_weights(t, s, ka, da, kb, db):
    """Nodes and form weights on the w-panels [ka*pi + da, kb*pi + db].

    Returns xi and xi^s at FILON_ORDER Gauss nodes per panel, and the
    weights of (alpha, beta, gamma) there, stacked on a first axis of 3.
    t is one time, or a time per panel: panels of several rules share a call.
    The integrand is the form times the Jacobian jac = d xi/dw = xi/(s*w).
    A panel is one of two kinds.  One that spans m >= 2 whole half-periods
    (da = db = 0) takes Filon weights; every other, which in the rules built
    here is at most one half-period wide (the head's, the body's last and
    single half-periods, and the parts of split panels), takes the Gauss
    rule on the form itself, with sin w and cos w from the offset
    w - ka*pi (the form is unchanged by the sign (-1)^ka): node j of a panel
    of half-width h has the weights h w_j jac (sin^2 w, cos^2 w,
    sin w cos w).  In the head the amplitudes can be as singular as
    xi^(-2s) while the form stays bounded, so they are never integrated
    apart.

    On a Filon panel the form is A0 + Re((A1 - i A2) e^(2iw)) with
    A0 = (alpha + beta)/2, A1 = (beta - alpha)/2 and A2 = gamma/2.  On a
    panel [a, b], w = (a + b)/2 + h*x and

        int_a^b G(w) e^(2iw) dw = h e^(i(a+b)) int_{-1}^{1} G e^(i(b-a)x) dx,

    whose right-hand side is the sum of the Legendre coefficients of G times
    the moments int_{-1}^{1} P_k(x) e^(i omega x) dx = 2 i^k j_k(omega), with
    j_k the spherical Bessel function and omega = b - a.  With pf_j the
    Filon weight of node j times the phase e^(i(a+b)), the node's weights
    are h jac/2 times ``_filon_parts``.  A panel of m whole half-periods has
    the phase (-1)^m, so its weights depend on m alone: ``_whole_filon``.

    At tiny t a head weight gauss*sin^2 w can be subnormal where alpha =
    |u1hat|^2/xi^(2s) is large.  Such weights are set to 0, and ``faint`` =
    (rows, columns, gauss, sin w) of their nodes lets ``panels`` take
    ((alpha*gauss)*sin w)*sin w there; it is None at every t > 1e-100.
    """
    xi, xi_s = np.empty((2, ka.size, FILON_ORDER))
    weights = np.empty((3,) + xi.shape)
    omega = (kb - ka) * np.pi + (db - da)
    half = 0.5 * omega
    x, wts = gauss_rule(FILON_ORDER)
    offset = da[:, None] + half[:, None] * (1.0 + x)
    w = ka[:, None] * np.pi + offset
    np.divide(w, np.reshape(t, (-1, 1)), out=xi_s)
    np.power(xi_s, 1.0 / s, out=xi)
    scale = half[:, None] * (xi / (s * w))

    faint = None
    whole = (da == 0.0) & (db == 0.0) & (kb - ka >= 2.0)
    rows = np.flatnonzero(~whole)
    if rows.size:
        narrow = _run(rows)
        sin_w, cos_w = np.sin(offset[narrow]), np.cos(offset[narrow])
        gauss = scale[narrow] * wts
        weights[0, narrow] = sin2 = gauss * sin_w ** 2
        tiny = np.finfo(float).tiny
        if sin2.min() < tiny:
            r, cols = np.nonzero(sin2 < tiny)
            weights[0, rows[r], cols] = 0.0
            faint = (rows[r], cols, gauss[r, cols], sin_w[r, cols])
        weights[1, narrow] = gauss * cos_w ** 2
        weights[2, narrow] = gauss * (sin_w * cos_w)

    if rows.size < omega.size:
        wide = _run(np.flatnonzero(whole))
        # scaled in place: a block's rows make this the largest array here
        filon = _whole_filon(kb[wide] - ka[wide])
        weights[:, wide] = np.multiply(filon, 0.5 * scale[wide], out=filon)
    for a in (xi, xi_s, weights):
        a.setflags(write=False)
    return xi, xi_s, weights, faint


def _run(rows: np.ndarray):
    """Ascending indices as a slice where they are one run (a view, with no
    copy), else as they are."""
    if rows[-1] - rows[0] == rows.size - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


def _whole_filon(m: np.ndarray) -> np.ndarray:
    """``_filon_parts`` of (-1)^m times the Filon weights of m >= 2 whole
    half-periods: the rows of ``_filon_table`` below FILON_TABLE, and above
    Hankel's form: the powers (1/(m*pi))^(p+1) times ``_hankel_map``."""
    # a row from FILON_TABLE up reads the table's last, then is replaced
    out = _filon_table().take(np.minimum(m, FILON_TABLE - 1).astype(int) - 2, 1)
    far = m >= FILON_TABLE
    if far.any():
        u = 1.0 / (m[far] * np.pi)
        out[:, far] = _filon_parts(_by_rows(u[:, None] * u[:, None] ** np.arange(
            FILON_ORDER), _hankel_map(FILON_ORDER)))
    return out


def _by_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an (n, k) a, one row of a at a time: BLAS rounds a one-row
    product otherwise than a row of a batch, so a batched product would make
    a panel's Filon weights depend on the other panels in its call."""
    return (a[:, None, :] @ b)[:, 0]


def _filon_parts(pf: np.ndarray) -> np.ndarray:
    """(w_j - Re pf_j, w_j + Re pf_j, Im pf_j) of phased Filon weights pf,
    stacked on a first axis of 3."""
    wts = gauss_rule(FILON_ORDER)[1]
    return np.stack([wts - pf.real, wts + pf.real, pf.imag])


@functools.lru_cache(maxsize=None)
def _filon_table() -> np.ndarray:
    """[:, m - 2] holds ``_filon_parts`` of (-1)^m times the Filon weights
    of omega = m*pi, 2 <= m < FILON_TABLE.  Built on first use, once per
    process, so that importing the module stays cheap."""
    m = np.arange(2.0, FILON_TABLE)
    sign = 1.0 - 2.0 * (m % 2.0)
    table = _filon_parts(sign[:, None] * _by_rows(
        _spherical_jn(FILON_ORDER, m * np.pi), _moment_map(FILON_ORDER)))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _hankel_map(order: int) -> np.ndarray:
    """Matrix taking the powers (1/omega)^(p+1), p < order, to (-1)^m times
    the Filon weights of omega = m*pi.

    Hankel's expansion terminates for half-integer orders (DLMF 10.49.2):

        omega j_n(omega) = sin(omega - n pi/2) sum_(k even) (-1)^(k/2) a_k u^k
                         + cos(omega - n pi/2) sum_(k odd) (-1)^((k-1)/2) a_k u^k

    with u = 1/omega and a_k = (n + k)!/(2^k k! (n - k)!), k <= n.  Expanding
    the shifted sine and cosine gives omega j_n = S_n(u) sin omega +
    C_n(u) cos omega, and at omega = m*pi, where sin omega = 0 and
    cos omega = (-1)^m, (-1)^m omega j_n is C_n(u): the map is the
    coefficient matrix C folded into ``_moment_map``.  From omega = 32 pi up
    it is within 7e-18 of j_n; at omega = 16 pi it is 1.4e-16 off, as its
    terms for n = 23 grow to about 40 there (4 at 32 pi) before they cancel.
    """
    by_cos = np.zeros((order, order))
    for n in range(order):
        c, s = (1, 0, -1, 0)[n % 4], (0, 1, 0, -1)[n % 4]
        for k in range(n + 1):
            a = math.factorial(n + k) // (
                2 ** k * math.factorial(k) * math.factorial(n - k))
            # the even powers carry sin(omega - n pi/2), the odd ones cos
            by_cos[k, n] = (-s if k % 2 == 0 else c) * float((-1) ** (k // 2) * a)
    return by_cos @ _moment_map(order)


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

    Only ``_filon_table``, at omega = m*pi for 2 <= m < FILON_TABLE, is
    built from here.
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
