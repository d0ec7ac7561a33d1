"""Quadrature oracles for the Riesz-potential and transform inequalities.

Three families of checks back the boundedness results:

* Riesz energy integrals int |fhat(xi)|^2 / |xi|^(2 theta) dxi, finite for
  theta < n/2 (any integrable f) and up to theta < gamma + n/2 once the mean
  of f vanishes; the hypothesis boundary is exercised by actually detecting
  the divergence numerically.  They use the package's one static spectral
  rule, ``quadrature.static_integral``, up to ``quadrature.frequency_cutoff``,
  which also refuses theta within 1/(2 HEAD_DYADIC) = 0.0082 of the boundary.
* The pointwise transform bound |fhat(xi)| <= C_gamma |xi|^gamma ||f||_{1,gamma}
  + |integral f|, which this package instantiates with the provable constant
  C_gamma = 2 (from |e^{i a} - 1| <= min(2, |a|) <= 2 |a|^gamma).
* The equivalence of the double-integral (Gagliardo) fractional seminorm with
  the spectral one: [u]^2 = 2 C(1,s)^{-1} ||(-Lap)^{s/2} u||_2^2, where
  C(1,s) = ( int (1 - cos z) |z|^{-1-2s} dz )^{-1}.

Dimensions n >= 2 are admitted only through closed-form radial Gaussian
families, which reduce every integral to one radial dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .profiles import (Profile, l1_norm, l2_norm, moment0, weighted_l1_norm)
from .quadrature import (CUTOFF_TOL, adaptive, frequency_cutoff, gauss_rule,
                         log_spaced_panels, oscillatory_integral, panel_width,
                         static_integral)

__all__ = [
    "InequalityCheck", "RadialGaussian", "RadialGaussianLaplacian",
    "riesz_energy", "check_riesz_bound", "check_riesz_bound_zero_mean",
    "check_pointwise_bound", "gagliardo_seminorm", "gagliardo_constant",
    "sphere_area",
]

POINTWISE_CONSTANT = 2.0
#: derivatives of z^-p in the by-parts tail of ``gagliardo_constant``, and
#: where that tail starts
TAIL_DERIVATIVES = 6
TAIL_START = 500.0


@dataclass(frozen=True)
class InequalityCheck:
    """Record of one inequality evaluation: lhs <= constant * rhs."""

    check_id: str
    params: dict
    profile: str
    left: float
    right: float
    constant: float | None = None  # None: finiteness is the assertion

    @property
    def ratio(self) -> float:
        if self.right == 0.0:
            return float("inf") if self.left > 0 else 0.0
        return self.left / self.right

    @property
    def passed(self) -> bool:
        bound = self.constant if self.constant is not None else float("inf")
        return np.isfinite(self.left) and self.ratio <= bound

    def to_dict(self) -> dict:
        return {"check": self.check_id, "params": self.params,
                "profile": self.profile, "left": self.left, "right": self.right,
                "ratio": self.ratio, "constant": self.constant,
                "passed": self.passed}


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in n dimensions."""
    return float(2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0))


@dataclass(frozen=True)
class RadialGaussian:
    """a * exp(-|x|^2 / sigma^2) in n dimensions, all norms closed-form."""

    amplitude: float = 1.0
    width: float = 1.0
    dimension: int = 2

    def fourier_radial(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (self.amplitude * (self.width * np.sqrt(np.pi)) ** self.dimension
                * np.exp(-(self.width * rho) ** 2 / 4.0))

    def moment0(self) -> float:
        return float(self.fourier_radial(0.0))

    def l1(self) -> float:
        return abs(self.amplitude) * (self.width * np.sqrt(np.pi)) ** self.dimension

    def l2(self) -> float:
        return abs(self.amplitude) * (self.width * np.sqrt(np.pi / 2.0)) ** (self.dimension / 2.0)

    def weighted_l1(self, gamma: float) -> float:
        n, sig = self.dimension, self.width
        radial = sphere_area(n) * sig ** (n + gamma) * math.gamma((n + gamma) / 2.0) / 2.0
        return abs(self.amplitude) * ((sig * np.sqrt(np.pi)) ** n + radial)

    def frequency_radius(self) -> float:
        return (2.0 / self.width) * np.sqrt(np.log(1.0 / CUTOFF_TOL))


@dataclass(frozen=True)
class RadialGaussianLaplacian:
    """Laplacian of a radial Gaussian; zero mean in every dimension."""

    amplitude: float = 1.0
    width: float = 1.0
    dimension: int = 2

    def _base(self) -> RadialGaussian:
        return RadialGaussian(self.amplitude, self.width, self.dimension)

    def fourier_radial(self, rho):
        rho = np.asarray(rho, dtype=float)
        return -(rho ** 2) * self._base().fourier_radial(rho)

    def moment0(self) -> float:
        return 0.0

    def _radial_integral(self, norm) -> float:
        """|S^(n-1)| int_0^(10 sigma) norm(r, f(r)) r^(n-1) dr, with f this
        Laplacian; quadrature is simpler than its closed forms, and this is
        test-family plumbing, not a hot path."""
        n, sig, a = self.dimension, self.width, self.amplitude

        def integrand(r):
            g = np.exp(-(r / sig) ** 2)
            lap = (4.0 * r ** 2 / sig ** 4 - 2.0 * n / sig ** 2) * g
            return norm(r, a * lap) * r ** (n - 1)
        return sphere_area(n) * adaptive(integrand, 0.0, sig * 10.0, rel_tol=1e-10)

    def l1(self) -> float:
        return self._radial_integral(lambda r, f: np.abs(f))

    def l2(self) -> float:
        return float(np.sqrt(self._radial_integral(lambda r, f: f ** 2)))

    def weighted_l1(self, gamma: float) -> float:
        return self._radial_integral(lambda r, f: (1.0 + r ** gamma) * np.abs(f))

    def frequency_radius(self) -> float:
        return self._base().frequency_radius() + 4.0 / self.width


def _family(p, n: int):
    """The datum p in n dimensions as the Riesz checks read it: |fhat|^2 as
    a function of rho = |xi|, and the functions (p) -> ||f||_1, ||f||_2,
    integral f and (p, gamma) -> ||f||_{1,gamma}.  These are a profile's
    with an analytic transform in n = 1 and a radial Gaussian family's of
    dimension n in n >= 2; any other pair raises PreconditionError."""
    if n == 1:
        if not isinstance(p, Profile):
            raise PreconditionError("n = 1 Riesz energy expects a Profile")
        if not p.has_analytic_fourier:
            raise PreconditionError(
                "Riesz energy needs an analytic transform in n = 1")
        return (lambda rho: np.abs(p.fourier(rho)) ** 2,
                l1_norm, l2_norm, moment0, weighted_l1_norm)
    if not isinstance(p, (RadialGaussian, RadialGaussianLaplacian)):
        raise PreconditionError(
            "dimensions n >= 2 admit closed-form radial Gaussian families only")
    if p.dimension != n:
        raise PreconditionError(
            f"profile dimension {p.dimension} does not match n = {n}")
    family = type(p)
    return (lambda rho: np.abs(p.fourier_radial(rho)) ** 2,
            family.l1, family.l2, family.moment0, family.weighted_l1)


def riesz_energy(p, theta: float, n: int = 1) -> float:
    """The singular spectral integral int |fhat(xi)|^2 |xi|^(-2 theta) dxi.

    The |xi|^(-2 theta) endpoint is handled by the static rule's dyadic
    head panels at the origin with geometric tail extrapolation; a
    non-integrable singularity (theta >= n/2 with nonvanishing mean) raises
    DivergenceError, which is the numerical face of the hypothesis boundary,
    and so does theta within 1/(2 HEAD_DYADIC) = 0.0082 below it.
    """
    if theta < 0:
        raise PreconditionError("theta must be nonnegative")
    density = _family(p, n)[0]
    area = 2.0 if n == 1 else sphere_area(n)
    power = n - 1 - 2.0 * theta

    def integrand(rho):
        return density(rho) * rho ** power

    width = panel_width([p]) if n == 1 else np.inf
    return area * static_integral(integrand, frequency_cutoff([p]),
                                  width=width)


def check_riesz_bound(p, theta: float, n: int = 1) -> InequalityCheck:
    """Finiteness of the Riesz energy against ||f||_1^2 + ||f||_2^2."""
    if not 0.0 <= theta < n / 2.0:
        raise PreconditionError(
            f"hypothesis violated: theta in [0, n/2) required, "
            f"got theta={theta} with n={n}")
    _, l1, l2, _, _ = _family(p, n)
    right = l1(p) ** 2 + l2(p) ** 2
    left = riesz_energy(p, theta, n)
    return InequalityCheck("riesz_l1", {"theta": theta, "n": n}, repr(p),
                           left, right)


def check_riesz_bound_zero_mean(p, theta: float, gamma: float,
                                n: int = 1) -> InequalityCheck:
    """Riesz energy of a mean-zero profile against the weighted norms."""
    if not 0.0 <= gamma <= 1.0:
        raise PreconditionError(
            f"hypothesis violated: gamma in [0, 1] required, got {gamma}")
    if not 0.0 <= theta < gamma + n / 2.0:
        raise PreconditionError(
            f"hypothesis violated: theta in [0, gamma + n/2) required, "
            f"got theta={theta} with gamma={gamma}, n={n}")
    _, l1, l2, mean_of, weighted = _family(p, n)
    mean = mean_of(p)
    if abs(mean) > 1e-12 * max(l1(p), 1e-300):
        raise PreconditionError(
            f"hypothesis violated: integral f dx = 0 required, got {mean:.3e}")
    left = riesz_energy(p, theta, n)
    right = weighted(p, gamma) ** 2 + l2(p) ** 2
    return InequalityCheck("riesz_zero_mean",
                           {"theta": theta, "gamma": gamma, "n": n}, repr(p),
                           left, right)


def check_pointwise_bound(p: Profile, gamma: float,
                          xi_grid) -> InequalityCheck:
    """|fhat(xi)| <= 2 |xi|^gamma ||f||_{1,gamma} + |integral f| on a grid.

    The recorded ratio is the empirical supremum of
    (|fhat| - |P|) / (|xi|^gamma ||f||_{1,gamma}); the check passes when it
    stays at or below the declared constant 2.  At xi = 0 the bound collapses
    to the equality |fhat(0)| = |P|.
    """
    return _pointwise_bound_checks(p, (gamma,), (xi_grid,), moment0(p))[0]


def _pointwise_bound_checks(p: Profile, gammas, xi_grids,
                            mean: float) -> list[InequalityCheck]:
    """``check_pointwise_bound`` for each gamma on each grid, grids inner,
    with |fhat| on each grid computed once; ``mean`` is ``moment0(p)``."""
    if not all(0.0 <= gamma <= 1.0 for gamma in gammas):
        raise PreconditionError("gamma must lie in [0, 1]")
    grids = []
    for xi_grid in xi_grids:
        xi = np.abs(np.asarray(xi_grid, dtype=float))
        xi = xi[xi > 0]
        grids.append((xi, np.abs(p.fourier(xi))))
    checks = []
    for gamma in gammas:
        weighted = weighted_l1_norm(p, gamma)
        for xi, vals in grids:
            sup_ratio = 0.0 if weighted == 0.0 else float(
                np.max((vals - abs(mean)) / (xi ** gamma * weighted)))
            checks.append(InequalityCheck(
                "fourier_pointwise", {"gamma": gamma, "n_points": int(xi.size)},
                repr(p), left=sup_ratio, right=1.0, constant=POINTWISE_CONSTANT))
    return checks


def gagliardo_seminorm(p: Profile, s: float) -> float:
    """Double-integral fractional seminorm of a one-dimensional profile.

    Computes ( iint |u(x)-u(y)|^2 / |x-y|^(1+2s) dx dy )^(1/2) through the
    lag substitution h = x - y:

        [u]^2 = 2 int_0^inf h^(-1-2s) D(h) dh,   D(h) = int (u(x+h)-u(x))^2 dx.

    Both integrals use Gauss-12 panels: log-spaced in h on [h_min, h_max],
    equal in x on [lo - h_max, hi], with [lo, hi] the profile's ``support``
    and h_max = hi - lo + 4.  D is taken one h-panel (12 lags) at a time, so
    the working set stays a few hundred kilobytes whatever the profile.
    Each block integrates only the x-panels whose right edge lies past
    lo - h for the block's largest lag h: left of that point u(x) and u(x+h)
    are both below the 1e-18 level.

    Near h = 0 the smoothness bound D(h) ~ h^2 ||u'||_2^2 makes the integrand
    h^(1-2s), so the head below h_min is added analytically from that
    quadratic law, with its coefficient read from D(h_min) / h_min^2.  The
    head starts at h_min = 1e-6: below it the quadratic law holds to 1e-12,
    but u(x+h) - u(x) loses about log10(1/h) digits to cancellation, and the
    coefficient inherits that noise, which weighs most as s -> 1.  The far
    tail uses D(h) = 2||u||_2^2 once the supports separate at h_max.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")
    if p.is_zero:
        return 0.0
    lo, hi = p.support()
    h_min, h_max = 1e-6, hi - lo + 4.0
    order = 12
    gn, gw = gauss_rule(order)

    x_edges = np.linspace(lo - h_max, hi, 160)
    xa, xb = x_edges[:-1], x_edges[1:]
    x_nodes = (0.5 * (xa + xb)[:, None] + 0.5 * (xb - xa)[:, None] * gn).ravel()
    x_weights = (0.5 * (xb - xa)[:, None] * gw).ravel()
    base_vals = p.evaluate(x_nodes)

    def D(h):
        # h: (m,) -> (m,); x-panels left of lo - max(h) are dropped
        first = order * int(np.searchsorted(xb, lo - h.max(), side="right"))
        x, w = x_nodes[first:], x_weights[first:]
        diff = p.evaluate(x[None, :] + h[:, None]) - base_vals[None, first:]
        return diff ** 2 @ w

    h_edges = log_spaced_panels(h_min, h_max, per_decade=5)
    body = 0.0
    for ha, hb in zip(h_edges[:-1], h_edges[1:]):
        h = 0.5 * (ha + hb) + 0.5 * (hb - ha) * gn
        body += float(h ** (-1.0 - 2.0 * s) * D(h) @ (0.5 * (hb - ha) * gw))

    # analytic head: D(h) ~ c h^2 below h_min
    c = float(D(np.array([h_min]))[0]) / h_min ** 2
    head = c * h_min ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    # analytic tail: supports of u(.) and u(.+h) are disjoint past h_max
    tail = 2.0 * l2_norm(p) ** 2 * h_max ** (-2.0 * s) / (2.0 * s)

    return float(np.sqrt(2.0 * (head + body + tail)))


def gagliardo_constant(s: float) -> float:
    """Normalizing constant C(1,s) = ( int (1-cos z) |z|^(-1-2s) dz )^(-1).

    With p = 1 + 2s, the half-line integral is split at 1 and at
    TAIL_START = Z:

    * on [0, 1], the power series of 1 - cos z integrates term by term to
      sum_n (-1)^(n+1) / ((2n)! (2n - 2s)), summed until its terms vanish;
    * on [1, Z], 1 - cos z = 2 sin^2(z/2) is the form alpha sin^2 w of
      ``oscillatory_integral`` with phase w = z/2 (t = 1/2, s = 1) and
      alpha = 2 z^-p;
    * past Z, int z^-p dz is exact, and the cosine part is integrated by
      parts through TAIL_DERIVATIVES derivatives g_m of g = z^-p, leaving a
      remainder of order p(p+1)...(p+5) Z^(-p-6), below 1e-16 at Z = 500.

    At s = 1/2 the integral is pi, so C = 1/pi.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")
    p = 1.0 + 2.0 * s

    i_head, n, term = 0.0, 1, 1.0
    while abs(term) > 1e-18 * abs(i_head):
        term = (-1.0) ** (n + 1) / (math.factorial(2 * n) * (2 * n - 2.0 * s))
        i_head += term
        n += 1

    z_hi = TAIL_START
    i_middle = oscillatory_integral(
        lambda z, z_s: (2.0 * z ** -p, 0.0, 0.0), 0.5, 1.0, z_hi, xi_lo=1.0)

    # int_Z^inf cos(z) g dz = -sin Z (g_0 - g_2 + g_4) - cos Z (g_1 - g_3 + g_5)
    t_plain = z_hi ** (-2.0 * s) / (2.0 * s)
    t_cos, g = 0.0, z_hi ** -p
    for m in range(TAIL_DERIVATIVES):
        trig = np.sin(z_hi) if m % 2 == 0 else np.cos(z_hi)
        t_cos -= (-1.0) ** (m // 2) * trig * g
        g *= -(p + m) / z_hi

    integral = 2.0 * (i_head + i_middle + t_plain - t_cos)
    return float(1.0 / integral)
