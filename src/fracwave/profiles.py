"""Initial-data profiles with exact transforms, moments, and weighted norms.

The solver consumes initial data (u0, u1) through this small library of
profile types.  The analytic variants carry closed-form transforms under the
non-unitary convention fhat(xi) = integral e^{-i x xi} f(x) dx:

* ``Gaussian(a, sigma, c)``            a * exp(-((x-c)/sigma)^2)
      fhat(xi) = a * sigma * sqrt(pi) * exp(-sigma^2 xi^2 / 4) * e^{-i c xi}
* ``GaussianDerivative(a, sigma, c)``  a * d/dx exp(-((x-c)/sigma)^2)
      fhat(xi) = (i xi) * [Gaussian transform]  -- zero integral, exactly
* ``CompactBump(a, radius)``           a * exp(-1/(1-(x/r)^2)) on |x| < r
      transform by quadrature (no closed form), cached for a few request
      grids
* ``SampledProfile(values, grid)``     grid-bound data, FFT transforms only

Profiles are immutable value objects; linear combinations are built with
``combine`` and scaling with ``scaled``.  Integral quantities (moment,
weighted L1 norms) are evaluated by adaptive quadrature so that closed forms
remain available to tests as independent oracles.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BackendMismatchError
from .grid import GridSpec
from .quadrature import CUTOFF_TOL, adaptive, gauss_rule, support_hull

__all__ = [
    "Profile", "Gaussian", "GaussianDerivative", "CompactBump",
    "SampledProfile", "ProfileSum", "ZERO", "combine", "scaled",
    "moment0", "weighted_l1_norm", "fourier_at", "l1_norm", "l2_norm",
    "TruncationWarning",
]

SQRT_PI = np.sqrt(np.pi)

#: request grids a CompactBump caches before it starts the cache afresh
BUMP_CACHE_ENTRIES = 4
#: largest (x node, frequency) block of one CompactBump transform pass
BUMP_BLOCK = 1 << 20
#: relative level below which a quadrature-computed bump transform is rounding noise
BUMP_FLOOR = 1e-14


class TruncationWarning(UserWarning):
    """Emitted when a sampled profile carries non-negligible boundary mass."""


class Profile:
    """Common behaviour for initial-data profiles (immutable)."""

    #: closed-form transform available (quadrature backend admissible)
    has_analytic_fourier: bool = True

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))

    def evaluate(self, x):
        raise NotImplementedError

    def fourier(self, xi):
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """(lo, hi) outside which the profile is below CUTOFF_TOL relative to
        its scale."""
        raise NotImplementedError

    def frequency_radius(self) -> float:
        """|xi| beyond which the transform is below CUTOFF_TOL * max|fhat|."""
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return False

    def scaled(self, a: float) -> "Profile":
        return scaled(self, a)


@dataclass(frozen=True)
class Gaussian(Profile):
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def evaluate(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u)

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        base = self.amplitude * self.width * SQRT_PI * np.exp(-(self.width * xi) ** 2 / 4.0)
        if self.center == 0.0:
            return base.astype(complex)
        return base * np.exp(-1j * self.center * xi)

    def support(self):
        r = self.width * np.sqrt(np.log(1.0 / CUTOFF_TOL))
        return self.center - r, self.center + r

    def frequency_radius(self):
        return (2.0 / self.width) * np.sqrt(np.log(1.0 / CUTOFF_TOL))

    @property
    def is_zero(self):
        return self.amplitude == 0.0


@dataclass(frozen=True)
class GaussianDerivative(Profile):
    """Derivative of a Gaussian; its integral vanishes identically."""

    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def evaluate(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * (-2.0 * u / self.width) * np.exp(-u * u)

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        base = Gaussian(self.amplitude, self.width, self.center).fourier(xi)
        return 1j * xi * base

    def support(self):
        r = self.width * (np.sqrt(np.log(1.0 / CUTOFF_TOL)) + 2.0)
        return self.center - r, self.center + r

    def frequency_radius(self):
        # |xi| * gaussian decay: widen the gaussian radius until the linear
        # factor is absorbed
        r = (2.0 / self.width) * np.sqrt(np.log(1.0 / CUTOFF_TOL))
        for _ in range(8):
            r = (2.0 / self.width) * np.sqrt(np.log(max(r, 1.0) / CUTOFF_TOL))
        return r

    @property
    def is_zero(self):
        return self.amplitude == 0.0


@dataclass(frozen=True)
class CompactBump(Profile):
    """Standard mollifier a*exp(-1/(1-(x/r)^2)) supported on |x| < r."""

    amplitude: float = 1.0
    radius: float = 1.0
    # not an init field, so dataclasses.replace gives a copy its own cache
    _fourier_cache: dict = field(default_factory=dict, init=False, compare=False,
                                 repr=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        u = x / self.radius
        inside = np.abs(u) < 1.0
        out = np.zeros_like(x)
        usq = np.where(inside, u * u, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - usq[inside]))
        return out

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        key = (xi.shape, xi.tobytes())
        cached = self._fourier_cache.get(key)
        if cached is None:
            cached = self._fourier_uncached(xi)
            if len(self._fourier_cache) >= BUMP_CACHE_ENTRIES:
                # whole-dict operations stay safe under map_times threads
                self._fourier_cache.clear()
            self._fourier_cache[key] = cached
        return cached.copy()

    def _fourier_uncached(self, xi):
        # even real profile: fhat(xi) = 2 * int_0^r cos(x xi) f(x) dx, real.
        # Frequencies go in chunks of at most BUMP_BLOCK (node, frequency)
        # pairs; each chunk takes Gauss-16 on one x panel per period of cos at
        # its own largest frequency, plus 8 (``_x_panels``).
        flat = np.abs(xi).ravel()
        out = np.empty(flat.shape)
        step = max(1, BUMP_BLOCK // (16 * self._x_panels(np.max(flat))))
        nodes, weights = gauss_rule(16)
        for start in range(0, flat.size, step):
            chunk = flat[start:start + step]
            edges = np.linspace(0.0, self.radius, self._x_panels(np.max(chunk)) + 1)
            half = 0.5 * np.diff(edges)
            x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * nodes
            vals = np.cos(x[..., None] * chunk) * self.evaluate(x)[..., None]
            out[start:start + step] = 2.0 * np.einsum("pjk,j,p->k", vals, weights, half)
        return out.reshape(xi.shape).astype(complex)

    def _x_panels(self, xi_max):
        return int(np.ceil(self.radius * xi_max / (2.0 * np.pi))) + 8

    def support(self):
        return -self.radius, self.radius

    def frequency_radius(self):
        return self._frequency_radius

    @cached_property
    def _frequency_radius(self):
        # quasi-exponential decay ~ exp(-c*sqrt(r*xi)); scan geometrically,
        # once per instance (not a field: equality and hash ignore it).
        # The computed transform floors near BUMP_FLOOR, so the scan stops
        # there: CUTOFF_TOL, far below it, is never reached.
        scale = abs(self.fourier(np.array([0.0]))[0]) or 1.0
        level = BUMP_FLOOR * scale
        xi = 4.0 / self.radius
        for _ in range(64):
            probe = np.abs(self.fourier(np.array([xi, 1.25 * xi, 1.5 * xi])))
            if np.all(probe < level):
                return 1.5 * xi
            xi *= 2.0
        return xi

    @property
    def is_zero(self):
        return self.amplitude == 0.0


@dataclass(frozen=True)
class SampledProfile(Profile):
    """Grid samples with no closed-form transform; FFT backend only."""

    values: np.ndarray
    grid: GridSpec

    has_analytic_fourier = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.points,):
            raise ValueError("values must match the grid point count")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        """Value equality: the same grid and equal samples."""
        if not isinstance(other, SampledProfile):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.grid, (self.values + 0.0).tobytes()))

    def evaluate(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid.x(), self.values,
                         left=0.0, right=0.0)

    def fourier(self, xi):
        raise BackendMismatchError(
            "sampled profiles have no analytic transform; use the grid backend"
        )

    def spectrum(self) -> np.ndarray:
        """Discrete transform on the profile's own grid."""
        return self.grid.forward(self.values)

    def support(self):
        return -self.grid.half_width, self.grid.half_width

    def frequency_radius(self):
        return np.pi / self.grid.dx

    @property
    def is_zero(self):
        return not np.any(self.values)


@dataclass(frozen=True)
class ProfileSum(Profile):
    """Linear combination sum(coef * profile); closed under the solver ops."""

    terms: tuple  # of (float, Profile)

    def __post_init__(self):
        for coef, p in self.terms:
            if not isinstance(p, Profile) or isinstance(p, SampledProfile):
                raise ValueError("ProfileSum holds analytic profiles only")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for coef, p in self.terms:
            out = out + coef * p.evaluate(x)
        return out

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        for coef, p in self.terms:
            out = out + coef * p.fourier(xi)
        return out

    def support(self):
        return support_hull([p for _, p in self.terms])

    def frequency_radius(self):
        radii = [p.frequency_radius() for _, p in self.terms]
        return max(radii) if radii else 1.0

    @property
    def is_zero(self):
        return all(coef == 0.0 or p.is_zero for coef, p in self.terms)


ZERO = Gaussian(amplitude=0.0)


def combine(*weighted: tuple[float, Profile]) -> ProfileSum:
    """Build the linear combination sum(a_i * p_i)."""
    return ProfileSum(tuple(weighted))


def scaled(p: Profile, a: float) -> Profile:
    if isinstance(p, (Gaussian, GaussianDerivative, CompactBump)):
        return dataclasses.replace(p, amplitude=a * p.amplitude)
    if isinstance(p, ProfileSum):
        return ProfileSum(tuple((a * c, q) for c, q in p.terms))
    if isinstance(p, SampledProfile):
        return SampledProfile(a * p.values, p.grid)
    raise TypeError(f"cannot scale {type(p).__name__}")


# ---------------------------------------------------------------------------
# integral quantities
# ---------------------------------------------------------------------------

def _integral(p: Profile, g) -> float:
    """Integral of g(x, p(x)) dx: 0 for zero data, the rectangle rule on a
    sampled profile's grid, else ``adaptive`` over ``support()``."""
    if p.is_zero:
        return 0.0
    if isinstance(p, SampledProfile):
        return float(p.grid.dx * np.sum(g(p.grid.x(), p.values)))
    lo, hi = p.support()
    return adaptive(lambda x: g(x, p.evaluate(x)), lo, hi, rel_tol=1e-10,
                    limit=800, points=[0.0])


def moment0(p: Profile) -> float:
    """Zeroth moment integral of the profile.

    Equals the transform at frequency zero; GaussianDerivative returns 0
    exactly by oddness.  Sampled profiles integrate by the rectangle rule and
    warn when boundary samples carry visible mass.
    """
    if isinstance(p, GaussianDerivative):
        return 0.0
    if isinstance(p, Gaussian):
        return float(np.real(p.fourier(np.array([0.0]))[0]))
    if isinstance(p, ProfileSum):
        return float(sum(c * moment0(q) for c, q in p.terms))
    if isinstance(p, SampledProfile):
        v = p.values
        peak = np.max(np.abs(v)) if v.size else 0.0
        if peak > 0 and max(abs(v[0]), abs(v[-1])) > 1e-12 * peak:
            warnings.warn(
                "sampled profile has non-negligible boundary mass; "
                "the moment is truncated", TruncationWarning, stacklevel=2)
    return _integral(p, lambda x, v: v)


def weighted_l1_norm(p: Profile, gamma: float) -> float:
    """Weighted norm integral (1 + |x|^gamma) |p(x)| dx, gamma in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return _integral(p, lambda x, v: (1.0 + np.abs(x) ** gamma) * np.abs(v))


def l1_norm(p: Profile) -> float:
    return _integral(p, lambda x, v: np.abs(v))


def l2_norm(p: Profile) -> float:
    return float(np.sqrt(_integral(p, lambda x, v: v ** 2)))


def fourier_at(p: Profile, xi) -> complex | np.ndarray:
    """Transform of the profile at the requested frequencies."""
    scalar = np.isscalar(xi)
    out = p.fourier(np.atleast_1d(np.asarray(xi, dtype=float)))
    return complex(out[0]) if scalar else out
