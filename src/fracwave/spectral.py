"""Exact-in-time spectral evolution of u_tt + (-Laplacian)^s u = 0.

Taking the transform of the equation turns it into an independent oscillator
per frequency, solved exactly by trigonometric multipliers:

    uhat(t, xi)  = sin(t w)/w * u1hat(xi) + cos(t w) * u0hat(xi),
    uthat(t, xi) = cos(t w) * u1hat(xi) - w * sin(t w) * u0hat(xi),

with w = |xi|^s.  No time stepping is involved; t is a plain parameter, and
the pair conserves |uthat|^2 + |xi|^(2s) |uhat|^2 bin-wise as an exact
trigonometric identity.  ``propagate`` is the one place these formulas are
written; both backends call it.

Two evaluation backends realize this:

* ``GridBackend``        samples the data on a uniform grid and applies the
  multipliers to FFT bins.  Fast and general (works for sampled data) but
  trustworthy only while the solution's content fits the box, hence the hard
  time cap.  Zero data is not transformed.  Real data make every field
  Hermitian, so a snapshot propagates and takes norms on the bins
  k = -N/2..0 alone, from one phase evaluation, and mirrors a full field
  (u_hat, ut_hat, then their physical forms) on its first read.
* ``QuadratureBackend``  keeps everything as closed-form functions of xi and
  evaluates norms by phase-aware quadrature (``oscillatory_integral``, whose
  cost does not grow with the number of oscillations; at t = 0 its static
  rule).  Valid at arbitrary t (1e6 is routine) but requires analytic
  transforms for the data.

All physical-level norms carry the explicit (2 pi)^(-1/2) Plancherel factor
of the non-unitary transform convention; ``spectral_l2`` values are the raw
transform-level norms that the growth-law estimates are stated in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BackendCapError, BackendMismatchError,
                     UnsupportedDimensionError)
from .grid import GridSpec
from .profiles import ZERO, Profile, SampledProfile, TruncationWarning
from .quadrature import frequency_cutoff, oscillatory_integral, panel_width

TWO_PI = 2.0 * np.pi

#: below this phase, sin(w)/w switches to its series to dodge cancellation
SERIES_PHASE = 1e-8

#: latest time the grid backend evolves to (see ``GridBackend``)
GRID_TIME_CAP = 100.0


@dataclass(frozen=True)
class Parameters:
    """Problem parameters: dimension n and fractional order s."""

    s: float
    n: int = 1

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1], got {self.s}")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError(f"dimension n must be a positive integer, got {self.n}")

    def require_evolution(self):
        if self.n != 1:
            raise UnsupportedDimensionError(
                f"numeric evolution is restricted to n=1 (got n={self.n})")


def sine_multiplier(s: float, t: float, xi):
    """Solution-operator symbol sin(t |xi|^s) / |xi|^s.

    Total on t >= 0: at xi = 0 the removable singularity evaluates to t, and
    below phase 1e-8 the series t*(1 - (t|xi|^s)^2/6) replaces the quotient
    to avoid cancellation.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    xi_s = np.abs(xi) ** s
    w = t * xi_s
    out = _sine_quotient(t, xi_s, w, np.sin(w))
    return out if out.ndim else float(out)


def _sine_quotient(t: float, xi_s, w, sin_w):
    """sin(w)/|xi|^s from a computed sin w, with the series below SERIES_PHASE."""
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.asarray(sin_w / xi_s)
    small = np.asarray(w < SERIES_PHASE)
    if small.any():
        w_small = np.asarray(w)[small]
        quotient[small] = t * (1.0 - w_small * w_small / 6.0)
    return quotient


def propagate(s: float, t: float, xi, u0_hat, u1_hat, field: str | None = None,
              phase=None):
    """The exact propagator: (uhat, uthat) at time t from the data transforms.

    ``field`` "u" or "ut" returns that field alone.  A datum given as None is
    zero data and its term is skipped.  ``phase`` is (|xi|^s, sin w, cos w)
    when the caller supplies it (the quadrature densities pass the unit
    phases (1, 0) and (0, 1)); then sin(w)/|xi|^s is a plain quotient,
    exact for every xi > 0.  Without it the phase is computed from xi once,
    with only the sine or cosine the requested field reads, and sin(w)/|xi|^s
    keeps the series that makes xi = 0 admissible.
    """
    want_u, want_ut = field != "ut", field != "u"
    if phase is None:
        xi_s = np.abs(xi) ** s
        w = t * xi_s
        # u reads sin w through u1 and cos w through u0; ut the other way round
        need_sin = (want_u and u1_hat is not None) or (want_ut and u0_hat is not None)
        need_cos = (want_u and u0_hat is not None) or (want_ut and u1_hat is not None)
        sin_w = np.sin(w) if need_sin else None
        cos_w = np.cos(w) if need_cos else None
        r1 = (_sine_quotient(t, xi_s, w, sin_w)
              if want_u and u1_hat is not None else None)
        del w   # on a 2^20-point grid every full-length array is 8-16 MB
    else:
        xi_s, sin_w, cos_w = phase
        r1 = sin_w / xi_s if want_u else None
    u = _superpose(r1, cos_w, u0_hat, u1_hat) if want_u else None
    if field == "u":
        return u
    ut = _superpose(cos_w, None if u0_hat is None else -(xi_s * sin_w),
                    u0_hat, u1_hat)
    return ut if field == "ut" else (u, ut)


def _superpose(m1, m0, u0_hat, u1_hat):
    """m1 * u1hat + m0 * u0hat, skipping the term of a None (zero) datum."""
    if u0_hat is None:
        return m1 * u1_hat
    if u1_hat is None:
        return m0 * u0_hat
    return m1 * u1_hat + m0 * u0_hat


@dataclass
class SpectralField:
    """Transform values on a grid's frequency axis (ascending order)."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.points,):
            raise ValueError("spectral values must match the grid point count")
        v.setflags(write=False)
        self.values = v

    def physical(self) -> np.ndarray:
        return self.grid.inverse(self.values)

    def raw_l2(self) -> float:
        """Transform-level norm sqrt(integral |fhat|^2 dxi)."""
        return float(np.sqrt(self.grid.dxi * np.sum(np.abs(self.values) ** 2)))

    def physical_l2(self) -> float:
        return self.raw_l2() / np.sqrt(TWO_PI)

    def hs_seminorm(self, s: float) -> float:
        """Physical-level norm of (-Laplacian)^(s/2) applied to the field."""
        w = np.abs(self.grid.xi()) ** (2.0 * s) * np.abs(self.values) ** 2
        return float(np.sqrt(self.grid.dxi * np.sum(w) / TWO_PI))


class Snapshot:
    """Common surface of the two backend-specific solution states."""

    t: float
    params: Parameters

    def spectral_l2(self) -> float:
        raise NotImplementedError

    def physical_l2(self) -> float:
        return self.spectral_l2() / np.sqrt(TWO_PI)

    def ut_l2(self) -> float:
        raise NotImplementedError

    def hs_seminorm(self, s: float) -> float:
        """Physical-level norm of (-Laplacian)^(s/2) applied to u(t)."""
        raise NotImplementedError

    def energy(self) -> float:
        """Total energy (1/2)(||u_t||_2^2 + ||(-Lap)^(s/2) u||_2^2)."""
        return 0.5 * (self.ut_l2() ** 2 + self.hs_seminorm(self.params.s) ** 2)


class GridSnapshot(Snapshot):
    """Solution state on FFT bins, held as the data spectra and the time.

    A zero datum has no spectrum (None) and its term is skipped.  Real data
    have Hermitian spectra, fhat(-xi) = conj fhat(xi), and the multipliers
    are even in xi, so every field is Hermitian too: it is propagated only
    on the bins k = -N/2..0 and the norms read those with Hermitian weights.
    The full fields ``u_hat`` and ``ut_hat`` mirror the half into the
    positive bins, and the physical ``u`` and ``ut`` transform them back;
    all four are built on first read, so a norm of u never builds u_t or
    any full-length field.
    """

    def __init__(self, t: float, params: Parameters, grid: GridSpec,
                 u0_hat: np.ndarray | None, u1_hat: np.ndarray | None):
        self.t = t
        self.params = params
        self.grid = grid
        self._data = (u0_hat, u1_hat)
        self._half = slice(grid.points // 2 + 1)     # bins -N/2..0

    def _half_fields(self, field: str | None):
        """``propagate`` on bins -N/2..0; all-zero data gives zero bins."""
        if all(d is None for d in self._data):
            zero = np.zeros(self._half.stop, dtype=complex)
            return zero if field else (zero, zero)
        data = (None if d is None else d[self._half] for d in self._data)
        return propagate(self.params.s, self.t, self.grid.xi()[self._half],
                         *data, field)

    @cached_property
    def _u_half(self) -> np.ndarray:
        return self._half_fields("u")

    @cached_property
    def _ut_half(self) -> np.ndarray:
        return self._half_fields("ut")

    def _mirror(self, half: np.ndarray) -> SpectralField:
        """The full field: bins -N/2..0 as given, bin k > 0 as conj of bin -k."""
        mid = self.grid.points // 2
        full = np.empty(self.grid.points, dtype=complex)
        full[:mid + 1] = half
        np.conjugate(half[mid - 1:0:-1], out=full[mid + 1:])
        return SpectralField(full, self.grid)

    def _line_sum(self, density: np.ndarray) -> float:
        """dxi times the sum over all N bins of a density even in xi.

        Bins -N/2+1..-1 count twice, for their mirrors; -N/2 and 0 have none.
        """
        return self.grid.dxi * (2.0 * np.sum(density) - density[0] - density[-1])

    @cached_property
    def u_hat(self) -> SpectralField:
        return self._mirror(self._u_half)

    @cached_property
    def ut_hat(self) -> SpectralField:
        return self._mirror(self._ut_half)

    @cached_property
    def u(self) -> np.ndarray:
        return self.u_hat.physical()

    @cached_property
    def ut(self) -> np.ndarray:
        return self.ut_hat.physical()

    def spectral_l2(self):
        return float(np.sqrt(self._line_sum(np.abs(self._u_half) ** 2)))

    def ut_l2(self):
        return float(np.sqrt(self._line_sum(np.abs(self._ut_half) ** 2))
                     / np.sqrt(TWO_PI))

    def hs_seminorm(self, s):
        xi = self.grid.xi()[self._half]
        density = np.abs(xi) ** (2.0 * s) * np.abs(self._u_half) ** 2
        return float(np.sqrt(self._line_sum(density) / TWO_PI))

    def energy(self):
        if "_u_half" not in self.__dict__ and "_ut_half" not in self.__dict__:
            # both fields are read: build them from one phase
            self._u_half, self._ut_half = self._half_fields(None)
        return super().energy()

    def advance(self, dt: float) -> "GridSnapshot":
        """Evolve this state by a further dt (exact bin-wise propagator)."""
        if dt < 0:
            raise ValueError("time must be nonnegative")
        return GridSnapshot(self.t + dt, self.params, self.grid, *self._data)


class QuadratureSnapshot(Snapshot):
    """Solution state as closed-form spectral functions, valid at any t."""

    def __init__(self, t: float, params: Parameters, u0: Profile, u1: Profile):
        self.t = t
        self.params = params
        self.u0 = u0
        self.u1 = u1
        # spectral_mass per (lo, hi, field, weight_exp): the norm methods and
        # energy() share integrals instead of recomputing them
        self._masses: dict[tuple, float] = {}

    def _transforms(self, xi):
        """(u0hat, u1hat) at xi; a zero profile's transform is not taken."""
        u0_hat = None if self.u0.is_zero else self.u0.fourier(xi)
        u1_hat = (None if self.u1.is_zero and u0_hat is not None
                  else self.u1.fourier(xi))
        return u0_hat, u1_hat

    def _field_at(self, field, xi):
        xi = np.asarray(xi, dtype=float)
        return propagate(self.params.s, self.t, xi, *self._transforms(xi), field)

    def u_hat_at(self, xi) -> np.ndarray:
        return self._field_at("u", xi)

    def ut_hat_at(self, xi) -> np.ndarray:
        return self._field_at("ut", xi)

    def _field_density(self, field: str, weight_exp: float):
        """|fieldhat|^2 |xi|^weight in the ``oscillatory_integral`` contract.

        The field is sin w * a + cos w * b, with a and b the propagator at
        the unit phases (sin w, cos w) = (1, 0) and (0, 1); its squared
        modulus has the coefficients (|a|^2, |b|^2, 2 Re(a conj(b))).
        """
        s, t = self.params.s, self.t

        def density(xi, xi_s):
            xi = np.asarray(xi, dtype=float)
            u0_hat, u1_hat = self._transforms(xi)
            a = propagate(s, t, xi, u0_hat, u1_hat, field, (xi_s, 1.0, 0.0))
            b = propagate(s, t, xi, u0_hat, u1_hat, field, (xi_s, 0.0, 1.0))
            coeffs = (a.real ** 2 + a.imag ** 2, b.real ** 2 + b.imag ** 2,
                      2.0 * (a.real * b.real + a.imag * b.imag))
            if weight_exp != 0.0:
                weight = np.abs(xi) ** weight_exp
                coeffs = tuple(c * weight for c in coeffs)
            return coeffs

        return density

    def spectral_mass(self, lo: float, hi: float | None = None,
                      field: str = "u", weight_exp: float = 0.0) -> float:
        """Integral of |fieldhat(t,xi)|^2 |xi|^weight over lo <= |xi| <= hi.

        Real initial data make the density even in xi, so the line integral
        is twice the half-line one.  Each value is computed once per snapshot.
        """
        data = [p for p in (self.u0, self.u1) if not p.is_zero]
        if hi is None:
            hi = frequency_cutoff(data, weight_exp)
        if hi <= lo or not data:
            return 0.0
        key = (lo, hi, field, weight_exp)
        mass = self._masses.get(key)
        if mass is None:
            density = self._field_density(field, weight_exp)
            mass = 2.0 * oscillatory_integral(
                density, self.t, self.params.s, hi, xi_lo=lo,
                width=panel_width(data))
            self._masses[key] = mass
        return mass

    def spectral_l2(self):
        return float(np.sqrt(self.spectral_mass(0.0)))

    def ut_l2(self):
        return float(np.sqrt(self.spectral_mass(0.0, field="ut") / TWO_PI))

    def hs_seminorm(self, s):
        return float(np.sqrt(self.spectral_mass(0.0, weight_exp=2 * s) / TWO_PI))

    def advance(self, dt: float) -> "QuadratureSnapshot":
        if dt < 0:
            raise ValueError("time must be nonnegative")
        return QuadratureSnapshot(self.t + dt, self.params, self.u0, self.u1)


@dataclass(frozen=True)
class GridBackend:
    """FFT evaluation on a fixed grid; capped in time.

    The cap, ``GRID_TIME_CAP``, exists because the periodized problem parts
    ways with the whole-line one once low-frequency content (group velocity
    ~ s |xi|^(s-1), unbounded as xi -> 0) wraps around the box; past t ~ 1e2
    only the quadrature backend is meaningful on desk-size grids.
    """

    grid: GridSpec = GridSpec()

    name = "grid"

    def evolve(self, data, params: Parameters, t: float) -> GridSnapshot:
        check_time_cap(self, (t,))
        u0, u1 = data
        return GridSnapshot(0.0, params, self.grid, self._spectrum(u0),
                            self._spectrum(u1)).advance(t)

    def _spectrum(self, p: Profile) -> np.ndarray | None:
        """The datum's FFT bins, or None for zero data (not transformed)."""
        sampled = isinstance(p, SampledProfile)
        if sampled and p.grid != self.grid:
            raise BackendMismatchError(
                "sampled profile lives on a different grid than the backend")
        if p.is_zero:
            return None
        samples = p.values if sampled else p.evaluate(self.grid.x())
        peak = np.max(np.abs(samples)) if samples.size else 0.0
        edge = max(abs(samples[0]), abs(samples[-1]))
        if peak > 0 and edge > 1e-14 * peak:
            warnings.warn(
                f"initial data magnitude {edge/peak:.2e} (relative) at |x| = "
                f"{self.grid.half_width:g}; periodization error may be visible",
                TruncationWarning, stacklevel=3)
        spectrum = self.grid.forward(samples)
        spectrum.setflags(write=False)      # shared by every advanced snapshot
        return spectrum


@dataclass(frozen=True)
class QuadratureBackend:
    """Closed-form spectral evaluation; needs analytic transforms.

    Its quadrature settings are the constants of ``quadrature``.
    """

    name = "quadrature"

    def evolve(self, data, params: Parameters, t: float) -> QuadratureSnapshot:
        u0, u1 = data
        for p in (u0, u1):
            if not p.has_analytic_fourier:
                raise BackendMismatchError(
                    "quadrature backend requires analytic transforms; "
                    f"{type(p).__name__} has none (use the grid backend)")
        return QuadratureSnapshot(t, params, u0, u1)


def check_time_cap(backend, times) -> None:
    """Raise BackendCapError if the grid backend is given a time past the cap.

    Runners call it on the whole time grid, so no sample is solved first.
    """
    if not isinstance(backend, GridBackend):
        return
    for t in times:
        if t > GRID_TIME_CAP:
            raise BackendCapError(
                f"grid backend is capped at t <= {GRID_TIME_CAP:g} "
                f"(requested t={t:g}); use the quadrature backend")


def evolve_state(data, params: Parameters, t: float, backend=None) -> Snapshot:
    """Evolve initial data (u0, u1) to time t on the chosen backend.

    ``evolve_state(data, params, 0.0)`` reproduces the initial data exactly:
    the multipliers reduce to (0, 1) at t = 0.
    """
    params.require_evolution()
    if t < 0:
        raise ValueError("time must be nonnegative")
    if backend is None:
        backend = GridBackend()
    return backend.evolve(data, params, t)


# ---------------------------------------------------------------------------
# norm functionals (accept snapshots, spectral fields, or profiles)
# ---------------------------------------------------------------------------

def _gagliardo_scale(s: float) -> float:
    # lazily imported: the constant lives with the seminorm oracles
    from .lemmas import gagliardo_constant
    return 2.0 / gagliardo_constant(s)


def l2_norm(obj) -> float:
    """Physical-level norm of a snapshot, spectral field, or profile."""
    if isinstance(obj, (Snapshot, SpectralField)):
        return obj.physical_l2()
    if isinstance(obj, Profile):
        from . import profiles
        return profiles.l2_norm(obj)
    raise TypeError(f"cannot take the norm of {type(obj).__name__}")


def hs_seminorm(obj, s: float) -> float:
    """Norm of (-Laplacian)^(s/2) applied to the object's physical field."""
    if s < 0:
        raise ValueError("fractional order must be nonnegative")
    if isinstance(obj, (Snapshot, SpectralField)):
        return obj.hs_seminorm(s)
    if isinstance(obj, Profile):
        # at t = 0 the evolution order in Parameters plays no part
        return evolve_state((obj, ZERO), Parameters(1.0), 0.0,
                            QuadratureBackend()).hs_seminorm(s)
    raise TypeError(f"cannot take the seminorm of {type(obj).__name__}")


def hs_norm(obj, s: float) -> float:
    """Full fractional Sobolev norm with the Gagliardo-scaled seminorm.

    hs_norm^2 = l2_norm^2 + (sqrt(2) C(1,s)^(-1/2) * hs_seminorm)^2, matching
    the double-integral definition of the seminorm.
    """
    if s < 0:
        raise ValueError("fractional order must be nonnegative")
    a = l2_norm(obj)
    b = hs_seminorm(obj, s)
    return float(np.sqrt(a * a + _gagliardo_scale(s) * b * b))
