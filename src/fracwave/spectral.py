"""Exact-in-time spectral evolution of u_tt + (-Laplacian)^s u = 0.

Taking the transform of the equation turns it into an independent oscillator
per frequency, solved exactly by trigonometric multipliers:

    uhat(t, xi)  = sin(t w)/w * u1hat(xi) + cos(t w) * u0hat(xi),
    uthat(t, xi) = cos(t w) * u1hat(xi) - w * sin(t w) * u0hat(xi),

with w = |xi|^s.  No time stepping is involved; t is a plain parameter, and
the pair conserves |uthat|^2 + |xi|^(2s) |uhat|^2 bin-wise as an exact
trigonometric identity.  ``propagate`` is the one place these formulas are
written as fields; the grid backend calls it, and the quadrature backend's
densities write the squared modulus of the same pair in closed form.

Two evaluation backends realize this:

* ``GridBackend``        samples the data on a uniform grid and applies the
  multipliers to FFT bins.  Fast and general (works for sampled data) but
  trustworthy only while the solution's content fits the box, hence the hard
  time cap.  Zero data is not transformed, and equal data once.  Real
  data make every field Hermitian, so a snapshot propagates and takes
  norms on the bins k = -N/2..0 alone, from one phase evaluation, and
  mirrors a full field (u_hat, ut_hat, then their physical forms) on its
  first read.
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

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import profiles
from .errors import BackendCapError, BackendMismatchError
from .grid import GridSpec
from .lemmas import gagliardo_constant
from .profiles import ZERO, Profile, SampledProfile, TruncationWarning
from .quadrature import (MASS_FLOOR, check_time, frequency_cutoff,
                         oscillatory_integral, panel_width, support_hull)

TWO_PI = 2.0 * np.pi

#: below this phase, sin(w)/w switches to its series to dodge cancellation
SERIES_PHASE = 1e-8

#: latest time the grid backend evolves to (see ``GridBackend``)
GRID_TIME_CAP = 100.0


@dataclass(frozen=True)
class Parameters:
    """Problem parameters: the fractional order s; the evolution is in one
    space dimension."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1], got {self.s}")


def sine_multiplier(s: float, t: float, xi):
    """Solution-operator symbol sin(t |xi|^s) / |xi|^s.

    Total on t >= 0: at xi = 0 the removable singularity evaluates to t, and
    below phase 1e-8 the series t*(1 - (t|xi|^s)^2/6) replaces the quotient
    to avoid cancellation.  It is ``propagate``'s u for u1hat = 1, u0 = 0.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    out = propagate(s, t, np.asarray(xi, dtype=float), None, 1.0, "u")
    return out if out.ndim else float(out)


def propagate(s: float, t: float, xi, u0_hat, u1_hat, field: str | None = None):
    """The exact propagator: (uhat, uthat) at time t from the data transforms.

    ``field`` "u" or "ut" returns that field alone.  A datum given as None is
    zero data and its term is skipped.  The phase is computed from xi once,
    with only the sine or cosine the requested field reads, and
    sin(w)/|xi|^s keeps the series that makes xi = 0 admissible.
    """
    want_u, want_ut = field != "ut", field != "u"
    xi_s = np.abs(xi) ** s
    w = t * xi_s
    # u reads sin w through u1 and cos w through u0; ut the other way round
    need_sin = (want_u and u1_hat is not None) or (want_ut and u0_hat is not None)
    need_cos = (want_u and u0_hat is not None) or (want_ut and u1_hat is not None)
    sin_w = np.sin(w) if need_sin else None
    cos_w = np.cos(w) if need_cos else None
    r1 = None
    if want_u and u1_hat is not None:
        # sin(w)/|xi|^s, with the series below SERIES_PHASE
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.asarray(sin_w / xi_s)
        small = np.asarray(w < SERIES_PHASE)
        if small.any():
            w_small = np.asarray(w)[small]
            r1[small] = t * (1.0 - w_small * w_small / 6.0)
    del w   # on a 2^20-point grid every full-length array is 8-16 MB
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
    """Common surface of the two backend-specific solution states.

    Every norm is the square root of a spectral mass, the line integral of
    |fieldhat|^2 |xi|^weight_exp for the field "u" or "ut", divided by
    ``over``; ``_norm`` computes it from each backend's ``_mass``.
    """

    t: float
    params: Parameters

    def _mass(self, field: str, weight_exp: float, scale: float = 1.0) -> float:
        """The spectral mass of the field divided by ``scale``."""
        raise NotImplementedError

    def _peak(self, field: str) -> float:
        """A scale of the field's spectrum, 0 for a zero field."""
        raise NotImplementedError

    def _norm(self, field: str, weight_exp: float, over: float = 1.0) -> float:
        """sqrt(mass / over).  A mass below MASS_FLOOR has lost digits to
        underflow (tiny t or tiny data), so it is taken again on the field
        divided by its ``_peak``."""
        mass = self._mass(field, weight_exp)
        if mass < MASS_FLOOR:
            peak = self._peak(field)
            if peak > 0.0:
                return float(peak * np.sqrt(self._mass(field, weight_exp, peak) / over))
        return float(np.sqrt(mass / over))

    def spectral_l2(self) -> float:
        """Transform-level norm of u(t)."""
        return self._norm("u", 0.0)

    def physical_l2(self) -> float:
        return self.spectral_l2() / np.sqrt(TWO_PI)

    def ut_l2(self) -> float:
        """Physical-level norm of u_t(t)."""
        return self._norm("ut", 0.0, TWO_PI)

    def hs_seminorm(self, s: float) -> float:
        """Physical-level norm of (-Laplacian)^(s/2) applied to u(t)."""
        return self._norm("u", 2 * s, TWO_PI)

    def energy(self) -> float:
        """Total energy (1/2)(||u_t||_2^2 + ||(-Lap)^(s/2) u||_2^2)."""
        return 0.5 * (self.ut_l2() ** 2 + self.hs_seminorm(self.params.s) ** 2)


class GridSnapshot(Snapshot):
    """Solution state on FFT bins, held as the data spectra and the time.

    A zero datum has no spectrum (None) and its term is skipped.  Real data
    have Hermitian spectra, fhat(-xi) = conj fhat(xi), and the multipliers
    are even in xi, so every field is Hermitian too: the data spectra are
    held on the bins k = -N/2..0 (``GridSpec.half_forward``).  A norm
    propagates only the bins -band..0 (``GridBackend._band``) and reads
    them with Hermitian weights.  The full fields ``u_hat`` and ``ut_hat``
    propagate every bin -N/2..0 of ``field_spectra()`` (the data sampled at
    every grid point, where ``spectra`` sampled a window; None: the same)
    and mirror them into the positive bins, and the physical ``u`` and
    ``ut`` transform them back.  All four are built on first read, so a
    norm of u never builds u_t or any full-length field.
    """

    def __init__(self, t: float, params: Parameters, grid: GridSpec,
                 spectra: tuple, band: int, field_spectra=None):
        self.t = t
        self.params = params
        self.grid = grid
        self._data = spectra
        self._field_spectra = field_spectra
        self._band = band
        # the norms' bins and spectra are the fields' own
        self._shared = band == grid.points // 2 and field_spectra is None
        # band mass per (field, weight_exp, scale), shared by the norm methods
        self._masses: dict[tuple, float] = {}
        # propagated bins per (field, full): the norms' (False) or every bin
        # -N/2..0 (True); a shared snapshot's norms read the full entries
        self._bins: dict[tuple, np.ndarray] = {}

    def _fields(self, field: str | None, full: bool = False):
        """``propagate`` on the norms' bins -band..0, or on every bin -N/2..0
        of the fields' spectra; all-zero data gives zero bins."""
        half = self.grid.points // 2
        k, data = (half, self._field_data) if full else (self._band, self._data)
        if all(d is None for d in data):
            zero = np.zeros(k + 1, dtype=complex)
            return zero if field else (zero, zero)
        return propagate(self.params.s, self.t, self._axis(k),
                         *(None if d is None else d[half - k:] for d in data), field)

    def _axis(self, k):
        """The frequencies of bins -k..0, made afresh: slicing the grid's
        cached full axis would keep N points alive for the whole process."""
        return self.grid.dxi * np.arange(-k, 1)

    @cached_property
    def _field_data(self) -> tuple:
        return self._data if self._field_spectra is None else self._field_spectra()

    def _bins_of(self, field: str, full: bool = False) -> np.ndarray:
        """The field's norm bins, or with ``full`` its bins -N/2..0, built on
        first read and kept in ``_bins``."""
        key = (field, full or self._shared)
        bins = self._bins.get(key)
        if bins is None:
            bins = self._bins[key] = self._fields(field, key[1])
        return bins

    def _peak(self, field):
        """The field's largest bin modulus."""
        return np.max(np.abs(self._bins_of(field)))

    def _mass(self, field, weight_exp, scale=1.0):
        key = (field, weight_exp, scale)
        mass = self._masses.get(key)
        if mass is None:
            values = self._bins_of(field)
            mass = self._masses[key] = self._band_mass(
                values if scale == 1.0 else values / scale, weight_exp)
        return mass

    def _band_mass(self, values, weight_exp):
        """dxi times the sum of |value|^2 |xi|^weight_exp over the band and
        its mirror: bins -band+1..-1 count twice, and 0 and -N/2, which
        have no mirror, once."""
        half = self.grid.points // 2
        density = np.abs(values) ** 2
        if weight_exp != 0.0:
            density = np.abs(self._axis(self._band)) ** weight_exp * density
        mirrored = 2.0 * density.sum()
        if self._band == half:
            mirrored -= density[0]
        return self.grid.dxi * (mirrored - density[-1])

    @cached_property
    def u_hat(self) -> SpectralField:
        return SpectralField(self.grid.mirror(self._bins_of("u", True)), self.grid)

    @cached_property
    def ut_hat(self) -> SpectralField:
        return SpectralField(self.grid.mirror(self._bins_of("ut", True)), self.grid)

    @cached_property
    def u(self) -> np.ndarray:
        return self.u_hat.physical()

    @cached_property
    def ut(self) -> np.ndarray:
        return self.ut_hat.physical()

    def energy(self):
        full = self._shared
        if ("u", full) not in self._bins and ("ut", full) not in self._bins:
            # both fields are read: build them from one phase
            self._bins["u", full], self._bins["ut", full] = self._fields(None)
        return super().energy()


class QuadratureSnapshot(Snapshot):
    """Solution state as closed-form spectral functions, valid at any t.

    Every norm is a ``spectral_mass``, an ``oscillatory_integral`` over an
    interval of |xi|.  A rule = nodes + form weights, built once per
    snapshot interval, and the snapshot keeps it.  At the rule's nodes it
    keeps one squared form of the data, P = |u1hat|^2, Q = |u0hat|^2 and
    R = 2 Re(u1hat conj(u0hat)), taken once per rule: the densities of u,
    u_t and (-Lap)^(s/2) u, which all run to the data's one
    ``frequency_cutoff``, are each a few products of it.  Equal data are
    transformed once.
    """

    def __init__(self, t: float, params: Parameters, u0: Profile, u1: Profile):
        self.t = t
        self.params = params
        self.u0 = u0
        self.u1 = u1
        # spectral_mass per (lo, hi, field, weight_exp, scale): the norm
        # methods and energy() share integrals instead of recomputing them
        self._masses: dict[tuple, float] = {}
        # their oscillatory rules, and the form at the rules' nodes
        self._rules: dict[tuple, object] = {}
        self._forms: dict[tuple, tuple] = {}
        # what every mass reads: the nonzero data, their frequency_cutoff
        # and their panel_width
        self._data = [p for p in (u0, u1) if not p.is_zero]
        self._cutoff = frequency_cutoff(self._data)
        self._width = panel_width(self._data)

    def _transforms(self, xi):
        """(u0hat, u1hat) at xi; a zero profile's transform is not taken,
        and equal data share one."""
        if self.u0.is_zero:
            return None, self.u1.fourier(xi)
        u0_hat = self.u0.fourier(xi)
        if self.u1.is_zero:
            return u0_hat, None
        return u0_hat, (u0_hat if _same_datum(self.u1, self.u0)
                        else self.u1.fourier(xi))

    def _form(self, xi, scale):
        """(P, Q, R) at xi for the data divided by ``scale``, None for the
        terms of a zero datum (``_squared_form``).

        A rule's nodes are read-only arrays that live in ``_rules`` with the
        rule, so the form at them is kept, by the array's identity and the
        scale, for every later density on that rule.  Writable arrays, which
        the static rule at t = 0 makes afresh for each panel, are not kept.
        """
        key, kept = (id(xi), scale), not xi.flags.writeable
        # the entry holds xi, so no other array can take its id meanwhile
        hit = self._forms.get(key) if kept else None
        if hit is not None:
            return hit[1]
        u0_hat, u1_hat = self._transforms(xi)
        if scale != 1.0:
            # the underflow rescue: the transforms are divided before they
            # are squared, so the form keeps every digit
            u0_hat, u1_hat = (None if d is None else d / scale
                              for d in (u0_hat, u1_hat))
        form = _squared_form(u0_hat, u1_hat)
        if kept:
            self._forms[key] = (xi, form)
        return form

    def _field_at(self, field, xi):
        xi = np.asarray(xi, dtype=float)
        return propagate(self.params.s, self.t, xi, *self._transforms(xi), field)

    def u_hat_at(self, xi) -> np.ndarray:
        return self._field_at("u", xi)

    def ut_hat_at(self, xi) -> np.ndarray:
        return self._field_at("ut", xi)

    def _field_density(self, field: str, weight_exp: float,
                       scale: float = 1.0):
        """|fieldhat|^2 |xi|^weight in the ``oscillatory_integral`` contract,
        for the data transforms divided by ``scale``.

        At xi > 0 the field is a sin w + b cos w, with (a, b) =
        (u1hat/xi^s, u0hat) for u and (-xi^s u0hat, u1hat) for u_t (the
        multipliers of ``propagate``); its squared modulus has the
        coefficients (|a|^2, |b|^2, 2 Re(a conj(b))), which are
        (P/xi^2s, Q, R/xi^s) for u and (Q xi^2s, P, -R xi^s) for u_t in the
        data's form (P, Q, R).  The weight |xi|^(2s) of the H^s seminorm is
        xi^s xi^s.  A zero datum's terms are zero and are not computed.
        """
        s = self.params.s

        def density(xi, xi_s):
            xi = np.asarray(xi, dtype=float)
            p, q, r = self._form(xi, scale)
            xi_2s = xi_s * xi_s
            if field == "u":
                coeffs = (None if p is None else p / xi_2s, q,
                          None if r is None else r / xi_s)
            else:
                coeffs = (None if q is None else q * xi_2s, p,
                          None if r is None else -(r * xi_s))
            if weight_exp != 0.0:
                weight = xi_2s if weight_exp == 2.0 * s else np.abs(xi) ** weight_exp
                coeffs = tuple(None if c is None else c * weight for c in coeffs)
            zero = np.zeros(xi.shape)
            return tuple(zero if c is None else c for c in coeffs)

        return density

    def spectral_mass(self, lo: float, hi: float | None = None,
                      field: str = "u", weight_exp: float = 0.0,
                      scale: float = 1.0) -> float:
        """Integral of |fieldhat(t,xi)|^2 |xi|^weight over lo <= |xi| <= hi,
        for the data divided by ``scale``.

        Real initial data make the density even in xi, so the line integral
        is twice the half-line one.  ``hi`` None is the data's
        ``frequency_cutoff``.  Each value is computed once per snapshot, and
        the rule of an interval once for every mass on it.
        """
        if hi is None:
            hi = self._cutoff
        if hi <= lo or not self._data:
            return 0.0
        key = (lo, hi, field, weight_exp, scale)
        mass = self._masses.get(key)
        if mass is None:
            density = self._field_density(field, weight_exp, scale)
            mass = 2.0 * oscillatory_integral(
                density, self.t, self.params.s, hi, xi_lo=lo,
                width=self._width, rules=self._rules)
            self._masses[key] = mass
        return mass

    def _mass(self, field, weight_exp, scale=1.0):
        return self.spectral_mass(0.0, field=field, weight_exp=weight_exp,
                                  scale=scale)

    def _peak(self, field):
        """The data transforms' largest modulus at 64 frequencies up to the
        cutoff; both fields are made of them."""
        probe = np.linspace(0.0, self._cutoff, 65)[1:]
        return max((np.max(np.abs(d)) for d in self._transforms(probe)
                    if d is not None), default=0.0)


def _same_datum(p: Profile, q: Profile) -> bool:
    """Whether two data are one: the same object, or equal values, whose
    transforms and grid samples are the same, so one is taken for both."""
    return p is q or p == q


def _squared_form(u0_hat, u1_hat):
    """(P, Q, R) = (|u1hat|^2, |u0hat|^2, 2 Re(u1hat conj(u0hat))), None
    for the terms of a None (zero) datum; one transform given twice is
    squared once."""
    p = None if u1_hat is None else u1_hat.real ** 2 + u1_hat.imag ** 2
    if u1_hat is u0_hat:
        return p, p, None if p is None else 2.0 * p
    q = None if u0_hat is None else u0_hat.real ** 2 + u0_hat.imag ** 2
    r = (None if p is None or q is None
         else 2.0 * (u1_hat.real * u0_hat.real + u1_hat.imag * u0_hat.imag))
    return p, q, r


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
        check_time_cap(self, (t,), params.s)
        windows = [None if p.is_zero else self._window(p) for p in data]
        # the fields read the data sampled at every point
        full = (None if windows == [None, None]
                else lambda: self._spectra(data, (None, None)))
        return GridSnapshot(t, params, self.grid, self._spectra(data, windows),
                            self._band([p for p in data if not p.is_zero]), full)

    def _spectra(self, data, windows) -> tuple:
        """(u0hat, u1hat), the ``_spectrum`` of each datum in its window;
        equal data (``_same_datum``) are transformed once."""
        u0_hat = self._spectrum(data[0], windows[0])
        u1_hat = (u0_hat if _same_datum(data[1], data[0])
                  else self._spectrum(data[1], windows[1]))
        return u0_hat, u1_hat

    def _inside(self, lo: float, hi: float) -> bool:
        """Whether [lo, hi] lies inside the box, clear of its edges."""
        return -self.grid.half_width < lo and hi < self.grid.half_width

    def _band(self, data) -> int:
        """K of the bins -K..0 a norm reads: |xi| up to the data's
        ``frequency_cutoff``, or up to the grid's highest frequency.

        Data whose ``support_hull`` reaches the box edge are cut off by it,
        so their spectrum beyond the cutoff is not rounding: they keep every
        bin, K = N/2, as do sampled data, whose support is the box.
        """
        half = self.grid.points // 2
        if not self._inside(*support_hull(data)):
            return half
        k = frequency_cutoff(data) / self.grid.dxi
        return int(k) if k < half else half

    def _window(self, p: Profile) -> slice | None:
        """The grid points inside the profile's ``support()``, or None when
        the support reaches the box edge, as a sampled profile's does."""
        lo, hi = p.support()
        if not self._inside(lo, hi):
            return None
        L, dx = self.grid.half_width, self.grid.dx
        return slice(math.ceil((lo + L) / dx),
                     min(math.floor((hi + L) / dx) + 1, self.grid.points))

    def _spectrum(self, p: Profile, window: slice | None) -> np.ndarray | None:
        """The datum's FFT bins -N/2..0, or None for zero data (not
        transformed); the snapshot reads no other bin.  An analytic datum
        with a ``window`` is evaluated at its points only and is zero
        elsewhere, where it is below CUTOFF_TOL of its scale."""
        sampled = isinstance(p, SampledProfile)
        if sampled and p.grid != self.grid:
            raise BackendMismatchError(
                "sampled profile lives on a different grid than the backend")
        if p.is_zero:
            return None
        if window is None:
            samples = inside = p.values if sampled else p.evaluate(self.grid.x())
        else:
            L, dx = self.grid.half_width, self.grid.dx
            samples = np.zeros(self.grid.points)
            # -L + dx*j, as GridSpec.x() computes it, without the full axis
            inside = samples[window] = p.evaluate(
                -L + dx * np.arange(window.start, window.stop))
        peak = max(inside.max(), -inside.min()) if inside.size else 0.0
        edge = max(abs(samples[0]), abs(samples[-1]))
        if peak > 0 and edge > 1e-14 * peak:
            warnings.warn(
                f"initial data magnitude {edge/peak:.2e} (relative) at |x| = "
                f"{self.grid.half_width:g}; periodization error may be visible",
                TruncationWarning, stacklevel=4)
        spectrum = self.grid.half_forward(samples)
        spectrum.setflags(write=False)
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


def check_time_cap(backend, times, s: float) -> None:
    """Raise BackendCapError if the grid backend is given a time past the
    cap, and NumericalFailureError if the quadrature backend is given one
    too large for its rule at order s (``quadrature.check_time``).

    Runners call it on the whole time grid, so no sample is solved first.
    """
    for t in times:
        if not isinstance(backend, GridBackend):
            check_time(t, s)
        elif t > GRID_TIME_CAP:
            raise BackendCapError(
                f"grid backend is capped at t <= {GRID_TIME_CAP:g} "
                f"(requested t={t:g}); use the quadrature backend")


def evolve_state(data, params: Parameters, t: float, backend=None) -> Snapshot:
    """Evolve initial data (u0, u1) to time t on the chosen backend.

    ``evolve_state(data, params, 0.0)`` reproduces the initial data exactly:
    the multipliers reduce to (0, 1) at t = 0.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if backend is None:
        backend = GridBackend()
    return backend.evolve(data, params, t)


# ---------------------------------------------------------------------------
# norm functionals (accept snapshots, spectral fields, or profiles)
# ---------------------------------------------------------------------------

def l2_norm(obj) -> float:
    """Physical-level norm of a snapshot, spectral field, or profile."""
    if isinstance(obj, (Snapshot, SpectralField)):
        return obj.physical_l2()
    if isinstance(obj, Profile):
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
    return float(np.sqrt(a * a + 2.0 / gagliardo_constant(s) * b * b))
