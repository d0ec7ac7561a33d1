"""Growth-law extraction from norm time series and sandwich verification.

The long-time theory pins two growth laws for the transform-level norm when
the velocity moment P does not vanish: a power law t^(1-1/(2s)) for
s in (1/2, 1) and sqrt(log t) at s = 1/2, each wedged between explicit lower
and upper envelopes from some finite onset time t0 on.  This module samples
norm curves, fits the observed exponent (least squares in the appropriate
coordinates), and scans for the onset time from which a sandwich of
``BoundSpec`` envelopes holds through the end of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConventionError, SeriesError
from .estimates import BoundSpec
from .spectral import (Parameters, QuadratureBackend, check_time_cap,
                       evolve_state)

__all__ = ["NormSeries", "RateReport", "sample_norm_curve",
           "fit_power_exponent", "fit_log_rate", "sandwich_check",
           "default_window"]


@dataclass(frozen=True)
class NormSeries:
    """Norm values over a strictly increasing positive time grid."""

    t: np.ndarray
    values: np.ndarray
    level: str = "u_hat"                 # "u_hat" | "u"
    provenance: dict = field(default_factory=dict)
    zero: bool = False                   # explicit all-zero variant

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise SeriesError("time grid and values must be 1-d and equal length")
        _check_time_grid(t)
        if self.level not in ("u_hat", "u"):
            raise SeriesError(f"unknown norm level {self.level!r}")
        if self.zero:
            if np.any(v != 0):
                raise SeriesError("zero series must be identically zero")
        else:
            if not np.all(np.isfinite(v)) or np.any(v <= 0):
                raise SeriesError("norm values must be finite and positive "
                                  "(use the zero-series variant for zero data)")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.t.size

    def restrict(self, lo: float, hi: float) -> "NormSeries":
        m = (self.t >= lo) & (self.t <= hi)
        return NormSeries(self.t[m], self.values[m], self.level,
                          dict(self.provenance), self.zero)


@dataclass(frozen=True)
class RateReport:
    """Outcome of a fit or sandwich scan over a norm series."""

    model: str                       # "power" | "log" | "sandwich"
    exponent: float | None = None    # fitted power alpha
    slope: float | None = None       # fitted slope of values^2 vs log t
    intercept: float | None = None
    residual: float = 0.0            # RMS residual in fit coordinates
    r_squared: float | None = None
    window: tuple | None = None
    pass_fraction: float | None = None
    t0: float | None = None          # scanned onset of the lower envelope
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pass_fraction is not None and not 0.0 <= self.pass_fraction <= 1.0:
            raise SeriesError("pass fraction must lie in [0, 1]")
        if self.residual < 0:
            raise SeriesError("residual must be nonnegative")

    @property
    def passed(self) -> bool:
        return self.pass_fraction == 1.0

    def to_dict(self) -> dict:
        out = {"model": self.model, "exponent": self.exponent,
               "slope": self.slope, "intercept": self.intercept,
               "residual": self.residual, "r_squared": self.r_squared,
               "window": list(self.window) if self.window else None,
               "pass_fraction": self.pass_fraction, "t0": self.t0}
        out.update(self.detail)
        return out


def _check_time_grid(t: np.ndarray) -> None:
    """Raise SeriesError unless the times are positive and strictly increasing."""
    if np.any(np.diff(t) <= 0) or np.any(t <= 0):
        raise SeriesError("time grid must be positive and strictly increasing")


def sample_norm_curve(data, params: Parameters, t_grid, backend=None,
                      level: str = "u_hat") -> NormSeries:
    """Evaluate the norm of the evolved solution over a time grid.

    Every sample is one ``evolve_state`` call, mapped over the grid by
    ``experiments.map_times`` with the backend (so its thread policy
    applies: FRACWAVE_THREADS on a large grid, serial otherwise), once the
    grid has passed ``_check_time_grid`` and ``check_time_cap``.  Zero data
    yields the explicit zero-series variant.
    """
    from .experiments import map_times   # experiments imports this module
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise SeriesError("empty time grid")
    _check_time_grid(t_grid)
    if backend is None:
        backend = QuadratureBackend()
    check_time_cap(backend, t_grid, params.s)
    u0, u1 = data
    provenance = {"backend": backend.name, "s": params.s,
                  "u0": repr(u0), "u1": repr(u1)}
    if u0.is_zero and u1.is_zero:
        return NormSeries(t_grid, np.zeros_like(t_grid), level, provenance,
                          zero=True)

    def norm(t):
        snap = evolve_state(data, params, float(t), backend)
        return snap.spectral_l2() if level == "u_hat" else snap.physical_l2()

    return NormSeries(t_grid, np.array(map_times(norm, t_grid, backend)), level,
                      provenance)


def default_window(series: NormSeries, t0: float | None = None) -> tuple:
    """Fit window: the last two decades of the grid, clipped below at t0."""
    hi = float(series.t[-1])
    lo = max(hi / 100.0, float(series.t[0]))
    if t0 is not None:
        lo = max(lo, t0)
    return (lo, hi)


def _windowed(series: NormSeries, window):
    if series.zero:
        raise SeriesError("cannot fit a growth law to the zero series")
    if window is None:
        window = default_window(series)
    sub = series.restrict(*window)
    if len(sub) < 8:
        raise SeriesError(f"need at least 8 samples in the fit window, got {len(sub)}")
    return sub, window


def fit_power_exponent(series: NormSeries, window=None) -> RateReport:
    """Least-squares exponent of values ~ C t^alpha over the window."""
    sub, window = _windowed(series, window)
    slope, intercept, residual, r2 = _line_fit(np.log(sub.t), np.log(sub.values))
    return RateReport(model="power", exponent=slope, intercept=intercept,
                      residual=residual, r_squared=r2, window=window)


def fit_log_rate(series: NormSeries, window=None) -> RateReport:
    """Least-squares slope of values^2 against log t over the window."""
    sub, window = _windowed(series, window)
    if np.any(sub.t <= 1.0):
        raise SeriesError("log-law fits need t > 1 throughout the window")
    slope, intercept, residual, r2 = _line_fit(np.log(sub.t), sub.values ** 2)
    return RateReport(model="log", slope=slope, intercept=intercept,
                      residual=residual, r_squared=r2, window=window)


def _line_fit(x, y) -> tuple:
    """Slope, intercept, RMS residual and R^2 of the least-squares line."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else float(1.0 - np.sum(resid ** 2) / ss_tot)
    return (float(slope), float(intercept),
            float(np.sqrt(np.mean(resid ** 2))), r2)


def sandwich_check(series: NormSeries, lower: BoundSpec,
                   upper: BoundSpec) -> RateReport:
    """Verify lower.evaluate(t) <= value <= upper.evaluate(t) sample-wise.

    The onset t0 is scanned as the first sample from which the lower envelope
    holds through the end of the series; the reported pass fraction counts
    both inequalities over t >= t0, so ``passed`` means the full sandwich
    holds from a finite onset inside the sampled range.
    """
    if series.zero:
        raise SeriesError("sandwich checks need a nonzero series")
    for bound in (lower, upper):
        if bound.level != series.level:
            raise ConventionError(
                f"bound stated at level {bound.level!r} cannot be checked "
                f"against a series at level {series.level!r}")
    if lower.kind != "lower" or upper.kind != "upper":
        raise SeriesError("pass the envelopes as (lower, upper)")

    t_min = max(lower.min_time(), upper.min_time())
    m = series.t > t_min
    t = series.t[m]
    v = series.values[m]
    if t.size == 0:
        raise SeriesError("no samples inside the bounds' validity region")
    lo = np.atleast_1d(lower.evaluate(t))
    hi = np.atleast_1d(upper.evaluate(t))
    ok_lower = lo <= v
    ok_upper = v <= hi

    # first index from which the lower bound holds through the last sample
    holds_to_end = np.logical_and.accumulate(ok_lower[::-1])[::-1]
    idx = np.nonzero(holds_to_end)[0]
    first_bad_t = None
    if not np.all(ok_upper):
        first_bad_t = float(t[np.argmin(ok_upper)])
    detail = {"lower_ok": int(np.sum(ok_lower)), "upper_ok": int(np.sum(ok_upper)),
              "n": int(t.size), "first_upper_violation": first_bad_t}
    if idx.size == 0:
        return RateReport(model="sandwich", pass_fraction=0.0, t0=None,
                          window=(float(t[0]), float(t[-1])), detail=detail)
    i0 = int(idx[0])
    frac = float(np.mean(ok_lower[i0:] & ok_upper[i0:]))
    return RateReport(model="sandwich", pass_fraction=frac, t0=float(t[i0]),
                      window=(float(t[i0]), float(t[-1])), detail=detail)
