"""Closed-form bound curves and the proof-machinery computations behind them.

The transform-level norm ||uhat(t)||_2 of the evolved solution obeys, for
one-dimensional data with nonzero velocity moment P = integral u1 dx,

    lower:  (theta0/4) |P| t^(1 - 1/(2s))            (1/2 < s < 1)
            (|P| / (3e)) sqrt(log t)                 (s = 1/2)
    upper:  sqrt(4s/(2s-1)) (||u0||_2 + ||u1||_1) t^(1 - 1/(2s))
            2 (||u0||_2 + ||u1||_2 + ||u1||_1) sqrt(log t)

for all large t, where theta0 in (0,1) is any angle with sin(x)/x >= 1/2 on
(0, theta0].  This module provides those curves as ``BoundSpec`` values, the
frequency-splitting diagnostic at the radius theta0 * t^(-1/s), the
log-growth integral

    K1(t) = 2 * integral_0^inf e^(-r^2) sin^2(t sqrt(r)) / r dr,

and the alternating area sums over the sine bumps of K1's integrand that
establish its logarithmic growth.  Everything here is stated at the raw
transform level ("u_hat"); physical-level statements differ by the
(2 pi)^(-1/2) Plancherel factor of the convention and are tagged "u".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InfeasibleThresholdError, NumericalFailureError,
                     ValidityError, WrongRegimeError)
from .quadrature import oscillatory_integral
from .spectral import Parameters, QuadratureBackend, evolve_state

__all__ = [
    "BoundSpec", "SplitReport", "AreaSumReport",
    "select_theta0", "fourier_split",
    "power_lower_bound", "power_upper_bound",
    "log_lower_bound", "log_upper_bound",
    "log_growth_integral", "area_sums",
    "uniform_bound", "measure_constant",
]

_LOG_EPS = 1e-12
#: upper limit in r of the log-growth integral
LOG_GROWTH_CUTOFF = 7.8
#: terms of the power series of E1 on (0, 1]
EXP1_SERIES_TERMS = 25
#: largest splitting angle ``select_theta0`` returns
THETA0_CAP = 0.99


@dataclass(frozen=True)
class BoundSpec:
    """A closed-form bound curve: C * t^alpha, C * sqrt(log t), or C.

    ``level`` records which Plancherel convention the statement lives at:
    "u_hat" for raw transform-level norms, "u" for physical norms.
    """

    kind: str                      # "lower" | "upper"
    form: str                      # "power" | "sqrtlog" | "constant"
    constant: float
    exponent: float | None = None  # for form == "power"
    validity: float | None = None  # smallest trustworthy t, if known
    level: str = "u_hat"

    def __post_init__(self):
        if self.kind not in ("lower", "upper"):
            raise ValueError(f"kind must be lower/upper, got {self.kind!r}")
        if self.form not in ("power", "sqrtlog", "constant"):
            raise ValueError(f"unknown bound form {self.form!r}")
        if self.constant < 0:
            raise ValueError("bound constant must be nonnegative")
        if self.form == "power" and self.exponent is None:
            raise ValueError("power-form bounds need an exponent")
        if self.level not in ("u_hat", "u"):
            raise ValueError(f"unknown norm level {self.level!r}")

    def min_time(self) -> float:
        floor = 1.0 + _LOG_EPS if self.form == "sqrtlog" else 0.0
        if self.validity is not None:
            floor = max(floor, self.validity)
        return floor

    def evaluate(self, t):
        """Bound value at time(s) t; rejects t outside the validity region."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.min_time()):
            raise ValidityError(
                f"{self.form} bound is only valid for t >= {self.min_time():g}")
        if self.form == "power":
            out = self.constant * t ** self.exponent
        elif self.form == "sqrtlog":
            out = self.constant * np.sqrt(np.log(t))
        else:
            out = np.full_like(t, self.constant)
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "form": self.form, "constant": self.constant,
                "exponent": self.exponent, "validity": self.validity,
                "level": self.level}


def select_theta0(threshold: float = 0.5) -> float:
    """Largest admissible splitting angle theta0 < 1.

    Returns the largest angle (capped at THETA0_CAP) such that sin(x)/x stays
    at or above ``threshold`` on (0, theta0].  sin(x)/x decreases on (0, pi),
    so its minimum there is its value at the cap.
    When even the cap fails the threshold, raises InfeasibleThresholdError
    whose ``feasible_sup`` solves sin(x)/x = threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    cap = THETA0_CAP
    minimum = float(np.sin(cap) / cap)
    if minimum < threshold:
        lo, hi = 1e-12, np.pi - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sin(mid) / mid >= threshold:
                lo = mid
            else:
                hi = mid
        raise InfeasibleThresholdError(
            f"sin(x)/x drops to {minimum:.6f} < threshold {threshold:g} on "
            f"(0, {cap:g}]; the feasible supremum is {lo:.6f}",
            feasible_sup=float(lo))
    return cap


@dataclass(frozen=True)
class SplitReport:
    """Low/high frequency decomposition of the transform-level mass."""

    t: float
    theta0: float
    cut: float
    i_low: float
    i_high: float
    total: float

    def to_dict(self) -> dict:
        return {"t": self.t, "theta0": self.theta0, "cut": self.cut,
                "i_low": self.i_low, "i_high": self.i_high, "total": self.total}


def fourier_split(data, params: Parameters, t: float, theta0: float,
                  backend: QuadratureBackend | None = None) -> SplitReport:
    """Split the spectral mass at the time-dependent radius theta0 * t^(-1/s).

    Requires t > 1 so that the cut radius stays at or below one.  The three
    reported integrals (low, high, total) are computed independently; their
    closure i_low + i_high = total is a quadrature-consistency check, not an
    identity enforced by construction.
    """
    if t <= 1.0:
        raise ValidityError("frequency splitting is defined for t > 1")
    if backend is None:
        backend = QuadratureBackend()
    snap = evolve_state(data, params, t, backend)
    cut = theta0 * t ** (-1.0 / params.s)
    i_low = snap.spectral_mass(0.0, cut)
    i_high = snap.spectral_mass(cut, None)
    total = snap.spectral_mass(0.0, None)
    return SplitReport(t=t, theta0=theta0, cut=cut,
                       i_low=i_low, i_high=i_high, total=total)


def power_lower_bound(P: float, theta0: float, s: float) -> BoundSpec:
    """Transform-level lower envelope (theta0/4)|P| t^(1-1/(2s)), s in (1/2,1)."""
    _require_power_regime(s)
    if not 0.0 < theta0 < 1.0:
        raise ValueError("theta0 must lie in (0, 1)")
    return BoundSpec("lower", "power", constant=0.25 * theta0 * abs(P),
                     exponent=1.0 - 1.0 / (2.0 * s))


def power_upper_bound(M1: float, s: float) -> BoundSpec:
    """Transform-level upper envelope sqrt(4s/(2s-1)) M1 t^(1-1/(2s))."""
    _require_power_regime(s)
    if M1 < 0:
        raise ValueError("M1 must be nonnegative")
    return BoundSpec("upper", "power",
                     constant=np.sqrt(4.0 * s / (2.0 * s - 1.0)) * M1,
                     exponent=1.0 - 1.0 / (2.0 * s))


def _require_power_regime(s: float):
    if not 0.5 < s < 1.0:
        raise WrongRegimeError(
            f"power-law envelopes hold for s in (1/2, 1), got s={s}; "
            "at s = 1/2 use the sqrt(log t) bounds")


def log_lower_bound(P: float) -> BoundSpec:
    """Transform-level lower envelope (|P|/(3e)) sqrt(log t) for s = 1/2."""
    return BoundSpec("lower", "sqrtlog", constant=abs(P) / (3.0 * np.e))


def log_upper_bound(M2: float) -> BoundSpec:
    """Transform-level upper envelope 2 M2 sqrt(log t) for s = 1/2."""
    if M2 < 0:
        raise ValueError("M2 must be nonnegative")
    return BoundSpec("upper", "sqrtlog", constant=2.0 * M2)


def log_growth_integral(t: float) -> float:
    """The damped oscillatory integral 2 int_0^inf e^(-r^2) sin^2(t sqrt(r))/r dr.

    In the contract of ``oscillatory_integral`` it is the form
    alpha sin^2 w with phase w = t r^(1/2) and alpha = 2 e^(-r^2)/r, cut off
    at r = LOG_GROWTH_CUTOFF where e^(-r^2) < 1e-26, so its cost does not
    grow with t.  Grows like 2 log(2t) + 3 gamma_Euler/2, with a remainder
    that decays faster than any power of 1/t.
    """
    if t <= 1.0:
        raise ValidityError("the log-growth integral is evaluated for t > 1")

    def form(r, r_s):
        alpha = 2.0 * np.exp(-r * r) / r
        return alpha, 0.0, 0.0

    val = oscillatory_integral(form, t, 0.5, LOG_GROWTH_CUTOFF)
    if not np.isfinite(val) or val <= 0:
        raise NumericalFailureError(
            f"log-growth integral at t={t:g} returned {val!r}")
    return val


@dataclass(frozen=True)
class AreaSumReport:
    """Alternating area decomposition of int_{a0}^inf e^(-r^2)/r dr.

    The sine bumps of sin^2(t sqrt(r)) sit over [a_i, b_i] with
    a_i = ((i+1/4) pi/t)^2 and b_i = ((i+3/4) pi/t)^2; A_i integrates
    e^(-r^2)/r over a bump, B_i over the following gap [b_i, a_{i+1}].
    """

    t: float
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    truncation_index: int
    tail: float
    tolerance: float

    @property
    def sum_A(self) -> float:
        return float(np.sum(self.A))

    @property
    def sum_B(self) -> float:
        return float(np.sum(self.B))

    @property
    def full_integral(self) -> float:
        """int_{a_0}^inf e^(-r^2)/r dr, exactly 0.5 * E1(a_0^2)."""
        return float(0.5 * _exp1(self.a[0] ** 2))

    def to_dict(self) -> dict:
        return {"t": self.t, "panels": int(self.truncation_index + 1),
                "sum_A": self.sum_A, "sum_B": self.sum_B,
                "full_integral": self.full_integral, "tail": self.tail,
                "max_B_over_A": float(np.max(self.B / self.A)),
                "tolerance": self.tolerance}


def _exp1(x) -> np.ndarray:
    """Exponential integral E1(x) = int_x^inf e^(-u)/u du for x > 0.

    Abramowitz & Stegun 5.1.11 on (0, 1]:
    E1 = -gamma_Euler - log x + x sum_(k>=0) (-x)^k / ((k+1) (k+1)!),
    with EXP1_SERIES_TERMS terms.  Above 1, 5.1.22: the continued fraction
    E1 = e^(-x) / (x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...))))), evaluated
    from its (20 + 80/x)-th level down, which has converged to rounding.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 1.0
    z = x[small]
    term, total = np.ones_like(z), np.ones_like(z)
    for k in range(1, EXP1_SERIES_TERMS + 1):
        term = -term * k * z / (k + 1) ** 2
        total += term
    out[small] = -np.euler_gamma - np.log(z) + z * total

    order = np.argsort(x[~small])
    z = x[~small][order]
    levels = 20 + (80.0 / z).astype(int)           # non-increasing along z
    ks = np.arange(levels[0] if z.size else 0, 0, -1)
    tail = np.zeros_like(z)
    for k, n in zip(ks.tolist(), np.searchsorted(-levels, -ks, side="right").tolist()):
        tail[:n] = k / (1.0 + k / (z[:n] + tail[:n]))      # the n with levels >= k
    big = np.empty_like(z)
    big[order] = np.exp(-z) / (z + tail)
    out[~small] = big
    return out


def area_sums(t: float, tolerance: float = 1e-10) -> AreaSumReport:
    """Bump/gap area integrals of e^(-r^2)/r until the tail is negligible.

    Panels accumulate until the analytic tail int_{a_I}^inf e^(-r^2)/r dr
    falls below ``tolerance`` times the bump sum.  All integrals use the
    exponential-integral closed form, so the only error is round-off.
    """
    if t <= np.pi / 4.0:
        raise ValidityError("area sums need t > pi/4 so that a_0 < 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")

    block = 8192
    parts = []          # (a, b, A, B) of each block, up to the last panel
    start = 0
    sum_A = 0.0
    # hard stop: beyond a_i^2 ~ 750 the integrals underflow to zero anyway
    i_hard = int(np.ceil(1.7 * t)) + 8
    while start <= i_hard:
        i = np.arange(start, min(start + block, i_hard + 1), dtype=float)
        a = ((i + 0.25) * np.pi / t) ** 2
        b = ((i + 0.75) * np.pi / t) ** 2
        a_last = ((i[-1:] + 1.25) * np.pi / t) ** 2
        # int_lo^hi e^(-r^2)/r dr = (E1(lo^2) - E1(hi^2)) / 2; a_(i+1) is the
        # next panel's a_i, so E1 is taken at a, b and the block's last a_(i+1)
        edges = np.concatenate([a, b, a_last])
        e = 0.5 * _exp1(edges * edges)
        e_a, e_b = e[:i.size], e[i.size:-1]
        tails = np.append(e_a[1:], e[-1])
        A = e_a - e_b
        B = e_b - tails
        sums = sum_A + np.cumsum(A)
        done = np.flatnonzero(tails <= tolerance * sums)
        end = done[0] + 1 if done.size else i.size
        parts.append((a[:end], b[:end], A[:end], B[:end]))
        if done.size:
            tail = float(tails[end - 1])
            break
        sum_A = float(sums[-1])
        start += block
    else:
        raise NumericalFailureError(
            f"area sums at t={t:g} failed to reach tolerance {tolerance:g}")

    a, b, A, B = (np.concatenate(column) for column in zip(*parts))
    if np.any(A <= 0) or np.any(B <= 0):
        raise NumericalFailureError(
            "area panels lost positivity before the tail criterion was met; "
            "tolerance is too tight for double precision")
    return AreaSumReport(t=t, a=a, b=b, A=A, B=B,
                         truncation_index=len(A) - 1, tail=tail,
                         tolerance=tolerance)


def uniform_bound(C: float, u0_l2: float, u1_l2: float,
                  u1_integral_norm: float) -> BoundSpec:
    """Constant-in-time bound sqrt(2)||u0||_2 + C(||u1||_2 + ||u1||_*).

    ``u1_integral_norm`` is either the plain L1 norm or a weighted L1 norm,
    depending on which boundedness statement is being instantiated.  The
    bound is at the physical level and valid for all t >= 0.
    """
    if C <= 0:
        raise ValueError("the measured constant C must be positive")
    for name, v in (("u0_l2", u0_l2), ("u1_l2", u1_l2),
                    ("u1_integral_norm", u1_integral_norm)):
        if v is None or v < 0:
            raise ValueError(f"missing or negative norm input {name}")
    value = np.sqrt(2.0) * u0_l2 + C * (u1_l2 + u1_integral_norm)
    return BoundSpec("upper", "constant", constant=float(value), level="u")


def measure_constant(family, functional) -> float:
    """Empirical best constant: max of lhs/rhs over a family of inputs.

    ``functional`` maps a family member to a (lhs, rhs) pair with the bound
    shaped as lhs <= C * rhs.  Degenerate 0/0 members are skipped; a family
    with no informative member is an error.
    """
    ratios = []
    for member in family:
        lhs, rhs = functional(member)
        if rhs == 0.0 and lhs == 0.0:
            continue
        if rhs == 0.0:
            return float("inf")
        ratios.append(lhs / rhs)
    if not ratios:
        raise ValueError("every family member was degenerate (0/0)")
    return float(max(ratios))
