"""Reproducible named experiments: config parsing, runners, file outputs.

A config is a flat key-value text file (``key = value`` per line, ``#``
comments).  Each key is one ``ExperimentConfig`` field, which checks its own
values; parsing rejects unknown keys with line diagnostics, and a config
round-trips through its canonical text form.  Each runner writes

* ``norms.csv``   -- fixed-header CSV, 17-significant-digit floats,
* ``report.json`` -- verdicts and fitted quantities, with a schema version,
* ``plot.svg``    -- optional log-log norm curve with bound envelopes,
  emitted by a built-in writer (no plotting dependency).

Identical config and seed produce byte-identical outputs.  Every runner that
evaluates the solution over the time grid (``solve``, ``energy``, ``rates``,
``sandwich``) goes through ``map_times`` with its backend.  It starts
threads only on a grid of at least ``THREAD_MIN_POINTS`` points, whose FFTs
release Python's interpreter lock, and there the environment variable
FRACWAVE_THREADS caps how many time samples run concurrently (default:
serial).
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import estimates, lemmas, profiles, ratefit
from .errors import ConfigError, NumericalFailureError, WrongRegimeError
from .grid import GridSpec
from .profiles import (CompactBump, Gaussian, GaussianDerivative, Profile,
                       ZERO)
from .spectral import (GridBackend, Parameters, QuadratureBackend,
                       check_time_cap, evolve_state)

SCHEMA_VERSION = 1
#: largest relative energy drift ``run_energy`` passes
ENERGY_DRIFT_TOL = 1e-9
#: largest gap between fitted and theory exponents ``run_rates`` passes
EXPONENT_TOL = 0.02
#: fewest grid points at which two threads beat one on a grid sweep: the
#: smallest size where they won 3 runs of 3 (README, FRACWAVE_THREADS)
THREAD_MIN_POINTS = 1 << 15


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: each field is one config key, and ``__post_init__``
    checks every value however the config was made (parsed, built in code or
    by ``dataclasses.replace``), raising a ConfigError that names the key.
    ``t_grid`` is a mode and its values: lo, hi and count for "log" and
    "lin", the times for "list"."""

    experiment: str = "unnamed"
    s: float = 0.75
    u0: Profile = ZERO
    u1: Profile = Gaussian()
    t_grid: tuple = ("log", 1e2, 1e5, 40)
    backend: str = "quadrature"
    grid_half_width: float = 40.0
    grid_points: int = 4096
    bounds: str = "auto"
    gamma: float = 0.5
    seed: int = 0
    out: str = ""
    plot: bool = False

    def __post_init__(self):
        mode, *values = self.t_grid or ("",)
        floats = [(f.name, getattr(self, f.name)) for f in fields(self)
                  if f.type == "float"] + [("t_grid", v) for v in values]
        for key in ("u0", "u1"):
            floats += [(f"{key}: profile argument {short}", value) for short, value
                       in _profile_args(key, getattr(self, key))[1].items()]
        for key, value in floats:
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for key, value in (("backend", self.backend), ("bounds", self.bounds),
                           ("t_grid", mode)):
            if value not in _CHOICES[key]:
                raise ConfigError(f"unknown {key} {value!r}")
        if len(values) != 3 and (mode != "list" or not values):
            raise ConfigError(f"t_grid: a {mode} grid needs "
                              f"{'times' if mode == 'list' else 'lo hi count'}")
        lo = min(values) if mode == "list" else values[0]
        if lo < 0 or (mode == "log" and lo == 0):
            raise ConfigError(f"t_grid: times must be nonnegative, and positive on "
                              f"a log grid, got {lo:g}")
        if mode != "list" and not (lo < values[1] and values[2] == int(values[2])
                                   and 1 <= values[2] <= MAX_SAMPLES):
            raise ConfigError(f"t_grid: a {mode} grid needs lo < hi and a whole "
                              f"count in [1, {MAX_SAMPLES}], got {self.t_grid!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for key, make in (("s", lambda: Parameters(self.s)),
                          ("grid_half_width", lambda: GridSpec(self.grid_half_width)),
                          ("grid_points", lambda: GridSpec(points=self.grid_points))):
            try:
                make()
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None

    def params(self) -> Parameters:
        return Parameters(s=self.s)

    def times(self) -> np.ndarray:
        mode, *values = self.t_grid
        if mode == "list":
            return np.asarray(values, dtype=float)
        lo, hi, count = values
        if mode == "log":
            return np.logspace(np.log10(lo), np.log10(hi), int(count))
        return np.linspace(lo, hi, int(count))

    def make_backend(self):
        if self.backend == "grid":
            return GridBackend(GridSpec(self.grid_half_width, self.grid_points))
        return QuadratureBackend()


# ---------------------------------------------------------------------------
# config text format: one ``key = value`` line per ExperimentConfig field
# ---------------------------------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_CHOICES = {"t_grid": ("log", "lin", "list"), "backend": ("quadrature", "grid"),
            "bounds": ("auto", "power", "log", "none")}
#: most samples a log or lin grid may ask for; each is a row of every output
MAX_SAMPLES = 1 << 20
# profile kinds: config name -> (class, {argument letter: field name})
_PROFILE_KINDS = {
    "gaussian": (Gaussian, {"a": "amplitude", "sigma": "width", "c": "center"}),
    "gaussian_derivative": (GaussianDerivative,
                            {"a": "amplitude", "sigma": "width", "c": "center"}),
    "bump": (CompactBump, {"a": "amplitude", "r": "radius"}),
}


def _profile_args(key: str, p: Profile) -> tuple[str, dict]:
    """The config kind of a profile and its arguments by letter."""
    if p.is_zero:
        return "none", {}
    for name, (cls, mapping) in _PROFILE_KINDS.items():
        if isinstance(p, cls):
            return name, {short: getattr(p, f) for short, f in mapping.items()}
    raise ConfigError(f"{key}: profile {type(p).__name__} is not declarable "
                      f"in configs")


def _parse_profile(text: str) -> Profile:
    """The profile ``kind letter=value ...`` declares; ValueError otherwise."""
    name, *items = text.split() or [""]
    if any("=" not in item for item in items):
        raise ValueError(f"profile arguments are letter=value, got {items}")
    args = {k: float(v) for k, v in (item.split("=", 1) for item in items)}
    if name in ("none", "zero"):
        if args:
            raise ValueError("the zero profile takes no arguments")
        return ZERO
    if name not in _PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {name!r}")
    cls, mapping = _PROFILE_KINDS[name]
    extra = sorted(set(args) - set(mapping))
    if extra:
        raise ValueError(f"unexpected profile arguments {extra}")
    return cls(**{mapping[k]: v for k, v in args.items()})


def _parse_value(kind: str, text: str):
    """The field value of one ``key = text`` line: syntax and type only."""
    if kind == "Profile":
        return _parse_profile(text)
    if kind == "tuple":
        mode, *values = text.split() or [""]
        return (mode, *map(float, values))
    if kind == "bool":
        return text.lower() in ("true", "1", "yes")
    return {"str": str, "int": int, "float": float}[kind](text)


def _value_text(cfg: ExperimentConfig, key: str) -> str:
    value, kind = getattr(cfg, key), _FIELD_TYPES[key]
    if kind == "Profile":
        name, args = _profile_args(key, value)
        return " ".join([name, *(f"{k}={v:.17g}" for k, v in args.items())])
    if kind == "tuple":
        return " ".join([value[0], *(f"{a:.17g}" for a in value[1:])])
    if kind == "bool":
        return "true" if value else "false"
    return f"{value:.17g}" if kind == "float" else str(value)


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse the key-value config format.  A line error (no ``=``, an
    unknown or duplicate key, a value of the wrong type) names ``path:line``;
    a value that ExperimentConfig refuses names ``path:`` and the key."""
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            kwargs[key] = _parse_value(_FIELD_TYPES[key], val)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}")
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def canonical_text(cfg: ExperimentConfig) -> str:
    """Canonical config text; parsing it reproduces the config exactly."""
    return "".join(f"{key} = {_value_text(cfg, key)}\n" for key in _FIELD_TYPES)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), path=str(path))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_new(path: Path, text: str) -> None:
    """Write text to path as a new file.  ext4 (auto_da_alloc) flushes a file
    truncated in place when it is closed: 30-60 ms for 3 kB, not 0.3 ms."""
    path.unlink(missing_ok=True)
    path.write_text(text)


def write_csv(path: Path, header: list[str], columns: list) -> None:
    rows = zip(*columns)
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    _write_new(path, "\n".join(lines) + "\n")


def write_report(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _write_new(path, json.dumps(payload, indent=2, sort_keys=True,
                                allow_nan=False) + "\n")


def _xml_text(text: str) -> str:
    """Text escaped for an XML element body."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg_plot(path: Path, curves, title: str) -> None:
    """Minimal SVG log-log line chart: curves are (label, t, values)."""
    W, H, M = 640, 440, 56

    def drawn(t, v):
        # log axes show only the points with t > 0 and v > 0
        t, v = np.asarray(t, float), np.asarray(v, float)
        keep = (t > 0) & (v > 0)
        return np.log10(t[keep]), np.log10(v[keep])

    points = [drawn(t, v) for _, t, v in curves]
    xs = np.concatenate([px for px, _ in points])
    ys = np.concatenate([py for _, py in points])

    def extent(v):
        # nothing to draw (for example all-zero data on log axes): empty axes
        return (float(np.min(v)), float(np.max(v))) if v.size else (0.0, 1.0)

    (x_lo, x_hi), (y_lo, y_hi) = extent(xs), extent(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return M + (W - 2 * M) * (x - x_lo) / x_span

    def sy(y):
        return H - M - (H - 2 * M) * (y - y_lo) / y_span

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<rect x="{M}" y="{M}" width="{W-2*M}" height="{H-2*M}" '
             f'fill="none" stroke="#444"/>',
             f'<text x="{W/2:.0f}" y="24" text-anchor="middle" '
             f'font-family="monospace" font-size="14">{_xml_text(title)}</text>']
    for i, ((label, _, _), (px, py)) in enumerate(zip(curves, points)):
        if px.size == 0:
            continue
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(px, py))
        color = palette[i % len(palette)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{W-M+4}" y="{M+16*(i+1)}" font-size="11" '
                     f'font-family="monospace" fill="{color}">{_xml_text(label)}</text>')
    parts.append("</svg>")
    _write_new(path, "\n".join(parts) + "\n")


def _thread_count() -> int:
    raw = os.environ.get("FRACWAVE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_times(fn, ts, backend):
    """Evaluate fn over time samples on ``backend``: FRACWAVE_THREADS at a
    time on a grid of at least THREAD_MIN_POINTS points, whose FFTs release
    the interpreter lock, and serially otherwise (a quadrature sample is
    small numpy calls that hold it, so threads only add lock hand-offs)."""
    ts = list(ts)
    workers = 1
    if (isinstance(backend, GridBackend)
            and backend.grid.points >= THREAD_MIN_POINTS):
        workers = min(_thread_count(), len(ts))
    if workers <= 1:
        return [fn(t) for t in ts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ts))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    verdicts: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _prepare(cfg: ExperimentConfig, out_dir) -> Path:
    out = Path(out_dir) if out_dir else Path(cfg.out or f"runs/{cfg.experiment}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _base_report(cfg: ExperimentConfig) -> dict:
    return {"experiment": cfg.experiment, "config": canonical_text(cfg),
            "seed": cfg.seed}


def _finish(cfg: ExperimentConfig, out: Path, header: list[str],
            columns: list, report: dict, curves=()) -> RunResult:
    """Write norms.csv and report.json, and plot.svg of ``curves`` if cfg.plot."""
    files = [out / "norms.csv", out / "report.json"]
    write_csv(files[0], header, columns)
    write_report(files[1], report)
    if curves and cfg.plot:
        files.append(out / "plot.svg")
        write_svg_plot(files[2], curves, cfg.experiment)
    return RunResult(verdicts=report["verdicts"], files=files, report=report)


def _require_finite(header: list[str], columns: list) -> None:
    """Raise NumericalFailureError, naming the column and the first bad t,
    for a non-finite value in any column after t."""
    for name, column in zip(header[1:], columns[1:]):
        bad = ~np.isfinite(np.asarray(column, dtype=float))
        if bad.any():
            raise NumericalFailureError(
                f"{name} is not finite at t = {columns[0][np.argmax(bad)]:g}")


def _evolver(cfg: ExperimentConfig):
    """The time grid, checked against the backend's cap before any sample is
    solved, the map from t to the snapshot of the configured data, and the
    backend."""
    backend, params, ts = cfg.make_backend(), cfg.params(), cfg.times()
    check_time_cap(backend, ts, params.s)
    return (ts, lambda t: evolve_state((cfg.u0, cfg.u1), params, float(t), backend),
            backend)


def run_solve(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    """Evolve the data over the grid and tabulate every norm functional."""
    out = _prepare(cfg, out_dir)
    ts, at, backend = _evolver(cfg)

    def one(t):
        snap = at(t)
        # energy first: a grid snapshot then builds u and u_t from one phase
        energy = snap.energy()
        return (snap.spectral_l2(), snap.physical_l2(), snap.ut_l2(),
                snap.hs_seminorm(cfg.s), energy)

    cols = list(zip(*map_times(one, ts, backend)))
    header = ["t", "u_hat_l2", "u_l2", "ut_l2", "hs_seminorm", "energy"]
    _require_finite(header, [ts, *cols])
    return _finish(cfg, out, header, [ts, *cols],
                   {**_base_report(cfg), "verdicts": {}},
                   [("u_hat_l2", ts, cols[0])])


def run_energy(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    """Energy conservation sweep: max relative drift over the time grid."""
    out = _prepare(cfg, out_dir)
    ts, at, backend = _evolver(cfg)
    e0 = at(0.0).energy()
    energies = np.array(map_times(lambda t: at(t).energy(), ts, backend))
    header = ["t", "energy", "relative_drift"]
    columns = [ts, energies, np.abs(energies - e0) / (e0 or 1.0)]
    _require_finite(header, columns)
    drift = float(np.max(columns[2])) if e0 > 0 else 0.0
    report = {**_base_report(cfg), "energy_t0": e0, "max_relative_drift": drift,
              "verdicts": {"energy_conserved": drift <= ENERGY_DRIFT_TOL}}
    return _finish(cfg, out, header, columns, report)


def _growth_bounds(cfg: ExperimentConfig):
    """Lower/upper envelopes for the configured data, at u_hat level."""
    P = profiles.moment0(cfg.u1)
    u0_l2 = profiles.l2_norm(cfg.u0)
    u1_l1 = profiles.l1_norm(cfg.u1)
    u1_l2 = profiles.l2_norm(cfg.u1)
    theta0 = estimates.select_theta0()
    mode = cfg.bounds
    if mode == "auto":
        mode = "log" if cfg.s == 0.5 else "power"
    if mode == "power":
        lower = estimates.power_lower_bound(P, theta0, cfg.s)
        upper = estimates.power_upper_bound(u0_l2 + u1_l1, cfg.s)
    elif mode == "log":
        if cfg.s != 0.5:
            raise WrongRegimeError("log bounds describe the order s = 1/2")
        lower = estimates.log_lower_bound(P)
        upper = estimates.log_upper_bound(u0_l2 + u1_l2 + u1_l1)
    else:
        return None, None, theta0, P
    return lower, upper, theta0, P


def run_rates(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    """Fit the growth law of ||uhat(t)||_2 and compare with the theory rate.

    Three regimes: power growth t^(1-1/(2s)) for s > 1/2, squared norm linear
    in log t at s = 1/2, and uniform boundedness (exponent 0) for s < 1/2.
    """
    out = _prepare(cfg, out_dir)
    series = ratefit.sample_norm_curve((cfg.u0, cfg.u1), cfg.params(), cfg.times(),
                                       cfg.make_backend())
    report = _base_report(cfg)
    verdicts = {}
    if cfg.s == 0.5:
        fit = ratefit.fit_log_rate(series)
        verdicts["log_linear"] = (fit.r_squared or 0.0) >= 0.99
        report.update({"fit": fit.to_dict()})
    else:
        fit = ratefit.fit_power_exponent(series)
        target = 1.0 - 1.0 / (2.0 * cfg.s) if cfg.s > 0.5 else 0.0
        verdicts["exponent_matches"] = abs(fit.exponent - target) <= EXPONENT_TOL
        report.update({"fit": fit.to_dict(), "target_exponent": target})
    report["verdicts"] = verdicts
    return _finish(cfg, out, ["t", "u_hat_l2", "u_l2"],
                   [series.t, series.values, series.values / np.sqrt(2 * np.pi)],
                   report, [("u_hat_l2", series.t, series.values)])


def run_sandwich(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    """Check the two-sided growth envelopes over the sampled time grid."""
    out = _prepare(cfg, out_dir)
    series = ratefit.sample_norm_curve((cfg.u0, cfg.u1), cfg.params(), cfg.times(),
                                       cfg.make_backend())
    lower, upper, theta0, P = _growth_bounds(cfg)
    if lower is None:
        raise ConfigError("sandwich experiments need bounds enabled")
    check = ratefit.sandwich_check(series, lower, upper)
    verdicts = {"sandwich_holds": check.passed and check.t0 is not None}
    lo_vals = lower.evaluate(series.t)
    hi_vals = upper.evaluate(series.t)
    report = {**_base_report(cfg), "theta0": theta0, "moment": P,
              "lower": lower.to_dict(), "upper": upper.to_dict(),
              "sandwich": check.to_dict(), "verdicts": verdicts}
    return _finish(cfg, out, ["t", "u_hat_l2", "u_l2", "lower", "upper"],
                   [series.t, series.values, series.values / np.sqrt(2 * np.pi),
                    lo_vals, hi_vals], report,
                   [("u_hat_l2", series.t, series.values),
                    ("lower", series.t, lo_vals), ("upper", series.t, hi_vals)])


def run_lemmas(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    """Inequality battery over the configured profiles."""
    out = _prepare(cfg, out_dir)
    rng = np.random.default_rng(cfg.seed)
    xi_grid = np.logspace(-3, 2, 500)
    xi_random = 10.0 ** rng.uniform(-3, 2, size=100)
    family = [p for p in (cfg.u0, cfg.u1) if not p.is_zero] or [Gaussian()]
    checks = []
    for p in family:
        mean = profiles.moment0(p)
        checks += lemmas._pointwise_bound_checks(p, (0.0, 0.25, 0.5, 1.0),
                                                 (xi_grid, xi_random), mean)
        if abs(mean) > 1e-12:
            checks.append(lemmas.check_riesz_bound(p, theta=0.4, n=1))
        else:
            checks.append(lemmas.check_riesz_bound_zero_mean(
                p, theta=0.9, gamma=cfg.gamma, n=1))
    verdicts = {"all_inequalities_hold": all(c.passed for c in checks)}
    report = {**_base_report(cfg), "checks": [c.to_dict() for c in checks],
              "verdicts": verdicts}
    return _finish(cfg, out, ["check", "ratio", "passed"],
                   [[c.check_id for c in checks], [c.ratio for c in checks],
                    [int(c.passed) for c in checks]], report)


RUNNERS = {
    "solve": run_solve,
    "energy": run_energy,
    "rates": run_rates,
    "sandwich": run_sandwich,
    "lemmas": run_lemmas,
}
