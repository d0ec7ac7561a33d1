"""Reproducible named experiments: config parsing, runners, file outputs.

A config is a flat key-value text file (``key = value`` per line, ``#``
comments); unknown keys are rejected with line diagnostics and a parsed
config round-trips through its canonical text form.  Each runner writes

* ``norms.csv``   -- fixed-header CSV, 17-significant-digit floats,
* ``report.json`` -- verdicts and fitted quantities, with a schema version,
* ``plot.svg``    -- optional log-log norm curve with bound envelopes,
  emitted by a built-in writer (no plotting dependency).

Identical config and seed produce byte-identical outputs.  Every runner that
evaluates the solution over the time grid (``solve``, ``energy``, ``rates``,
``sandwich``) goes through ``map_times``, and the environment variable
FRACWAVE_THREADS caps how many time samples it evaluates concurrently
(default: serial).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import estimates, lemmas, profiles, ratefit
from .errors import ConfigError, FracwaveError, WrongRegimeError
from .grid import GridSpec
from .profiles import (CompactBump, Gaussian, GaussianDerivative, Profile,
                       ZERO)
from .spectral import (GridBackend, Parameters, QuadratureBackend,
                       check_time_cap, evolve_state)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the enumerated fields take the values in ``_CHOICES``."""

    experiment: str = "unnamed"
    s: float = 0.75
    n: int = 1
    u0: Profile = ZERO
    u1: Profile = Gaussian()
    t_mode: str = "log"
    t_args: tuple = (1e2, 1e5, 40)
    backend: str = "quadrature"
    grid_half_width: float = 40.0
    grid_points: int = 4096
    bounds: str = "auto"
    theta0_threshold: float = 0.5
    gamma: float = 0.5
    seed: int = 0
    out: str = ""
    plot: bool = False

    def params(self) -> Parameters:
        return Parameters(s=self.s, n=self.n)

    def t_grid(self) -> np.ndarray:
        if self.t_mode == "list":
            return np.asarray(self.t_args, dtype=float)
        lo, hi, count = self.t_args
        count = int(count)
        if count < 1 or hi <= lo or (self.t_mode == "log" and lo <= 0):
            raise ConfigError(f"bad time grid ({self.t_mode} {lo} {hi} {count})")
        if self.t_mode == "log":
            return np.logspace(np.log10(lo), np.log10(hi), count)
        return np.linspace(lo, hi, count)

    def make_backend(self):
        if self.backend == "grid":
            return GridBackend(GridSpec(self.grid_half_width, self.grid_points))
        return QuadratureBackend()


# ---------------------------------------------------------------------------
# config text format: one key per ExperimentConfig field, except that
# ``t_grid`` stands for the t_mode and t_args pair
# ---------------------------------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_KNOWN_KEYS = tuple("t_grid" if name == "t_mode" else name
                    for name in _FIELD_TYPES if name != "t_args")
_CHOICES = {"t_mode": ("log", "lin", "list"), "backend": ("quadrature", "grid"),
            "bounds": ("auto", "power", "log", "none")}
# profile kinds: config name -> (class, {argument letter: field name})
_PROFILE_KINDS = {
    "gaussian": (Gaussian, {"a": "amplitude", "sigma": "width", "c": "center"}),
    "gaussian_derivative": (GaussianDerivative,
                            {"a": "amplitude", "sigma": "width", "c": "center"}),
    "bump": (CompactBump, {"a": "amplitude", "r": "radius"}),
}


def _parse_profile(text: str, where: str) -> Profile:
    parts = text.split()
    if not parts:
        raise ConfigError(f"{where}: empty profile")
    name, kv = parts[0], parts[1:]
    args = {}
    for item in kv:
        if "=" not in item:
            raise ConfigError(f"{where}: bad profile argument {item!r}")
        k, v = item.split("=", 1)
        try:
            args[k] = float(v)
        except ValueError:
            raise ConfigError(f"{where}: non-numeric value {v!r} for {k}")
    if name in ("none", "zero"):
        if args:
            raise ConfigError(f"{where}: the zero profile takes no arguments")
        return ZERO
    if name not in _PROFILE_KINDS:
        raise ConfigError(f"{where}: unknown profile kind {name!r}")
    cls, mapping = _PROFILE_KINDS[name]
    kwargs = {}
    for short, field_name in mapping.items():
        if short in args:
            kwargs[field_name] = args.pop(short)
    if args:
        raise ConfigError(f"{where}: unexpected profile arguments {sorted(args)}")
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise ConfigError(f"{where}: invalid profile parameters: {exc}")


def _profile_text(p: Profile) -> str:
    if p.is_zero:
        return "none"
    for name, (cls, mapping) in _PROFILE_KINDS.items():
        if isinstance(p, cls):
            return " ".join([name, *(f"{short}={getattr(p, field_name):.17g}"
                                     for short, field_name in mapping.items())])
    raise ConfigError(f"profile {type(p).__name__} is not declarable in configs")


def _parse_value(key: str, text: str, where: str) -> dict:
    """The ExperimentConfig fields one ``key = text`` line sets."""
    if key == "t_grid":
        parts = text.split()
        if len(parts) < 2:
            raise ConfigError(f"{where}: t_grid needs a mode and values")
        mode = parts[0]
        if mode not in _CHOICES["t_mode"]:
            raise ConfigError(f"{where}: unknown t_grid mode {mode!r}")
        args = tuple(float(x) for x in parts[1:])
        if mode != "list" and len(args) != 3:
            raise ConfigError(f"{where}: {mode} grids need lo hi count")
        return {"t_mode": mode, "t_args": args}
    kind = _FIELD_TYPES[key]
    if kind == "Profile":
        value = _parse_profile(text, where)
    elif kind == "bool":
        value = text.lower() in ("true", "1", "yes")
    else:
        value = {"str": str, "int": int, "float": float}[kind](text)
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{where}: unknown {key} {value!r}")
    return {key: value}


def _value_text(cfg: ExperimentConfig, key: str) -> str:
    if key == "t_grid":
        return " ".join([cfg.t_mode, *(f"{a:.17g}" for a in cfg.t_args)])
    value, kind = getattr(cfg, key), _FIELD_TYPES[key]
    if kind == "Profile":
        return _profile_text(value)
    if kind == "bool":
        return "true" if value else "false"
    return f"{value:.17g}" if kind == "float" else str(value)


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse the key-value config format, rejecting unknown keys."""
    kwargs: dict = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        seen.add(key)
        try:
            kwargs.update(_parse_value(key, val, where))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}")
    try:
        cfg = ExperimentConfig(**kwargs)
        cfg.params()          # validates s and n eagerly
        GridSpec(cfg.grid_half_width, cfg.grid_points)
        times = cfg.t_grid()
    except ConfigError:
        raise
    except (ValueError, FracwaveError) as exc:
        raise ConfigError(f"{path}: invalid configuration: {exc}")
    if np.min(times) < 0:
        raise ConfigError(f"{path}: times must be nonnegative, got {np.min(times):g}")
    if cfg.n != 1:
        raise ConfigError(f"{path}: n must be 1 for 1-d profiles, got n={cfg.n}")
    return cfg


def canonical_text(cfg: ExperimentConfig) -> str:
    """Canonical config text; parsing it reproduces the config exactly."""
    return "".join(f"{key} = {_value_text(cfg, key)}\n" for key in _KNOWN_KEYS)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), path=str(path))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header: list[str], columns: list) -> None:
    rows = zip(*columns)
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_report(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _xml_text(text: str) -> str:
    """Text escaped for an XML element body."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg_plot(path: Path, curves, title: str, loglog: bool = True) -> None:
    """Minimal SVG log-log line chart: curves are (label, t, values)."""
    W, H, M = 640, 440, 56

    def drawn(t, v):
        # log axes show only the points with t > 0 and v > 0
        t, v = np.asarray(t, float), np.asarray(v, float)
        if not loglog:
            return t, v
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
    path.write_text("\n".join(parts) + "\n")


def _thread_count() -> int:
    raw = os.environ.get("FRACWAVE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_times(fn, ts):
    """Evaluate fn over time samples, honoring FRACWAVE_THREADS."""
    ts = list(ts)
    workers = _thread_count()
    if workers == 1 or len(ts) <= 1:
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


def _finish(cfg: ExperimentConfig, out: Path, plot, header: list[str],
            columns: list, report: dict, curves=()) -> RunResult:
    """Write norms.csv and report.json, and plot.svg of ``curves`` if asked."""
    files = [out / "norms.csv", out / "report.json"]
    write_csv(files[0], header, columns)
    write_report(files[1], report)
    if curves and (cfg.plot if plot is None else plot):
        files.append(out / "plot.svg")
        write_svg_plot(files[2], curves, cfg.experiment)
    return RunResult(verdicts=report["verdicts"], files=files, report=report)


def run_solve(cfg: ExperimentConfig, out_dir=None, plot=None) -> RunResult:
    """Evolve the data over the grid and tabulate every norm functional."""
    out = _prepare(cfg, out_dir)
    backend = cfg.make_backend()
    params = cfg.params()
    ts = cfg.t_grid()
    check_time_cap(backend, ts)

    def one(t):
        snap = evolve_state((cfg.u0, cfg.u1), params, float(t), backend)
        # energy first: a grid snapshot then builds u and u_t from one phase
        energy = snap.energy()
        return (snap.spectral_l2(), snap.physical_l2(), snap.ut_l2(),
                snap.hs_seminorm(params.s), energy)

    cols = list(zip(*map_times(one, ts)))
    return _finish(cfg, out, plot,
                   ["t", "u_hat_l2", "u_l2", "ut_l2", "hs_seminorm", "energy"],
                   [ts, *cols], {**_base_report(cfg), "verdicts": {}},
                   [("u_hat_l2", ts, cols[0])])


def run_energy(cfg: ExperimentConfig, out_dir=None, plot=None,
               drift_tolerance: float = 1e-9) -> RunResult:
    """Energy conservation sweep: max relative drift over the time grid."""
    out = _prepare(cfg, out_dir)
    backend = cfg.make_backend()
    params = cfg.params()
    ts = cfg.t_grid()
    check_time_cap(backend, ts)
    e0 = evolve_state((cfg.u0, cfg.u1), params, 0.0, backend).energy()
    energies = np.array(map_times(
        lambda t: evolve_state((cfg.u0, cfg.u1), params, float(t), backend).energy(),
        ts))
    drift = float(np.max(np.abs(energies - e0) / e0)) if e0 > 0 else 0.0
    report = {**_base_report(cfg), "energy_t0": e0, "max_relative_drift": drift,
              "verdicts": {"energy_conserved": drift <= drift_tolerance}}
    return _finish(cfg, out, plot, ["t", "energy", "relative_drift"],
                   [ts, energies, np.abs(energies - e0) / (e0 or 1.0)], report)


def _growth_bounds(cfg: ExperimentConfig):
    """Lower/upper envelopes for the configured data, at u_hat level."""
    P = profiles.moment0(cfg.u1)
    u0_l2 = profiles.l2_norm(cfg.u0)
    u1_l1 = profiles.l1_norm(cfg.u1)
    u1_l2 = profiles.l2_norm(cfg.u1)
    theta0 = estimates.select_theta0(cfg.theta0_threshold)
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


def run_rates(cfg: ExperimentConfig, out_dir=None, plot=None,
              exponent_tolerance: float = 0.02) -> RunResult:
    """Fit the growth law of ||uhat(t)||_2 and compare with the theory rate.

    Three regimes: power growth t^(1-1/(2s)) for s > 1/2, squared norm linear
    in log t at s = 1/2, and uniform boundedness (exponent 0) for s < 1/2.
    """
    out = _prepare(cfg, out_dir)
    params = cfg.params()
    series = ratefit.sample_norm_curve((cfg.u0, cfg.u1), params, cfg.t_grid(),
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
        verdicts["exponent_matches"] = abs(fit.exponent - target) <= exponent_tolerance
        report.update({"fit": fit.to_dict(), "target_exponent": target})
    report["verdicts"] = verdicts
    return _finish(cfg, out, plot, ["t", "u_hat_l2", "u_l2"],
                   [series.t, series.values, series.values / np.sqrt(2 * np.pi)],
                   report, [("u_hat_l2", series.t, series.values)])


def run_sandwich(cfg: ExperimentConfig, out_dir=None, plot=None) -> RunResult:
    """Check the two-sided growth envelopes over the sampled time grid."""
    out = _prepare(cfg, out_dir)
    params = cfg.params()
    series = ratefit.sample_norm_curve((cfg.u0, cfg.u1), params, cfg.t_grid(),
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
    return _finish(cfg, out, plot, ["t", "u_hat_l2", "u_l2", "lower", "upper"],
                   [series.t, series.values, series.values / np.sqrt(2 * np.pi),
                    lo_vals, hi_vals], report,
                   [("u_hat_l2", series.t, series.values),
                    ("lower", series.t, lo_vals), ("upper", series.t, hi_vals)])


def run_lemmas(cfg: ExperimentConfig, out_dir=None, plot=None) -> RunResult:
    """Inequality battery over the configured profiles."""
    out = _prepare(cfg, out_dir)
    rng = np.random.default_rng(cfg.seed)
    xi_grid = np.logspace(-3, 2, 500)
    xi_random = 10.0 ** rng.uniform(-3, 2, size=100)
    family = [p for p in (cfg.u0, cfg.u1) if not p.is_zero] or [Gaussian()]
    checks = []
    for p in family:
        for gamma in (0.0, 0.25, 0.5, 1.0):
            checks += lemmas._pointwise_bound_checks(p, gamma, (xi_grid, xi_random))
        mean = profiles.moment0(p)
        if abs(mean) > 1e-12:
            checks.append(lemmas.check_riesz_bound(p, theta=0.4, n=1))
        else:
            checks.append(lemmas.check_riesz_bound_zero_mean(
                p, theta=0.9, gamma=cfg.gamma, n=1))
    verdicts = {"all_inequalities_hold": all(c.passed for c in checks)}
    report = {**_base_report(cfg), "checks": [c.to_dict() for c in checks],
              "verdicts": verdicts}
    return _finish(cfg, out, plot, ["check", "ratio", "passed"],
                   [[c.check_id for c in checks], [c.ratio for c in checks],
                    [int(c.passed) for c in checks]], report)


RUNNERS = {
    "solve": run_solve,
    "energy": run_energy,
    "rates": run_rates,
    "sandwich": run_sandwich,
    "lemmas": run_lemmas,
}
