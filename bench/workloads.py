"""Benchmark workloads: seeded inputs, the fracwave calls each op makes, and
the independent oracles that verify every op's output.

A workload is a fixed list of ops that one caller runs as a closed loop.  An
op's ``run`` is the timed call into fracwave.  Its ``verify`` runs untimed,
reads what the call produced (return values or the runner's output files)
and returns ``(values, problems)``: the values are stored next to the op's
timing, and any problem makes the op count as failed.

The oracles are closed forms or reference computations written here, never
fracwave's own verdicts alone:

* the two-term long-time expansion of ||uhat(t)||^2 for u0 = 0,
  u1 = e^(-x^2), and the closed-form growth envelopes;
* the closed-form energy of u0 = u1 = e^(-x^2);
* closed-form Riesz energies, the closed-form C(1, s) and H^s seminorm of
  the Gaussian, the exponential-integral closure of the area sums, an
  order-24 Gauss-Legendre reference for the log-growth integral, and
  QUADPACK's cosine-weighted rule for the CompactBump transform;
* the acceptance tolerances of criteria 1 and 6-10 on top of those.

Every call into fracwave goes through a module attribute
(``lemmas.riesz_energy``, not a name imported from it), so the traced run
sees each call.

Seeds only move inputs in ways that leave the work per op the same: time
grids get a relative jitter of at most 1 % on interior samples, and the
``lemmas`` runner draws its random frequencies from the seed.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import erf, exp1
from scipy.special import gamma as gamma_fn

from fracwave import cli, estimates, experiments, lemmas, profiles, spectral
from fracwave.errors import DivergenceError
from fracwave.grid import GridSpec
from fracwave.lemmas import RadialGaussian
from fracwave.profiles import Gaussian, GaussianDerivative, ZERO

SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi
THETA0 = 0.99                    # select_theta0() with its default cap
GAUSS_U1 = "gaussian a=1 sigma=1 c=0"
BUMP_U1 = "bump a=1 r=1"
POWER_ORDERS = (0.6, 0.75, 0.9)

# Relative tolerance of the two-term expansion.  The measured residual is
# <= 1.1e-6 at t = 1e2 and <= 6.2e-9 for t >= 1e3, so a perturbation of
# 1e-5 or more in any sampled norm is caught.
EXPANSION_TOL_EARLY = 5e-6
EXPANSION_TOL_LATE = 5e-8
CLOSED_FORM_TOL = 1e-8           # riesz energies, norms, envelopes
BUMP_ORDER = 0.75


@dataclass
class Op:
    """One timed call into fracwave plus the untimed check of its output."""

    name: str
    run: Callable[[], Any]
    verify: Callable[[Any], tuple[dict, list[str]]]


@dataclass(frozen=True)
class Workload:
    """``setup(seed, workdir)`` parses configs and builds profiles (timed as
    set-up); ``ops(inputs, workdir)`` builds the op list and any reference
    values (untimed)."""

    setup: Callable[[int, Path], Any]
    ops: Callable[[Any, Path], list[Op]]


# ---------------------------------------------------------------------------
# seeded inputs and small helpers
# ---------------------------------------------------------------------------

def jittered_log_grid(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """Log-spaced grid whose interior points move by at most 1 %."""
    t = np.logspace(math.log10(lo), math.log10(hi), count)
    t[1:-1] *= np.exp(rng.uniform(-0.01, 0.01, size=count - 2))
    return t


def jitter(rng, t: float) -> float:
    return float(t * math.exp(rng.uniform(-0.01, 0.01)))


def list_grid(ts) -> str:
    return "list " + " ".join(f"{float(t):.17g}" for t in ts)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def take_outputs(out: Path) -> tuple[dict, dict[str, list], str | None]:
    """report.json, norms.csv as columns and plot.svg (if any) of a runner.

    The directory is removed afterwards, so a later pass can never be
    checked against files an earlier pass wrote.
    """
    try:
        report = json.loads((out / "report.json").read_text())
        with open(out / "norms.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        svg = out / "plot.svg"
        plot = svg.read_text() if svg.exists() else None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    table = {key: [row[key] for row in rows] for key in rows[0]} if rows else {}
    return report, table, plot


def float_column(table: dict, key: str) -> np.ndarray:
    return np.array([float(v) for v in table[key]])


def check_time_column(table: dict, requested, problems: list[str]) -> np.ndarray | None:
    if "t" not in table:
        problems.append("norms.csv has no t column")
        return None
    t = float_column(table, "t")
    if t.shape != np.shape(requested) or not np.array_equal(t, requested):
        problems.append("norms.csv time column differs from the requested grid")
        return None
    return t


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def half_line_gaussian_moment(a: float) -> float:
    """int_0^inf xi^a e^(-xi^2/2) dxi for a > -1."""
    return 2.0 ** ((a - 1.0) / 2.0) * gamma_fn((a + 1.0) / 2.0)


def power_coefficient(s: float) -> float:
    """c_s^2 = (2/s)(-Gamma(mu) cos(mu pi/2)/2^(mu+1)), mu = 1/s - 2."""
    mu = 1.0 / s - 2.0
    return (2.0 / s) * (-gamma_fn(mu) * math.cos(mu * math.pi / 2.0) / 2.0 ** (mu + 1.0))


def two_term_sq_norm(s: float, t: np.ndarray) -> np.ndarray:
    """||uhat(t)||^2 for u0 = 0, u1 = e^(-x^2) up to o(1) as t -> inf.

    P^2 c_s^2 t^(2-1/s) + D with P^2 = pi and
    D = (pi/2) 2^((1-2s)/2) Gamma((1-2s)/2); at s = 1/2 it is
    2 P^2 log t + 2 pi (5/4 log 2 + 3/4 gamma).
    """
    if s == 0.5:
        return 2.0 * math.pi * np.log(t) + TWO_PI * (1.25 * math.log(2.0)
                                                     + 0.75 * np.euler_gamma)
    d = (math.pi / 2.0) * 2.0 ** ((1.0 - 2.0 * s) / 2.0) * gamma_fn((1.0 - 2.0 * s) / 2.0)
    return math.pi * power_coefficient(s) * t ** (2.0 - 1.0 / s) + d


def envelopes(s: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form lower and upper growth envelopes for u1 = e^(-x^2)."""
    l1 = SQRT_PI                           # ||u1||_1 = P
    l2 = (math.pi / 2.0) ** 0.25           # ||u1||_2
    if s == 0.5:
        root = np.sqrt(np.log(t))
        return SQRT_PI / (3.0 * math.e) * root, 2.0 * (l2 + l1) * root
    alpha = 1.0 - 1.0 / (2.0 * s)
    return (0.25 * THETA0 * SQRT_PI * t ** alpha,
            math.sqrt(4.0 * s / (2.0 * s - 1.0)) * l1 * t ** alpha)


def gaussian_energy(s: float) -> float:
    """Energy of u0 = u1 = e^(-x^2): (1/2)(sqrt(pi/2) + 2^(s-1/2) Gamma(s+1/2))."""
    return 0.5 * (math.sqrt(math.pi / 2.0) + hs_seminorm_sq_gaussian(s))


def hs_seminorm_sq_gaussian(s: float) -> float:
    """||(-Lap)^(s/2) e^(-x^2)||_2^2 = 2^(s-1/2) Gamma(s+1/2)."""
    return 2.0 ** (s - 0.5) * gamma_fn(s + 0.5)


def gagliardo_constant_closed(s: float) -> float:
    """C(1, s) = 4^s Gamma(1/2 + s) / (sqrt(pi) |Gamma(-s)|)."""
    return 4.0 ** s * gamma_fn(0.5 + s) / (SQRT_PI * abs(gamma_fn(-s)))


def log_growth_reference(t: float, order: int = 24, block: int = 65536) -> float:
    """4 int_0^inf e^(-(v/t)^4) sin^2(v)/v dv on pi-panels, Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n_panels = int(math.ceil(2.8 * t / math.pi))
    total = 0.0
    for start in range(0, n_panels, block):
        k = np.arange(start, min(start + block, n_panels), dtype=float)
        v = math.pi * (k[:, None] + 0.5 + 0.5 * nodes[None, :])
        f = np.exp(-(v / t) ** 4) * np.sin(v) ** 2 / v
        total += float(np.sum(f @ weights)) * 0.5 * math.pi
    return 4.0 * total


# ---------------------------------------------------------------------------
# growth-sweep: the sandwich runner, in-process and serial
# ---------------------------------------------------------------------------

SWEEP_SAMPLES = 10


def growth_setup(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    cases = []
    for s in (*POWER_ORDERS, 0.5):
        hi = 1e6 if s == 0.5 else 1e5
        ts = jittered_log_grid(rng, 1e2, hi, SWEEP_SAMPLES)
        cfg = experiments.parse_config(
            f"experiment = growth-sweep-s{s}\ns = {s}\nu0 = none\nu1 = {GAUSS_U1}\n"
            f"t_grid = {list_grid(ts)}\nbackend = quadrature\nbounds = auto\n")
        cases.append((s, ts, cfg))
    return cases


def growth_ops(cases, workdir: Path) -> list[Op]:
    ops = []
    for s, ts, cfg in cases:
        out = workdir / f"sandwich-s{s}"
        ops.append(Op(f"sandwich-s{s}",
                      lambda cfg=cfg, out=out: experiments.run_sandwich(cfg, out_dir=out),
                      lambda result, s=s, ts=ts, out=out: verify_sandwich(s, ts, out)))
    return ops


def verify_sandwich(s: float, ts: np.ndarray, out: Path) -> tuple[dict, list[str]]:
    problems: list[str] = []
    report, table, _ = take_outputs(out)
    if report.get("verdicts", {}).get("sandwich_holds") is not True:
        problems.append(f"sandwich_holds verdict is {report.get('verdicts')}")
    t = check_time_column(table, ts, problems)
    if t is None:
        return {}, problems
    v = float_column(table, "u_hat_l2")
    residual = np.abs(v ** 2 - two_term_sq_norm(s, t)) / v ** 2
    tol = np.where(t < 1e3, EXPANSION_TOL_EARLY, EXPANSION_TOL_LATE)
    if np.any(residual > tol):
        i = int(np.argmax(residual / tol))
        problems.append(f"two-term expansion off by {residual[i]:.2e} at t={t[i]:g}")
    lower, upper = envelopes(s, t)
    env_err = max(np.max(np.abs(float_column(table, "lower") - lower) / lower),
                  np.max(np.abs(float_column(table, "upper") - upper) / upper))
    if env_err > CLOSED_FORM_TOL:
        problems.append(f"envelopes differ from the closed form by {env_err:.2e}")
    if not np.all((lower <= v) & (v <= upper)):
        problems.append("a sample lies outside the closed-form envelopes")
    u_err = float(np.max(np.abs(float_column(table, "u_l2") * math.sqrt(TWO_PI) - v) / v))
    if u_err > 1e-14:
        problems.append(f"u_l2 != u_hat_l2/sqrt(2 pi) (rel {u_err:.1e})")
    return {"t": t.tolist(), "u_hat_l2": v.tolist(),
            "max_expansion_residual": float(np.max(residual)),
            "t0": report.get("sandwich", {}).get("t0")}, problems


# ---------------------------------------------------------------------------
# solve-fields: the solve runner through the CLI, 2 threads, with the plot
# ---------------------------------------------------------------------------

SOLVE_ORDER = 0.75
SOLVE_SAMPLES = 20


def solve_setup(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    ts = jittered_log_grid(rng, 1e2, 1e4, SOLVE_SAMPLES)
    text = (f"experiment = solve-fields\ns = {SOLVE_ORDER}\nu0 = {GAUSS_U1}\n"
            f"u1 = {GAUSS_U1}\nt_grid = {list_grid(ts)}\nbackend = quadrature\n"
            "plot = true\n")
    experiments.parse_config(text)          # config parse and profiles
    path = workdir / "solve-fields.cfg"
    path.write_text(text)
    return ts, path


def solve_ops(inputs, workdir: Path) -> list[Op]:
    ts, path = inputs
    out = workdir / "solve"
    argv = ["solve", "--config", str(path), "--out", str(out)]
    return [Op("cli-solve", lambda: cli.main(argv),
               lambda status: verify_solve(status, ts, out))]


def verify_solve(status, ts, out: Path) -> tuple[dict, list[str]]:
    problems: list[str] = []
    if status != 0:
        problems.append(f"fracwave solve exited with {status}")
    report, table, plot = take_outputs(out)
    if report.get("schema_version") != experiments.SCHEMA_VERSION:
        problems.append("report.json lacks the schema version")
    t = check_time_column(table, ts, problems)
    if t is None:
        return {}, problems
    cols = {k: float_column(table, k)
            for k in ("u_hat_l2", "u_l2", "ut_l2", "hs_seminorm", "energy")}
    exact = gaussian_energy(SOLVE_ORDER)
    e_err = float(np.max(np.abs(cols["energy"] - exact) / exact))
    if e_err > 1e-9:
        problems.append(f"energy off the closed form by {e_err:.2e}")
    u_err = float(np.max(np.abs(cols["u_l2"] * math.sqrt(TWO_PI) - cols["u_hat_l2"])
                         / cols["u_hat_l2"]))
    if u_err > 1e-14:
        problems.append(f"u_l2 != u_hat_l2/sqrt(2 pi) (rel {u_err:.1e})")
    split = 0.5 * (cols["ut_l2"] ** 2 + cols["hs_seminorm"] ** 2)
    s_err = float(np.max(np.abs(split - cols["energy"]) / cols["energy"]))
    if s_err > 1e-12:
        problems.append(f"energy != (ut^2 + hs^2)/2 (rel {s_err:.1e})")
    try:
        lines = [el for el in ET.fromstring(plot or "").iter() if el.tag.endswith("polyline")]
    except ET.ParseError as exc:
        lines = []
        problems.append(f"plot.svg missing or malformed: {exc}")
    if len(lines) != 1 or len(lines[0].get("points", "").split()) != len(ts):
        problems.append("plot.svg does not hold one curve with every sample")
    return {"t": t.tolist(), "u_hat_l2": cols["u_hat_l2"].tolist(),
            "max_energy_error": e_err}, problems


# ---------------------------------------------------------------------------
# oracles: lemma, estimate and bump-transform oracles, no phase-panel sweep
# ---------------------------------------------------------------------------

def lemma_config(u1: str, seed: int):
    return experiments.parse_config(
        f"experiment = lemmas\nu0 = none\nu1 = {u1}\ngamma = 0.5\nseed = {seed}\n")


def oracles_setup(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    return {
        "lemmas-gaussian": lemma_config(GAUSS_U1, seed),
        "lemmas-gaussian-derivative": lemma_config(
            "gaussian_derivative a=1 sigma=1 c=0", seed),
        "area_t": [(t, jitter(rng, t)) for t in (1e1, 1e3, 1e5)],
        "log_growth_t": [(t, jitter(rng, t)) for t in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)],
        "split_t": [(t, jitter(rng, t)) for t in (1e2, 1e3, 1e4)],
        "params": spectral.Parameters(0.75),
        "gaussian": Gaussian(),
        "derivative": GaussianDerivative(),
        "radial": RadialGaussian(dimension=2),
    }


def oracles_ops(inputs, workdir: Path) -> list[Op]:
    ops = []
    for name, kind in (("lemmas-gaussian", "riesz_l1"),
                       ("lemmas-gaussian-derivative", "riesz_zero_mean")):
        out = workdir / name
        ops.append(Op(name,
                      lambda cfg=inputs[name], out=out: experiments.run_lemmas(cfg, out_dir=out),
                      lambda result, kind=kind: verify_lemmas(result, kind)))

    g, d, radial = inputs["gaussian"], inputs["derivative"], inputs["radial"]
    riesz_cases = (
        ("riesz-gaussian-0.4", lambda: lemmas.riesz_energy(g, 0.4, 1), RIESZ_GAUSSIAN),
        ("riesz-zero-mean-0.9", lambda: lemmas.riesz_energy(d, 0.9, 1), RIESZ_DERIVATIVE),
        ("riesz-radial-n2-0.9", lambda: lemmas.riesz_energy(radial, 0.9, 2),
         TWO_PI * math.pi ** 2 * half_line_gaussian_moment(1.0 - 1.8)),
    )
    for name, call, exact in riesz_cases:
        ops.append(Op(name, call, lambda value, exact=exact: closeness(value, exact)))
    ops.append(Op("riesz-divergent-0.5", lambda: expect_divergence(g), verify_divergence))

    for s in (0.3, 0.5, 0.7):
        ops.append(Op(f"gagliardo-s{s}",
                      lambda s=s: (lemmas.gagliardo_seminorm(g, s),
                                   lemmas.gagliardo_constant(s)),
                      lambda result, s=s: verify_gagliardo(s, *result)))

    for nominal, t in inputs["area_t"]:
        ops.append(Op(f"area-sums-t{nominal:g}",
                      lambda t=t: estimates.area_sums(t, tolerance=1e-10),
                      lambda rep, t=t: verify_area_sums(t, rep)))

    for nominal, t in inputs["log_growth_t"]:
        reference = log_growth_reference(t)
        ops.append(Op(f"log-growth-t{nominal:g}",
                      lambda t=t: estimates.log_growth_integral(t),
                      lambda k1, t=t, ref=reference: verify_log_growth(t, k1, ref)))

    params = inputs["params"]
    for nominal, t in inputs["split_t"]:
        ops.append(Op(f"fourier-split-t{nominal:g}",
                      lambda t=t: estimates.fourier_split((ZERO, g), params, t, THETA0),
                      lambda rep, t=t: verify_split(params.s, t, rep)))

    bump_reference = bump_fourier_reference(BUMP_XI)
    ops.append(Op("bump-fourier", lambda: profiles.CompactBump().fourier(BUMP_XI),
                  lambda fhat: verify_bump_fourier(fhat, bump_reference)))

    ops.append(Op("grid-energy-conservation", lambda: grid_energies(g), verify_grid_energy))
    ops.append(Op("grid-quadrature-agreement", lambda: grid_quadrature_pairs(g),
                  verify_agreement))
    return ops


# int |fhat|^2 |xi|^(-2 theta) dxi in closed form: theta = 0.4 on e^(-x^2)
# (|fhat|^2 = pi e^(-xi^2/2)) and theta = 0.9 on -2x e^(-x^2)
# (|fhat|^2 = pi xi^2 e^(-xi^2/2)); the radial n = 2 case has |fhat|^2 =
# pi^2 e^(-rho^2/2) against rho^(n-1-2 theta) on the circle.
RIESZ_GAUSSIAN = TWO_PI * half_line_gaussian_moment(-0.8)
RIESZ_DERIVATIVE = TWO_PI * half_line_gaussian_moment(0.2)


def closeness(value: float, exact: float, tol: float = CLOSED_FORM_TOL):
    err = rel_err(value, exact)
    problems = [] if err <= tol else [f"{value!r} differs from {exact!r} by {err:.2e}"]
    return {"value": value, "rel_error": err}, problems


def verify_lemmas(result, riesz_kind: str) -> tuple[dict, list[str]]:
    problems: list[str] = []
    if result.verdicts.get("all_inequalities_hold") is not True:
        problems.append(f"verdicts {result.verdicts}")
    checks = result.report["checks"]
    pointwise = [c for c in checks if c["check"] == "fourier_pointwise"]
    worst = max(c["ratio"] for c in pointwise)
    if len(pointwise) != 8 or worst > 2.0:
        problems.append(f"pointwise bound: {len(pointwise)} checks, worst ratio {worst}")
    riesz = [c for c in checks if c["check"] == riesz_kind]
    if len(riesz) != 1:
        return {"worst_pointwise_ratio": worst}, problems + [f"expected one {riesz_kind} check"]
    left, right = riesz[0]["left"], riesz[0]["right"]
    if riesz_kind == "riesz_l1":          # ||f||_1^2 + ||f||_2^2
        exact_left = RIESZ_GAUSSIAN
        exact_right = math.pi + math.sqrt(math.pi / 2.0)
    else:                                 # ||f||_{1,1/2}^2 + ||f||_2^2
        exact_left = RIESZ_DERIVATIVE
        exact_right = (2.0 + 2.0 * gamma_fn(1.25)) ** 2 + math.sqrt(math.pi / 2.0)
    for label, value, exact in (("left", left, exact_left), ("right", right, exact_right)):
        if rel_err(value, exact) > CLOSED_FORM_TOL:
            problems.append(f"{riesz_kind} {label} {value!r} != closed form {exact!r}")
    return {"worst_pointwise_ratio": worst, "riesz_left": left,
            "riesz_right": right}, problems


def expect_divergence(p):
    try:
        return lemmas.riesz_energy(p, 0.5, 1)
    except DivergenceError:
        return "diverged"


def verify_divergence(result):
    if result == "diverged":
        return {"diverged": True}, []
    return {"diverged": False}, [f"theta = 1/2 returned {result!r} instead of diverging"]


def verify_gagliardo(s: float, seminorm: float, constant: float):
    exact_c = gagliardo_constant_closed(s)
    exact_sq = 2.0 / exact_c * hs_seminorm_sq_gaussian(s)
    c_err = rel_err(constant, exact_c)
    g_err = rel_err(seminorm ** 2, exact_sq)
    problems = []
    if c_err > 1e-6:                      # criterion 10: C(1, s)
        problems.append(f"C(1,{s}) off the closed form by {c_err:.2e}")
    if g_err > 1e-3:                      # criterion 10: seminorm identity
        problems.append(f"Gagliardo seminorm^2 off by {g_err:.2e}")
    return {"seminorm": seminorm, "constant": constant,
            "seminorm_sq_rel_error": g_err}, problems


def verify_area_sums(t: float, rep):
    problems = []
    a0 = (math.pi / (4.0 * t)) ** 2
    full = 0.5 * float(exp1(a0 * a0))
    closure = rel_err(rep.sum_A + rep.sum_B + rep.tail, full)
    ratio = float(np.max(rep.B / rep.A))
    cover = full / rep.sum_A
    if rel_err(float(rep.a[0]), a0) > 1e-14:
        problems.append("first bump does not start at (pi/(4t))^2")
    if closure > 1e-9:
        problems.append(f"bumps + gaps + tail miss E1(a0^2)/2 by {closure:.2e}")
    if not rep.tail <= 1e-10 * rep.sum_A:
        problems.append("tail above the requested tolerance")
    if ratio > 2.0 or cover > 3.0:        # criterion 6
        problems.append(f"area chain: max B/A {ratio}, integral/sum {cover}")
    return {"sum_A": rep.sum_A, "panels": int(rep.truncation_index + 1),
            "max_B_over_A": ratio}, problems


def verify_log_growth(t: float, k1: float, reference: float):
    minorant = 2.0 / (3.0 * math.e) * (math.log(t) + math.log(4.0) - math.log(math.pi))
    err = rel_err(k1, reference)
    problems = []
    if not k1 - minorant > 0:             # criterion 7: K1 minorant
        problems.append(f"K1({t:g}) = {k1} below the minorant {minorant}")
    if err > 1e-6:                        # criterion 7: quadrature error
        problems.append(f"K1({t:g}) off the order-24 reference by {err:.2e}")
    return {"k1": k1, "rel_error": err}, problems


def verify_split(s: float, t: float, rep):
    problems = []
    closure = rel_err(rep.i_low + rep.i_high, rep.total)
    if closure > 1e-8:
        problems.append(f"i_low + i_high misses the total by {closure:.2e}")
    if rel_err(rep.cut, THETA0 * t ** (-1.0 / s)) > 1e-14:
        problems.append("cut radius is not theta0 t^(-1/s)")
    expansion = rel_err(rep.total, float(two_term_sq_norm(s, np.array(t))))
    if expansion > (EXPANSION_TOL_EARLY if t < 1e3 else EXPANSION_TOL_LATE):
        problems.append(f"total off the two-term expansion by {expansion:.2e}")
    return {"i_low": rep.i_low, "i_high": rep.i_high, "total": rep.total}, problems


# The quadrature-computed CompactBump transform, on a fresh profile (cold
# cache) at frequencies where it works; bump-data drives its cutoff probe.
BUMP_XI = np.linspace(0.0, 100.0, 401)


def bump_fourier_reference(xi) -> np.ndarray:
    """2 int_0^1 cos(x xi) e^(-1/(1-x^2)) dx by QUADPACK's cosine rule."""
    def bump(x):
        return math.exp(-1.0 / (1.0 - x * x)) if x < 1.0 else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return np.array([2.0 * quad(bump, 0.0, 1.0, weight="cos", wvar=k,
                                    epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                         for k in xi])


def verify_bump_fourier(fhat, reference):
    err = float(np.max(np.abs(fhat - reference)) / abs(reference[0]))
    problems = [] if err <= 1e-12 else [f"bump transform off the reference by {err:.2e}"]
    return {"fhat0": float(fhat[0].real), "max_error": err}, problems


GRID_ORDERS = (0.3, 0.5, 0.75)
GRID_TIMES = (0.1, 1.0, 10.0, 100.0)


def grid_energies(g):
    backend = spectral.GridBackend(GridSpec(40.0, 4096))
    out = {}
    for s in GRID_ORDERS:
        params = spectral.Parameters(s)
        out[s] = [spectral.evolve_state((g, g), params, t, backend).energy()
                  for t in (0.0, *GRID_TIMES)]
    return out


def verify_grid_energy(energies):
    drift = max(abs(e - es[0]) / es[0] for es in energies.values() for e in es[1:])
    problems = [] if drift <= 1e-9 else [f"energy drift {drift:.2e} > 1e-9"]  # criterion 1
    return {"max_drift": drift}, problems


# Box sizes grow with t because low frequencies outrun any fixed grid.
AGREEMENT_GRIDS = ((1.0, GridSpec(160.0, 4096)), (10.0, GridSpec(4096.0, 2 ** 16)),
                   (50.0, GridSpec(32768.0, 2 ** 19)), (100.0, GridSpec(65536.0, 2 ** 20)))


def grid_quadrature_pairs(g):
    params = spectral.Parameters(0.75)
    quadrature = spectral.QuadratureBackend()
    pairs = []
    for t, grid in AGREEMENT_GRIDS:
        on_grid = spectral.evolve_state((ZERO, g), params, t, spectral.GridBackend(grid))
        exact = spectral.evolve_state((ZERO, g), params, t, quadrature)
        pairs.append((t, on_grid.physical_l2(), exact.physical_l2()))
    # classical anchor at s = 1: u = (sqrt(pi)/4)(erf(x+t) - erf(x-t)) at t = 5
    anchor = spectral.evolve_state((ZERO, g), spectral.Parameters(1.0), 5.0,
                                   spectral.GridBackend(GridSpec(40.0, 4096)))
    return pairs, anchor.u.real, anchor.u_hat.grid.x()


def verify_agreement(result):
    pairs, wave, x = result
    agree = max(rel_err(on_grid, exact) for _, on_grid, exact in pairs)
    exact_wave = SQRT_PI / 4.0 * (erf(x + 5.0) - erf(x - 5.0))
    wave_err = float(np.max(np.abs(wave - exact_wave)) / np.max(np.abs(exact_wave)))
    problems = []
    if agree > 1e-6:                      # criterion 10: backends agree
        problems.append(f"grid and quadrature differ by {agree:.2e}")
    if wave_err > 1e-6:                   # criterion 10: classical anchor
        problems.append(f"s = 1 solution off the d'Alembert form by {wave_err:.2e}")
    return {"max_rel_difference": agree, "wave_error": wave_err}, problems


# ---------------------------------------------------------------------------
# bump-data: CompactBump data through the lemmas and sandwich runners
# ---------------------------------------------------------------------------

def bump_setup(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    ts = jittered_log_grid(rng, 1e2, 1e5, SWEEP_SAMPLES)
    sandwich = experiments.parse_config(
        f"experiment = bump-sandwich\ns = {BUMP_ORDER}\nu0 = none\nu1 = {BUMP_U1}\n"
        f"t_grid = {list_grid(ts)}\nbackend = quadrature\nbounds = auto\n")
    return lemma_config(BUMP_U1, seed), sandwich, ts


def bump_ops(inputs, workdir: Path) -> list[Op]:
    lemma_cfg, sandwich_cfg, ts = inputs
    lem_out, sw_out = workdir / "bump-lemmas", workdir / "bump-sandwich"
    return [
        Op("lemmas-bump", lambda: experiments.run_lemmas(lemma_cfg, out_dir=lem_out),
           verify_bump_lemmas),
        Op("sandwich-bump", lambda: experiments.run_sandwich(sandwich_cfg, out_dir=sw_out),
           lambda result: verify_bump_sandwich(ts, sw_out)),
    ]


def verify_bump_lemmas(result):
    problems = []
    if result.verdicts.get("all_inequalities_hold") is not True:
        problems.append(f"verdicts {result.verdicts}")
    riesz = [c for c in result.report["checks"] if c["check"] == "riesz_l1"]
    if len(riesz) != 1 or not math.isfinite(riesz[0]["left"]):
        problems.append("no finite Riesz energy at theta = 0.4")
    return {"checks": len(result.report["checks"])}, problems


def verify_bump_sandwich(ts, out: Path):
    """The bump has no closed-form D, so check the two-term structure: once
    the leading term is removed, what remains is the same constant D."""
    problems = []
    report, table, _ = take_outputs(out)
    if report.get("verdicts", {}).get("sandwich_holds") is not True:
        problems.append(f"sandwich_holds verdict is {report.get('verdicts')}")
    t = check_time_column(table, ts, problems)
    if t is None:
        return {}, problems
    v2 = float_column(table, "u_hat_l2") ** 2
    mass, _ = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0,
                   epsabs=0.0, epsrel=1e-13)
    s = BUMP_ORDER
    remainder = v2 - mass ** 2 * power_coefficient(s) * t ** (2.0 - 1.0 / s)
    late = remainder[t >= 1e3]
    spread = float(np.max(late) - np.min(late)) / float(np.max(v2))
    if spread > 1e-6:
        problems.append(f"||uhat||^2 - P^2 c_s^2 t^(2-1/s) is not constant ({spread:.1e})")
    return {"t": t.tolist(), "u_hat_sq": v2.tolist()}, problems


# Why each workload: growth-sweep is the headline computation, one
# phase-panel norm per sample and serial.  solve-fields uses the same
# quadrature layer through five norm functionals per snapshot (six
# oscillatory integrals), the CLI, two map_times threads and every writer.
# oracles touches the lemma, estimate and grid layers and the CompactBump
# transform, and never the phase-panel sweep.  bump-data is the only workload that drives the
# quadrature-computed CompactBump transform and its cutoff probe.
WORKLOADS = {
    "growth-sweep": Workload(growth_setup, growth_ops),
    "solve-fields": Workload(solve_setup, solve_ops),
    "oracles": Workload(oracles_setup, oracles_ops),
    "bump-data": Workload(bump_setup, bump_ops),
}
