"""Property-style invariants: randomized data combinations and hypothesis sweeps."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave import (Gaussian, NormSeries, evolve_state,
                      fit_power_exponent, fourier_at, l1_norm,
                      sine_multiplier, weighted_l1_norm)
from fracwave.cli import main
from support import INVARIANT_BACKEND, random_case, run_solver_invariant_cases

SEED = 314159


def test_solver_invariants_randomized():
    """Linearity, cocycle, reality, determinism over seeded random data."""
    failures = run_solver_invariant_cases(40, SEED)
    assert not failures, failures


def test_energy_conservation_randomized():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        (u0, u1), params, t = random_case(rng)
        e0 = evolve_state((u0, u1), params, 0.0, INVARIANT_BACKEND).energy()
        if e0 == 0.0:
            continue
        e = evolve_state((u0, u1), params, t, INVARIANT_BACKEND).energy()
        assert abs(e - e0) / e0 < 1e-11


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.floats(0.05, 1.0), t=st.floats(0.0, 50.0),
       xi=st.floats(-30.0, 30.0))
def test_multiplier_bounded_by_time(s, t, xi):
    # |sin(t w)/w| <= t everywhere, with equality only at w -> 0
    assert abs(sine_multiplier(s, t, xi)) <= t * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.floats(0.05, 1.0), t=st.floats(1e-3, 50.0),
       xi=st.floats(1e-6, 30.0))
def test_multiplier_matches_direct_formula(s, t, xi):
    w = t * xi ** s
    if w < 1e-8:
        return  # series branch has its own continuity test
    assert sine_multiplier(s, t, xi) == pytest.approx(np.sin(w) / xi ** s,
                                                      rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(0.1, 3.0), sigma=st.floats(0.4, 2.5),
       gamma=st.floats(0.0, 1.0))
def test_weighted_norm_dominates_l1(a, sigma, gamma):
    p = Gaussian(a, sigma)
    assert weighted_l1_norm(p, gamma) >= l1_norm(p) * (1 - 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(-3.0, 3.0), sigma=st.floats(0.4, 2.0),
       c=st.floats(-2.0, 2.0), xi=st.floats(-50.0, 50.0))
def test_transform_bounded_by_l1_hypothesis(a, sigma, c, xi):
    p = Gaussian(a, sigma, c)
    if a == 0.0:
        return
    assert abs(fourier_at(p, xi)) <= l1_norm(p) * (1 + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=st.floats(0.01, 100.0), alpha=st.floats(-1.0, 1.0))
def test_fit_recovers_exact_power_laws(c, alpha):
    t = np.logspace(0.5, 3.5, 24)
    fit = fit_power_exponent(NormSeries(t, c * t ** alpha))
    assert fit.exponent == pytest.approx(alpha, abs=1e-9)
    assert fit.residual < 1e-9


# ---------------------------------------------------------------------------
# the CLI on configs drawn from the parse_config grammar
# ---------------------------------------------------------------------------

EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e12, -1e12,
            float("nan"), float("inf"), float("-inf")]


def _number(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES))


def _profile():
    # no bump data: one bump norm takes about 0.8 s
    gaussian = st.tuples(st.sampled_from(["gaussian", "gaussian_derivative"]),
                         _number(-3.0, 3.0), _number(0.2, 5.0), _number(-5.0, 5.0))
    return st.one_of(st.just("none"), gaussian.map(
        lambda g: f"{g[0]} a={g[1]!r} sigma={g[2]!r} c={g[3]!r}"))


def _t_grid():
    ends = _number(0.0, 1e6)
    # at most 4 samples, for time
    spaced = st.tuples(st.sampled_from(["log", "lin"]), ends, ends,
                       st.integers(1, 4)).map(
        lambda g: f"{g[0]} {g[1]!r} {g[2]!r} {g[3]}")
    listed = st.lists(ends, min_size=1, max_size=4).map(
        lambda ts: "list " + " ".join(map(repr, ts)))
    return st.one_of(spaced, listed)


CONFIG_KEYS = {
    "s": _number(0.05, 1.0).map(repr),
    "u0": _profile(),
    "u1": _profile(),
    "t_grid": _t_grid(),
    "backend": st.sampled_from(["quadrature", "grid"]),
    "grid_half_width": _number(1.0, 100.0).map(repr),
    # at most 2^12 grid points, for time
    "grid_points": st.sampled_from(["2", "3", "64", "1024", "4096"]),
    "bounds": st.sampled_from(["auto", "power", "log", "none"]),
    "gamma": _number(0.0, 1.0).map(repr),
    "seed": st.integers(-3, 2 ** 32).map(str),
    "plot": st.sampled_from(["true", "false"]),
}


@st.composite
def config_texts(draw):
    lines = [f"{key} = {draw(value)}" for key, value in CONFIG_KEYS.items()
             if draw(st.booleans())]
    return "\n".join(lines) + "\n"


def _finite_numbers(csv_text: str, report: dict) -> bool:
    numbers = []
    for row in csv_text.splitlines()[1:]:
        for cell in row.split(","):
            try:
                numbers.append(float(cell))
            except ValueError:
                pass               # a lemma check's name

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, float):
            numbers.append(node)

    walk(report)
    return bool(np.all(np.isfinite(numbers)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=config_texts())
def test_cli_gives_checked_numbers_or_one_line(text):
    """Every command ends in exit 0 with finite outputs, exit 1 with one
    ``error:`` line or a FAIL verdict, or exit 2 with one ``config error``
    line; never a traceback.  Warnings go through the warnings module,
    which pytest records; the lines checked are the CLI's own."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.txt"
        path.write_text(text)
        for command in ("solve", "energy", "rates", "sandwich", "lemmas"):
            out_dir = Path(tmp) / command
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command, "--config", str(path),
                               "--out", str(out_dir)])
            lines = err.getvalue().splitlines()
            where = f"{command} on\n{text}stderr: {err.getvalue()}"
            if status == 0:
                assert not lines, where
                report = json.loads((out_dir / "report.json").read_text())
                table = (out_dir / "norms.csv").read_text()
                assert _finite_numbers(table, report), where
            elif status == 1:
                if lines:
                    assert len(lines) == 1 and lines[0].startswith("error: "), where
                else:
                    assert "FAIL " in out.getvalue(), where
            else:
                assert status == 2, where
                assert len(lines) == 1 and lines[0].startswith("config error"), where
