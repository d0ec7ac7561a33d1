"""Property-style invariants: randomized data combinations and hypothesis sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave import (Gaussian, NormSeries, evolve_state,
                      fit_power_exponent, fourier_at, l1_norm,
                      sine_multiplier, weighted_l1_norm)
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


