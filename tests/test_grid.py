"""Discrete transform: conventions, round trips, Parseval."""

import numpy as np
import pytest

from fracwave import Gaussian, GridSpec, SpectralField

GRID = GridSpec(half_width=40.0, points=4096)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(points=1000)          # not a power of two
    with pytest.raises(ValueError):
        GridSpec(points=1)             # no zero bin
    with pytest.raises(ValueError):
        GridSpec(half_width=0.0)


def test_a_grid_above_max_points_is_refused():
    # 2^40 points would need terabytes; only the spec is made, no axis
    from fracwave import grid
    assert GridSpec(points=grid.MAX_POINTS).points == grid.MAX_POINTS
    for points in (2 * grid.MAX_POINTS, 1 << 40):
        with pytest.raises(ValueError, match=f"to MAX_POINTS = {grid.MAX_POINTS}, got {points}"):
            GridSpec(points=points)


def test_axes():
    x = GRID.x()
    xi = GRID.xi()
    assert x.size == xi.size == GRID.points
    assert x[0] == -40.0
    assert np.allclose(np.diff(x), GRID.dx)
    assert np.allclose(np.diff(xi), GRID.dxi)
    # symmetric frequency axis with one zero bin
    assert np.count_nonzero(xi == 0.0) == 1
    assert xi[GRID.points // 2] == 0.0


def test_round_trip():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(GRID.points) * np.exp(-GRID.x() ** 2 / 50.0)
    back = GRID.inverse(GRID.forward(f))
    assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))


def test_forward_matches_analytic_gaussian():
    g = Gaussian()
    spec = GRID.forward(g.evaluate(GRID.x()))
    exact = g.fourier(GRID.xi())
    assert np.max(np.abs(spec - exact)) < 1e-13 * np.max(np.abs(exact))


def test_discrete_parseval():
    # dx*sum|f|^2 = dxi*sum|fhat|^2 / (2 pi), exactly for the discrete pair
    rng = np.random.default_rng(11)
    f = rng.standard_normal(GRID.points)
    spec = GRID.forward(f)
    lhs = GRID.dx * np.sum(f ** 2)
    rhs = GRID.dxi * np.sum(np.abs(spec) ** 2) / (2 * np.pi)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_forward_is_hermitian_for_real_data():
    rng = np.random.default_rng(5)
    real = (Gaussian().evaluate(GRID.x()),
            rng.standard_normal(GRID.points) * np.exp(-GRID.x() ** 2 / 50.0))
    for f in real:
        spec = GRID.forward(f)
        # fhat(-xi) = conj fhat(xi) bin for bin; xi = 0 and -N/2 are real
        assert np.array_equal(spec[1:], np.conj(spec[1:][::-1]))
        assert spec[0].imag == 0.0 and spec[GRID.points // 2].imag == 0.0
        # the half-length real transform agrees with the complex one
        full = GRID.forward(f.astype(complex))
        assert np.max(np.abs(spec - full)) <= 1e-15 * np.max(np.abs(full))
    # complex input keeps the full transform: linear, and inverted exactly
    z = real[1] + 1j * real[0]
    spec = GRID.forward(z)
    split = GRID.forward(real[1]) + 1j * GRID.forward(real[0])
    assert np.max(np.abs(spec - split)) <= 1e-15 * np.max(np.abs(spec))
    assert np.max(np.abs(GRID.inverse(spec) - z)) < 1e-12 * np.max(np.abs(z))


def test_spectral_field_raw_and_physical_norms():
    field = SpectralField(GRID.forward(Gaussian().evaluate(GRID.x())), GRID)
    # raw and physical norms differ by sqrt(2 pi)
    assert field.raw_l2() == pytest.approx(np.sqrt(2 * np.pi) * field.physical_l2(),
                                           rel=1e-14)


def test_spectral_field_shape_guard():
    with pytest.raises(ValueError):
        SpectralField(np.zeros(8), GRID)
