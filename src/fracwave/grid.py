"""Uniform physical grid and its discrete Fourier transform.

The transform convention is the non-unitary analyst's pair

    fhat(xi) = integral e^{-i x xi} f(x) dx,
    f(x)     = (2 pi)^{-1} integral e^{+i x xi} fhat(xi) dxi,

discretized on x_j = -L + j*dx (j = 0..N-1, dx = 2L/N) with frequencies
xi_k = pi*k/L for k = -N/2..N/2-1, stored in ascending order.  With these
factors the discrete pair satisfies the exact Parseval identity

    dx * sum |f_j|^2 = (2 pi)^{-1} * dxi * sum |fhat_k|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid on [-L, L) with a power-of-two point count."""

    half_width: float = 40.0
    points: int = 4096

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.points < 2 or not _is_power_of_two(self.points):
            # one point has no zero bin: xi_k = pi*k/L needs k = -N/2..N/2-1
            raise ValueError(f"points must be a power of two >= 2, got {self.points}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def dxi(self) -> float:
        return np.pi / self.half_width

    def x(self) -> np.ndarray:
        return _x_axis(self.half_width, self.points)

    def xi(self) -> np.ndarray:
        return _xi_axis(self.half_width, self.points)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Sampled f(x_j) -> fhat(xi_k), ascending-frequency order.

        Real samples take the half-length real transform; the negative
        frequencies are its mirror, fhat(-xi) = conj fhat(xi), exactly.
        """
        values = np.asarray(values)
        scale = self.dx * _alternating_sign(self.points)
        if np.iscomplexobj(values):
            return np.fft.fftshift(scale * np.fft.fft(values))
        half = self.points // 2
        positive = np.fft.rfft(values)                        # k = 0..N/2
        positive *= scale[:half + 1]
        spec = np.empty(self.points, dtype=complex)
        spec[half:] = positive[:self.points - half]
        spec[0] = positive[half]                              # k = -N/2
        np.conjugate(positive[half - 1:0:-1], out=spec[1:half])
        return spec

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """fhat(xi_k) -> f(x_j); inverse of :meth:`forward` to round-off."""
        sign = _alternating_sign(self.points)
        return np.fft.ifft(sign * np.fft.ifftshift(np.asarray(spectrum))) / self.dx


@lru_cache(maxsize=32)
def _x_axis(half_width: float, points: int) -> np.ndarray:
    dx = 2.0 * half_width / points
    axis = -half_width + dx * np.arange(points)
    axis.setflags(write=False)
    return axis


@lru_cache(maxsize=32)
def _xi_axis(half_width: float, points: int) -> np.ndarray:
    axis = (np.pi / half_width) * np.arange(-points // 2, points // 2)
    axis.setflags(write=False)
    return axis


@lru_cache(maxsize=32)
def _alternating_sign(points: int) -> np.ndarray:
    k = np.fft.fftfreq(points, d=1.0 / points).astype(np.int64)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    sign.setflags(write=False)
    return sign
