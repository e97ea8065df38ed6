"""Hot numeric kernels. Each has one numpy implementation; ``BACKEND``
names it for run records."""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"


def second_moment_sum(pos, axis):
    """Sum of (1 - 3 cos^2 theta)^2 / r^6 over rows of pos (Angstrom),
    theta measured from the unit vector axis. Returns Angstrom^-6."""
    r2 = np.einsum("ij,ij->i", pos, pos)
    proj = pos @ axis
    cos2 = proj * proj / r2
    return float(np.sum((1.0 - 3.0 * cos2) ** 2 / (r2 * r2 * r2)))


def phase_envelope(theta, t):
    """Sum over samples s of cos(theta[s] * t): theta (samples,) in rad per
    time unit of t, t a uniform (nt,) grid t0 + k h. Returns (nt,).

    Each index splits as k = q b + j with b = isqrt(nt - 1) + 1, and
    cos(x + y) = cos x cos y - sin x sin y takes the coarse times t[q b]
    and the fine offsets t[j] - t0: cos and sin at 2 b times per sample
    instead of nt, summed over samples by two (b x samples x b) products.
    The sums are clipped to [-samples, samples], which rounding of the
    products can pass by an ulp. At t = 0 every term is exactly 1.
    """
    t = np.asarray(t, dtype=float)
    b = math.isqrt(len(t) - 1) + 1
    coarse = np.outer(theta, t[::b])
    fine = np.outer(theta, t[:b] - t[0])
    env = np.cos(coarse).T @ np.cos(fine) - np.sin(coarse).T @ np.sin(fine)
    m = float(len(theta))
    return np.clip(env.ravel()[:len(t)], -m, m)


# exp(-z^2/2) is exactly 0.0 in double precision beyond this many sigma
GAUSS_WINDOW_SIGMA = 39.0


def gaussian_mixture(centers, amps, sigma, grid):
    """Sum of unit-area Gaussians (area = amps[k]) evaluated on the sorted
    grid. Each line is evaluated only within GAUSS_WINDOW_SIGMA of its
    centre, where every dropped term of the dense sum is exactly zero."""
    centers = np.asarray(centers, dtype=float)
    grid = np.asarray(grid, dtype=float)
    reach = GAUSS_WINDOW_SIGMA * sigma
    lo = np.searchsorted(grid, centers - reach).tolist()
    hi = np.searchsorted(grid, centers + reach, "right").tolist()
    out = np.zeros(len(grid))
    for c, a, i, j in zip(centers.tolist(),
                          np.asarray(amps, dtype=float).tolist(), lo, hi):
        z = (grid[i:j] - c) / sigma
        out[i:j] += a * np.exp(-0.5 * z * z)
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    return norm * out
