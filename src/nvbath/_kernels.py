"""Hot numeric kernels. Each has one numpy implementation; ``BACKEND``
names it for run records."""

from __future__ import annotations

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
    time unit of t, t an (nt,) grid. Returns (nt,)."""
    return np.cos(np.outer(theta, t)).sum(axis=0)


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
