"""Hot numeric kernels. The lattice and envelope kernels have numba and
pure-numpy implementations; the Gaussian mixture is numpy on every backend.

Set NVBATH_DISABLE_NUMBA=1 to force the numpy path (it is also used
automatically when numba is not importable). The two paths accumulate in
different orders, so agreement is to rounding, not bitwise; outputs are
deterministic within a backend. ``BACKEND`` names the active path.
"""

from __future__ import annotations

import os

import numpy as np

_want_numba = os.environ.get("NVBATH_DISABLE_NUMBA", "").strip().lower() \
    not in ("1", "true", "yes")

try:
    if not _want_numba:
        raise ImportError
    from numba import njit
    _HAVE_NUMBA = True
except ImportError:
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap

BACKEND = "numba" if _HAVE_NUMBA else "numpy"


# ----- pure numpy implementations --------------------------------------

def second_moment_sum_np(pos, axis):
    """Sum of (1 - 3 cos^2 theta)^2 / r^6 over rows of pos (Angstrom),
    theta measured from the unit vector axis. Returns Angstrom^-6."""
    r2 = np.einsum("ij,ij->i", pos, pos)
    proj = pos @ axis
    cos2 = proj * proj / r2
    return float(np.sum((1.0 - 3.0 * cos2) ** 2 / (r2 * r2 * r2)))


def phase_envelope_np(weights, coups, t):
    """Ensemble-averaged cos(theta_s * t) where theta_s = weights[s] . coups.

    weights: (samples, sites) spin/occupancy draws; coups: (sites,) angular
    frequencies (rad per time unit of t); t: (nt,) grid. Returns (nt,).
    """
    theta = weights @ coups
    return np.cos(np.outer(theta, t)).mean(axis=0)


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


# ----- numba twins ------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def _second_moment_sum_nb(pos, axis):
        total = 0.0
        for i in range(pos.shape[0]):
            x, y, z = pos[i, 0], pos[i, 1], pos[i, 2]
            r2 = x * x + y * y + z * z
            proj = x * axis[0] + y * axis[1] + z * axis[2]
            cos2 = proj * proj / r2
            f = 1.0 - 3.0 * cos2
            total += f * f / (r2 * r2 * r2)
        return total

    @njit(cache=True)
    def _phase_envelope_nb(weights, coups, t):
        ns, nk = weights.shape
        nt = t.shape[0]
        out = np.zeros(nt)
        for s in range(ns):
            theta = 0.0
            for k in range(nk):
                theta += weights[s, k] * coups[k]
            for m in range(nt):
                out[m] += np.cos(theta * t[m])
        return out / ns

    def second_moment_sum(pos, axis):
        return float(_second_moment_sum_nb(
            np.ascontiguousarray(pos, dtype=np.float64),
            np.ascontiguousarray(axis, dtype=np.float64)))

    def phase_envelope(weights, coups, t):
        return _phase_envelope_nb(
            np.ascontiguousarray(weights, dtype=np.float64),
            np.ascontiguousarray(coups, dtype=np.float64),
            np.ascontiguousarray(t, dtype=np.float64))

else:
    second_moment_sum = second_moment_sum_np
    phase_envelope = phase_envelope_np
