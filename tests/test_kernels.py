"""The jitted kernels and their numpy twins must agree to rounding; the
windowed Gaussian mixture must print like the dense sum."""

import os
import subprocess
import sys

import numpy as np

from nvbath import _kernels


def _random_inputs(seed):
    gen = np.random.Generator(np.random.Philox(key=seed))
    pos = gen.uniform(-20.0, 20.0, size=(200, 3))
    pos = pos[np.linalg.norm(pos, axis=1) > 1.0]
    axis = gen.normal(size=3)
    axis /= np.linalg.norm(axis)
    weights = np.where(gen.random((50, 30)) < 0.5, 0.5, -0.5)
    coups = gen.uniform(-2.0, 2.0, size=30)
    t = np.linspace(0.0, 5.0, 40)
    centers = gen.uniform(2000.0, 3000.0, size=12)
    amps = gen.uniform(0.1, 1.0, size=12)
    grid = np.linspace(1900.0, 3100.0, 300)
    return pos, axis, weights, coups, t, centers, amps, grid


def test_second_moment_matches_numpy_twin():
    for seed in range(5):
        pos, axis, *_ = _random_inputs(seed)
        a = _kernels.second_moment_sum(pos, axis)
        b = _kernels.second_moment_sum_np(pos, axis)
        assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


def test_phase_envelope_matches_numpy_twin():
    for seed in range(5):
        _, _, weights, coups, t, *_ = _random_inputs(seed)
        a = _kernels.phase_envelope(weights, coups, t)
        b = _kernels.phase_envelope_np(weights, coups, t)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def dense_gaussian_mixture(centers, amps, sigma, grid):
    """Every line at every grid point."""
    z = (grid[None, :] - centers[:, None]) / sigma
    return (amps @ np.exp(-0.5 * z * z)) / (sigma * np.sqrt(2.0 * np.pi))


def test_gaussian_mixture_matches_dense_sum():
    for seed in range(5):
        gen = np.random.Generator(np.random.Philox(key=seed))
        sigma = gen.uniform(0.2, 0.5)
        grid = np.linspace(2500.0, 2600.0, 4001)
        # clusters far apart (exact zeros and subnormals between them),
        # lines on and just beyond both edges of the grid
        centers = np.concatenate([
            gen.uniform(2500.0, 2505.0, 20), gen.uniform(2595.0, 2600.0, 20),
            [2500.0, 2600.0, 2500.0 - 30 * sigma, 2600.0 + 30 * sigma,
             2500.0 - 45 * sigma, 2600.0 + 45 * sigma]])
        amps = gen.uniform(0.0, 1.0, len(centers))
        got = _kernels.gaussian_mixture(centers, amps, sigma, grid)
        want = dense_gaussian_mixture(centers, amps, sigma, grid)
        assert np.any(want == 0.0) and np.any((want > 0) & (want < 1e-300))
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert [f"{x:.10g}" for x in got] == [f"{x:.10g}" for x in want]
        assert np.all(np.abs(got - want) <= 1e-15 * want.max())


def test_disable_flag_selects_numpy_backend():
    code = "import nvbath._kernels as k; print(k.BACKEND)"
    env = dict(os.environ, NVBATH_DISABLE_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


def test_backend_name_is_declared():
    assert _kernels.BACKEND in ("numba", "numpy")
