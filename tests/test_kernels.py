"""Each kernel must agree with a plain loop over sites and samples; the
windowed Gaussian mixture must print like the dense sum. numpy is the
only backend."""

import ast
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from nvbath import _kernels


def _random_inputs(seed):
    gen = np.random.Generator(np.random.Philox(key=seed))
    pos = gen.uniform(-20.0, 20.0, size=(200, 3))
    pos = pos[np.linalg.norm(pos, axis=1) > 1.0]
    axis = gen.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = gen.uniform(-2.0, 2.0, size=50)
    t = np.linspace(0.0, 5.0, 40)
    return pos, axis, theta, t


def loop_second_moment_sum(pos, axis):
    """One site at a time."""
    total = 0.0
    for x, y, z in pos.tolist():
        r2 = x * x + y * y + z * z
        proj = x * axis[0] + y * axis[1] + z * axis[2]
        f = 1.0 - 3.0 * proj * proj / r2
        total += f * f / (r2 * r2 * r2)
    return total


def loop_phase_envelope(theta, t):
    """One sample, then one time point, at a time."""
    out = [0.0] * len(t)
    for th in theta.tolist():
        for m, tm in enumerate(t.tolist()):
            out[m] += math.cos(th * tm)
    return np.array(out)


def test_second_moment_matches_per_site_loop():
    for seed in range(5):
        pos, axis, *_ = _random_inputs(seed)
        a = _kernels.second_moment_sum(pos, axis)
        b = loop_second_moment_sum(pos, axis)
        assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


def test_phase_envelope_matches_per_sample_loop():
    for seed in range(5):
        _, _, theta, t = _random_inputs(seed)
        a = _kernels.phase_envelope(theta, t)
        b = loop_phase_envelope(theta, t)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert np.all(a[t == 0.0] == len(theta))


@settings(max_examples=80, deadline=None)
@given(theta=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=300),
       t0=st.floats(0.0, 10.0), h=st.floats(0.0, 1.0, exclude_min=True),
       nt=st.integers(2, 400))
def test_phase_envelope_on_any_uniform_grid(theta, t0, h, nt):
    # angle addition over coarse times and fine offsets against the dense
    # (samples x times) cosines
    theta = np.array(theta)
    t = t0 + h * np.arange(nt)
    got = _kernels.phase_envelope(theta, t)
    want = np.cos(np.outer(theta, t)).sum(axis=0)
    scale = 1.0 + np.max(np.abs(np.outer(theta, t)))
    assert np.all(np.abs(got - want) <= 1e-12 * len(theta) * scale)
    assert np.all(np.abs(got) <= len(theta))
    if t0 == 0.0:
        assert got[0] == len(theta)


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


def test_numpy_is_the_only_backend():
    assert _kernels.BACKEND == "numpy"
    for path in Path(_kernels.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "NVBATH_DISABLE_NUMBA" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numba" for n in names), \
                path.name
