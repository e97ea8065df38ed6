"""Diamond lattice generation, shell classification and bath sampling.

The generation oracle re-enumerates the lattice with a deliberately naive
double loop over conventional cells (lattice_reference.py), so any indexing
mistake in the vectorized generator shows up as a mismatch.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_reference import (brute_force_quarters, reference_shells,
                               reference_sites, symmetry_classes)
from nvbath.constants import LATTICE_A_ANGSTROM
from nvbath.errors import ResourceLimitError, ValidationError
from nvbath.lattice import (
    BYTES_PER_SITE,
    SITE_DENSITY_A3,
    Lattice,
    LatticeSite,
    classify_shells,
    generate_lattice,
    positions_of,
    sample_bath,
    shell_summary,
)


def test_matches_brute_force_enumeration():
    for radius in (2.0, 6.0, 15.0):
        sites = generate_lattice(radius)
        got = {(s.quarter, s.sublattice) for s in sites}
        assert got == brute_force_quarters(radius)
        assert len(got) == len(sites)  # no duplicates


@settings(max_examples=40, deadline=None)
@given(radius=st.floats(1.6, 14.0), subset_seed=st.integers(0, 2 ** 32 - 1))
def test_arrays_match_per_site_reference(radius, subset_seed):
    lat = classify_shells(generate_lattice(radius))
    ref, ref_positions = reference_sites(radius)
    assert list(lat) == ref  # order, quarter, shell, sublattice
    assert [lat[i] for i in range(len(lat))] == ref
    assert [s.position for s in lat] == ref_positions
    assert lat.quarter.tolist() == [list(s.quarter) for s in ref]
    assert lat.shell.tolist() == [s.shell for s in ref]
    assert lat.sublattice.tolist() == [s.sublattice for s in ref]
    np.testing.assert_array_equal(positions_of(lat), np.array(ref_positions))
    # a plain list of LatticeSite classifies like the array type
    assert classify_shells(list(generate_lattice(radius))).shell.tolist() \
        == lat.shell.tolist()
    # so does a shuffled, partial list, warning exactly when the reference
    # finds its outermost class open under C3v
    rng = np.random.default_rng(subset_seed)
    pick = rng.permutation(len(ref))[:rng.integers(1, len(ref) + 1)]
    part = [ref[i] for i in pick]
    want, closed = reference_shells(part)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = classify_shells(part)
    assert got.shell.tolist() == want
    assert any("C3v-closed" in str(w.message) for w in caught) == (not closed)


def test_lattice_sequence_views():
    lat = classify_shells(generate_lattice(6.0))
    sites = list(lat)
    assert len(lat) == len(sites) == 157
    assert lat[-1] == sites[-1]
    head = lat[:40]
    assert isinstance(head, Lattice) and list(head) == sites[:40]
    assert list(lat[np.array([5, 0])]) == [sites[5], sites[0]]
    assert list(lat[lat.shell == 3]) == [s for s in sites if s.shell == 3]
    with pytest.raises(ValueError):
        lat.shell[0] = 7  # classify_shells shares arrays between lattices
    # views are LatticeSite, not plain tuples with equal contents
    assert all(type(s) is LatticeSite for s in lat)
    assert all(type(lat[i]) is LatticeSite
               for i in (0, -1, np.int64(3), np.int32(7), np.array(3)))
    assert lat[np.array(-2)] == sites[-2]  # a 0-d array is its scalar
    # a bool scalar is not an integer index; a boolean mask is a mask
    for flag in (True, np.True_, False, np.False_, np.array(True),
                 np.array(False)):
        with pytest.raises(TypeError, match="bool scalar"):
            lat[flag]
    assert len(lat[np.ones(len(lat), dtype=bool)]) == len(lat)


def _closed_form_site_count(radius):
    """Carbon sites within radius, counted per (qx, qy) column: the z
    coordinates allowed by d^2 <= floor(qmax^2) form one residue class
    mod 4 in [-zmax, zmax]. Vacancy and nitrogen are subtracted."""
    qmax = radius / (LATTICE_A_ANGSTROM / 4.0)
    q2, m = math.floor(qmax * qmax), int(qmax)
    count = 0
    for x in range(-m, m + 1):
        for y in range(-m, m + 1):
            rest = q2 - x * x - y * y
            if (x - y) % 2 or rest < 0:
                continue
            zmax = math.isqrt(rest)
            c = (3 * (x % 2) - x - y) % 4
            count += (zmax - c) // 4 - (-zmax - 1 - c) // 4
    return count - 1 - (q2 >= 3)


@pytest.mark.parametrize("radius", [13.3, 14.4, 28.4, 28.6, 56.9, 57.2])
def test_packed_key_order_at_key_width_steps(radius):
    # qmax = radius / (a/4) lies just under and over 16, 32 and 64, where
    # the coordinate field of the packed sort key gains a bit
    lat = generate_lattice(radius)
    q = lat.quarter.astype(np.int64)
    d2 = (q * q).sum(axis=1)
    order = np.lexsort((q[:, 2], q[:, 1], q[:, 0], d2))
    np.testing.assert_array_equal(order, np.arange(len(lat)))
    assert np.all(np.any(np.diff(q, axis=0) != 0, axis=1))  # no duplicates
    assert len(lat) == _closed_form_site_count(radius)
    np.testing.assert_array_equal(lat.sublattice, lat.quarter[:, 0] & 1)
    assert lat.sublattice.dtype == np.int8 and lat.quarter.dtype == np.int32
    assert not np.any(d2 == 0)
    assert not np.any(np.all(lat.quarter == (1, 1, 1), axis=1))


def test_peak_memory_per_site_within_bound():
    for radius in (20.0, 40.0):
        tracemalloc.start()
        try:
            sites = classify_shells(generate_lattice(radius))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= BYTES_PER_SITE * len(sites), radius


def test_radius_2_gives_exactly_first_shell():
    sites = generate_lattice(2.0)
    assert len(sites) == 3
    expected = {tuple(p) for p in
                (np.array(v) for v in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)))}
    assert {s.quarter for s in sites} == expected
    d = LATTICE_A_ANGSTROM * math.sqrt(3.0) / 4.0
    for s in sites:
        assert abs(s.distance - d) <= 1e-12


def test_shell_counts_and_split():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sites = classify_shells(generate_lattice(6.0))
    table = shell_summary(sites)
    assert table[1][0] == 3
    # the d^2 = 11 distance class holds 12 sites split 9 (near-equatorial,
    # orbit sizes 3 + 6) and 3 (polar orbit)
    assert table[3][0] == 9
    assert table[4][0] == 3
    assert abs(table[3][1] - table[4][1]) <= 1e-12
    shell3 = [s for s in sites if s.shell == 3]
    orbit_sizes = sorted(len(v) for v in symmetry_classes(shell3).values())
    assert orbit_sizes == [3, 6]
    sums = {sum(s.quarter) for s in shell3}
    assert sums == {3, -1}
    assert {sum(s.quarter) for s in sites if s.shell == 4} == {-5}


def test_ordering_deterministic_and_sorted_by_distance():
    a = generate_lattice(12.0)
    b = generate_lattice(12.0)
    assert [s.quarter for s in a] == [s.quarter for s in b]
    d = [s.distance for s in a]
    assert all(x <= y + 1e-12 for x, y in zip(d, d[1:]))


def test_truncated_shell_warns():
    sites = generate_lattice(6.0)
    with pytest.warns(UserWarning, match="C3v-closed"):
        classify_shells(sites[:-1])


def test_site_count_tracks_density():
    radius = 20.0
    sites = generate_lattice(radius)
    expect = 4.0 / 3.0 * math.pi * radius ** 3 * SITE_DENSITY_A3
    assert len(sites) >= 3000
    assert abs(len(sites) - expect) / expect < 0.05


def test_radius_cap():
    with pytest.raises(ResourceLimitError, match=r"cap 1e\+07 sites, ~0\.6 GB"):
        generate_lattice(10_000.0)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            generate_lattice(bad)


def test_classify_shells_of_an_empty_lattice_is_empty():
    empty = generate_lattice(6.0)[:0]
    out = classify_shells(empty)
    assert isinstance(out, Lattice) and len(out) == 0
    assert out.quarter.shape == (0, 3)
    assert len(classify_shells([])) == 0


def test_sample_bath_deterministic_and_prefix_stable():
    sites = classify_shells(generate_lattice(10.0))
    a = sample_bath(sites, 0.05, seed=11)
    b = sample_bath(sites, 0.05, seed=11)
    np.testing.assert_array_equal(a, b)
    # counter-based draws: site i's variate depends only on (seed, i), so a
    # shorter site list selects a prefix-consistent subset
    c = sample_bath(sites[:40], 0.05, seed=11)
    assert set(c) == {i for i in a if i < 40}
    assert not np.array_equal(sample_bath(sites, 0.05, seed=12), a)


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, "5"])
def test_sample_bath_seed_is_an_integer_below_2_128(seed):
    sites = classify_shells(generate_lattice(6.0))
    with pytest.raises(ValidationError, match="seed must be an integer"):
        sample_bath(sites, 0.05, seed)
    top = sample_bath(sites, 0.5, 2 ** 128 - 1)
    u = np.random.Generator(np.random.Philox(key=2 ** 128 - 1)).random(
        len(sites))
    np.testing.assert_array_equal(top, np.flatnonzero(u < 0.5))


def test_sample_bath_mean_occupancy():
    sites = classify_shells(generate_lattice(8.0))
    n = 0.084
    total = len(sites)
    counts = [len(sample_bath(sites, n, seed=s)) for s in range(1000)]
    mean = float(np.mean(counts))
    sigma = math.sqrt(total * n * (1 - n) / len(counts))
    assert abs(mean - total * n) <= 3.0 * sigma


def test_per_shell_occupancy_statistics():
    sites = classify_shells(generate_lattice(6.0))
    table = shell_summary(sites)
    n = 0.084
    seeds = range(1000)
    per_shell = {sh: 0 for sh in table}
    shell_of = {i: s.shell for i, s in enumerate(sites)}
    for seed in seeds:
        for i in sample_bath(sites, n, seed=seed):
            per_shell[shell_of[int(i)]] += 1
    for sh, (m, _) in table.items():
        mean = per_shell[sh] / len(seeds)
        sigma = math.sqrt(m * n * (1 - n) / len(seeds))
        assert abs(mean - m * n) <= 3.0 * sigma, f"shell {sh}"


def test_bath_couplings_match_positions():
    # the occupied sites come as ascending integer indices into the site
    # list, and their positions are those rows of positions_of
    sites = classify_shells(generate_lattice(10.0))
    idx = sample_bath(sites, 0.1, seed=3)
    assert idx.dtype.kind == "i" and len(idx) > 0
    assert np.all(np.diff(idx) > 0)
    np.testing.assert_array_equal(positions_of(sites[idx]),
                                  positions_of(sites)[idx])
    empty = sample_bath(sites, 0.0, seed=3)
    assert empty.shape == (0,)
    assert positions_of(sites[empty]).shape == (0, 3)
