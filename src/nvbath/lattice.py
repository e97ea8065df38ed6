"""Diamond lattice around a vacancy-nitrogen defect pair and 13C bath draws.

The vacancy sits at the origin of the cubic crystal frame; the substitutional
nitrogen occupies the [111] nearest-neighbor site, so the defect symmetry
axis is +[111]. All carbon positions are exact integer multiples of a/4,
which this module exploits for exact distance classes and deduplication.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import LATTICE_A_ANGSTROM
from .errors import ResourceLimitError, ValidationError

NV_AXIS = (1 / math.sqrt(3),) * 3

_A4 = LATTICE_A_ANGSTROM / 4.0  # Angstrom per quarter-lattice unit
SITE_DENSITY_A3 = 8.0 / LATTICE_A_ANGSTROM ** 3  # carbon atoms per cubic Angstrom
MAX_SITES = 10_000_000
# Bound on the tracemalloc peak of classify_shells(generate_lattice(R)) per
# site; measured 54-55 B at R = 20-60 A (numpy 2.4), reached in
# classify_shells (generate_lattice alone peaks at 42-50 B), so the cap
# allows ~0.6 GB.
BYTES_PER_SITE = 60

# C3v operations about [111] as coordinate permutations: two rotations and
# three mirrors, plus identity
_C3V_PERMS = ((0, 1, 2), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 2, 1), (2, 1, 0))


class LatticeSite(NamedTuple):
    """One carbon site: quarter-lattice integer coordinates, distance-ordered
    shell index (0 = unclassified) and sublattice tag (0 = vacancy
    sublattice, 1 = nitrogen sublattice). Position and distance derive from
    the quarter coordinates."""

    quarter: tuple
    shell: int = 0
    sublattice: int = 0

    @property
    def position(self) -> tuple:
        """(x, y, z) in Angstrom, bitwise equal to positions_of's row."""
        q = self.quarter
        return (_A4 * q[0], _A4 * q[1], _A4 * q[2])

    @property
    def distance(self) -> float:
        return _A4 * math.sqrt(sum(q * q for q in self.quarter))


class Lattice(Sequence):
    """Carbon sites stored as read-only arrays: ``quarter`` (N, 3) int32
    quarter-lattice coordinates, ``shell`` (N,) int32 shell indices
    (0 = unclassified) and ``sublattice`` (N,) int8 tags.

    Indexing with an integer, and iteration, give LatticeSite views; a
    slice, index array or boolean mask gives a Lattice. A 0-d array is
    taken as its scalar. A bool scalar is not an index: it raises
    TypeError.
    """

    __slots__ = ("quarter", "shell", "sublattice")

    def __init__(self, quarter, shell, sublattice):
        for arr in (quarter, shell, sublattice):
            arr.flags.writeable = False  # classify_shells shares arrays
        self.quarter = quarter
        self.shell = shell
        self.sublattice = sublattice

    def __len__(self) -> int:
        return len(self.shell)

    def __getitem__(self, i):
        if isinstance(i, np.ndarray) and i.ndim == 0:
            i = i[()]  # a 0-d array indexes as its scalar
        if isinstance(i, (bool, np.bool_)):
            kind = type(i)
            raise TypeError("a lattice index must be an integer, slice, "
                            "index array or boolean mask, not a bool "
                            f"scalar ({kind.__module__}.{kind.__name__})")
        if isinstance(i, (int, np.integer)):
            return LatticeSite(tuple(self.quarter[i].tolist()),
                               int(self.shell[i]), int(self.sublattice[i]))
        return Lattice(self.quarter[i], self.shell[i], self.sublattice[i])

    def __iter__(self):
        # tuple.__new__(LatticeSite, row) builds each view in C
        return map(tuple.__new__, itertools.repeat(LatticeSite),
                   zip(map(tuple, self.quarter.tolist()),
                       self.shell.tolist(), self.sublattice.tolist()))


def as_lattice(sites) -> Lattice:
    """sites as a Lattice: a Lattice is returned as is, an iterable of
    LatticeSite is packed into arrays in its own order."""
    if isinstance(sites, Lattice):
        return sites
    sites = list(sites)
    return Lattice(
        np.array([s.quarter for s in sites], dtype=np.int32).reshape(-1, 3),
        np.array([s.shell for s in sites], dtype=np.int32),
        np.array([s.sublattice for s in sites], dtype=np.int8))


def _squared_norms(quarter) -> np.ndarray:
    return np.einsum("ij,ij->i", quarter, quarter)


def generate_lattice(radius_angstrom: float) -> Lattice:
    """All carbon sites within radius of the vacancy, vacancy and nitrogen
    excluded, ordered by (distance, quarter coordinates); unclassified.

    Each fcc sublattice is a cube of quarter coordinates with the parity of
    its offset (0 or 1), masked to d^2 <= qmax^2 and a coordinate sum of
    3 * offset modulo 4, less its point (offset, offset, offset): the
    vacancy or the nitrogen. Every inside point becomes one int64 key,
    d^2 << 3b | (qx + m) << 2b | (qy + m) << b | (qz + m) with m = int(qmax)
    and b = (2m).bit_length(); the keys are unique and sort in (d^2, qx, qy,
    qz) order, so one sort orders the sites and shifts and masks decode
    them. The nitrogen sublattice is the one with odd coordinates.
    """
    if not math.isfinite(radius_angstrom) or radius_angstrom <= 0:
        raise ValidationError("radius must be a positive finite number, "
                              f"got {radius_angstrom:g}")
    est = 4.0 / 3.0 * math.pi * radius_angstrom ** 3 * SITE_DENSITY_A3
    if est > MAX_SITES:
        raise ResourceLimitError(
            f"radius {radius_angstrom:g} A implies ~{est:.2e} sites "
            f"(cap {MAX_SITES:.0e} sites, "
            f"~{MAX_SITES * BYTES_PER_SITE / 1e9:.1f} GB to generate and "
            "classify)")

    qmax = radius_angstrom / _A4
    m = int(qmax)
    b = (2 * m).bit_length()
    keys = []
    for offset in (0, 1):
        start = (m + offset) % 2  # v[0] + m, for v of the parity of offset
        v = np.arange(start - m, m + 1, 2, dtype=np.int32)
        sq = v * v
        d2 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
        inside = d2 <= qmax * qmax
        r = (v % 4).astype(np.int8)  # >= 0, so & 3 below is the sum mod 4
        inside &= (r[:, None, None] + r[None, :, None] + r[None, None, :]) \
            & 3 == 3 * offset % 4
        if offset <= m:  # drop the vacancy (offset 0) or nitrogen (offset 1)
            c = (m + offset) // 2  # v[c] == offset
            inside[c, c, c] = False
        key = d2[inside].astype(np.int64) << 3 * b
        del d2
        for shift, i in zip((2 * b, b, 0), np.nonzero(inside)):
            key |= (2 * i + start) << shift  # v[i] + m
        keys.append(key)
    key = np.concatenate(keys)
    del keys
    key.sort()
    mask = (1 << b) - 1
    quarter = np.empty((len(key), 3), dtype=np.int32)
    for col, shift in enumerate((2 * b, b, 0)):
        quarter[:, col] = (key >> shift & mask) - m
    sublattice = (quarter[:, 0] & 1).astype(np.int8)
    return Lattice(quarter, np.zeros(len(key), dtype=np.int32), sublattice)


def positions_of(sites) -> np.ndarray:
    """(N, 3) site positions in Angstrom, from the quarter coordinates."""
    return as_lattice(sites).quarter * _A4


# Canonical third distance class (d^2 = 11 quarter units): 12 sites in C3v
# orbits of 6+3+3. The strongly coupled 9-site class (orbits with axial
# coordinate sums +3 and -1) is shell 3; the polar 3-orbit (sum -5) splits
# into the following shell.
_SPLIT_D2 = 11
_SPLIT_POLAR_SUM = -5


def classify_shells(sites, radius_angstrom=None) -> Lattice:
    """Assign 1-based shell indices by distance class from the vacancy.

    The third distance class is subdivided into the 9-site near-equatorial
    class and the 3-site polar orbit; all later classes shift by one. Warns when the outermost
    shell is not closed under C3v (truncated input) or sits at the
    generation radius boundary. Sites keep their input order.
    """
    lat = as_lattice(sites)
    if not len(lat):
        return lat
    q = lat.quarter
    d2 = _squared_norms(q)
    classes, shell = np.unique(d2, return_inverse=True)
    shell = shell.astype(np.int32) + 1
    if np.any(classes == _SPLIT_D2):
        shell += d2 > _SPLIT_D2
        rows = np.flatnonzero(d2 == _SPLIT_D2)
        shell[rows] += q[rows].sum(axis=1) == _SPLIT_POLAR_SUM
    out = Lattice(q, shell, lat.sublattice)

    outer_d2 = int(classes[-1])
    have = set(map(tuple, q[d2 == outer_d2].tolist()))
    closed = all((s[i], s[j], s[k]) in have
                 for s in have for i, j, k in _C3V_PERMS)
    if not closed:
        warnings.warn("outermost shell is not C3v-closed; the site list "
                      "appears truncated mid-shell", stacklevel=2)
    if radius_angstrom is not None:
        outer_d = _A4 * math.sqrt(outer_d2)
        if radius_angstrom - outer_d < 1e-6:
            warnings.warn("outermost shell lies at the radius boundary; "
                          "treat it as possibly incomplete", stacklevel=2)
    return out


def shell_summary(sites) -> dict:
    """{shell index: (site count, distance in Angstrom)} for classified sites."""
    lat = as_lattice(sites)
    shells, first, counts = np.unique(lat.shell, return_index=True,
                                      return_counts=True)
    d2 = _squared_norms(lat.quarter[first]).tolist()
    return {shell: (count, _A4 * math.sqrt(q2))
            for shell, count, q2 in zip(shells.tolist(), counts.tolist(), d2)
            if shell != 0}


def check_concentration(n: float):
    """Raise ValidationError unless the 13C fraction n lies in [0, 1]."""
    if not 0.0 <= n <= 1.0:
        raise ValidationError("concentration must lie in [0, 1]")


@dataclass(frozen=True)
class BathSample:
    """One random 13C occupation of a site list: the occupied site indices
    and their positions (Angstrom)."""

    site_indices: np.ndarray
    positions: np.ndarray

    @property
    def count(self) -> int:
        return len(self.site_indices)


def check_seed(seed) -> int:
    """seed as a Python int; ValidationError unless it is an integer in
    [0, 2**128), the key range of bath_stream."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 128):
        raise ValidationError(
            f"seed must be an integer in [0, 2**128), got {seed!r}")
    return int(seed)


def bath_stream(seed) -> np.random.Generator:
    """The counter-based Philox generator keyed by seed (see check_seed):
    the one random stream of every bath draw, reproducible bit-identically
    across platforms."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def sample_bath(sites, n: float, seed: int) -> BathSample:
    """Occupy each site independently with probability n.

    Draws come from bath_stream(seed), so site i always sees the same
    uniform variate for a given seed regardless of how many sites are
    sampled.
    """
    check_concentration(n)
    lat = as_lattice(sites)
    u = bath_stream(seed).random(len(lat))
    idx = np.flatnonzero(u < n)
    pos = positions_of(lat[idx])
    return BathSample(site_indices=idx, positions=pos)
