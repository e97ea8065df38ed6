"""Per-site reference lattice for the tests: naive loops over conventional
cells, a Python sort by (distance, quarter coordinates) and a dictionary of
distance classes, one LatticeSite at a time. It shares no code with the
array implementation in nvbath.lattice."""

import math

from nvbath.constants import LATTICE_A_ANGSTROM
from nvbath.lattice import LatticeSite

A4 = LATTICE_A_ANGSTROM / 4.0
C3V_PERMS = ((0, 1, 2), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 2, 1), (2, 1, 0))


def brute_force_quarters(radius_angstrom):
    """Independent enumeration: loop every basis atom of every cell.
    Returns the set of (quarter, sublattice) within the radius."""
    basis = [((0, 0, 0), 0), ((0, 2, 2), 0), ((2, 0, 2), 0), ((2, 2, 0), 0),
             ((1, 1, 1), 1), ((1, 3, 3), 1), ((3, 1, 3), 1), ((3, 3, 1), 1)]
    span = int(math.ceil(radius_angstrom / LATTICE_A_ANGSTROM)) + 1
    found = set()
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            for k in range(-span, span + 1):
                for (bx, by, bz), sub in basis:
                    q = (4 * i + bx, 4 * j + by, 4 * k + bz)
                    d = A4 * math.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2)
                    if d == 0.0 or d > radius_angstrom:
                        continue
                    if q == (1, 1, 1):
                        continue  # nitrogen site
                    found.add((q, sub))
    return found


def _d2(q):
    return q[0] * q[0] + q[1] * q[1] + q[2] * q[2]


def reference_shells(sites):
    """Shell index of every site, in input order, and whether the outermost
    distance class is closed under C3v. The d^2 = 11 class takes two
    indices, near-equatorial then polar (coordinate sum -5), and every later
    class shifts by one."""
    index_of = {}
    idx = 1
    for d2 in sorted({_d2(s.quarter) for s in sites}):
        if d2 == 11:
            index_of[(d2, "equatorial")] = idx
            index_of[(d2, "polar")] = idx + 1
            idx += 2
        else:
            index_of[d2] = idx
            idx += 1
    shells = []
    for s in sites:
        d2 = _d2(s.quarter)
        if d2 == 11:
            kind = "polar" if sum(s.quarter) == -5 else "equatorial"
            shells.append(index_of[(d2, kind)])
        else:
            shells.append(index_of[d2])
    outer_d2 = max(_d2(s.quarter) for s in sites)
    have = {s.quarter for s in sites if _d2(s.quarter) == outer_d2}
    closed = all(tuple(q[p] for p in perm) in have
                 for q in have for perm in C3V_PERMS)
    return shells, closed


def _orbit_key(quarter):
    return min(tuple(quarter[p] for p in perm) for perm in C3V_PERMS)


def symmetry_classes(sites) -> dict:
    """Group sites into C3v orbits about the defect axis; returns
    {orbit key: [sites]}. Orbit sizes divide 6."""
    orbits = {}
    for s in sites:
        orbits.setdefault(_orbit_key(s.quarter), []).append(s)
    return orbits


def reference_sites(radius_angstrom):
    """(sites, positions): the classified sites within the radius, ordered
    by (d^2, quarter), and their positions in Angstrom as A4 * quarter."""
    found = sorted(brute_force_quarters(radius_angstrom),
                   key=lambda t: (_d2(t[0]), t[0]))
    sites = [LatticeSite(quarter=q, sublattice=sub) for q, sub in found]
    shells, _ = reference_shells(sites)
    return ([LatticeSite(quarter=s.quarter, shell=sh, sublattice=s.sublattice)
             for s, sh in zip(sites, shells)],
            [tuple(A4 * c for c in s.quarter) for s in sites])
