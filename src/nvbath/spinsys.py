"""Spin Hamiltonian of one S=1 electron coupled to spin-1/2 13C nuclei.

H = g_e mu_B B.S/h + D S_axis^2 + sum_i (S.A_i.I_i - g_n mu_N B.I_i/h)

Everything is expressed in MHz with fields in Gauss. The Hilbert space is the
electron spin-1 tensored with N spin-1/2 nuclei (dimension 3 * 2^N, N <= 6).
Vectors and tensors live in one Cartesian frame (the cubic crystal frame);
the default symmetry axis is [111].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as _dc_field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .constants import (
    ELECTRON_MHZ_PER_GAUSS,
    FIRST_SHELL_A_PAR_MHZ,
    FIRST_SHELL_A_PERP_MHZ,
    FIRST_SHELL_POLAR_DEG,
    NUCLEAR_MHZ_PER_GAUSS,
    THIRD_SHELL_A_MHZ,
    ZFS_D_MHZ,
)
from .errors import DimensionLimitError, ResourceLimitError, ValidationError

MAX_NUCLEI = 6
MAX_GRID_POINTS = 2_000_000
# Bound on the tracemalloc peak of `nvbath spectrum --plot` per grid point;
# measured 340-342 B at 1e5-4e5 points (230-231 B without --plot; numpy
# 2.4), so the cap allows ~0.72 GB.
BYTES_PER_GRID_POINT = 360

# spin-1 operators, basis |m_s = +1>, |0>, |-1>
SX1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
SY1 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
SZ1 = np.diag([1.0, 0.0, -1.0]).astype(complex)

# spin-1/2 operators, basis |m_I = +1/2>, |-1/2>
IXH = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
IYH = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
IZH = np.diag([0.5, -0.5]).astype(complex)
ID2 = np.eye(2, dtype=complex)


def _vector(v, what):
    """v as a float 3-vector of finite components."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"{what} must be a 3-vector")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} must be finite, got {v.tolist()}")
    return v


def _unit(v, what):
    v = _vector(v, what)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(
            f"{what} must be normalized to 1 (|v| = {norm:.3e}); "
            "use the .along() constructor to normalize")
    return v / norm


def _normalized(v, what):
    d = _vector(v, what)
    n = np.linalg.norm(d)
    if n == 0:
        raise ValidationError(f"{what} must be nonzero")
    return tuple(d / n)


def orthonormal_frame(axis):
    """Right-handed (e1, e2, axis) with a deterministic transverse e1.

    e1 is the projection of x-hat (or y-hat when axis is nearly x) onto the
    plane normal to axis; azimuthal angles are measured from e1 toward e2.
    """
    axis = np.asarray(axis, dtype=float)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(axis @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - (ref @ axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2, axis


@dataclass(frozen=True)
class ZfsParams:
    """Zero-field splitting: magnitude D (MHz) and symmetry axis (unit)."""

    d_mhz: float = ZFS_D_MHZ
    axis: tuple = (1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3))

    def __post_init__(self):
        if not math.isfinite(self.d_mhz):
            raise ValidationError(
                f"ZFS d_mhz must be finite, got {self.d_mhz:g}")
        object.__setattr__(self, "axis", tuple(_unit(self.axis, "ZFS axis")))

    @classmethod
    def along(cls, direction, d_mhz=ZFS_D_MHZ):
        return cls(d_mhz=d_mhz, axis=_normalized(direction, "ZFS axis"))


@dataclass(frozen=True)
class ZeemanField:
    """Static field: magnitude in Gauss plus a unit direction."""

    gauss: float = 0.0
    direction: tuple = (1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3))

    def __post_init__(self):
        if not math.isfinite(self.gauss):
            raise ValidationError(
                f"field gauss must be finite, got {self.gauss:g}")
        if self.gauss < 0:
            raise ValidationError("field magnitude must be >= 0 Gauss")
        object.__setattr__(
            self, "direction", tuple(_unit(self.direction, "field direction")))

    @classmethod
    def along(cls, direction, gauss):
        return cls(gauss=gauss,
                   direction=_normalized(direction, "field direction"))


@dataclass(frozen=True)
class HyperfineTensor:
    """Axially symmetric hyperfine tensor.

    a_par_mhz / a_perp_mhz are the principal values along/normal to the
    principal axis; the axis sits at polar_deg from the ZFS axis with
    azimuth_deg measured in the transverse plane (frame of
    ``orthonormal_frame``).
    """

    a_par_mhz: float
    a_perp_mhz: float
    polar_deg: float = 0.0
    azimuth_deg: float = 0.0

    def __post_init__(self):
        for name in ("a_par_mhz", "a_perp_mhz", "azimuth_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"hyperfine {name} must be finite, "
                                      f"got {getattr(self, name):g}")
        if not 0.0 <= self.polar_deg <= 180.0:
            raise ValidationError("polar angle must lie in [0, 180] degrees")

    def principal_axis(self, zfs_axis):
        e1, e2, ez = orthonormal_frame(np.asarray(zfs_axis, dtype=float))
        th = np.deg2rad(self.polar_deg)
        ph = np.deg2rad(self.azimuth_deg)
        return np.sin(th) * np.cos(ph) * e1 + np.sin(th) * np.sin(ph) * e2 \
            + np.cos(th) * ez

    def tensor(self, zfs_axis):
        """3x3 coupling matrix in the working frame (MHz)."""
        u = self.principal_axis(zfs_axis)
        return self.a_perp_mhz * np.eye(3) \
            + (self.a_par_mhz - self.a_perp_mhz) * np.outer(u, u)


def first_shell_tensor(azimuth_deg=0.0):
    """Hyperfine tensor of a nearest-neighbor 13C (three sites at azimuths
    0/120/240 degrees around the symmetry axis)."""
    return HyperfineTensor(FIRST_SHELL_A_PAR_MHZ, FIRST_SHELL_A_PERP_MHZ,
                           FIRST_SHELL_POLAR_DEG, azimuth_deg)


def third_shell_tensor():
    """Isotropic tensor of the strongly coupled 9-site class."""
    return HyperfineTensor(THIRD_SHELL_A_MHZ, THIRD_SHELL_A_MHZ, 0.0, 0.0)


@dataclass(frozen=True)
class SpinSystemSpec:
    """Electron + nuclei system definition."""

    zfs: ZfsParams = _dc_field(default_factory=ZfsParams)
    field: ZeemanField = _dc_field(default_factory=ZeemanField)
    hyperfine: tuple = ()

    def __post_init__(self):
        hf = tuple(self.hyperfine)
        for t in hf:
            if not isinstance(t, HyperfineTensor):
                raise ValidationError("hyperfine entries must be HyperfineTensor")
        if len(hf) > MAX_NUCLEI:
            raise DimensionLimitError(
                f"{len(hf)} nuclei requested; at most {MAX_NUCLEI} supported "
                f"(dimension 3*2^N)")
        object.__setattr__(self, "hyperfine", hf)

    @property
    def n_nuclei(self) -> int:
        return len(self.hyperfine)

    @functools.cached_property
    def tensors(self) -> np.ndarray:
        """(N, 3, 3) coupling matrices of the nuclei in the working frame
        (MHz), computed once per spec; read-only."""
        axis = np.asarray(self.zfs.axis, dtype=float)
        a = np.array([t.tensor(axis) for t in self.hyperfine]) \
            .reshape(-1, 3, 3)
        a.flags.writeable = False
        return a

    @property
    def dim(self) -> int:
        return 3 * 2 ** self.n_nuclei


def spin1_along(v) -> np.ndarray:
    """The 3x3 spin-1 operator v . S = v_x S_x + v_y S_y + v_z S_z."""
    return v[0] * SX1 + v[1] * SY1 + v[2] * SZ1


def electron_ops(spec: SpinSystemSpec):
    """(Sx, Sy, Sz) embedded in the full register space."""
    ops = (SX1, SY1, SZ1)
    for _ in range(spec.n_nuclei):
        ops = tuple(np.kron(s, ID2) for s in ops)
    return ops


# S_p (x) I_q and 1 (x) I_q on (electron, one nucleus): the 6x6 blocks of the
# hyperfine and nuclear Zeeman terms
_HYPERFINE_BLOCKS = [[np.kron(s, i) for i in (IXH, IYH, IZH)]
                     for s in (SX1, SY1, SZ1)]
_NUCLEAR_BLOCKS = [np.kron(np.eye(3, dtype=complex), i)
                   for i in (IXH, IYH, IZH)]


def _electron_terms(spec: SpinSystemSpec, nuclear_dim: int) -> np.ndarray:
    """ZFS and electron Zeeman terms on the electron (x) a nuclear space of
    dimension nuclear_dim, in the order of the dense operator sum."""
    axis = np.asarray(spec.zfs.axis, dtype=float)
    bvec = spec.field.gauss * np.asarray(spec.field.direction, dtype=float)
    # the ZFS square is a full-size product: BLAS rounds it differently at
    # each matrix size, and the operator sum defines H at this size
    eye = np.eye(nuclear_dim)
    s_axis = np.kron(spin1_along(axis), eye)
    h = spec.zfs.d_mhz * (s_axis @ s_axis)
    return h + np.kron(ELECTRON_MHZ_PER_GAUSS * spin1_along(bvec), eye)


def _with_nucleus(blocks, a, spec: SpinSystemSpec):
    """6x6 blocks on (electron, one nucleus) plus that nucleus's terms:
    S_p a_pq I_q for p, q in turn, skipping zero couplings, then its Zeeman
    term. a is the 3x3 tensor of the nucleus, or one per block."""
    bvec = spec.field.gauss * np.asarray(spec.field.direction, dtype=float)
    ix, iy, iz = _NUCLEAR_BLOCKS
    for p in range(3):
        for q in range(3):
            c = a[..., p, q, None, None]
            blocks = np.where(c != 0.0,
                              blocks + c * _HYPERFINE_BLOCKS[p][q], blocks)
    return blocks - NUCLEAR_MHZ_PER_GAUSS * (bvec[0] * ix + bvec[1] * iy
                                             + bvec[2] * iz)


def build_hamiltonian(spec: SpinSystemSpec) -> np.ndarray:
    """Full Hamiltonian matrix in MHz (Hermitian, dimension 3*2^N).

    Each nucleus's hyperfine and Zeeman terms act on the electron and that
    nucleus only, so they are added as 6x6 blocks at their support entries.
    Every entry sees the same additions in the same order as the dense
    operator sum (ZFS, electron Zeeman, then per nucleus S_p a_pq I_q for
    p, q in turn and its Zeeman term), so H is bitwise that sum.
    """
    n = spec.n_nuclei
    h = _electron_terms(spec, 2 ** n)
    for i, a in enumerate(spec.tensors):
        # register index (m_s, nuclei before i, m_I, nuclei after i) ->
        # one row of six per setting of the other nuclei
        idx = np.arange(3 * 2 ** n).reshape(3, 2 ** i, 2, -1) \
            .transpose(1, 3, 0, 2).reshape(-1, 6)
        rows, cols = idx[:, :, None], idx[:, None, :]
        h[rows, cols] = _with_nucleus(h[rows, cols], a, spec)
    return h


def single_nucleus_hamiltonians(spec: SpinSystemSpec) -> np.ndarray:
    """(N, 6, 6) stack of the Hamiltonians of the electron with one nucleus
    each: entry q is bitwise build_hamiltonian of the spec that keeps only
    nucleus q."""
    h = _electron_terms(spec, 2)
    return _with_nucleus(np.broadcast_to(h, (spec.n_nuclei, 6, 6)),
                         spec.tensors, spec)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (MHz, ascending) and eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def diagonalize(h: np.ndarray) -> EigenSystem:
    """Exact diagonalization with a hermiticity guard and residual check.

    A stack of matrices (..., d, d) is solved by one stacked eigh, and the
    guard and the check apply to each matrix against its own norm."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValidationError("Hamiltonian must be a square matrix")
    scale = np.maximum(np.linalg.norm(h, axis=(-2, -1)), 1.0)
    asym = np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(asym > 1e-10 * scale):
        raise ValidationError("Hamiltonian is not Hermitian")
    vals, vecs = np.linalg.eigh(h)
    resid = np.linalg.norm(h @ vecs - vecs * vals[..., None, :],
                           axis=(-2, -1))
    if np.any(resid > 1e-8 * scale):
        raise RuntimeError(
            f"eigensolver residual {float(np.max(resid)):.3e} too large")
    return EigenSystem(values=vals, vectors=vecs)


# The last spec's eigensystem, keyed by the bytes of every input that
# build_hamiltonian reads: equal bytes give a bitwise-equal H. Spec equality
# is not the key, since -0.0 == 0.0.
_EIGEN_MEMO = {}


def eigensystem(spec: SpinSystemSpec) -> EigenSystem:
    """diagonalize(build_hamiltonian(spec)), solved once while callers ask
    for the same spec in turn: the last solve is kept (16 d^2 + 8 d bytes)
    and shared, with read-only values and vectors."""
    key = (np.array([spec.zfs.d_mhz, *spec.zfs.axis, spec.field.gauss,
                     *spec.field.direction], dtype=float).tobytes(),
           spec.tensors.tobytes())
    eig = _EIGEN_MEMO.get(key)
    if eig is None:
        eig = diagonalize(build_hamiltonian(spec))
        eig.values.flags.writeable = False
        eig.vectors.flags.writeable = False
        _EIGEN_MEMO.clear()
        _EIGEN_MEMO[key] = eig
    return eig


class TransitionLine(NamedTuple):
    """One ESR line: frequency (MHz), normalized intensity, level indices;
    the fields are the columns of spectrum_lines.csv."""

    freq_mhz: float
    intensity: float
    i: int
    j: int


def esr_transitions(spec: SpinSystemSpec, window=None, floor=1e-4):
    """Allowed ESR lines with intensities |<j|S_x'|i>|^2.

    S_x' is the electron spin operator along a deterministic direction
    transverse to the static field (or to the ZFS axis at zero field).
    Intensities are normalized to unit sum over the requested frequency
    window, then lines weaker than ``floor`` are dropped. window is
    (f_min, f_max) in MHz and floor lies in [0, 1]; both are checked before
    the Hamiltonian is solved.
    """
    if window is not None:
        if len(window) != 2:
            raise ValidationError("window needs exactly two values: lo,hi")
        lo, hi = float(window[0]), float(window[1])
        if not hi > lo:
            raise ValidationError("window must satisfy f_max > f_min")
    if not 0.0 <= floor <= 1.0:
        raise ValidationError(
            f"intensity_floor must be finite and in [0, 1], got {floor:g}")
    eig = eigensystem(spec)
    ref = spec.field.direction if spec.field.gauss > 0 else spec.zfs.axis
    e1, _, _ = orthonormal_frame(np.asarray(ref, dtype=float))
    sxp = np.kron(spin1_along(e1), np.eye(2 ** spec.n_nuclei))
    m = eig.vectors.conj().T @ sxp @ eig.vectors
    w2 = np.abs(m) ** 2

    i, j = np.triu_indices(len(eig.values), 1)
    f = eig.values[j] - eig.values[i]
    w = w2[j, i]
    if window is not None:
        keep = (lo <= f) & (f <= hi)
        i, j, f, w = i[keep], j[keep], f[keep], w[keep]
    total = sum(w.tolist())  # sequential, in (i, j) row-major order
    if total <= 0.0:
        return []
    w = w / total
    keep = np.flatnonzero(w >= floor)
    keep = keep[np.argsort(f[keep], kind="stable")]
    return list(map(TransitionLine._make, zip(
        f[keep].tolist(), w[keep].tolist(), i[keep].tolist(),
        j[keep].tolist())))


@dataclass(frozen=True)
class Spectrum:
    """Sampled line profile on the uniform grid of synth_spectrum."""

    freq_mhz: np.ndarray
    intensity: np.ndarray


def check_fwhm(fwhm_mhz: float) -> float:
    """fwhm_mhz as a float, if it is a positive finite broadening."""
    fwhm_mhz = float(fwhm_mhz)
    if fwhm_mhz <= 0:
        raise ValidationError("fwhm must be positive")
    if not math.isfinite(fwhm_mhz):
        raise ValidationError(f"fwhm must be finite, got {fwhm_mhz:g}")
    return fwhm_mhz


def check_grid(grid):
    """(start, step, count) of a grid (f_start, f_stop, step) in MHz of
    finite values, running upward, of 2 to MAX_GRID_POINTS points."""
    if len(grid) != 3:
        raise ValidationError("grid needs exactly three values: start,stop,step")
    start, stop, step = (float(x) for x in grid)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(
            f"grid values must be finite, got {start:g},{stop:g},{step:g}")
    if not (stop > start and step > 0):
        raise ValidationError("grid must satisfy stop > start, step > 0")
    count = np.floor((stop - start) / step + 0.5) + 1  # inf if step underflows
    if count > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid {start:g},{stop:g},{step:g} has {count:.3g} points, "
            f"~{count * BYTES_PER_GRID_POINT / 1e9:.3g} GB to synthesize and "
            f"write (cap {MAX_GRID_POINTS:.0e} points, "
            f"~{MAX_GRID_POINTS * BYTES_PER_GRID_POINT / 1e9:.2g} GB)")
    if count < 2:
        raise ValidationError("spectrum grid needs at least 2 points")
    return start, step, int(count)


def synth_spectrum(lines, grid, fwhm_mhz) -> Spectrum:
    """Convolve a line list with unit-area Gaussians of the given FWHM.

    grid is (f_start, f_stop, step) in MHz, checked by check_grid before
    anything is allocated. The integrated profile equals the summed line
    intensities (up to grid truncation).
    """
    fwhm_mhz = check_fwhm(fwhm_mhz)
    start, step, count = check_grid(grid)
    f = start + step * np.arange(count)
    sigma = fwhm_mhz / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    centers = np.array([l.freq_mhz for l in lines], dtype=float)
    amps = np.array([l.intensity for l in lines], dtype=float)
    y = _kernels.gaussian_mixture(centers, amps, sigma, f)
    return Spectrum(freq_mhz=f, intensity=y)
