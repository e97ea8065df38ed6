"""Density-matrix simulation of selective MW/RF pulse sequences.

States live in the eigenbasis of the full spin Hamiltonian. Each eigenstate
carries a label (m_s, nuclear bits) from its dominant product-state
character; bit 0 means m_I = +1/2. Ideal pulses are instantaneous two-level
rotations exp(-i theta/2 (cos phi X + sin phi Y)) on a target eigenstate
pair. A finite-duration pulse evolves under the static Hamiltonian plus the
rotating-wave drive (counter-rotating terms neglected); in the drive frame
that Hamiltonian is diagonal except for the target pair, so the pair evolves
by the exponential of one 2x2 block and every other level by its own
eigenphase. Free evolution accumulates exact eigenphases. A sequence updates
the density matrix through this structure: rows and columns i, j for a
pulse, an elementwise phase for a wait.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import NUCLEAR_MHZ_PER_GAUSS
from .errors import (AmbiguousTransitionError, ValidationError)
from .spinsys import (SpinSystemSpec, diagonalize, eigensystem,
                      single_nucleus_hamiltonians, spin1_along)

DEGENERACY_TOL_MHZ = 1e-9

# Addressing gate: a level's assigned label must dominate the runner-up
# candidate by MIN_LABEL_CONTRAST and carry at least MIN_LABEL_OVERLAP of
# the state.  Symmetry-mixed levels (equivalent nuclei) sit near 50/50
# between two labels (contrast ~ 1); cleanly assigned levels with merely
# conditioned nuclear axes keep contrast well above 2.
MIN_LABEL_OVERLAP = 0.5
MIN_LABEL_CONTRAST = 1.5

CHANNELS = ("mw", "rf")

# Rabi calibration Omega = kappa * sqrt(power) (MW) or
# kappa * |A_eff| * sqrt(power) (RF, hyperfine-enhanced)
KAPPA_MW_MHZ = 1.0
KAPPA_RF_PER_MHZ = 1e-3


def _assign_by_mutual_maxima(overlap):
    """Row assigned to each column of a square matrix by the greedy that
    takes pairs in the order (overlap descending, row, column) and keeps a
    pair while its row and column are both free.

    A pair whose entry is the first maximum of both its row and its column
    among the unassigned ones comes before every other pair that shares its
    row or column in that order, so the greedy takes it; each round assigns
    all such pairs and drops their rows and columns."""
    rows = np.arange(overlap.shape[0])
    cols = np.arange(overlap.shape[1])
    owner = np.empty(len(cols), dtype=np.intp)
    sub = overlap
    while len(rows):
        best_col = sub.argmax(axis=1)
        mutual = sub.argmax(axis=0)[best_col] == np.arange(len(rows))
        won = best_col[mutual]
        owner[cols[won]] = rows[mutual]
        free = np.ones(len(cols), dtype=bool)
        free[won] = False
        rows, cols = rows[~mutual], cols[free]
        sub = sub[~mutual][:, free]
    return owner


class Register:
    """Eigensystem of a SpinSystemSpec with adapted product-state labels.

    Labels are (m_s, bits) with m_s in {+1, 0, -1} and one bit per nucleus.
    The comparison basis quantizes the electron along the ZFS axis and each
    nucleus along its local effective field in that manifold (the hyperfine
    row for m_s = +-1, the external field for m_s = 0); bit 0 is m = +1/2
    along that axis. Comparison state p is (m_s, bits) with
    p = (1 - m_s) 2^N + bits, nucleus 0 the most significant bit, and
    label_codes holds the p of each level. Levels take labels greedily by
    overlap, exact ties going to the lower p and then the lower level; the
    achieved overlap is kept per level so that addressing through a badly
    mixed level can be refused.
    """

    def __init__(self, spec: SpinSystemSpec):
        self.spec = spec
        self.eig = eigensystem(spec)
        self.n_nuclei = spec.n_nuclei
        self.dim = spec.dim
        self.label_codes, self.label_overlap, self.label_contrast = \
            self._assign_labels()
        names = [(ms, bits) for ms in (1, 0, -1) for bits in
                 itertools.product((0, 1), repeat=self.n_nuclei)]
        self.labels = [names[p] for p in self.label_codes.tolist()]
        self.index = {lab: k for k, lab in enumerate(self.labels)}
        self._transition_table()

    def _electron_states(self):
        """Columns: the electron states m_s = +1, 0, -1 along the ZFS
        axis."""
        s_axis = spin1_along(np.asarray(self.spec.zfs.axis, dtype=float))
        return np.linalg.eigh(s_axis)[1][:, ::-1]  # eigh sorts -1, 0, +1

    def _nuclear_spinors(self, evec):
        """Exact manifold spinors of each nucleus from its own
        single-nucleus problem (second-order pseudo-fields included), all
        nuclei solved as one stack.

        Returns s[q, m, :, b]: the spinor of bit b of nucleus q in manifold
        m (m_s = +1, 0, -1)."""
        n = self.n_nuclei
        vecs = diagonalize(single_nucleus_hamiltonians(self.spec)).vectors
        # c[q, m, :, k]: level k of nucleus q with the electron factor of
        # manifold m stripped
        c = (evec.conj().T @ vecs.reshape(n, 3, 12)).reshape(n, 3, 2, 6)
        # manifold membership by electron character, two levels each, the
        # largest weight first (ties to the higher m_s, then the higher
        # level: the first maximum with the levels reversed)
        claims = (np.abs(c[..., ::-1]) ** 2).sum(axis=2)
        member = np.zeros((n, 3, 6), dtype=bool)
        q = np.arange(n)
        for _ in range(6):
            m, k = np.divmod(claims.reshape(n, 18).argmax(axis=1), 6)
            member[q, m, k] = True
            claims[q, :, k] = -1.0
            full = member[q, m].sum(axis=1) == 2
            claims[q[full], m[full]] = -1.0
        levels = np.nonzero(member[..., ::-1])[2].reshape(n, 3, 1, 2)
        c0, c1 = np.moveaxis(np.take_along_axis(c, levels, axis=3), 3, 0)
        c0 = c0 / np.linalg.norm(c0, axis=-1, keepdims=True)
        c1 = c1 - (c0.conj() * c1).sum(axis=-1, keepdims=True) * c0
        c1 = c1 / np.linalg.norm(c1, axis=-1, keepdims=True)
        # bit 0 follows the first-order local-field axis, oriented along the
        # first of (field, ZFS axis, z) that it is not perpendicular to
        axis = np.asarray(self.spec.zfs.axis, dtype=float)
        bdir = np.asarray(self.spec.field.direction, dtype=float)
        p = np.array([1, 0, -1])[:, None] \
            * (axis @ self.spec.tensors)[:, None, :] \
            - self.spec.field.gauss * NUCLEAR_MHZ_PER_GAUSS * bdir
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
        u = np.where(norm > 1e-12, p / np.where(norm > 1e-12, norm, 1.0),
                     axis)
        d = u @ np.array([bdir, axis, [0.0, 0.0, 1.0]]).T
        along = np.abs(d) > 1e-9
        first = np.take_along_axis(d, along.argmax(axis=-1)[..., None], -1)
        u = np.where(along.any(axis=-1, keepdims=True) & (first < 0), -u, u)
        # u's +1/2 spinor (cos theta/2, sin theta/2 e^{i phi})
        half = np.arccos(np.clip(u[..., 2], -1.0, 1.0)) / 2.0
        up = np.stack([np.cos(half), np.sin(half)
                       * np.exp(1j * np.arctan2(u[..., 1], u[..., 0]))], -1)
        swap = (np.abs((up.conj() * c1).sum(axis=-1)) ** 2
                > np.abs((up.conj() * c0).sum(axis=-1)) ** 2)[..., None]
        return np.stack([np.where(swap, c1, c0), np.where(swap, c0, c1)], -1)

    def _comparison_states(self):
        """Comparison states as columns: per manifold (m_s = +1, 0, -1) the
        Kronecker chain of the electron state with each nucleus's 2x2
        spinor matrix (columns bit 0, bit 1), so that nucleus 0 is the
        most significant bit within a manifold. The three chains grow
        together, one Kronecker step per nucleus."""
        evec = self._electron_states()
        chain = evec.T[:, :, None]
        for s in self._nuclear_spinors(evec):
            m, r, c = chain.shape
            chain = (chain[:, :, None, :, None] * s[:, None, :, None, :]) \
                .reshape(m, 2 * r, 2 * c)
        return np.concatenate(chain, axis=1)

    def _assign_labels(self):
        overlap = np.abs(self._comparison_states().conj().T
                         @ self.eig.vectors) ** 2
        owner = _assign_by_mutual_maxima(overlap)
        level = np.arange(self.dim)
        fidelity = overlap[owner, level]
        others = overlap.copy()
        others[owner, level] = -1.0
        contrast = fidelity / np.maximum(others.max(axis=0), 1e-300)
        return owner, fidelity, contrast

    def _transition_table(self):
        """Level pairs p < q in row-major order, their |E_q - E_p| and, per
        channel, whether the labels allow the pair: MW changes m_s by one
        and flips no nucleus, RF keeps m_s and flips exactly one, that is,
        the XOR of their bits is a power of two."""
        p, q = np.triu_indices(self.dim, 1)
        manifold, bits = np.divmod(self.label_codes, 2 ** self.n_nuclei)
        step = np.abs(manifold[p] - manifold[q])
        flips = bits[p] ^ bits[q]
        self._pair_levels = (p, q)
        self._pair_freq = np.abs(self.eig.values[q] - self.eig.values[p])
        self._pair_allowed = {
            "mw": (step == 1) & (flips == 0),
            "rf": (step == 0) & (flips != 0) & (flips & (flips - 1) == 0)}

    def level(self, ms: int, bits) -> int:
        """Eigenstate index of the labeled level."""
        key = (ms, tuple(int(b) for b in bits))
        if key not in self.index:
            raise ValidationError(f"no level labeled {key}")
        return self.index[key]

    def check_label_gates(self, k: int):
        """Refuse level k unless its label passes both label gates."""
        overlap, contrast = self.label_overlap[k], self.label_contrast[k]
        if overlap < MIN_LABEL_OVERLAP or contrast < MIN_LABEL_CONTRAST:
            raise AmbiguousTransitionError(
                f"level {k} is shared between product labels (overlap "
                f"{overlap:.2f}, contrast {contrast:.2f}); its label does "
                "not identify a single addressable level")

    def freq_mhz(self, i: int, j: int) -> float:
        return float(self.eig.values[j] - self.eig.values[i])

    def pure_state(self, ms: int, bits) -> "RegisterState":
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        k = self.level(ms, bits)
        rho[k, k] = 1.0
        return RegisterState._trusted(self, rho)

    def mixed_nuclei_state(self, ms: int = 0) -> "RegisterState":
        """Default initialization: chosen m_s manifold, maximally mixed
        nuclei."""
        w = 1.0 / 2 ** self.n_nuclei
        in_ms = self.label_codes // 2 ** self.n_nuclei == 1 - ms
        return RegisterState._trusted(
            self, np.diag(np.where(in_ms, w, 0.0)).astype(complex))


class RegisterState:
    """Density matrix over the register eigenbasis."""

    def __init__(self, register: Register, rho: np.ndarray):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (register.dim, register.dim):
            raise ValidationError("density matrix has the wrong dimension")
        if np.linalg.norm(rho - rho.conj().T) > 1e-9:
            raise ValidationError("density matrix must be Hermitian")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > 1e-9:
            raise ValidationError(f"density matrix trace {tr} != 1")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
            raise ValidationError("density matrix must be positive")
        self.register = register
        self.rho = rho

    @classmethod
    def _trusted(cls, register: Register, rho: np.ndarray) -> "RegisterState":
        """A state whose rho the register built or evolved itself, so it is
        a density matrix by construction and is not checked again."""
        out = cls.__new__(cls)
        out.register = register
        out.rho = rho
        return out

    def evolved(self, unitary) -> "RegisterState":
        return RegisterState._trusted(
            self.register, unitary @ self.rho @ unitary.conj().T)

    def population(self, ms: int, bits) -> float:
        k = self.register.level(ms, bits)
        return float(np.real(self.rho[k, k]))

    def populations(self) -> dict:
        # + 0.0 turns an exact -0.0 diagonal into +0.0
        return {lab: float(np.real(self.rho[k, k])) + 0.0
                for k, lab in enumerate(self.register.labels)}

    def fidelity(self, target_vector) -> float:
        v = np.asarray(target_vector, dtype=complex)
        return float(np.real(v.conj() @ self.rho @ v))


@dataclass(frozen=True)
class Pulse:
    """Selective pulse on an eigenstate pair.

    control, when given, is (qubit index, state bit) and is validated
    against the target labels: selectivity is inherent in eigenstate
    addressing, so the annotation is a checked assertion of the intended
    conditioning (filled/open control convention).
    """

    channel: str
    i: int
    j: int
    angle_rad: float
    phase_rad: float = 0.0
    duration_us: float = None
    control: tuple = None

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValidationError(f"channel must be one of {CHANNELS}")
        if self.i == self.j:
            raise ValidationError("target pair must be two distinct levels")
        for name in ("angle_rad", "phase_rad", "duration_us"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"pulse {name} must be finite")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValidationError("pulse duration must be positive")
        if self.control is not None:
            q, s = self.control
            if q < 0 or s not in (0, 1):
                raise ValidationError(
                    "control must be (qubit index, state 0 or 1)")


@dataclass(frozen=True)
class Wait:
    """Free evolution segment."""

    t_us: float

    def __post_init__(self):
        if not math.isfinite(self.t_us):
            raise ValidationError("wait t_us must be finite")
        if self.t_us < 0:
            raise ValidationError("wait time must be nonnegative")


def _validate_target(register: Register, pulse: Pulse):
    dim = register.dim
    if not (0 <= pulse.i < dim and 0 <= pulse.j < dim):
        raise ValidationError(f"target pair ({pulse.i}, {pulse.j}) out of range")
    lab_i, lab_j = register.labels[pulse.i], register.labels[pulse.j]
    register.check_label_gates(pulse.i)
    register.check_label_gates(pulse.j)
    lo, hi = sorted((pulse.i, pulse.j))
    target = lo * dim - lo * (lo + 1) // 2 + hi - lo - 1  # triu_indices order
    allowed = register._pair_allowed[pulse.channel]
    if not allowed[target]:
        if pulse.channel == "mw":
            raise ValidationError(
                f"MW pulse must drive an electron transition preserving the "
                f"nuclei; got {lab_i} -> {lab_j}")
        raise ValidationError(
            f"RF pulse must flip exactly one nucleus within an electron "
            f"manifold; got {lab_i} -> {lab_j}")
    f_target = abs(register.freq_mhz(pulse.i, pulse.j))
    if f_target < DEGENERACY_TOL_MHZ:
        raise AmbiguousTransitionError(
            f"levels {pulse.i} and {pulse.j} are degenerate; the transition "
            "cannot be addressed selectively")
    # a resonant drive hits every same-channel transition at this frequency
    clash = allowed & (np.abs(register._pair_freq - f_target)
                       < DEGENERACY_TOL_MHZ)
    clash[target] = False
    if clash.any():
        first = int(np.argmax(clash))  # the first pair in row-major order
        p, q = (int(levels[first]) for levels in register._pair_levels)
        raise AmbiguousTransitionError(
            f"transition {pulse.i}->{pulse.j} at "
            f"{f_target:.6f} MHz collides with {p}->{q}; it cannot "
            "be addressed selectively")
    if pulse.control is not None:
        q, s = pulse.control
        if not 0 <= q < register.n_nuclei:
            raise ValidationError(f"control references missing qubit {q}")
        if lab_i[1][q] != s or lab_j[1][q] != s:
            raise ValidationError(
                f"control {q}:{s} contradicts the target labels "
                f"{lab_i[1]} / {lab_j[1]}")


def _free_phases(register: Register, t_us: float) -> np.ndarray:
    """exp(-2 pi i E t) of every level: the exact free eigenphases."""
    return np.exp(1j * (-2.0 * math.pi * register.eig.values * t_us))


def _pulse_block(register: Register, pulse: Pulse):
    """(phase, block) of a validated pulse. Its unitary in the register
    eigenbasis is diag(phase) with the 2x2 block on levels (i, j); phase
    is None for an instantaneous pulse, which leaves every other level
    alone, and is 1 at i and j otherwise."""
    i, j = pulse.i, pulse.j
    th, ph = pulse.angle_rad, pulse.phase_rad
    if pulse.duration_us is None:
        c, s = math.cos(th / 2.0), math.sin(th / 2.0)
        return None, np.array([[c, -1j * s * np.exp(-1j * ph)],
                               [-1j * s * np.exp(1j * ph), c]])
    # finite duration: the rotating-wave Hamiltonian diag(E) - f e_j e_j^T
    # + drive couples only i and j, where it is E_i times the identity
    # plus the drive and the residue E_j - f - E_i; the 2x2 eigh sees only
    # the latter two, so its phases keep the precision of the drive
    tau = pulse.duration_us
    f_drive = register.freq_mhz(i, j)
    omega_cyc = th / (2.0 * math.pi * tau)  # Rabi frequency in MHz
    lam = register.eig.values
    drive = 0.5 * omega_cyc * np.exp(-1j * ph)
    residue = lam[j] - f_drive - lam[i]
    h = np.array([[0.0, drive], [drive.conjugate(), residue]])
    vals, vecs = np.linalg.eigh(h)
    phase = _free_phases(register, tau)
    block = (vecs * np.exp(-2j * math.pi * vals * tau)) @ vecs.conj().T \
        * phase[i]
    block[1] *= np.exp(-2j * math.pi * f_drive * tau)  # back to the lab frame
    phase[[i, j]] = 1.0
    return phase, block


def pulse_unitary(register: Register, pulse: Pulse) -> np.ndarray:
    """Unitary of one pulse in the register eigenbasis."""
    _validate_target(register, pulse)
    phase, block = _pulse_block(register, pulse)
    u = (np.eye(register.dim, dtype=complex) if phase is None
         else np.diag(phase))
    u[np.ix_((pulse.i, pulse.j), (pulse.i, pulse.j))] = block
    return u


def free_unitary(register: Register, t_us: float) -> np.ndarray:
    """Free evolution: the exact eigenphases of each level."""
    return np.diag(_free_phases(register, t_us))


def run_sequence(state: RegisterState, items) -> RegisterState:
    """Apply pulses and free-evolution segments in order. Each item updates
    a copy of rho through its structure: a wait multiplies by the phase
    outer product, a pulse turns rows and then columns i, j by its block."""
    register = state.register
    rho = state.rho.copy()
    for item in items:
        if isinstance(item, Pulse):
            _validate_target(register, item)
            phase, block = _pulse_block(register, item)
            if phase is not None:
                rho *= phase[:, None] * phase.conj()[None, :]
            ij = [item.i, item.j]
            rho[ij, :] = block @ rho[ij, :]
            rho[:, ij] = rho[:, ij] @ block.conj().T
        elif isinstance(item, Wait):
            phase = _free_phases(register, item.t_us)
            rho *= phase[:, None] * phase.conj()[None, :]
        else:
            raise ValidationError(f"sequence items must be Pulse or Wait, "
                                  f"got {type(item).__name__}")
    return RegisterState._trusted(register, rho)


# ----- sequence file grammar ---------------------------------------------
#   MW|RF  target_i  target_j  angle_rad  phase_rad
#          [control=qubit:state] [dur=t_us]
#   WAIT   t_us


def parse_sequence(text: str):
    items = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0].lower()
        try:
            if kind == "wait":
                if len(tok) != 2:
                    raise ValueError("WAIT takes exactly one duration")
                items.append(Wait(float(tok[1])))
                continue
            if kind not in CHANNELS:
                raise ValueError(f"unknown channel {tok[0]!r}")
            control, duration = None, None
            while tok and "=" in tok[-1]:
                key, _, val = tok[-1].partition("=")
                if key == "control":
                    q, s = val.split(":")
                    control = (int(q), int(s))
                elif key == "dur":
                    duration = float(val)
                else:
                    raise ValueError(f"unknown option {key!r}")
                tok = tok[:-1]
            if len(tok) != 5:
                raise ValueError("expected: channel i j angle_rad phase_rad")
            items.append(Pulse(channel=kind, i=int(tok[1]), j=int(tok[2]),
                               angle_rad=float(tok[3]),
                               phase_rad=float(tok[4]),
                               duration_us=duration, control=control))
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"sequence line {ln}: {exc}") from exc
    return items


# ----- canned experiments -------------------------------------------------


def endor_sequence(register: Register, nucleus: int = 0, ms: int = -1):
    """pi(MW) - pi(RF) - pi(MW): map the electron down, flip one nucleus,
    map the electron back."""
    n = register.n_nuclei
    if not 0 <= nucleus < n:
        raise ValidationError(
            f"nucleus {nucleus} is out of range for a register of {n} nuclei")
    zeros = (0,) * n
    flipped = tuple(1 if q == nucleus else 0 for q in range(n))
    a0 = register.level(0, zeros)
    b0 = register.level(ms, zeros)
    b1 = register.level(ms, flipped)
    a1 = register.level(0, flipped)
    return [Pulse("mw", a0, b0, math.pi),
            Pulse("rf", b0, b1, math.pi),
            Pulse("mw", b1, a1, math.pi)]


def endor_transfer(register: Register, nucleus: int = 0, ms: int = -1) -> float:
    """Population arriving in the nuclear-flipped level after the ENDOR
    sequence from an ideal |0, 0...0> start (1.0 for ideal pulses)."""
    items = endor_sequence(register, nucleus, ms)
    state = register.pure_state(0, (0,) * register.n_nuclei)
    k = items[-1].j  # the level (0, flipped) of the last MW pulse
    return float(np.real(run_sequence(state, items).rho[k, k]))


BELL_MS = -1  # electron manifold that holds the Bell states


# variant: ((bits a, bits b), sign, phase, control) of the Bell state
# (|a> + sign |b>) / sqrt 2 in the BELL_MS manifold; phase is that of the
# first pulse, control the state of qubit 0 that conditions the second
_BELL = {
    "phi_plus": (((0, 0), (1, 1)), 1.0, math.pi, 1),
    "phi_minus": (((0, 0), (1, 1)), -1.0, 0.0, 1),
    "psi_plus": (((0, 1), (1, 0)), 1.0, 0.0, 0),
    "psi_minus": (((0, 1), (1, 0)), -1.0, math.pi, 0),
}
BELL_VARIANTS = tuple(_BELL)


def _bell_variant(register: Register, variant: str):
    """The _BELL entry of variant, on a register of two nuclear qubits."""
    if register.n_nuclei != 2:
        raise ValidationError("Bell circuits need exactly 2 nuclear qubits")
    if variant not in _BELL:
        raise ValidationError(f"variant must be one of {BELL_VARIANTS}")
    return _BELL[variant]


def bell_sequence(register: Register, variant: str):
    """Two-pulse generation circuit of a Bell state of two nuclear qubits
    within the BELL_MS electron manifold, starting from |BELL_MS, 00>.

    A pi/2 splits |00>/|10>, then a pi on qubit 1, conditioned on qubit 0,
    maps the second qubit; the first pulse's phase selects the variant sign.
    """
    _, _, phase, c = _bell_variant(register, variant)
    return [Pulse("rf", register.level(BELL_MS, (0, 0)),
                  register.level(BELL_MS, (1, 0)), math.pi / 2.0, phase),
            Pulse("rf", register.level(BELL_MS, (c, 0)),
                  register.level(BELL_MS, (c, 1)), math.pi, 0.0,
                  control=(0, c))]


def bell_detect_sequence(register: Register, variant: str):
    """Inverse of the generation circuit (maps the Bell state back to |00>)."""
    return [replace(p, angle_rad=-p.angle_rad, duration_us=None)
            for p in reversed(bell_sequence(register, variant))]


def bell_target_vector(register: Register, variant: str):
    (bits_a, bits_b), sign, _, _ = _bell_variant(register, variant)
    v = np.zeros(register.dim, dtype=complex)
    v[register.level(BELL_MS, bits_a)] = 1.0 / math.sqrt(2.0)
    v[register.level(BELL_MS, bits_b)] = sign / math.sqrt(2.0)
    return v


def bell_prepare_and_fidelity(register: Register, variant: str):
    """Run the generation circuit from |BELL_MS, 00>; returns (state,
    fidelity to the ideal Bell state, round-trip detection probability)."""
    items = bell_sequence(register, variant)
    state = run_sequence(register.pure_state(BELL_MS, (0, 0)), items)
    fid = state.fidelity(bell_target_vector(register, variant))
    back = run_sequence(state, bell_detect_sequence(register, variant))
    p00 = back.population(BELL_MS, (0, 0))
    return state, fid, p00


def bell_dephasing_fidelity(register: Register, variant: str, t_us,
                            detuning1_mhz: float,
                            detuning2_mhz: float) -> np.ndarray:
    """Fidelity of an ideally prepared Bell state after free evolution with
    per-nucleus detunings: phi variants beat at the sum frequency, psi
    variants at the difference (stationary under common-mode detuning)."""
    t = np.asarray(t_us, dtype=float)
    if not (np.all(np.isfinite(t)) and math.isfinite(detuning1_mhz)
            and math.isfinite(detuning2_mhz)):
        raise ValidationError("detunings and times must be finite")
    bits_a, bits_b = _bell_variant(register, variant)[0]
    # detuning phases only; the deterministic eigenphases are removed the
    # way a rotating-frame readout removes them. m = 1/2 - bit, so
    # m_a - m_b = bits_b - bits_a
    dm = np.subtract(bits_b, bits_a)
    rel = 2.0 * math.pi * float(np.dot([detuning1_mhz, detuning2_mhz], dm)) * t
    # half the target on each level, coherences turned by exp(-+i rel)
    return 0.5 * (1.0 + np.cos(rel))


# ----- Rabi oscillations --------------------------------------------------


def rabi_frequency_mhz(register: Register, channel: str, i: int, j: int,
                       power: float = 1.0) -> float:
    """Rabi frequency of a driven transition.

    RF transitions are hyperfine-enhanced: Omega = kappa * |A_eff| * sqrt(P)
    with |A_eff| the secular hyperfine magnitude of the flipped nucleus, so
    a 10x smaller coupling needs exactly 100x the power for the same Omega.
    MW transitions use Omega = kappa * sqrt(P).
    """
    if power <= 0:
        raise ValidationError("power must be positive")
    if not math.isfinite(power):
        raise ValidationError(f"power must be finite, got {power:g}")
    if channel not in CHANNELS:
        raise ValidationError(f"channel must be one of {CHANNELS}")
    if channel == "mw":
        return KAPPA_MW_MHZ * math.sqrt(power)
    n = register.n_nuclei
    flips = int(register.label_codes[i] ^ register.label_codes[j]) % 2 ** n
    if flips == 0 or flips & (flips - 1):
        raise ValidationError("RF Rabi needs a single-nucleus transition")
    # the flipped nucleus's tensor row along the ZFS axis (nucleus 0: top bit)
    row = register.spec.tensors[n - flips.bit_length()] \
        @ np.asarray(register.spec.zfs.axis)
    return KAPPA_RF_PER_MHZ * float(np.linalg.norm(row)) * math.sqrt(power)


def rabi_simulate(register: Register, channel: str, i: int, j: int, t_us,
                  power: float = 1.0):
    """Resonantly driven two-level population transfer: (population of
    level j at each drive duration in t_us, sin^2(pi Omega t), and the Rabi
    frequency Omega in MHz)."""
    _validate_target(register, Pulse(channel, i, j, math.pi))
    t = np.asarray(t_us, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValidationError("times must be finite")
    omega = rabi_frequency_mhz(register, channel, i, j, power)
    return np.sin(math.pi * omega * t) ** 2, omega
