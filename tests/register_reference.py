"""Per-level reference register for the tests: per-nucleus spinors from
one build_hamiltonian + diagonalize per nucleus with a claim loop over the
sorted manifold weights, comparison states built one np.kron at a time, a
greedy label loop over every overlap in the order (overlap descending,
comparison state, level) with a per-level runner-up scan, the pulse-target
validation as a loop over every level pair, and a dense propagator that
exponentiates each item's full dim x dim Hamiltonian. It shares no label,
validation or evolution code with nvbath.pulses. reference_labels takes the
spinors from the register under test (Register._electron_states and
Register._nuclear_spinors), so that its labels are exact; reference_spinors
checks those spinors."""

import math

import numpy as np

import nvbath.pulses as pulses
from nvbath.constants import NUCLEAR_MHZ_PER_GAUSS
from nvbath.errors import AmbiguousTransitionError, ValidationError
from nvbath.spinsys import (SX1, SY1, SZ1, SpinSystemSpec, build_hamiltonian,
                            diagonalize)


def reference_electron_states(spec):
    """{m_s: electron state along the ZFS axis}."""
    axis = np.asarray(spec.zfs.axis, dtype=float)
    vals, vecs = np.linalg.eigh(axis[0] * SX1 + axis[1] * SY1 + axis[2] * SZ1)
    return {int(round(vals[k])): vecs[:, k] for k in range(3)}


def _spinor_along(u):
    theta = math.acos(max(-1.0, min(1.0, float(u[2]))))
    phi = math.atan2(float(u[1]), float(u[0]))
    return np.array([math.cos(theta / 2.0),
                     math.sin(theta / 2.0) * np.exp(1j * phi)])


def reference_spinors(spec):
    """spinors[q][m_s] = (bit 0 spinor, bit 1 spinor) of nucleus q, each
    nucleus solved alone: its levels join the manifolds in the order of
    their electron weight (two per manifold), each manifold's pair is
    orthonormalized, and bit 0 is the one closer to the +1/2 state along
    the oriented first-order local field."""
    evec = reference_electron_states(spec)
    axis = np.asarray(spec.zfs.axis, dtype=float)
    bdir = np.asarray(spec.field.direction, dtype=float)
    b_mhz = spec.field.gauss * NUCLEAR_MHZ_PER_GAUSS
    spinors = []
    for tens in spec.hyperfine:
        one = SpinSystemSpec(zfs=spec.zfs, field=spec.field,
                             hyperfine=(tens,))
        vecs = diagonalize(build_hamiltonian(one)).vectors
        proj = {ms: np.kron(evec[ms].conj(), np.eye(2)) for ms in (1, 0, -1)}
        claims = sorted(
            ((float(np.linalg.norm(proj[ms] @ vecs[:, k]) ** 2), ms, k)
             for ms in (1, 0, -1) for k in range(6)), reverse=True)
        members = {1: [], 0: [], -1: []}
        taken = set()
        for _, ms, k in claims:
            if k not in taken and len(members[ms]) < 2:
                members[ms].append(k)
                taken.add(k)
        by_ms = {}
        for ms in (1, 0, -1):
            c = [proj[ms] @ vecs[:, k] for k in sorted(members[ms])]
            c[0] = c[0] / np.linalg.norm(c[0])
            c[1] = c[1] - (c[0].conj() @ c[1]) * c[0]
            c[1] = c[1] / np.linalg.norm(c[1])
            p = ms * (axis @ tens.tensor(axis)) - b_mhz * bdir
            norm = np.linalg.norm(p)
            u = p / norm if norm > 1e-12 else axis.copy()
            for ref in (bdir, axis, np.array([0.0, 0.0, 1.0])):
                if abs(float(u @ ref)) > 1e-9:
                    u = u if u @ ref > 0 else -u
                    break
            up = _spinor_along(u)
            if abs(up.conj() @ c[1]) ** 2 > abs(up.conj() @ c[0]) ** 2:
                c = [c[1], c[0]]
            by_ms[ms] = (c[0], c[1])
        spinors.append(by_ms)
    return spinors


def reference_labels(register, reverse_ties=False):
    """(labels, overlaps, contrasts) of the register's levels; with
    reverse_ties, exact ties go to the higher (comparison state, level)
    instead."""
    n, dim = register.n_nuclei, register.dim
    evec = register._electron_states()
    spinors = register._nuclear_spinors(evec)
    states, prod_labels = [], []
    for m, ms in enumerate((1, 0, -1)):
        for nn in range(2 ** n):
            bits = tuple((nn >> (n - 1 - q)) & 1 for q in range(n))
            v = evec[:, m]
            for q, b in enumerate(bits):
                v = np.kron(v, spinors[q, m, :, b])
            states.append(v)
            prod_labels.append((ms, bits))
    basis = np.array(states).T
    overlap = np.abs(basis.conj().T @ register.eig.vectors) ** 2
    # stable sort of -overlap: ties in (comparison state, level) order
    flat = np.argsort(-overlap, axis=None, kind="stable")
    if reverse_ties:
        flat = np.lexsort((-np.arange(overlap.size), -overlap.ravel()))
    order = np.dstack(np.unravel_index(flat, overlap.shape))[0]
    labels = [None] * dim
    fidelity = np.zeros(dim)
    contrast = np.zeros(dim)
    used_p = [False] * dim
    for p, k in order:
        if labels[k] is None and not used_p[p]:
            labels[k] = prod_labels[p]
            fidelity[k] = overlap[p, k]
            runner_up = max(overlap[pp, k] for pp in range(dim) if pp != p)
            contrast[k] = overlap[p, k] / max(runner_up, 1e-300)
            used_p[p] = True
    return labels, fidelity, contrast


def _channel_allows(channel, lab_a, lab_b):
    ms_a, bits_a = lab_a
    ms_b, bits_b = lab_b
    flips = sum(x != y for x, y in zip(bits_a, bits_b))
    if channel == "mw":
        return abs(ms_a - ms_b) == 1 and flips == 0
    return ms_a == ms_b and flips == 1


def reference_validate(register, pulse):
    """Raise what a pulse on this register must raise; return None if it
    may be applied. Reads the tolerances of nvbath.pulses at call time."""
    tol = pulses.DEGENERACY_TOL_MHZ
    dim = register.dim
    if not (0 <= pulse.i < dim and 0 <= pulse.j < dim):
        raise ValidationError(f"target pair ({pulse.i}, {pulse.j}) out of range")
    lab_i = register.labels[pulse.i]
    lab_j = register.labels[pulse.j]
    bits_i, bits_j = lab_i[1], lab_j[1]
    for k in (pulse.i, pulse.j):
        if (register.label_overlap[k] < pulses.MIN_LABEL_OVERLAP
                or register.label_contrast[k] < pulses.MIN_LABEL_CONTRAST):
            raise AmbiguousTransitionError(
                f"level {k} is shared between product labels (overlap "
                f"{register.label_overlap[k]:.2f}, contrast "
                f"{register.label_contrast[k]:.2f}); its label does not "
                "identify a single addressable level")
    if not _channel_allows(pulse.channel, lab_i, lab_j):
        if pulse.channel == "mw":
            raise ValidationError(
                f"MW pulse must drive an electron transition preserving the "
                f"nuclei; got {lab_i} -> {lab_j}")
        raise ValidationError(
            f"RF pulse must flip exactly one nucleus within an electron "
            f"manifold; got {lab_i} -> {lab_j}")
    f_target = abs(register.freq_mhz(pulse.i, pulse.j))
    if f_target < tol:
        raise AmbiguousTransitionError(
            f"levels {pulse.i} and {pulse.j} are degenerate; the transition "
            "cannot be addressed selectively")
    for p in range(dim):
        for q in range(p + 1, dim):
            if {p, q} == {pulse.i, pulse.j}:
                continue
            if not _channel_allows(pulse.channel, register.labels[p],
                                   register.labels[q]):
                continue
            if abs(abs(register.freq_mhz(p, q)) - f_target) < tol:
                raise AmbiguousTransitionError(
                    f"transition {pulse.i}->{pulse.j} at "
                    f"{f_target:.6f} MHz collides with {p}->{q}; it cannot "
                    "be addressed selectively")
    if pulse.control is not None:
        q, s = pulse.control
        if not 0 <= q < register.n_nuclei:
            raise ValidationError(f"control references missing qubit {q}")
        if s not in (0, 1):
            raise ValidationError("control state must be 0 or 1")
        if bits_i[q] != s or bits_j[q] != s:
            raise ValidationError(
                f"control {q}:{s} contradicts the target labels "
                f"{bits_i} / {bits_j}")


def _dense_exp(h, t):
    """exp(-2 pi i h t) of a Hermitian dim x dim matrix by its full eigh."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-2j * math.pi * vals * t)) @ vecs.conj().T


def reference_evolve(register, rho, items):
    """rho after the sequence, one dense unitary per item.

    A wait exponentiates diag(E), an ideal pulse the generator
    theta/2 (cos phi X + sin phi Y) on its pair. A finite pulse builds its
    whole rotating-wave Hamiltonian H = diag(E) - f e_j e_j^T + drive and
    splits it exactly as H = D + V: D is diag(H) with E_i on both levels
    of the pair, so D and V commute and exp(-2 pi i H tau) =
    exp(-2 pi i D tau) exp(-2 pi i V tau), with V exponentiated by its full
    eigh. The frame phase exp(-2 pi i f tau) then goes on row j. (A full
    eigh of H itself, of norm ~3 GHz, loses eps |H| 2 pi tau ~ 1e-11 rad
    in the spectator phases.)"""
    dim = register.dim
    lam = register.eig.values
    for item in items:
        if isinstance(item, pulses.Wait):
            u = _dense_exp(np.diag(lam).astype(complex), item.t_us)
        else:
            i, j = item.i, item.j
            th, ph = item.angle_rad, item.phase_rad
            if item.duration_us is None:
                g = np.zeros((dim, dim), dtype=complex)
                g[i, j] = th / 2.0 * np.exp(-1j * ph)
                g[j, i] = th / 2.0 * np.exp(1j * ph)
                u = _dense_exp(g, 1.0 / (2.0 * math.pi))
            else:
                tau = item.duration_us
                f = lam[j] - lam[i]
                h = np.diag(lam).astype(complex)
                h[j, j] -= f
                h[i, j] += th / (4.0 * math.pi * tau) * np.exp(-1j * ph)
                h[j, i] += th / (4.0 * math.pi * tau) * np.exp(1j * ph)
                d = np.real(np.diag(h)).copy()
                d[j] = d[i]
                u = np.exp(-2j * math.pi * d * tau)[:, None] \
                    * _dense_exp(h - np.diag(d), tau)
                u[j] *= np.exp(-2j * math.pi * f * tau)
        rho = u @ rho @ u.conj().T
    return rho
