"""Per-level reference register for the tests: comparison states built one
np.kron at a time, a greedy label loop over every sorted overlap with a
per-level runner-up scan, the pulse-target validation as a loop over
every level pair, and a dense propagator that exponentiates each item's
full dim x dim Hamiltonian. It shares no label, validation or evolution
code with nvbath.pulses; only the per-nucleus spinors
(Register._electron_states and Register._nuclear_spinors) are taken from
the register under test."""

import math

import numpy as np

import nvbath.pulses as pulses
from nvbath.errors import AmbiguousTransitionError, ValidationError


def reference_labels(register):
    """(labels, overlaps, contrasts) of the register's levels."""
    n, dim = register.n_nuclei, register.dim
    evec = register._electron_states()
    spinors = register._nuclear_spinors(evec)
    states, prod_labels = [], []
    for ms in (1, 0, -1):
        for nn in range(2 ** n):
            bits = tuple((nn >> (n - 1 - q)) & 1 for q in range(n))
            v = evec[ms]
            for q, b in enumerate(bits):
                v = np.kron(v, spinors[q][ms][b])
            states.append(v)
            prod_labels.append((ms, bits))
    basis = np.array(states).T
    overlap = np.abs(basis.conj().T @ register.eig.vectors) ** 2
    order = np.dstack(np.unravel_index(
        np.argsort(overlap, axis=None)[::-1], overlap.shape))[0]
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
