"""Independent references for the benchmark's output checks.

Nothing here imports nvbath: each reference is rebuilt from the physics and
the documented conventions, so that a wrong answer from the package cannot
also appear in its reference.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018 values and the NV / 13C g-factors
PLANCK_H = 6.62607015e-34
BOHR_MAGNETON = 9.2740100783e-24
NUCLEAR_MAGNETON = 5.0507837461e-27
MU0 = 1.25663706212e-6
G_E = 2.0028
G_N = 1.40483
ZFS_D_MHZ = 2870.0
LATTICE_A = 3.567  # Angstrom

GAMMA_E_MHZ_G = G_E * BOHR_MAGNETON / PLANCK_H * 1e-10
GAMMA_N_MHZ_G = G_N * NUCLEAR_MAGNETON / PLANCK_H * 1e-10
# (mu0/4pi) g_e mu_B g_n mu_N / h in cm^3 Hz
DIPOLAR_PREFACTOR_CM3_HZ = (MU0 / (4 * math.pi)) * G_E * BOHR_MAGNETON \
    * G_N * NUCLEAR_MAGNETON / PLANCK_H * 1e6

FIRST_SHELL = (205.0, 123.0, 106.0)   # A_par, A_perp (MHz), polar (deg)
THIRD_SHELL_A = 14.0
THIRD_SHELL_MULT = 9


# ----- diamond lattice ------------------------------------------------------

def lattice_quarters(radius):
    """Integer quarter-lattice coordinates of every carbon within radius
    (Angstrom) of the vacancy, vacancy and [111] nitrogen excluded, ordered
    by (d^2, x, y, z).

    Sublattice A holds the even points with x+y+z = 0 mod 4, sublattice B
    the odd points with x+y+z = 3 mod 4. The cube is enumerated one x-slab
    at a time, so the check's memory stays far below the program's.
    """
    qmax = radius / (LATTICE_A / 4.0)
    q2max = qmax * qmax
    m = int(math.floor(qmax))
    r = np.arange(-m, m + 1)
    y, z = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    yz2 = y * y + z * z
    parts = []
    for x in range(-m, m + 1):
        d2 = x * x + yz2
        s = (x + y + z) % 4
        if x % 2 == 0:
            keep = (y % 2 == 0) & (z % 2 == 0) & (s == 0)
        else:
            keep = (y % 2 == 1) & (z % 2 == 1) & (s == 3)
        keep &= (d2 > 0) & (d2 <= q2max)
        if x == 1:
            keep &= ~((y == 1) & (z == 1))  # the nitrogen
        parts.append(np.stack([np.full(keep.sum(), x), y[keep], z[keep]],
                              axis=1))
    q = np.concatenate(parts)
    d2 = np.einsum("ij,ij->i", q, q)
    order = np.lexsort((q[:, 2], q[:, 1], q[:, 0], d2))
    return q[order], d2[order]


def shell_numbers(q, d2):
    """1-based shells by distance class; the d^2 = 11 class splits into the
    9 near-equatorial sites and the 3 polar sites (x+y+z = -5)."""
    classes = np.unique(d2)
    rank = np.searchsorted(classes, d2) + 1
    if 11 in classes:
        rank = rank + ((d2 > 11) | ((d2 == 11) & (q.sum(axis=1) == -5)))
    return rank


def lattice_coefficient(radius=24.0):
    """Dipolar second-moment coefficient (cm^-6) from a lattice sum within
    radius, shells 1 and 2 excluded, plus the continuum tail beyond it:
    rho * 4 pi * (4/5) / (3 R^3), since (1 - 3 cos^2)^2 averages to 4/5."""
    q, d2 = lattice_quarters(radius)
    shells = shell_numbers(q, d2)
    q = q[shells > 2]
    pos = q * (LATTICE_A / 4.0)
    r2 = np.einsum("ij,ij->i", pos, pos)
    cos2 = (pos.sum(axis=1) / math.sqrt(3.0)) ** 2 / r2
    total = float(np.sum((1.0 - 3.0 * cos2) ** 2 / r2 ** 3))
    rho = 8.0 / LATTICE_A ** 3
    total += rho * 4.0 * math.pi * 0.8 / (3.0 * radius ** 3)
    return 2.0 * math.log(2.0) * total * 1e48


def contact_fwhm_mhz(n):
    return 2.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(
        n * THIRD_SHELL_MULT * (THIRD_SHELL_A / 2.0) ** 2)


def t2star_us(w_mhz):
    return 2.0 * math.sqrt(math.log(2.0)) / (math.pi * w_mhz * 1e6) * 1e6


# ----- spin Hamiltonian -----------------------------------------------------

_S1 = (np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2),
       np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2),
       np.diag([1.0, 0.0, -1.0]))
_SH = (np.array([[0, 0.5], [0.5, 0]]), np.array([[0, -0.5j], [0.5j, 0]]),
       np.diag([0.5, -0.5]))


def frame(axis):
    """(e1, e2, axis): e1 is x-hat (y-hat when axis is within 0.9 of x)
    projected normal to axis."""
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(axis @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - (ref @ axis) * axis
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1), axis


def tensor(a_par, a_perp, polar_deg, azimuth_deg, zfs_axis):
    e1, e2, ez = frame(zfs_axis)
    th, ph = math.radians(polar_deg), math.radians(azimuth_deg)
    u = math.sin(th) * (math.cos(ph) * e1 + math.sin(ph) * e2) \
        + math.cos(th) * ez
    return a_perp * np.eye(3) + (a_par - a_perp) * np.outer(u, u)


def nucleus_tensors(nuclei, zfs_axis):
    """3x3 hyperfine tensors of a config 'nuclei' list."""
    out = []
    for item in nuclei:
        if item.get("shell") == 1:
            a_par, a_perp, polar = FIRST_SHELL
            out.append(tensor(a_par, a_perp, polar,
                              item.get("azimuth_deg", 0.0), zfs_axis))
        elif item.get("shell") == 3:
            out.append(THIRD_SHELL_A * np.eye(3))
        else:
            out.append(tensor(item["a_par_mhz"], item["a_perp_mhz"],
                              item.get("polar_deg", 0.0),
                              item.get("azimuth_deg", 0.0), zfs_axis))
    return out


def _site_op(op, k, n):
    """op on factor k of (electron, nucleus 1..n) as a dense matrix."""
    if k == 0:
        return np.kron(op, np.eye(2 ** n))
    return np.kron(np.kron(np.eye(3 * 2 ** (k - 1)), op), np.eye(2 ** (n - k)))


def hamiltonian(field_gauss, field_dir, nuclei, zfs_axis=(1, 1, 1)):
    """H (MHz) = D (S.n)^2 + g_e mu_B B.S + sum_i [S.A_i.I_i - g_n mu_N B.I_i]."""
    n = len(nuclei)
    zfs_axis = np.asarray(zfs_axis, float) / np.linalg.norm(zfs_axis)
    b = field_gauss * np.asarray(field_dir, float) / np.linalg.norm(field_dir)
    s = [_site_op(op, 0, n) for op in _S1]
    s_ax = sum(zfs_axis[p] * s[p] for p in range(3))
    h = ZFS_D_MHZ * s_ax @ s_ax + GAMMA_E_MHZ_G * sum(b[p] * s[p]
                                                     for p in range(3))
    for q, a in enumerate(nucleus_tensors(nuclei, zfs_axis)):
        iq = [_site_op(op, q + 1, n) for op in _SH]
        for p in range(3):
            h = h + s[p] @ sum(a[p, r] * iq[r] for r in range(3))
        h = h - GAMMA_N_MHZ_G * sum(b[p] * iq[p] for p in range(3))
    return h


def esr_lines(field_gauss, field_dir, nuclei):
    """Eigenvalues and every pair's (freq, normalized intensity): intensity
    |<j|e1.S|i>|^2 with e1 the frame vector transverse to the field."""
    h = hamiltonian(field_gauss, field_dir, nuclei)
    vals, vecs = np.linalg.eigh(h)
    n = len(nuclei)
    e1 = frame(field_dir)[0]
    sx = sum(e1[p] * _site_op(_S1[p], 0, n) for p in range(3))
    w2 = np.abs(vecs.conj().T @ sx @ vecs) ** 2
    i, j = np.triu_indices(len(vals), 1)
    inten = w2[j, i]
    return vals, i, j, vals[j] - vals[i], inten / inten.sum()


def propagate_populations(vals, n_nuclei, items):
    """Level populations after a pulse sequence, starting from ms = 0 with
    mixed nuclei (the 2^n lowest levels, far below the ms = -1 manifold at
    these fields). items are parsed sequence tuples: ("wait", t) or
    (channel, i, j, angle, phase, duration or None)."""
    dim = len(vals)
    rho = np.zeros((dim, dim), complex)
    low = np.argsort(vals)[:2 ** n_nuclei]
    rho[low, low] = 1.0 / 2 ** n_nuclei
    for it in items:
        if it[0] == "wait":
            ph = np.exp(-2j * math.pi * vals * it[1])
            rho = ph[:, None] * rho * ph.conj()[None, :]
            continue
        _, i, j, th, phi, tau = it
        if tau is None:
            c, s = math.cos(th / 2), math.sin(th / 2)
            u2 = np.array([[c, -1j * s * np.exp(-1j * phi)],
                           [-1j * s * np.exp(1j * phi), c]])
            idx = [i, j]
            rho[idx, :] = u2 @ rho[idx, :]
            rho[:, idx] = rho[:, idx] @ u2.conj().T
            continue
        # rotating-wave drive at the i-j frequency, then back to the lab
        f = vals[j] - vals[i]
        om = th / (2 * math.pi * tau)
        h = np.diag(vals.astype(complex))
        h[j, j] -= f
        h[i, j] += 0.5 * om * np.exp(-1j * phi)
        h[j, i] += 0.5 * om * np.exp(1j * phi)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-2j * math.pi * w * tau)) @ v.conj().T
        u[j, :] *= np.exp(-2j * math.pi * f * tau)
        rho = u @ rho @ u.conj().T
    return np.real(np.diag(rho))


def secular_magnitude(item, zfs_axis=(1, 1, 1)):
    ax = np.asarray(zfs_axis, float) / np.linalg.norm(zfs_axis)
    return float(np.linalg.norm(nucleus_tensors([item], ax)[0] @ ax))


# ----- bath ensembles and fits ----------------------------------------------

def exact_envelope(omega, p, t):
    """Ensemble envelope of independent bath spins +-1/2, each present with
    probability p: prod_k [(1 - p) + p cos(omega_k t / 2)]."""
    out = np.ones(len(t))
    for chunk in np.array_split(np.flatnonzero(omega), 8):
        out *= np.prod((1 - p) + p * np.cos(np.outer(t, omega[chunk]) / 2),
                       axis=1)
    return out


def envelope_zscores(env, omega, p, t, n_samples):
    """(env - exact) / standard error of an n-sample mean; the variance of
    cos(theta t) is (1 + E cos(2 theta t)) / 2 - (E cos(theta t))^2."""
    e1 = exact_envelope(omega, p, t)
    e2 = exact_envelope(omega, p, 2 * t)
    se = np.sqrt(np.maximum((1 + e2) / 2 - e1 * e1, 0.0) / n_samples)
    diff = np.asarray(env) - e1
    tiny = se < 1e-12
    z = np.where(tiny, np.where(np.abs(diff) <= 1e-12, 0.0, np.inf),
                 diff / np.where(tiny, 1.0, se))
    return z, se


def fid(t, p):
    t2, w, a, off = p
    return off + a * np.exp(-(t / t2) ** 2) * np.cos(w * t)


def echo(t, p):
    t2, a, off = p
    return off + a * np.exp(-(t / t2) ** 3)


MODELS = {"fid": (fid, ("t2star_us", "domega_rad_us", "amplitude", "offset")),
          "echo": (echo, ("t2_us", "amplitude", "offset"))}


def _jac(fn, t, p):
    cols = []
    for k in range(len(p)):
        h = 1e-7 * max(abs(p[k]), 1e-3)
        hi, lo = np.array(p, float), np.array(p, float)
        hi[k] += h
        lo[k] -= h
        cols.append((fn(t, hi) - fn(t, lo)) / (2 * h))
    return np.column_stack(cols)


def least_squares(model, t, y, start, iters=60):
    """Gauss-Newton with step halving from start; returns (params, ssr,
    sigmas from the linearized covariance)."""
    fn = MODELS[model][0]
    p = np.array(start, float)
    ssr = float(np.sum((fn(t, p) - y) ** 2))
    for _ in range(iters):
        r = fn(t, p) - y
        step = np.linalg.lstsq(_jac(fn, t, p), -r, rcond=None)[0]
        lam = 1.0
        while lam > 1e-6:
            cand = p + lam * step
            s = float(np.sum((fn(t, cand) - y) ** 2))
            if s <= ssr:
                break
            lam /= 2
        else:
            break
        done = s >= ssr * (1 - 1e-15)
        p, ssr = cand, s
        if done:
            break
    return p, ssr, fit_sigmas(model, t, y, p)


def fit_sigmas(model, t, y, p):
    fn = MODELS[model][0]
    jac = _jac(fn, t, p)
    ssr = float(np.sum((fn(t, p) - y) ** 2))
    cov = np.linalg.inv(jac.T @ jac) * ssr / max(len(t) - len(p), 1)
    return np.sqrt(np.maximum(np.diag(cov), 0.0))
