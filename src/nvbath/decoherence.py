"""Coherence decay models, fits, reciprocal-rate rules, and bath ensembles.

Free-induction decay is modeled as offset + amp * exp(-(t/T2*)^2) cos(dw t),
spin echo as offset + amp * exp(-(t/T2)^3). Two-spin register coherences are
labeled sq1/sq2 (single nucleus), phi (double quantum, phases add) and psi
(zero quantum, phases subtract).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .constants import NN_DIPOLAR_KHZ_A3
from .errors import (FitError, FlatSignalError, ResourceLimitError,
                     ValidationError)
from .lattice import bath_stream, check_seed

# ----- decay curves and models ------------------------------------------


@dataclass(frozen=True)
class DecayCurve:
    """Time samples (us), signal, optional per-point 1-sigma noise."""

    t_us: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray = None

    def __post_init__(self):
        t = np.asarray(self.t_us, dtype=float)
        y = np.asarray(self.signal, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValidationError("t and signal must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValidationError("curve contains non-finite values")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValidationError("time samples must be strictly increasing")
        object.__setattr__(self, "t_us", t)
        object.__setattr__(self, "signal", y)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != t.shape or not np.all((0 < s) & (s < np.inf)):
                raise ValidationError(
                    "sigma must be positive and finite, same length as t")
            object.__setattr__(self, "sigma", s)


def fid_model(t, t2star_us, domega_rad_us, amplitude, offset):
    """Gaussian-envelope FID with a coherent beat."""
    t = np.asarray(t, dtype=float)
    return offset + amplitude * np.exp(-(t / t2star_us) ** 2) \
        * np.cos(domega_rad_us * t)


def echo_model(t, t2_us, amplitude, offset):
    """Cubic-exponent echo envelope."""
    t = np.asarray(t, dtype=float)
    return offset + amplitude * np.exp(-(t / t2_us) ** 3)


def _fid_jac(t, p):
    t2, w, a, _ = p
    env = np.exp(-(t / t2) ** 2)
    c, s = np.cos(w * t), np.sin(w * t)
    return np.column_stack([
        a * env * c * 2.0 * t ** 2 / t2 ** 3,
        -a * env * s * t,
        env * c,
        np.ones_like(t),
    ])


def _echo_jac(t, p):
    t2, a, _ = p
    env = np.exp(-(t / t2) ** 3)
    return np.column_stack([
        a * env * 3.0 * t ** 3 / t2 ** 4,
        env,
        np.ones_like(t),
    ])


def _time_scale_guess(t, y, offset, amp):
    target = abs(amp) / math.e
    dev = np.abs(y - offset)
    below = np.flatnonzero(dev < target)
    below = below[below > 0]
    if len(below):
        return max(float(t[below[0]]), float(t[1]))
    return float(t[-1]) / 2.0


def _offset_amp_guess(y):
    k = max(3, len(y) // 10)  # offset from the last tenth of the signal
    offset = float(np.mean(y[-k:]))
    amp = float(y[0] - offset)
    if amp == 0.0:
        amp = float(np.max(y) - offset) or 1.0
    return offset, amp


def _fid_guess(t, y):
    offset, amp = _offset_amp_guess(y)
    # dominant beat frequency from the spectrum of the detrended signal
    yd = y - np.mean(y)
    spec = np.abs(np.fft.rfft(yd))
    dt = float(t[1] - t[0])
    freqs = np.fft.rfftfreq(len(t), dt)
    k = int(np.argmax(spec[1:]) + 1)
    w = 2.0 * math.pi * float(freqs[k]) if spec[k] > 3.0 * spec[0] else 0.0
    return np.array([_time_scale_guess(t, y, offset, amp), w, amp, offset])


def _echo_guess(t, y):
    offset, amp = _offset_amp_guess(y)
    return np.array([_time_scale_guess(t, y, offset, amp), amp, offset])


MODELS = {
    "fid": {
        "names": ("t2star_us", "domega_rad_us", "amplitude", "offset"),
        "fn": lambda t, p: fid_model(t, *p),
        "jac": _fid_jac,
        "guess": _fid_guess,
    },
    "echo": {
        "names": ("t2_us", "amplitude", "offset"),
        "fn": lambda t, p: echo_model(t, *p),
        "jac": _echo_jac,
        "guess": _echo_guess,
    },
}

GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12    # relative parameter change on an accepted step
SSR_TOL = 1e-12     # relative SSR improvement on an accepted step
MAX_ITER = 200
MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class DecayFit:
    """Fit result: parameter dict, 1-sigma uncertainties from the linearized
    covariance, residual sum of squares, and iteration diagnostics."""

    model: str
    params: dict
    sigmas: dict
    covariance: np.ndarray
    ssr: float
    n_iter: int
    gradient_norm: float


def fit_decay(curve: DecayCurve, model: str = "fid") -> DecayFit:
    """Damped least squares (Levenberg-style) fit of a decay model.

    Deterministic given the curve: the starting point is guessed from the
    data, and step acceptance and damping follow a fixed schedule. Converged
    when the gradient infinity norm falls below GRADIENT_TOL, or an accepted
    step changes parameters by less than STEP_TOL relatively, or improves
    the SSR by less than SSR_TOL relatively (noisy data stalls the gradient
    above its tolerance while the iterate has long stopped moving). Hitting
    MAX_ITER, a non-finite gradient, or a singular covariance (a variance
    that is not finite and positive) raises FitError carrying the last
    iterate.
    """
    if model not in MODELS:
        raise ValidationError(f"model must be one of {tuple(MODELS)}")
    spec = MODELS[model]
    t, y = curve.t_us, curve.signal
    npar = len(spec["names"])
    if len(t) < MIN_FIT_POINTS:
        raise ValidationError(
            f"need at least {MIN_FIT_POINTS} points to fit {model}")
    contrast = float(np.max(y) - np.min(y))
    if contrast <= 1e-12 * max(1.0, abs(float(np.mean(y)))):
        raise FlatSignalError("signal has no contrast; nothing to fit")
    w = 1.0 / curve.sigma if curve.sigma is not None else np.ones_like(y)

    p = spec["guess"](t, y)

    def ssr_of(params):
        r = w * (spec["fn"](t, params) - y)
        return float(r @ r), r

    ssr, r = ssr_of(p)
    lam = 1e-3
    gnorm = math.inf
    converged = False
    for it in range(1, MAX_ITER + 1):
        jac = w[:, None] * spec["jac"](t, p)
        grad = jac.T @ r
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= GRADIENT_TOL:
            converged = True
            break
        jtj = jac.T @ jac
        rel_step = 0.0
        for _ in range(40):
            try:
                delta = np.linalg.solve(
                    jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12)),
                    -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = p + delta
            rel_step = float(np.max(np.abs(delta)
                                    / np.maximum(np.abs(p), 1.0)))
            # parameter 0 of each model is its time scale, kept positive
            if not cand[0] <= 0:
                ssr_new, r_new = ssr_of(cand)
                if ssr_new <= ssr:
                    rel_drop = (ssr - ssr_new) / max(ssr, 1e-300)
                    p, ssr, r = cand, ssr_new, r_new
                    lam = max(lam / 3.0, 1e-14)
                    if rel_step <= STEP_TOL or rel_drop <= SSR_TOL:
                        converged = True
                    break
            lam *= 3.0
        else:
            # damping saturated: the trust region shrank until the proposed
            # step was negligible, which is a step-size convergence
            converged = rel_step <= math.sqrt(STEP_TOL)
            break
        if converged:
            break

    jac = w[:, None] * spec["jac"](t, p)
    try:
        inv = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        inv = np.full((npar, npar), np.nan)
    # NaN passes no tolerance test, so NaN gradients and variances end here
    cov_ok = np.all(np.isfinite(inv)) and np.all(np.diag(inv) > 0)
    if not (converged and math.isfinite(gnorm) and cov_ok):
        raise FitError(
            (f"no convergence after {it} iterations" if not converged
             else "degenerate fit: singular parameter covariance")
            + f" (|grad| = {gnorm:.3e})",
            last_params=dict(zip(spec["names"], p)), gradient_norm=gnorm)
    cov = inv * (ssr / max(len(t) - npar, 1))
    return DecayFit(model=model,
                    params=dict(zip(spec["names"], p)),
                    sigmas=dict(zip(spec["names"], np.sqrt(np.diag(cov)))),
                    covariance=cov, ssr=ssr, n_iter=it, gradient_norm=gnorm)


# ----- reciprocal-rate rules for two-spin coherences ---------------------


@dataclass(frozen=True)
class BellT2Result:
    """Dephasing times (us) of the phi/psi coherences predicted from the two
    single-quantum times. t_psi_us is None when the psi rate vanishes."""

    t_phi_us: float
    t_psi_us: float


def bell_t2star_from_sq(t_sq1_us: float, t_sq2_us: float) -> BellT2Result:
    """Combine single-quantum dephasing times into phi/psi times:
    1/T(phi) = 1/T(sq1) + 1/T(sq2), 1/T(psi) = |1/T(sq1) - 1/T(sq2)|.

    Equal inputs make the psi coherence decay-free: t_psi_us is returned as
    None, never as a number.
    """
    if not (0 < t_sq1_us < math.inf and 0 < t_sq2_us < math.inf):
        raise ValidationError("dephasing times must be positive and finite")
    r1, r2 = 1.0 / t_sq1_us, 1.0 / t_sq2_us
    r_psi = abs(r1 - r2)
    return BellT2Result(t_phi_us=1.0 / (r1 + r2),
                        t_psi_us=None if r_psi == 0.0 else 1.0 / r_psi)


# ----- bath-driven FID ensembles -----------------------------------------

COHERENCE_WEIGHTS = {
    "sq1": (1.0, 0.0),
    "sq2": (0.0, 1.0),
    "phi": (1.0, 1.0),
    "psi": (1.0, -1.0),
}

MIN_BATH_SAMPLES = 100
# samples per draw; bounds the occupied cells and the (samples x sqrt(nt))
# cos and sin tables of a chunk. It also decides which uniforms fill which
# cells, so changing it changes every envelope's digits.
BATH_CHUNK_SAMPLES = 256
# The memo of the last draw holds 16 B per sample (two phase rates) and 16 B
# per coupled site (its key). Bound on the tracemalloc peak of a draw per
# sample; measured 16.0-16.6 B at 1e6-4e6 samples (1 or 862 coupled sites,
# p = 0.03; numpy 2.4), so the cap allows ~0.68 GB.
MAX_BATH_SAMPLES = 40_000_000
BYTES_PER_BATH_SAMPLE = 17
UNIFORM_GRID_RTOL = 1e-12   # times t_max: largest |t_k - (t0 + k h)|
ENVELOPE_FLOOR = 0.05       # fit_envelope_rate uses the points above it


@dataclass(frozen=True)
class PairCouplings:
    """Bath-to-register couplings: c1/c2 in kHz from every bath spin to the
    two register nuclei (zero beyond the near radius)."""

    c1_khz: np.ndarray
    c2_khz: np.ndarray
    near_radius_angstrom: float

    def __post_init__(self):
        c1 = np.asarray(self.c1_khz, dtype=float)
        c2 = np.asarray(self.c2_khz, dtype=float)
        if c1.shape != c2.shape or c1.ndim != 1:
            raise ValidationError("coupling arrays must match in length")
        object.__setattr__(self, "c1_khz", c1)
        object.__setattr__(self, "c2_khz", c2)

    def __len__(self):
        return len(self.c1_khz)


def pair_couplings(positions, p1, p2,
                   near_radius_angstrom: float = 10.0) -> PairCouplings:
    """Nuclear-nuclear point-dipole couplings (kHz) from bath positions to
    two register nuclei at p1/p2, zeroed beyond the near radius.

    The scalar magnitude K/r^3 is used (no angular factor): couplings to both
    nuclei share a sign, which is what makes the linear rate rule for the phi
    coherence hold in the dilute ensemble.
    """
    if not 0 < near_radius_angstrom < math.inf:
        raise ValidationError("near radius must be positive and finite")
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    if not all(np.all(np.isfinite(a)) for a in (pos, p1, p2)):
        raise ValidationError("bath and register positions must be finite")
    out = []
    for p in (p1, p2):
        d = np.linalg.norm(pos - p[None, :], axis=1)
        if np.any(d < 1e-9):
            raise ValidationError("a bath site coincides with a register nucleus")
        out.append(np.where(d <= near_radius_angstrom,
                            NN_DIPOLAR_KHZ_A3 / d ** 3, 0.0))
    return PairCouplings(c1_khz=out[0], c2_khz=out[1],
                         near_radius_angstrom=float(near_radius_angstrom))


def _occupied_cells(gen, cells: int, p: float) -> np.ndarray:
    """Sorted flat indices of the occupied cells among `cells` > 0
    independent cells, each occupied with probability p (0 < p <= 1).

    The gap from one occupied cell to the next (the first counted from
    cell -1) is geometric, 1 + floor(log1p(-u) / log1p(-p)) for a uniform u
    from gen. Gaps are drawn in batches of int(mu + 3 sqrt(mu)) + 1, mu
    being p times the cells not yet passed, until they pass the last cell;
    the uniforms left over from the last batch are discarded.
    """
    if p == 1.0:
        return np.arange(cells)
    log_q = math.log1p(-p)
    ends, passed = [], 0.0
    while passed < cells:
        mu = p * (cells - passed)
        u = gen.random(int(mu + 3.0 * math.sqrt(mu)) + 1)
        with np.errstate(over="ignore"):  # tiny p: an infinite gap passes all
            gaps = np.floor(np.log1p(-u) / log_q) + 1.0
        # one past each occupied cell; integers, exact in float64
        end = passed + np.cumsum(gaps)
        ends.append(end)
        passed = end[-1]
    end = np.concatenate(ends)
    return (end[end <= cells] - 1.0).astype(np.int64)


@functools.lru_cache(maxsize=1)
def _bath_phases(c1_bytes: bytes, c2_bytes: bytes, n_samples: int,
                 seed: int, p: float):
    """Phase rates (rad/us) of every sample at unit weight on each register
    nucleus, (theta1, theta2), read-only: the draw simulate_bath_fid
    describes, over the coupled sites whose couplings c1/c2 (kHz, float64)
    the two byte strings hold. Memoized for the last bath only."""
    c1 = np.frombuffer(c1_bytes)
    omega1 = 2.0e-3 * math.pi * c1
    omega2 = 2.0e-3 * math.pi * np.frombuffer(c2_bytes)
    gen = bath_stream(seed)
    theta = np.empty((2, n_samples))
    for start in range(0, n_samples, BATH_CHUNK_SAMPLES):
        m = min(BATH_CHUNK_SAMPLES, n_samples - start)
        cells = _occupied_cells(gen, m * c1.size, p)
        sample, site = np.divmod(cells, max(c1.size, 1))
        signs = (gen.random(cells.size) < 0.5) - 0.5
        for row, omega in zip(theta, (omega1, omega2)):
            row[start:start + m] = np.bincount(
                sample, weights=signs * omega[site], minlength=m)
    theta.flags.writeable = False
    return theta[0], theta[1]


def simulate_bath_fid(couplings: PairCouplings, kind: str, t_us,
                      n_samples: int = 1000, seed: int = 0,
                      occupancy: float = None) -> DecayCurve:
    """Ensemble-averaged coherence envelope under random bath spins.

    Each sample gives every bath site a spin m = +1/2 or -1/2 with
    probability p/2 each and leaves it empty otherwise (p = occupancy, or 1
    when occupancy is None); the envelope is the ensemble mean of
    cos((w1*dw1 + w2*dw2) t) with the (w1, w2) weights of the coherence
    kind, whose exact value is prod_k [(1 - p) + p cos(omega_k t / 2)].
    The envelope is exactly 1 at t = 0.

    Only sites coupled to at least one register nucleus are drawn. The
    drawn sites do not depend on kind, so all kinds at one seed see the
    same bath, and they share one draw: each sample's phase rates theta1
    and theta2 on the two nuclei at unit weight, from which a call forms
    w1*theta1 + w2*theta2 (sq1 and sq2 take theta1 and theta2 as they
    are). The last bath drawn is memoized, keyed by the coupled c1/c2,
    n_samples, seed and p, at 16 B per sample and 16 B per coupled site;
    a caller that alternates between two baths draws each of them again
    every time. A call whose phase is 0 in every sample (p = 0, no coupled
    site, or w1*c1 + w2*c2 = 0 at every coupled site, as for psi on
    correlated couplings) returns exactly 1 without a draw, after every
    input check. n_samples above MAX_BATH_SAMPLES raises
    ResourceLimitError before the stream is opened.

    Samples are drawn BATH_CHUNK_SAMPLES at a time from one Philox stream
    read in order. In a chunk of m samples and n coupled sites, the
    occupied cells of the flat m*n (sample, site) grid are drawn as
    geometric gaps (_occupied_cells), then one uniform per occupied cell,
    in cell order, gives +1/2 below 1/2 and -1/2 otherwise; each sample's
    phase rate sums spin * omega over its cells in site order. At p = 1
    only the signs are drawn. The chunk size changes which uniforms fill
    which cells, but not the distribution of the draw.

    t_us must be a uniform grid t0 + k h (every point within
    UNIFORM_GRID_RTOL * t_max), because _kernels.phase_envelope sums the
    cosines by angle addition over about sqrt(nt) coarse times and as many
    fine offsets (nt = len(t_us)). Time and memory per chunk are
    O(occupied cells + m * sqrt(nt)), plus two (sqrt(nt) x m x sqrt(nt))
    products.
    """
    kind = kind.lower()
    if kind not in COHERENCE_WEIGHTS:
        raise ValidationError(f"kind must be one of {tuple(COHERENCE_WEIGHTS)}")
    if not isinstance(n_samples, (int, np.integer)) \
            or n_samples < MIN_BATH_SAMPLES:
        raise ValidationError(
            f"need an integer number of samples, at least {MIN_BATH_SAMPLES}")
    t = np.asarray(t_us, dtype=float)
    if t.ndim != 1 or len(t) < 2 or not np.all(np.isfinite(t)) \
            or np.any(np.diff(t) <= 0) or t[0] < 0:
        raise ValidationError("time grid must be increasing and nonnegative")
    step = (t[-1] - t[0]) / (len(t) - 1)
    if np.any(np.abs(t - (t[0] + step * np.arange(len(t))))
              > UNIFORM_GRID_RTOL * t[-1]):
        raise ValidationError("time grid must be uniform")
    if occupancy is not None and not 0.0 <= occupancy <= 1.0:
        raise ValidationError("occupancy must lie in [0, 1]")
    p = 1.0 if occupancy is None else float(occupancy)
    w1, w2 = COHERENCE_WEIGHTS[kind]
    c1, c2 = couplings.c1_khz, couplings.c2_khz
    coupled = (c1 != 0.0) | (c2 != 0.0)
    c1, c2 = c1[coupled], c2[coupled]
    # angular frequency per coupled site in rad/us
    omega = 2.0e-3 * math.pi * (w1 * c1 + w2 * c2)
    if not np.all(np.isfinite(omega)):
        raise ValidationError("couplings must be finite")
    seed = check_seed(seed)
    if n_samples > MAX_BATH_SAMPLES:
        raise ResourceLimitError(
            f"{n_samples} bath samples need "
            f"~{n_samples * BYTES_PER_BATH_SAMPLE / 1e9:.2g} GB (cap "
            f"{MAX_BATH_SAMPLES:.0e} samples, "
            f"~{MAX_BATH_SAMPLES * BYTES_PER_BATH_SAMPLE / 1e9:.2g} GB)")
    if p == 0.0 or not omega.any():
        return DecayCurve(t_us=t, signal=np.ones(len(t)))

    theta1, theta2 = _bath_phases(c1.tobytes(), c2.tobytes(), int(n_samples),
                                  seed, p)
    total = np.zeros(len(t))
    for start in range(0, n_samples, BATH_CHUNK_SAMPLES):
        chunk = slice(start, start + BATH_CHUNK_SAMPLES)
        total += _kernels.phase_envelope(
            w1 * theta1[chunk] + w2 * theta2[chunk], t)
    return DecayCurve(t_us=t, signal=total / n_samples)


def fit_envelope_rate(curve: DecayCurve) -> float:
    """Exponential rate (1/us) of an ensemble envelope.

    One-parameter least squares of exp(-r t) in linear space (Gauss-Newton,
    log-space seed restricted to points above ENVELOPE_FLOOR); robust to the
    near-zero Monte-Carlo tail where log fits blow up.
    """
    t, y = curve.t_us, curve.signal
    m = (y > ENVELOPE_FLOOR) & (t > 0)
    if m.sum() < 2:
        raise ValidationError("envelope has too few points above the floor")
    r = float(max((t[m] @ (-np.log(y[m]))) / (t[m] @ t[m]), 1e-12))
    for _ in range(80):
        f = np.exp(-r * t)
        jac = -t * f
        dr = float((jac @ (y - f)) / (jac @ jac))
        r += dr
        if abs(dr) <= 1e-12 * max(r, 1e-12):
            break
    if r <= 0:
        raise FitError("envelope rate fit collapsed to a non-positive rate",
                       last_params={"rate_per_us": r})
    return r


# ----- concentration scaling of echo T2 ----------------------------------

# Reference echo T2 points (n, T2 in ms). The low-concentration sample is
# labeled inconsistently at the source (0.35% in one place, 0.3% in
# another); 0.0035 is used here.
REFERENCE_T2_SCALING_POINTS = ((0.011, 0.65), (0.0035, 1.8))


@dataclass(frozen=True)
class ScalingModel:
    """T2 = c / n fit: coefficient (T2 unit x concentration) and 1-sigma."""

    c: float
    sigma_c: float

    def predict(self, n):
        return self.c / np.asarray(n, dtype=float)


def fit_t2_scaling(n_values, t2_values) -> ScalingModel:
    """Fit the inverse-concentration law T2 = c/n by least squares on
    log T2 (scale-invariant): c is the geometric mean of n * T2."""
    n = np.asarray(n_values, dtype=float)
    t2 = np.asarray(t2_values, dtype=float)
    if n.shape != t2.shape or n.ndim != 1 or len(n) < 2:
        raise ValidationError("need >= 2 (n, T2) pairs of equal length")
    if not np.all((0 < n) & (n < math.inf) & (0 < t2) & (t2 < math.inf)):
        raise ValidationError(
            "concentrations and T2 must be positive and finite")
    logc = np.log(t2) + np.log(n)
    c = float(np.exp(np.mean(logc)))
    resid = logc - np.mean(logc)
    sigma_logc = math.sqrt(float(resid @ resid) / (len(n) - 1) / len(n))
    return ScalingModel(c=c, sigma_c=c * sigma_logc)
