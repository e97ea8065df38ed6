"""Concentration-dependent inhomogeneous ESR linewidths.

Two models, both scaling as sqrt(n) in the 13C fraction n:

* contact model: Fermi-contact broadening from the m = 9 strongly coupled
  shell-3 sites of coupling a = 14 MHz, W = 2 sqrt(2 ln2) sqrt(n m (a/2)^2);
* dipolar model: secular Van Vleck second moment of the distant bath,
  W = P * sqrt(C n) with P = (mu0/4pi) g_e mu_B g_n mu_N / h in cm^3 Hz and
  C the lattice coefficient in cm^-6.

Linewidths here are Gaussian FWHM. The FWHM <-> dephasing-time conversion is
W = 2 sqrt(ln2) / (pi T2*).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .constants import (DIPOLAR_PREFACTOR_CM3_HZ, THIRD_SHELL_A_MHZ,
                        THIRD_SHELL_MULTIPLICITY)
from .errors import InsufficientSitesError, ValidationError
from .lattice import (NV_AXIS, as_lattice, check_concentration,
                      classify_shells, positions_of)

# Reference lattice coefficient for the dipolar model (cm^-6 per unit
# concentration); dipolar_second_moment_sum reproduces it from the lattice.
DIPOLAR_COEFF_CM6 = 3.195e46

# Contact model switches over to the dipolar regime below this fraction.
REGIME_SPLIT_N = 0.011

MIN_SITES_FOR_SUM = 3000

_FWHM_FROM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
_AXIS = np.asarray(NV_AXIS) / np.linalg.norm(NV_AXIS)  # unit defect axis


def contact_linewidth(n: float) -> float:
    """Contact-model FWHM in MHz at 13C fraction n, from the nine strongly
    coupled shell-3 sites."""
    check_concentration(n)
    second_moment = n * (THIRD_SHELL_MULTIPLICITY
                         * (THIRD_SHELL_A_MHZ / 2.0) ** 2)
    return _FWHM_FROM_SIGMA * math.sqrt(second_moment)


def dipolar_linewidth_closed_form(
        n: float, coeff_cm6: float = DIPOLAR_COEFF_CM6) -> float:
    """Dipolar-model FWHM in Hz at 13C fraction n (closed form)."""
    check_concentration(n)
    if not 0.0 < coeff_cm6 < math.inf:
        raise ValidationError(f"dipolar coefficient must be positive and "
                              f"finite, got {coeff_cm6:g}")
    return DIPOLAR_PREFACTOR_CM3_HZ * math.sqrt(coeff_cm6 * n)


def dipolar_second_moment_sum(sites, exclude_shells=(1, 2)) -> float:
    """Lattice coefficient of the dipolar model, in cm^-6.

    Computes 2 ln2 * sum_k (1 - 3 cos^2 theta_k)^2 / r_k^6 over classified
    sites outside the excluded shells, theta measured from the defect axis.
    The 2 ln2 factor folds the Van Vleck unlike-spin secular prefactor
    (1/3) I(I+1) with I = 1/2 and the Gaussian FWHM relation
    W = sqrt(8 ln2 M2) into a single coefficient, so that
    W = P * sqrt(coeff * n) with P the prefactor in cm^3 Hz.
    """
    if len(sites) < MIN_SITES_FOR_SUM:
        raise InsufficientSitesError(
            f"{len(sites)} sites supplied; need >= {MIN_SITES_FOR_SUM} "
            "for a converged sum")
    sites = as_lattice(sites)
    if np.any(sites.shell == 0):
        sites = classify_shells(sites)
    pos = positions_of(sites[~np.isin(sites.shell, tuple(exclude_shells))])
    total_a6 = _kernels.second_moment_sum(pos, _AXIS)  # Angstrom^-6
    return 2.0 * math.log(2.0) * total_a6 * 1e48      # cm^-6


def _fwhm_time_map(x: float, what: str) -> float:
    """2 sqrt(ln2) / (pi x), FWHM (Hz) <-> T2* (s) both ways (self-inverse)."""
    if x <= 0:
        raise ValidationError(f"{what} must be positive")
    return 2.0 * math.sqrt(math.log(2.0)) / (math.pi * x)


def linewidth_to_t2star(w_hz: float) -> float:
    """Gaussian FWHM in Hz -> dephasing time in seconds."""
    return _fwhm_time_map(w_hz, "linewidth")


def t2star_to_linewidth(t2_s: float) -> float:
    """Dephasing time in seconds -> Gaussian FWHM in Hz."""
    return _fwhm_time_map(t2_s, "T2*")


class LinewidthPoint(NamedTuple):
    """Both model linewidths (MHz), the reported total, and the equivalent
    dephasing time (us) at one concentration; the fields are the columns of
    linewidth.csv."""

    n: float
    w_contact_mhz: float
    w_dipolar_mhz: float
    w_total_mhz: float
    t2star_us: float


_REGIMES = ("auto", "max", "contact", "dipolar")


def linewidth_curve(n_values, regime: str = "auto",
                    coeff_cm6: float = DIPOLAR_COEFF_CM6) -> list:
    """Evaluate both models on a concentration grid.

    regime picks the reported W_total: "auto" reports the dipolar value for
    n <= 0.011 and the contact value above (the two models describe separate
    regimes); "max", "contact", "dipolar" force a rule.
    """
    if regime not in _REGIMES:
        raise ValidationError(f"regime must be one of {_REGIMES}")
    out = []
    for n in np.asarray(n_values, dtype=float):
        wc = contact_linewidth(float(n))
        wd = dipolar_linewidth_closed_form(float(n), coeff_cm6) * 1e-6
        if regime == "contact":
            wt = wc
        elif regime == "dipolar":
            wt = wd
        elif regime == "max":
            wt = max(wc, wd)
        else:
            wt = wd if n <= REGIME_SPLIT_N else wc
        t2_us = linewidth_to_t2star(wt * 1e6) * 1e6 if wt > 0 else math.inf
        out.append(LinewidthPoint(n=float(n), w_contact_mhz=wc,
                                  w_dipolar_mhz=wd, w_total_mhz=wt,
                                  t2star_us=t2_us))
    return out
