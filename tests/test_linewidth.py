"""Contact and dipolar inhomogeneous-linewidth models."""

import math
import warnings

import numpy as np
import pytest

from nvbath.constants import DIPOLAR_PREFACTOR_CM3_HZ
from nvbath.errors import InsufficientSitesError, ValidationError
from nvbath.lattice import classify_shells, generate_lattice
from nvbath.linewidth import (
    DIPOLAR_COEFF_CM6,
    contact_linewidth,
    dipolar_linewidth_closed_form,
    dipolar_second_moment_sum,
    linewidth_curve,
    linewidth_to_t2star,
    t2star_to_linewidth,
)

FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))


def test_contact_formula_oracle():
    # default site set: nine 14 MHz couplings -> sigma(n=1) = 21 MHz
    assert abs(contact_linewidth(1.0) - FWHM * 21.0) <= 1e-9 * FWHM * 21.0
    n = 0.17
    expect = FWHM * math.sqrt(n * 9 * (14.0 / 2.0) ** 2)
    assert abs(contact_linewidth(n) - expect) <= 1e-12 * expect
    assert contact_linewidth(0.0) == 0.0


def test_contact_sqrt_scaling_exact():
    for n in (1e-4, 3e-3, 0.2):
        assert contact_linewidth(4.0 * n) == pytest.approx(
            2.0 * contact_linewidth(n), rel=1e-15)
    # W(k^2 n) = k W(n)
    k = 3.7
    for n in (1e-4, 3e-3, 0.05):
        assert contact_linewidth(k * k * n) == pytest.approx(
            k * contact_linewidth(n), rel=1e-12)


def test_dipolar_formula_oracle():
    n = 3e-4
    expect = DIPOLAR_PREFACTOR_CM3_HZ * math.sqrt(
        DIPOLAR_COEFF_CM6 * n)
    got = dipolar_linewidth_closed_form(n)
    assert abs(got - expect) <= 1e-12 * expect
    # regression anchor, Hz
    assert abs(got - 61578.0) <= 2.0
    assert dipolar_linewidth_closed_form(0.0) == 0.0


def test_loglog_slopes_are_half():
    ns = np.logspace(-4, 0, 41)
    for fn in (contact_linewidth,
               lambda n: dipolar_linewidth_closed_form(n)):
        w = np.array([fn(float(n)) for n in ns])
        slopes = np.diff(np.log(w)) / np.diff(np.log(ns))
        assert np.max(np.abs(slopes - 0.5)) <= 1e-6


def test_strict_monotonicity():
    ns = np.linspace(1e-5, 1.0, 200)
    for pts in (linewidth_curve(ns, regime="contact"),
                linewidth_curve(ns, regime="dipolar"),
                linewidth_curve(ns, regime="auto")):
        w = [p.w_total_mhz for p in pts]
        assert all(a < b for a, b in zip(w, w[1:]))


def test_regime_selection():
    pts = linewidth_curve([0.0005, 0.011, 0.05], regime="auto")
    assert pts[0].w_total_mhz == pts[0].w_dipolar_mhz
    assert pts[1].w_total_mhz == pts[1].w_dipolar_mhz  # boundary inclusive
    assert pts[2].w_total_mhz == pts[2].w_contact_mhz
    forced = linewidth_curve([0.0005], regime="max")[0]
    assert forced.w_total_mhz == max(forced.w_contact_mhz,
                                     forced.w_dipolar_mhz)
    with pytest.raises(ValidationError):
        linewidth_curve([0.01], regime="bogus")


def test_lattice_sum_reference_window_and_convergence():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c16 = dipolar_second_moment_sum(classify_shells(generate_lattice(16.0)))
        c32 = dipolar_second_moment_sum(classify_shells(generate_lattice(32.0)))
    assert DIPOLAR_COEFF_CM6 / 2.0 <= c16 <= DIPOLAR_COEFF_CM6 * 2.0
    assert abs(c32 - c16) / c16 < 0.01
    # shells 1-2 excluded by default; including them must raise the sum
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c_all = dipolar_second_moment_sum(
            classify_shells(generate_lattice(16.0)), exclude_shells=())
    assert c_all > c16


def test_lattice_sum_classifies_an_unclassified_lattice():
    # generate_lattice leaves every shell 0, so the sum classifies first
    # and gives the classified lattice's coefficient bitwise
    lat = generate_lattice(16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        classified = dipolar_second_moment_sum(classify_shells(lat))
        assert dipolar_second_moment_sum(lat) == classified


def test_lattice_sum_requires_enough_sites():
    sites = classify_shells(generate_lattice(10.0))
    with pytest.raises(InsufficientSitesError):
        dipolar_second_moment_sum(sites)


def test_t2star_conversions():
    w = t2star_to_linewidth(30e-6)
    assert 17.0e3 <= w <= 18.5e3
    assert abs(w - 17.7e3) <= 50.0
    # round trip to rounding
    for t2 in (1e-6, 30e-6, 2.2e-5, 1.0):
        assert abs(linewidth_to_t2star(t2star_to_linewidth(t2)) - t2) \
            <= 1e-12 * t2
    # W = 2 sqrt(ln 2) / pi Hz corresponds to T2* = 1 s
    assert abs(linewidth_to_t2star(2.0 * math.sqrt(math.log(2.0)) / math.pi)
               - 1.0) <= 1e-12
    with pytest.raises(ValidationError):
        linewidth_to_t2star(0.0)
    with pytest.raises(ValidationError):
        t2star_to_linewidth(-1.0)


def test_curve_t2star_consistency():
    pts = linewidth_curve([0.0003, 0.011, 0.3], regime="auto")
    for p in pts:
        expect_us = linewidth_to_t2star(p.w_total_mhz * 1e6) * 1e6
        assert abs(p.t2star_us - expect_us) <= 1e-12 * expect_us


@pytest.mark.parametrize("coeff", [-1.0, 0.0, math.nan, math.inf])
def test_dipolar_coefficient_must_be_positive_and_finite(coeff):
    with pytest.raises(ValidationError, match="positive and finite"):
        dipolar_linewidth_closed_form(0.011, coeff)
    with pytest.raises(ValidationError, match="positive and finite"):
        linewidth_curve([0.011, 0.1], coeff_cm6=coeff)


def test_concentration_bounds():
    for fn in (contact_linewidth, dipolar_linewidth_closed_form):
        with pytest.raises(ValidationError):
            fn(-0.1)
        with pytest.raises(ValidationError):
            fn(1.1)
