"""Derived physical coefficients against their CODATA 2018 expressions."""

import math

from nvbath import constants


def test_derived_constants_equal_codata_expressions():
    h = 6.62607015e-34          # J s
    mu_b = 9.2740100783e-24     # J/T
    mu_n = 5.0507837461e-27     # J/T
    mu0 = 1.25663706212e-6      # N/A^2
    g_e, g_n = 2.0028, 1.40483
    dip = mu0 / (4 * math.pi)
    assert constants.ELECTRON_MHZ_PER_GAUSS == g_e * mu_b / h * 1e-10
    assert constants.NUCLEAR_MHZ_PER_GAUSS == g_n * mu_n / h * 1e-10
    assert constants.EN_DIPOLAR_KHZ_A3 == \
        dip * (g_e * mu_b) * (g_n * mu_n) / h * 1e27
    assert constants.NN_DIPOLAR_KHZ_A3 == dip * (g_n * mu_n) ** 2 / h * 1e27
    assert constants.DIPOLAR_PREFACTOR_CM3_HZ == \
        dip * (g_e * mu_b) * (g_n * mu_n) / h * 1e6
