"""Physical constants and unit conversions used across the package.

Internal unit system: energies/frequencies in MHz, magnetic fields in Gauss,
lengths in Angstrom, times in microseconds unless a function says otherwise.
"""

import math

# SI values (CODATA 2018); h is exact by definition.
PLANCK_H = 6.62607015e-34        # J s
BOHR_MAGNETON = 9.2740100783e-24  # J/T
NUCLEAR_MAGNETON = 5.0507837461e-27  # J/T
MU0 = 1.25663706212e-6           # N/A^2

G_ELECTRON_NV = 2.0028           # NV electron g-factor
G_NUCLEAR_C13 = 1.40483          # 13C nuclear g-factor

ZFS_D_MHZ = 2870.0               # NV ground-state zero-field splitting
LATTICE_A_ANGSTROM = 3.567       # diamond cubic lattice constant

# First-shell 13C hyperfine principal values and principal-axis polar angle.
FIRST_SHELL_A_PAR_MHZ = 205.0
FIRST_SHELL_A_PERP_MHZ = 123.0
FIRST_SHELL_POLAR_DEG = 106.0

# Strongly coupled third-shell class: isotropic coupling, 9 equivalent sites.
THIRD_SHELL_A_MHZ = 14.0
THIRD_SHELL_MULTIPLICITY = 9


# Derived coefficients: Zeeman g mu / h (MHz/G); point-dipole scales (mu0/4pi)
# g_e mu_B g_n mu_N / h and (mu0/4pi) (g_n mu_N)^2 / h (kHz A^3, divide by r^3
# in A^3), the first also in cm^3 Hz as the dipolar linewidth prefactor.
ELECTRON_MHZ_PER_GAUSS = G_ELECTRON_NV * BOHR_MAGNETON / PLANCK_H * 1e-10
NUCLEAR_MHZ_PER_GAUSS = G_NUCLEAR_C13 * NUCLEAR_MAGNETON / PLANCK_H * 1e-10
EN_DIPOLAR_KHZ_A3 = (MU0 / (4 * math.pi)) * (G_ELECTRON_NV * BOHR_MAGNETON) \
    * (G_NUCLEAR_C13 * NUCLEAR_MAGNETON) / PLANCK_H * 1e27
NN_DIPOLAR_KHZ_A3 = (MU0 / (4 * math.pi)) \
    * (G_NUCLEAR_C13 * NUCLEAR_MAGNETON) ** 2 / PLANCK_H * 1e27
DIPOLAR_PREFACTOR_CM3_HZ = (MU0 / (4 * math.pi)) \
    * (G_ELECTRON_NV * BOHR_MAGNETON) * (G_NUCLEAR_C13 * NUCLEAR_MAGNETON) \
    / PLANCK_H * 1e6
