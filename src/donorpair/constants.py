"""Physical constants for the two-donor spin register.

All frequencies are stored as angular frequencies (rad/s). Interfaces that
print or report values divide by 2*pi, since measured quantities are always
quoted as cycles per second.

The constants are fixed module values: every layer imports the ones it
reads, and no function takes them as an argument. They are computed with
`math` alone, so this module loads no numpy.
"""
from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# SI 2019 defines e and h exactly; epsilon_0 is the CODATA 2022 value.
_ELEMENTARY_CHARGE = 1.602176634e-19   # C
_PLANCK = 6.62607015e-34               # J*s
_EPSILON_0 = 8.8541878188e-12          # F/m

GAMMA_E = TWO_PI * 28.025e9        # electron gyromagnetic ratio / T
GAMMA_N = TWO_PI * 17.25144e6      # nuclear gyromagnetic ratio (magnitude) / T
HYPERFINE_A = TWO_PI * 117.53e6    # contact hyperfine constant
LATTICE_STEP_A0 = 7.68e-10         # donor placement step along the chain (m)

# Effective Bohr radius of the donor electron in silicon:
# a_B = kappa * (M / M*) * a_B0, with M*/M = 0.19 and a_B0 the hydrogen value.
KAPPA = 11.9                 # dielectric constant of silicon
_MASS_RATIO = 0.19
_BOHR_RADIUS_H = 0.5292e-10  # m
BOHR_RADIUS_AB = KAPPA * _BOHR_RADIUS_H / _MASS_RATIO   # 33.14 A

COULOMB_PREFACTOR = _ELEMENTARY_CHARGE**2 / (4 * math.pi * _EPSILON_0)  # J*m

HBAR = _PLANCK / TWO_PI
