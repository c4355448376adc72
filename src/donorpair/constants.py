"""Physical constants for the two-donor spin register.

All frequencies are stored as angular frequencies (rad/s). Interfaces that
print or report values divide by 2*pi, since measured quantities are always
quoted as cycles per second.

DEFAULT_CONSTANTS is the one record of the register's constants: every
layer reads its fields directly, and no function takes them as an argument.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# SI 2019 defines e and h exactly; epsilon_0 is the CODATA 2022 value.
_ELEMENTARY_CHARGE = 1.602176634e-19   # C
_PLANCK = 6.62607015e-34               # J*s
_EPSILON_0 = 8.8541878188e-12          # F/m

# Effective Bohr radius of the donor electron in silicon:
# a_B = kappa * (M / M*) * a_B0, with M*/M = 0.19 and a_B0 the hydrogen value.
_KAPPA = 11.9
_MASS_RATIO = 0.19
_BOHR_RADIUS_H = 0.5292e-10  # m


def _effective_bohr_radius(kappa: float = _KAPPA, mass_ratio: float = _MASS_RATIO) -> float:
    return kappa * _BOHR_RADIUS_H / mass_ratio


@dataclass(frozen=True)
class PhysicalConstants:
    """Material and spin constants of the phosphorus-in-silicon register.

    gamma_e, gamma_n, hyperfine_a are angular frequencies (rad/s per tesla,
    rad/s); lengths are in metres.
    """

    gamma_e: float = TWO_PI * 28.025e9        # electron gyromagnetic ratio / T
    gamma_n: float = TWO_PI * 17.25144e6      # nuclear gyromagnetic ratio (magnitude) / T
    hyperfine_a: float = TWO_PI * 117.53e6    # contact hyperfine constant
    lattice_step_a0: float = 7.68e-10         # donor placement step along the chain
    bohr_radius_ab: float = field(default_factory=_effective_bohr_radius)
    kappa: float = _KAPPA
    coulomb_prefactor: float = _ELEMENTARY_CHARGE**2 / (4 * np.pi * _EPSILON_0)  # J*m

    def __post_init__(self) -> None:
        for name in ("gamma_e", "gamma_n", "hyperfine_a", "lattice_step_a0",
                     "bohr_radius_ab", "kappa", "coulomb_prefactor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        # the effective-mass formula must reproduce the accepted 33.14 A value
        if abs(self.bohr_radius_ab - 33.14e-10) > 0.001 * 33.14e-10:
            raise ValueError("effective Bohr radius inconsistent with 33.14 A")


DEFAULT_CONSTANTS = PhysicalConstants()

HBAR = _PLANCK / TWO_PI
