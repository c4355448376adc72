"""Exchange coupling between the two donor electrons.

The Herring-Flicker large-separation asymptotics gives the exchange splitting
of two hydrogen-like centres; with the effective Bohr radius and dielectric
constant of silicon it is accurate enough to map donor separation to J.
"""
from __future__ import annotations

import numpy as np

from .constants import DEFAULT_CONSTANTS, HBAR

# Printed regression coefficients of the quartic fit to dJ/J0 versus the
# displacement step m at nominal 47-site separation (diagnostic only; the
# exact quotient below is authoritative).
SERIES_COEFFS = (0.4103, 0.1082, 0.0166, 0.0019)


def herring_flicker(a: float) -> float:
    """Exchange constant J (angular frequency) at electron separation a (m)."""
    if a <= 0:
        raise ValueError("separation must be positive")
    ab = DEFAULT_CONSTANTS.bohr_radius_ab
    energy = (1.642 * DEFAULT_CONSTANTS.coulomb_prefactor / (DEFAULT_CONSTANTS.kappa * ab)
              * (a / ab) ** 2.5 * np.exp(-2.0 * a / ab))
    return energy / HBAR


def j_for_sites(n: int) -> float:
    """J at a separation of n lattice steps (n-1 interstitial sites)."""
    if n < 1:
        raise ValueError("site separation must be >= 1")
    return herring_flicker(n * DEFAULT_CONSTANTS.lattice_step_a0)


def delta_j(m: int, n0: int = 47) -> float:
    """Change of J when the separation shrinks by m sites (N = n0 - m).

    Exact quotient of the exchange formula, not the series expansion.
    """
    if n0 - m < 1:
        raise ValueError("displacement closes the gap between donors")
    return j_for_sites(n0 - m) - j_for_sites(n0)


def delta_j_series(m: int) -> float:
    """Quartic-fit value of dJ/J0 for |m| <= 4 (cross-check diagnostic)."""
    if abs(m) > 4:
        raise ValueError("series fit only covers |m| <= 4")
    c1, c2, c3, c4 = SERIES_COEFFS
    return c1 * m + c2 * m**2 + c3 * m**3 + c4 * m**4


def exchange_table(n_min: int, n_max: int):
    """Rows (N, a in nm, J/2pi in MHz) for N in [n_min, n_max]."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min} and {n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        a = n * DEFAULT_CONSTANTS.lattice_step_a0
        rows.append((n, a * 1e9, j_for_sites(n) / (2 * np.pi) / 1e6))
    return rows
