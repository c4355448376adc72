"""Exchange coupling between the two donor electrons.

The Herring-Flicker large-separation asymptotics gives the exchange splitting
of two hydrogen-like centres; with the effective Bohr radius and dielectric
constant of silicon it is accurate enough to map donor separation to J.

The layer is pure Python: J is one `math.exp` per separation and comes back
as a Python float, so `donorpair jtable`, which reads only this module and
`constants`, runs without numpy.
"""
from __future__ import annotations

import math
import sys

from .constants import BOHR_RADIUS_AB, COULOMB_PREFACTOR, HBAR, KAPPA, LATTICE_STEP_A0, TWO_PI


def herring_flicker(a: float) -> float:
    """Exchange constant J (angular frequency) at electron separation a (m).

    The formula's domain ends where its factor exp(-2a/a_B) stops being a
    normal float (from 1529 lattice steps); beyond it J loses precision and
    then underflows to 0.0, so such an `a` is a ValueError.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"separation must be positive and finite, got {a!r} m")
    try:
        power = (a / BOHR_RADIUS_AB) ** 2.5
    except OverflowError:
        raise ValueError(f"separation {a:g} m is too large for the exchange formula") from None
    decay = math.exp(-2.0 * a / BOHR_RADIUS_AB)
    if decay < sys.float_info.min:
        raise ValueError(f"separation {a:g} m is too large for the exchange formula: "
                         f"its factor exp(-2a/a_B) = {decay!r} is not a normal float")
    energy = 1.642 * COULOMB_PREFACTOR / (KAPPA * BOHR_RADIUS_AB) * power * decay
    return energy / HBAR


def j_for_sites(n: int) -> float:
    """J at a separation of n lattice steps (n-1 interstitial sites)."""
    if n < 1:
        raise ValueError("site separation must be >= 1")
    try:
        a = n * LATTICE_STEP_A0
    except OverflowError:   # n beyond the float range
        raise ValueError(f"site separation {n} is too large for the exchange formula") from None
    return herring_flicker(a)


def exchange_table(n_min: int, n_max: int):
    """Rows (N, a in nm, J/2pi in MHz) for N in [n_min, n_max]."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min} and {n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        j = j_for_sites(n)   # first: it rejects an n too large for a float
        rows.append((n, n * LATTICE_STEP_A0 * 1e9, j / TWO_PI / 1e6))
    return rows
