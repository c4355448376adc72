"""Device geometry and effective Hamiltonian parameters.

Conventions: atom 1 sits at x = 0, atom 2 at x = N0*a0, and the permanent
field grows with x. Displacements m1, m2 are counted in lattice steps along
+x, so m1 = -1 widens the chain (separation N0 + 1 sites) and lowers the
field at atom 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, TWO_PI
from .exchange import j_for_sites

# Nominal fields are pinned by the mean field b and the half-difference
# deltaB chosen so that gamma_e*deltaB/2pi = 65.76 MHz; the gradient then
# fixes the per-site field step for displaced atoms.
NOMINAL_MEAN_FIELD_T = 3.3
NOMINAL_GAMMA_E_DELTA_B = TWO_PI * 65.76e6

MAX_DISPLACEMENT = 4


@dataclass(frozen=True)
class DeviceGeometry:
    """Chain layout: nominal separation, field gradient, and displacements."""

    n0: int = 47
    gradient: float = 1.3e5          # T/m
    mean_field_b: float = NOMINAL_MEAN_FIELD_T
    m1: int = 0
    m2: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gradient) and math.isfinite(self.mean_field_b)):
            raise ValueError("gradient and mean field must be finite")
        if self.n0 < 1 or self.gradient <= 0 or self.mean_field_b <= 0:
            raise ValueError("n0, gradient and mean field must be positive")
        if abs(self.m1) > MAX_DISPLACEMENT or abs(self.m2) > MAX_DISPLACEMENT:
            raise ValueError(f"|m1|, |m2| must be <= {MAX_DISPLACEMENT}")
        if self.separation_sites < 1:
            raise ValueError("displaced atoms coincide or cross")

    @property
    def separation_sites(self) -> int:
        return self.n0 - self.m1 + self.m2

    def displaced(self, m1: int = 0, m2: int = 0) -> "DeviceGeometry":
        return DeviceGeometry(self.n0, self.gradient, self.mean_field_b, m1, m2)


DEFAULT_GEOMETRY = DeviceGeometry()


@dataclass(frozen=True)
class EffectiveParams:
    """Static Hamiltonian parameters of a (possibly displaced) chain.

    b and delta_b are the mean and half-difference of the local fields;
    a and j are angular frequencies.
    """

    b1: float
    b2: float
    a: float
    j: float
    separation_sites: int
    gamma_e: float
    gamma_n: float

    @property
    def b(self) -> float:
        return 0.5 * (self.b1 + self.b2)

    @property
    def delta_b(self) -> float:
        return 0.5 * (self.b2 - self.b1)


def field_step(geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> float:
    """Per-site field increment dB = gradient * a0 (tesla)."""
    return geometry.gradient * DEFAULT_CONSTANTS.lattice_step_a0


def effective_params(geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> EffectiveParams:
    """Local fields, hyperfine and exchange constants for the chain.

    The nominal half-difference deltaB is calibrated to the quoted
    gamma_e*deltaB at the default layout and scales with gradient*N0 for
    other layouts (deltaB is the gradient times half the chain length).
    """
    delta_b0 = (NOMINAL_GAMMA_E_DELTA_B / DEFAULT_CONSTANTS.gamma_e
                * (geometry.gradient * geometry.n0)
                / (DEFAULT_GEOMETRY.gradient * DEFAULT_GEOMETRY.n0))
    db = field_step(geometry)
    b1 = geometry.mean_field_b - delta_b0 + geometry.m1 * db
    b2 = geometry.mean_field_b + delta_b0 + geometry.m2 * db
    n = geometry.separation_sites
    return EffectiveParams(
        b1=b1,
        b2=b2,
        a=DEFAULT_CONSTANTS.hyperfine_a,
        j=j_for_sites(n),
        separation_sites=n,
        gamma_e=DEFAULT_CONSTANTS.gamma_e,
        gamma_n=DEFAULT_CONSTANTS.gamma_n,
    )
