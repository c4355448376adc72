"""Device geometry and effective Hamiltonian parameters.

Conventions: atom 1 sits at x = 0, atom 2 at x = N0*a0, and the permanent
field grows with x. Displacements m1, m2 are counted in lattice steps along
+x, so m1 = -1 widens the chain (separation N0 + 1 sites) and lowers the
field at atom 1.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .constants import GAMMA_E, HYPERFINE_A, LATTICE_STEP_A0, TWO_PI
from .exchange import j_for_sites

# Nominal fields are pinned by the mean field b and the half-difference
# deltaB chosen so that gamma_e*deltaB/2pi = 65.76 MHz; the gradient then
# fixes the per-site field step for displaced atoms.
NOMINAL_MEAN_FIELD_T = 3.3
NOMINAL_GAMMA_E_DELTA_B = TWO_PI * 65.76e6

MAX_DISPLACEMENT = 4
DISPLACEMENTS = range(-MAX_DISPLACEMENT, MAX_DISPLACEMENT + 1)   # every m a chain may have


def _require_integer(name: str, value: int) -> int:
    """`value` as an int, or a ValueError naming `name` if it is not an integer.

    An integer is what operator.index accepts: NumPy integers are, 1.5 is not.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} = {value!r} is not an integer") from None


@dataclass(frozen=True)
class DeviceGeometry:
    """Chain layout: nominal separation, field gradient, and displacements.

    n0, m1 and m2 count lattice sites, so each must be an integer.
    """

    n0: int = 47
    gradient: float = 1.3e5          # T/m
    mean_field_b: float = NOMINAL_MEAN_FIELD_T
    m1: int = 0
    m2: int = 0

    def __post_init__(self) -> None:
        for name in ("n0", "m1", "m2"):
            _require_integer(name, getattr(self, name))
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
    a and j are angular frequencies. A stacked spectrum holds (n,) arrays
    of them, one entry per chain.
    """

    b1: float
    b2: float
    a: float
    j: float

    @property
    def b(self) -> float:
        return 0.5 * (self.b1 + self.b2)

    @property
    def delta_b(self) -> float:
        return 0.5 * (self.b2 - self.b1)


def field_step(geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> float:
    """Per-site field increment dB = gradient * a0 (tesla)."""
    return geometry.gradient * LATTICE_STEP_A0


def effective_params(geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> EffectiveParams:
    """Local fields, hyperfine and exchange constants for the chain.

    The nominal half-difference deltaB is calibrated to the quoted
    gamma_e*deltaB at the default layout and scales with gradient*N0 for
    other layouts (deltaB is the gradient times half the chain length).
    The model covers only chains whose local fields B1 and B2 are both
    positive and distinct and whose Zeeman terms gamma_e*B1, gamma_e*B2 are
    finite; any other chain is a ValueError naming the field, checked in this
    order: no positive mean (a gradient so large that B1 + B2 cancels), a
    field not positive (B1 < 0 from a gradient of about 1.9e8 T/m), a field
    too large, fields that round to one value (a mean field above about
    3.5e13 T, where the atoms cannot be told apart), and a difference
    B2 - B1 that rounding decides: one whose rounding error bound
    ulp(B1) + ulp(B2) exceeds 1e-6 of it (from a mean field of 2**24 T,
    about 1.7e7 T, at the default gradient). Before these, an n0 too large
    for a float (from about 1.8e308) is a ValueError naming N0.
    """
    try:
        length = geometry.gradient * geometry.n0
    except OverflowError:   # n0 beyond the float range
        raise ValueError(f"the nominal separation N0 = {geometry.n0} is too large "
                         f"for a float") from None
    delta_b0 = (NOMINAL_GAMMA_E_DELTA_B / GAMMA_E * length
                / (DEFAULT_GEOMETRY.gradient * DEFAULT_GEOMETRY.n0))
    db = field_step(geometry)
    b1 = geometry.mean_field_b - delta_b0 + geometry.m1 * db
    b2 = geometry.mean_field_b + delta_b0 + geometry.m2 * db
    if b1 + b2 <= 0:
        raise ValueError(f"the local fields B1 = {b1!r} T and B2 = {b2!r} T of {geometry} "
                         f"have no positive mean")
    for name, field in (("B1", b1), ("B2", b2)):
        if field <= 0:
            raise ValueError(f"the local field {name} = {field!r} T of {geometry} "
                             f"is not positive")
        if not math.isfinite(GAMMA_E * field):
            raise ValueError(f"the local field {name} = {field!r} T of {geometry} "
                             f"is too large: its Zeeman term gamma_e*{name} is not finite")
    if b1 == b2:
        raise ValueError(f"the local field B1 = {b1!r} T of {geometry} equals "
                         f"B2 = {b2!r} T: the two atoms cannot be told apart")
    if (rounding := math.ulp(b1) + math.ulp(b2)) > 1e-6 * (b2 - b1):
        raise ValueError(f"the local fields B1 = {b1!r} T and B2 = {b2!r} T of {geometry} "
                         f"differ by less than 1e6 times their rounding error "
                         f"ulp(B1) + ulp(B2) = {rounding!r} T: at the mean field "
                         f"{geometry.mean_field_b!r} T rounding decides B2 - B1")
    return EffectiveParams(b1=b1, b2=b2, a=HYPERFINE_A,
                           j=j_for_sites(geometry.separation_sites))
