"""Rectangular-pulse design for the register's conditional gates.

A pulse at frequency nu flips one spin conditioned on another by driving a
resonant level pair while a near-resonant pair is silenced with the 2piK
condition Omega = |Delta| / sqrt(4K^2 - 1) (the unwanted transition then
completes full Rabi cycles). design_values applies that rule to any
labelled levels: design_gate builds its pulse from the exact levels of the
nominal chain, and the leading-order values come from the same rule on
that chain's zeroth-order levels. Every design reads a spectrum its caller
has solved; this module solves no chain. Displaced chains then see detuned
resonances, which is the error mechanism under study.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, GAMMA_N
from .spectrum import Spectrum, ValidityError, transition_frequency
from . import register as reg


def rabi_probability(omega: float, delta: float) -> float:
    """Transition probability of a pi-pulse with Rabi omega and detuning delta."""
    if omega <= 0:
        raise ValueError("Rabi frequency must be positive")
    lam = np.hypot(omega, delta)
    r = (omega / lam) ** 2 * np.sin(np.pi * lam / (2 * omega)) ** 2
    return float(min(max(r, 0.0), 1.0))


def two_pi_k_omega(delta: float, k: int) -> float:
    """Rabi frequency satisfying the 2piK condition for detuning delta.

    A K that is not an integer (one operator.index refuses, such as 1.5;
    NumPy integers are accepted), or whose 4K^2 - 1 is not a finite float
    (from about 6.7e153), is a ValueError naming K: a pulse at a fractional
    K leaves population sin^2(pi K) / (4 K^2) on the suppressed line.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"K = {k!r} is not an integer") from None
    if k < 1:
        raise ValueError("K must be a positive integer")
    if delta == 0:
        raise ValueError("2piK condition requires a nonzero detuning")
    try:
        root = np.sqrt(4.0 * k**2 - 1.0)
    except OverflowError:   # k**2 beyond the float range
        root = np.inf
    if root == np.inf:
        raise ValueError(f"K = {k} is too large for the 2piK condition: "
                         f"4K^2 - 1 is not a finite float")
    return abs(delta) / root


def pulse_duration(omega: float) -> float:
    """pi-pulse duration tau = pi / Omega."""
    if omega <= 0:
        raise ValueError("Rabi frequency must be positive")
    return np.pi / omega


def error_estimate(r: float, epsilon: float, mu: float) -> float:
    """Single-pulse error budget P = 1 - R + epsilon^2 + mu^2.

    mu = Omega / (2 |delta_omega|) is the amplitude ratio of an off-resonant
    line detuned by delta_omega from the pulse.
    """
    return 1.0 - r + epsilon**2 + mu**2


@dataclass(frozen=True)
class GateSpec:
    """A conditional spin flip: resonant pair driven, suppressed pair silenced.

    drive_spins lists the register spins coupled to the pulse field; species,
    read from the resonant pair, selects whether the 2piK condition
    constrains the electron or nuclear Rabi frequency.
    """

    name: str
    resonant: tuple[int, int]      # (p, q): q is p with the target spin flipped
    suppressed: tuple[int, int]
    drive_spins: tuple[str, ...]

    def __post_init__(self) -> None:
        for pair in (self.resonant, self.suppressed):
            if reg.flipped_bit(*pair) is None:
                raise ValueError(f"{pair} do not differ in exactly one spin")
        if reg.flipped_bit(*self.resonant) != reg.flipped_bit(*self.suppressed):
            raise ValueError("resonant and suppressed pairs flip different spins")
        if self.resonant == self.suppressed:
            raise ValueError("resonant and suppressed pairs coincide")

    @property
    def species(self) -> str:
        """The species, "e" or "n", of the spin the resonant pair flips."""
        return reg.flipped_bit(*self.resonant)[0]


# The four initialization gates and the electron-electron CNOT.
# Control convention: the target flips when the control bit is 1.
# Electron pulses drive the addressed electron; nuclear pulses drive both
# nuclei (their mutual off-resonant excitation is a leading error channel);
# the two-electron gate drives both electrons. Electron terms are omitted
# from nuclear pulses: through the hyperfine admixture (amplitude ~ xi) a
# shared-field electron term would drive the nuclear pair with strength
# xi*gamma_e/gamma_n ~ 1.03 times the nominal nuclear Rabi frequency,
# doubling every designed rotation angle.
GATES = {
    "a": GateSpec("CN_n1e1", resonant=(13, 15), suppressed=(12, 14), drive_spins=("e1",)),
    "b": GateSpec("CN_e1n1", resonant=(14, 15), suppressed=(12, 13), drive_spins=("n1", "n2")),
    "c": GateSpec("CN_n2e2", resonant=(11, 15), suppressed=(3, 7), drive_spins=("e2",)),
    "d": GateSpec("CN_e2n2", resonant=(7, 15), suppressed=(3, 11), drive_spins=("n1", "n2")),
    "ee": GateSpec("CN_e2e1", resonant=(13, 15), suppressed=(9, 11), drive_spins=("e1", "e2")),
}

DEFAULT_K_ELECTRON = 1
DEFAULT_K_NUCLEAR = 2000


@dataclass(frozen=True)
class PulseSpec:
    """One rectangular pulse: frequency, phase, field amplitude, duration.

    omega_e and omega_n are the electron and nuclear Rabi frequencies of the
    shared rotating field (omega_n / omega_e = gamma_n / gamma_e always);
    drive_spins selects which register spins the pulse couples to.
    """

    nu: float
    phi: float
    b1_amplitude: float
    tau: float
    drive_spins: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.tau <= 0 or self.b1_amplitude < 0:
            raise ValueError("pulse duration must be positive, amplitude nonnegative")

    @property
    def omega_e(self) -> float:
        return GAMMA_E * self.b1_amplitude

    @property
    def omega_n(self) -> float:
        return GAMMA_N * self.b1_amplitude


# design_gate refuses a pulse whose largest phase (tau times the largest level
# or drive frequency) carries a float64 rounding error above this many rad.
PHASE_ROUNDING_TOL = 1e-5


def _phase_rounding(levels: np.ndarray, values: dict) -> float:
    """Rounding error, in rad, of the largest phase of the pulse design_values gave on `levels`."""
    return values["tau"] * max(np.abs(levels).max(), abs(values["nu"])) * np.finfo(float).eps


def design_values(levels: np.ndarray, gate: GateSpec, k: int) -> dict:
    """The 2piK rule of `gate` at K = k on labelled levels: nu, delta, omega and tau.

    nu is the resonant transition E_q - E_p and delta the suppressed pair's
    detuning (E_q' - E_p') - nu. On a chain's exact levels this is
    design_gate's pulse; on its zeroth-order levels, the closed-form
    leading-order design, which lacks the second-order hyperfine shifts.
    """
    (p, q), (pp, qp) = gate.resonant, gate.suppressed
    nu = levels[q] - levels[p]
    delta = (levels[qp] - levels[pp]) - nu
    omega = two_pi_k_omega(delta, k)
    return {"nu": nu, "delta": delta, "omega": omega, "tau": pulse_duration(omega)}


def design_gate(spec_ideal: Spectrum, gate: GateSpec, k: int) -> PulseSpec:
    """Pulse implementing `gate` at the 2piK condition K = k on the chain of spec_ideal.

    A K whose largest phase carries a rounding error above PHASE_ROUNDING_TOL
    (the propagator cannot resolve it) is a ValueError naming the gate and K.
    """
    levels = spec_ideal.exact_energies
    values = design_values(levels, gate, k)
    rounding = _phase_rounding(levels, values)
    if rounding > PHASE_ROUNDING_TOL:
        raise ValueError(f"gate {gate.name} at K = {k}: the pulse's largest phase carries a "
                         f"rounding error of {rounding:.2g} rad, above {PHASE_ROUNDING_TOL:g} "
                         "rad; the propagator cannot resolve it")
    gamma = GAMMA_E if gate.species == "e" else GAMMA_N
    return PulseSpec(nu=values["nu"], phi=0.0, b1_amplitude=values["omega"] / gamma,
                     tau=values["tau"], drive_spins=gate.drive_spins)


def _detuning_from(spec_nominal: Spectrum, spec: Spectrum, gate: GateSpec) -> float:
    """Shift of the resonant transition of `gate` from spec_nominal to spec, both solved."""
    p, q = gate.resonant
    return transition_frequency(spec, p, q) - transition_frequency(spec_nominal, p, q)


def kn_window(spec_ideal: Spectrum, detuning: float) -> tuple[int, int]:
    """Usable K range for the nuclear gate on atom 1.

    The lower edge is where the off-resonant flip of the other nucleus,
    detuned by delta_omega = 2*gamma_n*deltaB, reaches the amplitude ratio
    mu = Omega / (2 |delta_omega|) = 1; the upper edge is where the Rabi
    frequency drops to `detuning`, the shift of gate b's resonance on a
    displaced chain from spec_ideal's (_detuning_from of the two solved
    spectra, or protocols.displacement_detuning), or the largest K
    design_gate accepts for gate b on spec_ideal, if smaller.
    """
    if detuning == 0:
        raise ValidityError("upper K edge undefined at zero displacement")
    levels, gate = spec_ideal.exact_energies, GATES["b"]
    values = design_values(levels, gate, 1)   # delta is the same at any K

    def k_at_omega(omega_limit: float) -> int:
        return round(0.5 * np.sqrt((values["delta"] / omega_limit) ** 2 + 1.0))

    def resolved(k: int) -> bool:   # design_gate's rule
        return _phase_rounding(levels, design_values(levels, gate, k)) <= PHASE_ROUNDING_TOL

    # the rounding grows as 1 / omega: start where it reaches the tolerance
    k_max = k_at_omega(values["omega"] * _phase_rounding(levels, values) / PHASE_ROUNDING_TOL)
    while not resolved(k_max):
        k_max -= 1
    while resolved(k_max + 1):
        k_max += 1
    delta_omega = 2.0 * GAMMA_N * spec_ideal.params.delta_b
    return k_at_omega(2.0 * abs(delta_omega)), min(k_at_omega(abs(detuning)), k_max)
