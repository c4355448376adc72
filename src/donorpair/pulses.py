"""Rectangular-pulse design for the register's conditional gates.

A pulse at frequency nu flips one spin conditioned on another by driving a
resonant level pair while a near-resonant pair is silenced with the 2piK
condition Omega = |Delta| / sqrt(4K^2 - 1) (the unwanted transition then
completes full Rabi cycles). Pulse parameters are computed from the exact
labelled spectrum of the nominal chain; displaced chains then see detuned
resonances, which is the error mechanism under study.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, GAMMA_N
from .exchange import delta_j, j_for_sites
from .geometry import DEFAULT_GEOMETRY, DeviceGeometry
from .spectrum import Spectrum, ValidityError, compute_spectrum, transition_frequency, zeroth_energies
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

    A K whose 4K^2 - 1 is not a finite float (from about 6.7e153) is a
    ValueError naming K.
    """
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


def nonresonant_mu(omega: float, delta_omega: float) -> float:
    """Amplitude error ratio mu = Omega / (2 |delta_omega|) of an off-resonant line."""
    if delta_omega == 0:
        raise ValidityError("mu pole: off-resonant line coincides with the pulse")
    return omega / (2.0 * abs(delta_omega))


def error_estimate(r: float, epsilon: float, mu: float) -> float:
    """Single-pulse error budget P = 1 - R + epsilon^2 + mu^2."""
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


def _suppressed_detuning(gate: GateSpec, energies: np.ndarray) -> float:
    """Detuning (E_q' - E_p') - (E_q - E_p) of the suppressed pair from the resonant one.

    `energies` are labelled level energies; the 2piK condition sets the
    Rabi frequency from this detuning.
    """
    p, q = gate.resonant
    pp, qp = gate.suppressed
    return (energies[qp] - energies[pp]) - (energies[q] - energies[p])


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


def design_gate(spec_ideal: Spectrum, gate: GateSpec, k: int) -> PulseSpec:
    """Pulse implementing `gate` at the 2piK condition K = k on the chain of spec_ideal."""
    omega = two_pi_k_omega(_suppressed_detuning(gate, spec_ideal.exact_energies), k)
    gamma = GAMMA_E if gate.species == "e" else GAMMA_N
    return PulseSpec(
        nu=transition_frequency(spec_ideal, *gate.resonant),
        phi=0.0,
        b1_amplitude=omega / gamma,
        tau=pulse_duration(omega),
        drive_spins=gate.drive_spins,
    )


def leading_order_design(gate: GateSpec, k: int,
                         geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> dict:
    """Analytic pulse parameters from the leading-order level formulas.

    These are the closed-form design values (block-diagonalized electron
    sector, no second-order hyperfine shifts); the exact design can differ
    at the tens-of-kHz level where a driven level carries a second-order
    correction, most visibly for the nuclear gate frequency.
    """
    from .geometry import effective_params

    e0 = zeroth_energies(effective_params(geometry))
    p, q = gate.resonant
    delta = _suppressed_detuning(gate, e0)
    omega = two_pi_k_omega(delta, k)
    return {"nu": e0[q] - e0[p], "delta": delta, "omega": omega, "tau": pulse_duration(omega)}


def displacement_detuning(gate: GateSpec, geometry: DeviceGeometry) -> float:
    """Detuning of the resonant pair in a displaced chain from the nominal pulse.

    Computed from exact spectra of the nominal and displaced chains; zero by
    construction at zero displacement.
    """
    return _detuning_from(compute_spectrum(geometry.displaced(0, 0)), gate, geometry)


def _detuning_from(spec_nominal: Spectrum, gate: GateSpec, geometry: DeviceGeometry) -> float:
    """displacement_detuning, given the spectrum of the nominal chain of `geometry`."""
    actual = compute_spectrum(geometry)
    p, q = gate.resonant
    return transition_frequency(actual, p, q) - transition_frequency(spec_nominal, p, q)


def kn_window(spec_ideal: Spectrum, detuning: float) -> tuple[int, int]:
    """Usable K range for the nuclear gate on atom 1.

    The lower edge is where the off-resonant flip of the other nucleus
    (detuned by 2*gamma_n*deltaB) reaches amplitude ratio mu = 1; the upper
    edge is where the Rabi frequency drops to `detuning`, the
    displacement_detuning of GATES["b"] on a displaced chain.
    """
    delta2 = _suppressed_detuning(GATES["b"], spec_ideal.exact_energies)

    def k_at_omega(omega_limit: float) -> int:
        return round(0.5 * np.sqrt((delta2 / omega_limit) ** 2 + 1.0))

    delta_omega = 2.0 * GAMMA_N * spec_ideal.params.delta_b
    k_min = k_at_omega(2.0 * abs(delta_omega))
    if detuning == 0:
        raise ValidityError("upper K edge undefined at zero displacement")
    k_max = k_at_omega(abs(detuning))
    return k_min, k_max


def interior_qubit_estimate(m: int, n0: int = 47) -> tuple[float, float, float]:
    """(detuning, Rabi, Rabi error) for a displaced interior qubit, K' = 1.

    For a chain segment with both neighbours at the nominal coupling, a
    one-site displacement of the middle qubit shifts its two couplings to
    J(n0 -+ 1); the transition frequency moves by their mean minus J0 while
    the applied Rabi frequency J0/sqrt(3) misses the 2piK condition by
    delta_J/sqrt(3).
    """
    if abs(m) != 1:
        raise ValueError("interior estimate covers |m| = 1 only")
    j0 = j_for_sites(n0)
    detuning = 0.5 * (j_for_sites(n0 - 1) + j_for_sites(n0 + 1)) - j0
    omega = j0 / np.sqrt(3.0)
    d_omega = delta_j(m, n0) / np.sqrt(3.0)
    return detuning, omega, d_omega
