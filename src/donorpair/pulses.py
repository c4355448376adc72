"""Rectangular-pulse design for the register's conditional gates.

A pulse at frequency nu flips one spin conditioned on another by driving a
resonant level pair while a near-resonant pair is silenced with the 2piK
condition Omega = |Delta| / sqrt(4K^2 - 1) (the unwanted transition then
completes full Rabi cycles). Pulse parameters are computed from the exact
labelled spectrum of the nominal chain; displaced chains then see detuned
resonances, which is the error mechanism under study.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
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
    """Rabi frequency satisfying the 2piK condition for detuning delta."""
    if k < 1:
        raise ValueError("K must be a positive integer")
    if delta == 0:
        raise ValueError("2piK condition requires a nonzero detuning")
    return abs(delta) / np.sqrt(4.0 * k**2 - 1.0)


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

    drive_spins lists the register spins coupled to the pulse field; species
    selects whether the 2piK condition constrains the electron or nuclear
    Rabi frequency.
    """

    name: str
    resonant: tuple[int, int]      # (p, q): q is p with the target spin flipped
    suppressed: tuple[int, int]
    species: str                   # "e" | "n"
    drive_spins: tuple[str, ...]
    k: int = 1

    def __post_init__(self) -> None:
        for pair in (self.resonant, self.suppressed):
            if reg.flipped_bit(*pair) is None:
                raise ValueError(f"{pair} do not differ in exactly one spin")
        if reg.flipped_bit(*self.resonant) != reg.flipped_bit(*self.suppressed):
            raise ValueError("resonant and suppressed pairs flip different spins")
        if self.resonant == self.suppressed:
            raise ValueError("resonant and suppressed pairs coincide")
        if self.species not in ("e", "n"):
            raise ValueError("species must be 'e' or 'n'")

    def with_k(self, k: int) -> "GateSpec":
        """This gate with K = k: the gate itself if k is its K, else a cached copy."""
        return self if k == self.k else _gate_with_k(self, k)


@lru_cache(maxsize=64)
def _gate_with_k(gate: GateSpec, k: int) -> GateSpec:
    return replace(gate, k=k)


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
    "a": GateSpec("CN_n1e1", resonant=(13, 15), suppressed=(12, 14),
                  species="e", drive_spins=("e1",)),
    "b": GateSpec("CN_e1n1", resonant=(14, 15), suppressed=(12, 13),
                  species="n", drive_spins=("n1", "n2")),
    "c": GateSpec("CN_n2e2", resonant=(11, 15), suppressed=(3, 7),
                  species="e", drive_spins=("e2",)),
    "d": GateSpec("CN_e2n2", resonant=(7, 15), suppressed=(3, 11),
                  species="n", drive_spins=("n1", "n2")),
    "ee": GateSpec("CN_e2e1", resonant=(13, 15), suppressed=(9, 11),
                   species="e", drive_spins=("e1", "e2")),
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
    omega_e: float
    omega_n: float
    tau: float
    drive_spins: tuple[str, ...]
    gate_name: str = ""

    def __post_init__(self) -> None:
        if self.tau <= 0 or self.b1_amplitude < 0:
            raise ValueError("pulse duration must be positive, amplitude nonnegative")


def design_gate(spec_ideal: Spectrum, gate: GateSpec,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> PulseSpec:
    """Pulse implementing `gate` on the chain described by spec_ideal."""
    p, q = gate.resonant
    nu = transition_frequency(spec_ideal, p, q)
    pp, qp = gate.suppressed
    delta = transition_frequency(spec_ideal, pp, qp) - nu
    omega = two_pi_k_omega(delta, gate.k)
    gamma = constants.gamma_e if gate.species == "e" else constants.gamma_n
    b1 = omega / gamma
    return PulseSpec(
        nu=nu,
        phi=0.0,
        b1_amplitude=b1,
        omega_e=constants.gamma_e * b1,
        omega_n=constants.gamma_n * b1,
        tau=pulse_duration(omega),
        drive_spins=gate.drive_spins,
        gate_name=gate.name,
    )


def leading_order_design(gate: GateSpec,
                         geometry: DeviceGeometry = DEFAULT_GEOMETRY,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS) -> dict:
    """Analytic pulse parameters from the leading-order level formulas.

    These are the closed-form design values (block-diagonalized electron
    sector, no second-order hyperfine shifts); the exact design can differ
    at the tens-of-kHz level where a driven level carries a second-order
    correction, most visibly for the nuclear gate frequency.
    """
    from .geometry import effective_params

    e0 = zeroth_energies(effective_params(geometry, constants))
    p, q = gate.resonant
    pp, qp = gate.suppressed
    nu = e0[q] - e0[p]
    delta = (e0[qp] - e0[pp]) - nu
    omega = two_pi_k_omega(delta, gate.k)
    return {"nu": nu, "delta": delta, "omega": omega, "tau": pulse_duration(omega)}


def species_rabi(pulse: PulseSpec, spin: str) -> float:
    """Rabi frequency a given spin sees under the pulse's shared field."""
    return pulse.omega_e if spin.startswith("e") else pulse.omega_n


def displacement_detuning(gate: GateSpec, geometry: DeviceGeometry,
                          constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Detuning of the resonant pair in a displaced chain from the nominal pulse.

    Computed from exact spectra of the nominal and displaced chains; zero by
    construction at zero displacement.
    """
    nominal = compute_spectrum(geometry.displaced(0, 0), constants)
    actual = compute_spectrum(geometry, constants)
    p, q = gate.resonant
    return transition_frequency(actual, p, q) - transition_frequency(nominal, p, q)


def kn_window(spec_ideal: Spectrum, geometry_displaced: DeviceGeometry,
              constants: PhysicalConstants = DEFAULT_CONSTANTS) -> tuple[int, int]:
    """Usable K range for the nuclear gate on atom 1.

    The lower edge is where the off-resonant flip of the other nucleus
    (detuned by 2*gamma_n*deltaB) reaches amplitude ratio mu = 1; the upper
    edge is where the Rabi frequency drops to the displacement detuning of
    the given displaced geometry.
    """
    gate = GATES["b"]
    pp, qp = gate.suppressed
    p, q = gate.resonant
    delta2 = transition_frequency(spec_ideal, pp, qp) - transition_frequency(spec_ideal, p, q)

    def k_at_omega(omega_limit: float) -> int:
        return round(0.5 * np.sqrt((delta2 / omega_limit) ** 2 + 1.0))

    delta_omega = 2.0 * spec_ideal.params.gamma_n * spec_ideal.params.delta_b
    k_min = k_at_omega(2.0 * abs(delta_omega))
    dprime = displacement_detuning(gate, geometry_displaced, constants)
    if dprime == 0:
        raise ValidityError("upper K edge undefined at zero displacement")
    k_max = k_at_omega(abs(dprime))
    return k_min, k_max


def interior_qubit_estimate(m: int, n0: int = 47,
                            constants: PhysicalConstants = DEFAULT_CONSTANTS) -> tuple[float, float, float]:
    """(detuning, Rabi, Rabi error) for a displaced interior qubit, K' = 1.

    For a chain segment with both neighbours at the nominal coupling, a
    one-site displacement of the middle qubit shifts its two couplings to
    J(n0 -+ 1); the transition frequency moves by their mean minus J0 while
    the applied Rabi frequency J0/sqrt(3) misses the 2piK condition by
    delta_J/sqrt(3).
    """
    if abs(m) != 1:
        raise ValueError("interior estimate covers |m| = 1 only")
    j0 = j_for_sites(n0, constants)
    detuning = 0.5 * (j_for_sites(n0 - 1, constants) + j_for_sites(n0 + 1, constants)) - j0
    omega = j0 / np.sqrt(3.0)
    d_omega = delta_j(m, n0, constants) / np.sqrt(3.0)
    return detuning, omega, d_omega
