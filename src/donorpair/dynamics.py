"""Time evolution of the register under rectangular pulses and electron relaxation.

The pulse field rotates in the transverse plane, so every drive term carries
a single phase factor exp(-+i(nu t + phi)) and the frame generated by the
total z projection Fz makes the Hamiltonian exactly time independent:

    H_rot = H0 + nu Fz + V(phi)

with lab-frame amplitudes psi_lab(t) = exp(+i nu Fz t) psi_rot(t). Because
the re-entry factor is diagonal, basis-state populations computed after a
pulse are lab-frame correct.

A direct lab-frame integrator (4th-order commutator-free Magnus stepping)
is provided as an independent cross-check of the frame construction.
"""
from __future__ import annotations

import numpy as np

from .pulses import PulseSpec, species_rabi
from . import register as reg


class StepSizeError(ValueError):
    """Integrator step does not resolve the fastest Hamiltonian scale."""


def _drive_lowering(pulse: PulseSpec) -> np.ndarray:
    """Sum of (+-Omega_s / 2) L_s over the driven spins: the drive's lowering part.

    Nuclear terms carry a minus sign (opposite gyromagnetic sign), and
    Omega_s is the species Rabi frequency of the shared field.
    """
    lower = np.zeros((reg.DIM, reg.DIM), dtype=complex)
    for spin in pulse.drive_spins:
        sign = 1.0 if spin.startswith("e") else -1.0
        lower += sign * 0.5 * species_rabi(pulse, spin) * reg.LOWER[spin]
    return lower


def drive_operator(pulse: PulseSpec) -> np.ndarray:
    """Static pulse operator V(phi) in the rotating frame.

    Each driven spin contributes (Omega_s / 2) L_s e^{-i phi} + h.c. (see
    _drive_lowering for the signs).
    """
    v = _drive_lowering(pulse)
    v *= np.exp(-1j * pulse.phi)
    return v + v.conj().T


def rotating_hamiltonian(h0: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """Time-independent rotating-frame Hamiltonian H0 + nu Fz + V(phi)."""
    return h0 + pulse.nu * np.diag(reg.FZ_DIAG) + drive_operator(pulse)


def pulse_propagator(h0: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """Lab-frame propagator of one full pulse, U = e^{+i nu Fz tau} e^{-i H_rot tau}.

    `h0` may be a stack (..., 16, 16) of static Hamiltonians; one eigh then
    solves the whole stack, and each propagator equals the one its H0 gives
    alone, bit for bit.
    """
    w, v = np.linalg.eigh(rotating_hamiltonian(h0, pulse))
    u = (v * np.exp(-1j * w * pulse.tau)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    reentry = np.exp(1j * pulse.nu * pulse.tau * reg.FZ_DIAG)
    return np.multiply(reentry[:, None], u, out=u)   # in place: stacks are large


def evolve_pulse(state: np.ndarray, h0: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """Evolve a pure state (1-d) or density matrix (2-d) through one pulse."""
    u = pulse_propagator(h0, pulse)
    if state.ndim == 1:
        return u @ state
    if state.ndim == 2:
        return u @ state @ u.conj().T
    raise ValueError("state must be a vector or a square matrix")


# -- electron relaxation ----------------------------------------------------

# Register axes with the two electron bits fused: (n2, e, n1), e = 2*e2 + e1.
_FUSED = (2, 4, 2, 2, 4, 2)
_E_GROUND = 3                     # e2 = e1 = 1, the electron ground state
_E_ALL = np.arange(4)


def relax_electrons(rho: np.ndarray) -> np.ndarray:
    """Complete amplitude damping of both electrons onto their ground state.

    Traces out both electrons and places the nuclear reduced state at
    e2 = e1 = 1. Trace preserving; the reduced state of the two nuclear
    spins is exactly unchanged.
    """
    t = rho.reshape(_FUSED)
    out = np.zeros(_FUSED, dtype=complex)
    out[:, _E_GROUND, :, :, _E_GROUND, :] = t[:, _E_ALL, :, :, _E_ALL, :].sum(axis=0)
    return out.reshape(rho.shape)


def relax_electrons_adjoint(obs: np.ndarray) -> np.ndarray:
    """Heisenberg-picture adjoint of `relax_electrons`: 1_e (x) <gg|O|gg>_e.

    tr(relax_electrons(rho) @ O) == tr(rho @ relax_electrons_adjoint(O)).
    `obs` may be a stack (..., 16, 16) of observables.
    """
    fused = obs.shape[:-2] + _FUSED
    t = obs.reshape(fused)
    out = np.zeros(fused, dtype=complex)
    out[..., :, _E_ALL, :, :, _E_ALL, :] = t[..., :, _E_GROUND, :, :, _E_GROUND, :]
    return out.reshape(obs.shape)


# -- lab-frame reference integrator -----------------------------------------

_C1 = 0.5 - np.sqrt(3.0) / 6.0
_C2 = 0.5 + np.sqrt(3.0) / 6.0
_A1 = 0.25 + np.sqrt(3.0) / 6.0
_A2 = 0.25 - np.sqrt(3.0) / 6.0


def _expmh(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def integrate_lab_frame(state: np.ndarray, h0: np.ndarray, pulse: PulseSpec,
                        dt: float) -> np.ndarray:
    """Directly integrate i dpsi/dt = (H0 + V(t)) psi over one pulse.

    Commutator-free 4th-order Magnus stepping with exactly unitary steps.
    dt must resolve the fastest scale: dt * max|H| <= 0.05.
    """
    lower = _drive_lowering(pulse)
    drive_amp = np.max(np.abs(lower))
    h_scale = np.max(np.abs(h0)) + 2.0 * drive_amp
    if dt * h_scale > 0.05:
        raise StepSizeError(
            f"dt*max|H| = {dt * h_scale:.3g} exceeds 0.05; decrease dt")

    def h_lab(t: float) -> np.ndarray:
        phase = np.exp(-1j * (pulse.nu * t + pulse.phi))
        return h0 + phase * lower + np.conj(phase) * lower.conj().T

    nsteps = max(1, int(np.ceil(pulse.tau / dt)))
    step = pulse.tau / nsteps
    psi = state.astype(complex).copy()
    for k in range(nsteps):
        t = k * step
        h1 = h_lab(t + _C1 * step)
        h2 = h_lab(t + _C2 * step)
        psi = _expmh(step * (_A2 * h1 + _A1 * h2)) @ (
            _expmh(step * (_A1 * h1 + _A2 * h2)) @ psi)
    return psi
