"""Time evolution of the register under rectangular pulses and electron relaxation.

The pulse field rotates in the transverse plane, so every drive term carries
a single phase factor exp(-+i(nu t + phi)) and the frame generated by the
total z projection Fz makes the Hamiltonian exactly time independent:

    H_rot = H0 + nu Fz + V(phi)

with lab-frame amplitudes psi_lab(t) = exp(+i nu Fz t) psi_rot(t). Because
the re-entry factor is diagonal, basis-state populations computed after a
pulse are lab-frame correct.
"""
from __future__ import annotations

import numpy as np

from .pulses import PulseSpec
from . import register as reg


def rotating_hamiltonian(h0: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """Time-independent rotating-frame Hamiltonian H0 + nu Fz + V(phi).

    Each driven spin s adds (+-Omega_s / 2) L_s e^{-i phi} + h.c. to V(phi),
    with L_s its lowering operator and Omega_s the species Rabi frequency of
    the shared field (omega_e or omega_n). Nuclear terms carry the minus
    sign (opposite gyromagnetic sign).
    """
    lower = np.zeros((reg.DIM, reg.DIM), dtype=complex)
    for spin in pulse.drive_spins:
        sign, omega = (1.0, pulse.omega_e) if spin.startswith("e") else (-1.0, pulse.omega_n)
        lower += sign * 0.5 * omega * reg.LOWER[spin]
    v = lower * np.exp(-1j * pulse.phi)
    return h0 + pulse.nu * np.diag(reg.FZ_DIAG) + (v + v.conj().T)


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

