"""Reference integrators that the package's propagators are checked against.

integrate_lab_frame steps the lab-frame Schroedinger equation directly, with
no rotating frame. Its drive is built here from the register's spin
operators as the Zeeman coupling of the pulse's rotating field, so it shares
neither the frame nor the drive construction of donorpair.dynamics.
"""
from __future__ import annotations

import numpy as np

from donorpair import register as reg
from donorpair.pulses import PulseSpec


class StepSizeError(ValueError):
    """Integrator step does not resolve the fastest Hamiltonian scale."""


# commutator-free 4th-order Magnus: Gauss nodes _C1, _C2 of a step, and the
# weights _A1, _A2 that the step's two exponentials give their Hamiltonians
_C1 = 0.5 - np.sqrt(3.0) / 6.0
_C2 = 0.5 + np.sqrt(3.0) / 6.0
_A1 = 0.25 + np.sqrt(3.0) / 6.0
_A2 = 0.25 - np.sqrt(3.0) / 6.0


def _expmh(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _transverse_couplings(pulse: PulseSpec) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y): the drive at time t is cos(theta) X + sin(theta) Y, theta = -(nu t + phi).

    The pulse field B1 (cos theta, sin theta, 0) couples to each driven spin
    as the permanent field does in build_h0: +gamma_e B.S for an electron,
    -gamma_n B.S for a nucleus, where gamma_e B1 = omega_e and gamma_n B1 =
    omega_n. With the lowering operator L, Sx = (L^T + L) / 2 and
    Sy = (L^T - L) / 2i.
    """
    x = np.zeros((reg.DIM, reg.DIM), dtype=complex)
    y = np.zeros((reg.DIM, reg.DIM), dtype=complex)
    for spin in pulse.drive_spins:
        coupling = pulse.omega_e if spin.startswith("e") else -pulse.omega_n
        lower = reg.LOWER[spin]
        x += coupling * (lower.T + lower) / 2
        y += coupling * (lower.T - lower) / 2j
    return x, y


def integrate_lab_frame(state: np.ndarray, h0: np.ndarray, pulse: PulseSpec,
                        dt: float) -> np.ndarray:
    """Directly integrate i dpsi/dt = (H0 + V(t)) psi over one pulse.

    Commutator-free 4th-order Magnus stepping with exactly unitary steps.
    dt must resolve the fastest scale: dt * max|H| <= 0.05.
    """
    x, y = _transverse_couplings(pulse)
    h_scale = np.max(np.abs(h0)) + np.max(np.abs(x)) + np.max(np.abs(y))
    if dt * h_scale > 0.05:
        raise StepSizeError(
            f"dt*max|H| = {dt * h_scale:.3g} exceeds 0.05; decrease dt")

    def h_lab(t: float) -> np.ndarray:
        theta = -(pulse.nu * t + pulse.phi)
        return h0 + np.cos(theta) * x + np.sin(theta) * y

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
