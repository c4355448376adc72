"""Static Hamiltonian of the register, exact and perturbative spectra.

H0 = gamma_e*B1*S1z + gamma_e*B2*S2z - gamma_n*B1*I1z - gamma_n*B2*I2z
     + A (S1.I1 + S2.I2) + J S1.S2

Eigenstates are labelled by their dominant basis component, not by energy
order, so that level indices track basis kets while parameters vary. The
perturbative energies treat the electron flip-flop blocks exactly and the
hyperfine flip-flops to second order in A.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, TWO_PI, PhysicalConstants
from .geometry import DEFAULT_GEOMETRY, DeviceGeometry, EffectiveParams, effective_params
from . import register as reg


class ValidityError(ValueError):
    """A physics-validity guard fired (labelling, pole, or range guard)."""


class DegenerateLabelError(ValidityError):
    """Dominant-component labelling is not a permutation of 0..15."""


class SwapBoundaryWarning(UserWarning):
    """The spectrum is close to the A/2 = gamma_e*deltaB label crossing."""


SWAP_GUARD_BAND = TWO_PI * 1e6  # warn within 1 MHz of the E10/E12 crossing

DIAG_RESIDUAL_TOL = 1e-10


def build_h0(params: EffectiveParams) -> np.ndarray:
    """Static 16x16 Hamiltonian, entries in angular frequency units."""
    h = (params.gamma_e * params.b1 * reg.SZ["e1"]
         + params.gamma_e * params.b2 * reg.SZ["e2"]
         - params.gamma_n * params.b1 * reg.SZ["n1"]
         - params.gamma_n * params.b2 * reg.SZ["n2"]
         + params.a * (reg.HYPERFINE_1 + reg.HYPERFINE_2)
         + params.j * reg.EXCHANGE)
    return h


def exact_spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labelled eigenvalues and eigenvectors of a Hermitian register H.

    Returns (energies, vectors) with energies[i] the eigenvalue whose
    eigenvector is dominated by basis state i, and vectors[:, i] that
    eigenvector (phase fixed so the dominant amplitude is real positive).
    Raises DegenerateLabelError if two eigenvectors claim one label.
    """
    w, v = np.linalg.eigh(h)
    labels = np.argmax(np.abs(v) ** 2, axis=0)
    if sorted(labels) != list(range(reg.DIM)):
        raise DegenerateLabelError(
            "dominant-component labels are not a permutation; "
            "basis states no longer approximate the eigenstates")
    energies = np.empty(reg.DIM)
    vectors = np.empty((reg.DIM, reg.DIM), dtype=complex)
    for col, lab in enumerate(labels):
        vec = v[:, col]
        phase = vec[lab] / abs(vec[lab])
        energies[lab] = w[col]
        vectors[:, lab] = vec / phase
    residual = np.linalg.norm(h @ vectors - vectors * energies)
    if residual > DIAG_RESIDUAL_TOL * np.linalg.norm(h):
        raise ValidityError("diagonalization residual above tolerance")
    return energies, vectors


def zeroth_energies(params: EffectiveParams, apply_swap: bool = True) -> np.ndarray:
    """Leading-order labelled energies (electron flip-flop blocks exact)."""
    ge_b = params.gamma_e * params.b
    ge_d = params.gamma_e * params.delta_b
    gn_b = params.gamma_n * params.b
    gn_d = params.gamma_n * params.delta_b
    a, j = params.a, params.j
    sq0 = np.sqrt(ge_d**2 + j**2 / 4)
    sqp = np.sqrt((ge_d + a / 2) ** 2 + j**2 / 4)
    sqm = np.sqrt((ge_d - a / 2) ** 2 + j**2 / 4)
    e = np.empty(reg.DIM)
    e[0] = (params.gamma_e - params.gamma_n) * params.b + a / 2 + j / 4
    e[1] = ge_b - gn_d + j / 4
    e[2] = -gn_b - j / 4 + sq0
    e[3] = -gn_d - j / 4 + sqp
    e[4] = -gn_b - j / 4 - sq0
    e[5] = -gn_d - j / 4 - sqp
    e[6] = -(params.gamma_e + params.gamma_n) * params.b - a / 2 + j / 4
    e[7] = -ge_b - gn_d + j / 4
    e[8] = ge_b + gn_d + j / 4
    e[9] = (params.gamma_e + params.gamma_n) * params.b - a / 2 + j / 4
    e[10] = gn_d - j / 4 + sqm
    e[11] = gn_b - j / 4 + sq0
    e[12] = gn_d - j / 4 - sqm
    e[13] = gn_b - j / 4 - sq0
    e[14] = -ge_b + gn_d + j / 4
    e[15] = (-params.gamma_e + params.gamma_n) * params.b + a / 2 + j / 4
    if apply_swap and a / 2 > ge_d:
        e[10], e[12] = e[12], e[10]
    return e


def perturbative_spectrum(params: EffectiveParams) -> np.ndarray:
    """Labelled energies including the second-order hyperfine corrections.

    Levels 10 and 12 exchange labels when A/2 > gamma_e*deltaB, because the
    dominant component of the upper/lower block eigenstate switches there.
    Warns when the parameters sit within the guard band of that crossing.
    """
    ge_d = params.gamma_e * params.delta_b
    margin = abs(params.a / 2 - ge_d)
    if margin < SWAP_GUARD_BAND:
        warnings.warn(
            f"A/2 - gamma_e*deltaB margin is {margin / TWO_PI / 1e3:.1f} kHz; "
            "labels 10/12 are near their crossing", SwapBoundaryWarning,
            stacklevel=2)
    e0 = zeroth_energies(params, apply_swap=False)
    a2 = params.a**2 / 4
    e2 = np.zeros(reg.DIM)
    e2[1] = a2 / (e0[1] - e0[2])
    e2[2] = -e2[1]
    e2[4] = a2 / (e0[4] - e0[8])
    e2[8] = -e2[4]
    e2[5] = a2 * (1 / (e0[5] - e0[6]) + 1 / (e0[5] - e0[9]))
    e2[6] = a2 * (1 / (e0[6] - e0[5]) + 1 / (e0[6] - e0[10]))
    e2[7] = a2 / (e0[7] - e0[11])
    e2[11] = -e2[7]
    e2[9] = a2 * (1 / (e0[9] - e0[5]) + 1 / (e0[9] - e0[10]))
    e2[10] = a2 * (1 / (e0[10] - e0[6]) + 1 / (e0[10] - e0[9]))
    e2[13] = a2 / (e0[13] - e0[14])
    e2[14] = -e2[13]
    e = e0 + e2
    if params.a / 2 > ge_d:
        e[10], e[12] = e[12], e[10]
    return e


def small_params(params: EffectiveParams) -> tuple[float, float, float]:
    """Smallness parameters (epsilon, epsilon', xi) of the basis approximation."""
    two_ge_db = 2 * params.gamma_e * (params.b2 - params.b1)
    if params.b2 == params.b1:
        raise ValidityError("epsilon undefined: equal fields at the two atoms")
    denom = two_ge_db - params.a
    if abs(denom) < 1e-12 * params.a:
        raise ValidityError("epsilon' pole: 2*gamma_e*(B2-B1) equals A")
    eps = params.j / two_ge_db
    eps_prime = params.j / abs(denom)
    xi = params.a / (2 * params.gamma_e * params.b)
    return eps, eps_prime, xi


@dataclass(frozen=True)
class Spectrum:
    """Exact and perturbative level structure of one chain."""

    params: EffectiveParams
    hamiltonian: np.ndarray
    exact_energies: np.ndarray
    eigenvectors: np.ndarray      # column i = labelled eigenstate i
    zeroth: np.ndarray
    pert_energies: np.ndarray
    smallness: tuple[float, float, float]

    def dominant_weights(self) -> np.ndarray:
        return np.max(np.abs(self.eigenvectors) ** 2, axis=0)


def compute_spectrum(geometry: DeviceGeometry = DEFAULT_GEOMETRY,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> Spectrum:
    params = effective_params(geometry, constants)
    h = build_h0(params)
    energies, vectors = exact_spectrum(h)
    return Spectrum(
        params=params,
        hamiltonian=h,
        exact_energies=energies,
        eigenvectors=vectors,
        zeroth=zeroth_energies(params),
        pert_energies=perturbative_spectrum(params),
        smallness=small_params(params),
    )


def transition_frequency(spec: Spectrum, p: int, q: int) -> float:
    """Signed transition frequency E_q - E_p from the exact labelled energies."""
    if p == q:
        raise ValueError("p and q must differ")
    return spec.exact_energies[q] - spec.exact_energies[p]
