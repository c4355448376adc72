"""Static Hamiltonian of the register, exact and perturbative spectra.

H0 = gamma_e*B1*S1z + gamma_e*B2*S2z - gamma_n*B1*I1z - gamma_n*B2*I2z
     + A (S1.I1 + S2.I2) + J S1.S2

Eigenstates are labelled by their dominant basis component, not by energy
order, so that level indices track basis kets while parameters vary.
compute_spectra solves a stack of chains at once into one Spectrum record;
compute_spectrum solves one chain through the same body with no stack axis
(its params are the Python floats of effective_params), so each chain's
record is the same bit for bit either way. The perturbative energies treat
the electron flip-flop blocks exactly and the hyperfine flip-flops to second
order in A; a one-chain record computes them only when they are read.
"""
from __future__ import annotations

import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, GAMMA_N, TWO_PI
from .geometry import DEFAULT_GEOMETRY, DeviceGeometry, EffectiveParams, effective_params
from . import register as reg


class ValidityError(ValueError):
    """A physics-validity guard fired (labelling, pole, or range guard)."""

    entry: int | None = None   # flat index of the failed matrix of an exact_spectrum stack


class DegenerateLabelError(ValidityError):
    """Dominant-component labelling is not a permutation of 0..15."""


class SwapBoundaryWarning(UserWarning):
    """The spectrum is close to the A/2 = gamma_e*deltaB label crossing."""


SWAP_GUARD_BAND = TWO_PI * 1e6  # warn within 1 MHz of the E10/E12 crossing

DIAG_RESIDUAL_TOL = 1e-10

_STATES = np.arange(reg.DIM)


def build_h0(params: EffectiveParams) -> np.ndarray:
    """Static Hamiltonian, entries in angular frequency units.

    16x16 for one chain, or (n, 16, 16) for params with (n,) fields.
    """
    outer = np.multiply.outer
    return (outer(GAMMA_E * params.b1, reg.SZ["e1"])
            + outer(GAMMA_E * params.b2, reg.SZ["e2"])
            - outer(GAMMA_N * params.b1, reg.SZ["n1"])
            - outer(GAMMA_N * params.b2, reg.SZ["n2"])
            + outer(params.a, reg.HYPERFINE_1 + reg.HYPERFINE_2)
            + outer(params.j, reg.EXCHANGE))


def exact_spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labelled eigenvalues and eigenvectors of a Hermitian register H.

    Returns (energies, vectors) with energies[i] the eigenvalue whose
    eigenvector is dominated by basis state i, and vectors[:, i] that
    eigenvector (phase fixed so the dominant amplitude is real positive).
    `h` may be a stack (..., 16, 16): one eigh solves it and every result
    gains the same leading axes. Raises DegenerateLabelError if two
    eigenvectors claim one label; the error's `entry` is the flat stack
    index of the first such matrix.
    """
    stack = h.reshape(-1, reg.DIM, reg.DIM)
    w, v = np.linalg.eigh(stack)
    entry = np.arange(len(stack))[:, None]
    labels = np.argmax(np.abs(v) ** 2, axis=1)      # label of each column
    order = np.zeros(labels.shape, np.intp)         # column of each label, if a permutation
    order[entry, labels] = _STATES
    _guard((labels[entry, order] != _STATES).any(axis=1), DegenerateLabelError,
           "dominant-component labels are not a permutation; "
           "basis states no longer approximate the eigenstates")
    dominant = v[entry, labels, _STATES][:, None, :]   # each column's dominant amplitude
    energies = w[entry, order]
    # phase-fixed columns, column order[i, l] of matrix i moved to column l
    vectors = (v / (dominant / abs(dominant)))[entry[:, None], _STATES[:, None], order[:, None, :]]
    residual2 = (abs(stack @ vectors - vectors * energies[:, None, :]) ** 2).sum(axis=(1, 2))
    _guard(residual2 > DIAG_RESIDUAL_TOL**2 * (abs(stack) ** 2).sum(axis=(1, 2)),
           ValidityError, "diagonalization residual above tolerance")
    return energies.reshape(h.shape[:-1]), vectors.reshape(h.shape)


def _guard(failed: np.ndarray, error: type[ValidityError], message: str) -> None:
    """Raise `error(message)` if any stack entry `failed`, with `entry` the first that did."""
    if failed.any():
        exc = error(message)
        exc.entry = int(np.flatnonzero(failed)[0])
        raise exc


def _crossing_margin(params: EffectiveParams) -> float | np.ndarray:
    """Signed margin A/2 - gamma_e*deltaB of the 10/12 label crossing, positive past it."""
    return params.a / 2 - GAMMA_E * params.delta_b


def _past_crossing(params: EffectiveParams, e: np.ndarray) -> np.ndarray:
    """`e` with levels 10 and 12 exchanged past the crossing, A/2 > gamma_e*deltaB.

    The dominant component of the upper/lower block eigenstate switches at
    that crossing, so the labels must follow it.
    """
    if _crossing_margin(params) > 0:
        e[10], e[12] = e[12], e[10]
    return e


def zeroth_energies(params: EffectiveParams) -> np.ndarray:
    """Leading-order labelled energies (electron flip-flop blocks exact)."""
    return _past_crossing(params, _block_energies(params))


def _block_energies(params: EffectiveParams) -> np.ndarray:
    """zeroth_energies before the 10/12 label exchange."""
    ge, gn = GAMMA_E, GAMMA_N
    ge_b = ge * params.b
    ge_d = ge * params.delta_b
    gn_b = gn * params.b
    gn_d = gn * params.delta_b
    a, j = params.a, params.j
    sq0 = np.sqrt(ge_d**2 + j**2 / 4)
    sqp = np.sqrt((ge_d + a / 2) ** 2 + j**2 / 4)
    sqm = np.sqrt((ge_d - a / 2) ** 2 + j**2 / 4)
    e = np.empty(reg.DIM)
    e[0] = (ge - gn) * params.b + a / 2 + j / 4
    e[1] = ge_b - gn_d + j / 4
    e[2] = -gn_b - j / 4 + sq0
    e[3] = -gn_d - j / 4 + sqp
    e[4] = -gn_b - j / 4 - sq0
    e[5] = -gn_d - j / 4 - sqp
    e[6] = -(ge + gn) * params.b - a / 2 + j / 4
    e[7] = -ge_b - gn_d + j / 4
    e[8] = ge_b + gn_d + j / 4
    e[9] = (ge + gn) * params.b - a / 2 + j / 4
    e[10] = gn_d - j / 4 + sqm
    e[11] = gn_b - j / 4 + sq0
    e[12] = gn_d - j / 4 - sqm
    e[13] = gn_b - j / 4 - sq0
    e[14] = -ge_b + gn_d + j / 4
    e[15] = (-ge + gn) * params.b + a / 2 + j / 4
    return e


def _caller_stacklevel() -> int:
    """warnings.warn stacklevel of the first frame outside the library, seen from its caller.

    Library frames run donorpair modules other than the CLI, so a warning
    names the test, the script or the command that asked for the spectrum
    (warn's skip_file_prefixes does this only from Python 3.12).
    """
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None:
        package, _, module = frame.f_globals.get("__name__", "").partition(".")
        if package != __package__ or module == "cli":
            break
        frame, level = frame.f_back, level + 1
    return level


def perturbative_spectrum(params: EffectiveParams) -> np.ndarray:
    """Labelled energies including the second-order hyperfine corrections.

    Levels 10 and 12 exchange labels as in zeroth_energies. The warning near
    that crossing comes from compute_spectra, which labels the exact levels.
    """
    e0 = _block_energies(params)
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
    return _past_crossing(params, e0 + e2)


def small_params(params: EffectiveParams) -> tuple[float, float, float]:
    """Smallness parameters (epsilon, epsilon', xi) of the basis approximation.

    The one reader of epsilon', so the one guard of its pole, 2*gamma_e*(B2-B1)
    = A to 1e-12 of A. Both checks raise ValidityError: `params` may be hand-built.
    """
    if params.b2 == params.b1:
        raise ValidityError("epsilon undefined: equal fields at the two atoms")
    two_ge_db = 2 * GAMMA_E * (params.b2 - params.b1)
    if abs(two_ge_db - params.a) < 1e-12 * params.a:
        raise ValidityError("epsilon' pole: 2*gamma_e*(B2-B1) equals A")
    eps = params.j / two_ge_db
    eps_prime = params.j / abs(two_ge_db - params.a)
    xi = params.a / (2 * GAMMA_E * params.b)
    return eps, eps_prime, xi


@dataclass(frozen=True)
class Spectrum:
    """Exact level structure of one chain, or of a stack of n chains.

    compute_spectra gives the stack: `params` with (n,) fields and every
    array with a leading axis of n. compute_spectrum gives one chain, with
    float `params` and no stack axis; its perturbative levels and smallness
    parameters are computed from `params` each time they are read, and are
    defined for one chain only.
    """

    params: EffectiveParams
    hamiltonian: np.ndarray
    exact_energies: np.ndarray
    eigenvectors: np.ndarray      # column i = labelled eigenstate i

    @property
    def zeroth(self) -> np.ndarray:
        return zeroth_energies(self.params)

    @property
    def pert_energies(self) -> np.ndarray:
        return perturbative_spectrum(self.params)

    @property
    def smallness(self) -> tuple[float, float, float]:
        return small_params(self.params)


def compute_spectrum(geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> Spectrum:
    """The one-chain record of `geometry`, equal bit for bit to its row of compute_spectra.

    The same body solves it with no stack axis: `params` holds the Python
    floats of effective_params, and the arrays are (16, 16) and (16,).
    """
    return _solve(effective_params(geometry), (geometry,))


def compute_spectra(geometries: Sequence[DeviceGeometry]) -> Spectrum:
    """The stacked Spectrum of the geometries, from one build_h0 and one exact_spectrum.

    Row i equals what geometries[i] gives alone, bit for bit. The guards
    run as they would for each geometry alone: a failed labelling or
    residual guard names the first geometry that failed; then each chain
    within SWAP_GUARD_BAND of the 10/12 label crossing warns, in stack
    order. (effective_params refuses equal fields; no exact level reads
    epsilon', so only small_params refuses its pole.) An empty stack is a
    ValueError.
    """
    if not geometries:
        raise ValueError("a spectrum stack needs at least one geometry")
    rows = [effective_params(g) for g in geometries]
    return _solve(EffectiveParams(*map(np.array, zip(*((p.b1, p.b2, p.a, p.j) for p in rows)))),
                  geometries)


def _solve(params: EffectiveParams, geometries: Sequence[DeviceGeometry]) -> Spectrum:
    """The Spectrum of `params`, scalar fields for one chain or (n,) fields for n.

    `geometries` are the chains the params come from, in stack order; they
    name the chain a failed guard refuses.
    """
    h = build_h0(params)
    try:
        energies, vectors = exact_spectrum(h)
    except ValidityError as exc:
        g = geometries[exc.entry]
        raise type(exc)(f"{exc} (displacement pair m1 = {g.m1}, m2 = {g.m2} of {g})") from None
    margin = np.atleast_1d(abs(_crossing_margin(params)))
    for m in margin[margin < SWAP_GUARD_BAND]:
        warnings.warn(
            f"A/2 - gamma_e*deltaB margin is {m / TWO_PI:.1f} Hz; "
            "labels 10/12 are near their crossing", SwapBoundaryWarning,
            stacklevel=_caller_stacklevel())
    return Spectrum(params, h, energies, vectors)


def transition_frequency(spec: Spectrum, p: int, q: int) -> float | np.ndarray:
    """Signed transition frequency E_q - E_p from the exact labelled energies.

    One value for one chain, or an (n,) array, one per chain, for a stack.
    """
    if p == q:
        raise ValueError("p and q must differ")
    return spec.exact_energies[..., q] - spec.exact_energies[..., p]
