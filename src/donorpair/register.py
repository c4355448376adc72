"""The 16-dimensional spin register |n2 e2 e1 n1>.

Basis index = 8*n2 + 4*e2 + 2*e1 + n1. Bit value 0 means the spin points
along the permanent field (z projection +1/2), bit value 1 the opposite.
The electron ground state is bit 1 (its magnetic moment is antiparallel to
its spin), so full electron relaxation drives e-bits to 1.
"""
from __future__ import annotations

import numpy as np

DIM = 16
SPINS = ("n2", "e2", "e1", "n1")      # kron order, most significant bit first

_SZ = np.diag([0.5, -0.5]).astype(complex)
_SP = np.array([[0, 1], [0, 0]], dtype=complex)   # raising: |1> -> |0>
_SM = _SP.conj().T
_SX = 0.5 * (_SP + _SM)
_SY = (_SP - _SM) / 2j
_ID = np.eye(2, dtype=complex)


def _embed(op: np.ndarray, spin: str) -> np.ndarray:
    mats = [op if s == spin else _ID for s in SPINS]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


SX = {s: _embed(_SX, s) for s in SPINS}
SY = {s: _embed(_SY, s) for s in SPINS}
SZ = {s: _embed(_SZ, s) for s in SPINS}
LOWER = {s: _embed(_SM, s) for s in SPINS}
RAISE = {s: _embed(_SP, s) for s in SPINS}

# total z projection; generates the rotating frame of a monochromatic pulse
FZ = sum(SZ.values())
FZ_DIAG = np.real(np.diag(FZ)).copy()


def _dot(s1: str, s2: str) -> np.ndarray:
    """Read-only scalar coupling S_1 . S_2 between two register spins."""
    out = SX[s1] @ SX[s2] + SY[s1] @ SY[s2] + SZ[s1] @ SZ[s2]
    out.flags.writeable = False
    return out


# the spin-spin couplings of H0; only their prefactors change between chains
HYPERFINE_1 = _dot("e1", "n1")
HYPERFINE_2 = _dot("e2", "n2")
EXCHANGE = _dot("e1", "e2")


def bits(index: int) -> tuple[int, int, int, int]:
    """(n2, e2, e1, n1) bit values of a basis index."""
    if not 0 <= index < DIM:
        raise ValueError("basis index out of range")
    return ((index >> 3) & 1, (index >> 2) & 1, (index >> 1) & 1, index & 1)


def ket_label(index: int) -> str:
    return "|%d%d%d%d>" % bits(index)


def basis_ket(index: int) -> np.ndarray:
    ket = np.zeros(DIM, dtype=complex)
    ket[index] = 1.0
    return ket


def flipped_bit(p: int, q: int) -> str | None:
    """Name of the single spin in which p and q differ, else None."""
    diff = p ^ q
    if diff == 0 or diff & (diff - 1):
        return None
    return SPINS[[8, 4, 2, 1].index(diff)]
