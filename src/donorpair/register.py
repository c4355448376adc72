"""The 16-dimensional spin register |n2 e2 e1 n1>.

Basis index = 8*n2 + 4*e2 + 2*e1 + n1. Bit value 0 means the spin points
along the permanent field (z projection +1/2), bit value 1 the opposite.
The electron ground state is bit 1 (its magnetic moment is antiparallel to
its spin), so full electron relaxation drives e-bits to 1.
"""
from __future__ import annotations

import numpy as np

DIM = 16
SPINS = ("n2", "e2", "e1", "n1")      # most significant bit first
_BIT = dict(zip(SPINS, (8, 4, 2, 1)))   # each spin's bit of the basis index
_SPIN_OF_BIT = {b: s for s, b in _BIT.items()}

_INDEX = np.arange(DIM)
_SZ_DIAG = {s: np.where(_INDEX & b, -0.5, 0.5) for s, b in _BIT.items()}
SZ = {s: np.diag(d).astype(complex) for s, d in _SZ_DIAG.items()}


def _lower(b: int) -> np.ndarray:
    """Lowering operator of the spin on bit b: sets the bit, |0> -> |1>."""
    out = np.zeros((DIM, DIM), dtype=complex)
    up = _INDEX[(_INDEX & b) == 0]
    out[up | b, up] = 1.0
    return out


LOWER = {s: _lower(b) for s, b in _BIT.items()}   # LOWER[s].T raises

# total z projection; generates the rotating frame of a monochromatic pulse
FZ_DIAG = sum(_SZ_DIAG.values())


def _dot(s1: str, s2: str) -> np.ndarray:
    """Read-only S_1 . S_2 = S1z S2z + (S1+ S2- + S1- S2+)/2 between two register spins."""
    flip_flop = LOWER[s1].T @ LOWER[s2] + LOWER[s1] @ LOWER[s2].T
    out = SZ[s1] @ SZ[s2] + 0.5 * flip_flop
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
    return tuple(int((index & _BIT[s]) != 0) for s in SPINS)


def ket_label(index: int) -> str:
    return "|%d%d%d%d>" % bits(index)


def flipped_bit(p: int, q: int) -> str | None:
    """Name of the single spin in which p and q differ, else None."""
    return _SPIN_OF_BIT.get(p ^ q)
