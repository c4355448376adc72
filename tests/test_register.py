"""The register's operators against the Kronecker-product construction they replace."""
import functools
import inspect
import itertools

import numpy as np

from donorpair import DEFAULT_GEOMETRY, build_h0, effective_params
from donorpair import register as reg

# 2x2 spin matrices; bit 0 is z projection +1/2
_SZ = np.diag([0.5, -0.5]).astype(complex)
_SP = np.array([[0, 1], [0, 0]], dtype=complex)   # raising: |1> -> |0>
_SM = _SP.conj().T
_SX = 0.5 * (_SP + _SM)
_SY = (_SP - _SM) / 2j
_ID = np.eye(2, dtype=complex)


def kron_embed(op: np.ndarray, spin: str) -> np.ndarray:
    """`op` on `spin`, identity on the others, as np.kron in SPINS order."""
    return functools.reduce(np.kron, [op if s == spin else _ID for s in reg.SPINS])


KRON_SX = {s: kron_embed(_SX, s) for s in reg.SPINS}
KRON_SY = {s: kron_embed(_SY, s) for s in reg.SPINS}
KRON_SZ = {s: kron_embed(_SZ, s) for s in reg.SPINS}
KRON_LOWER = {s: kron_embed(_SM, s) for s in reg.SPINS}


def kron_dot(s1: str, s2: str) -> np.ndarray:
    return KRON_SX[s1] @ KRON_SX[s2] + KRON_SY[s1] @ KRON_SY[s2] + KRON_SZ[s1] @ KRON_SZ[s2]


def test_public_names():
    public = {name for name, value in vars(reg).items()
              if not name.startswith("_") and not inspect.ismodule(value)} - {"annotations"}
    assert public == {"DIM", "SPINS", "SZ", "LOWER", "FZ_DIAG", "HYPERFINE_1", "HYPERFINE_2",
                      "EXCHANGE", "bits", "ket_label", "flipped_bit"}


def test_single_spin_operators_equal_the_kron_ones():
    for s in reg.SPINS:
        np.testing.assert_array_equal(reg.SZ[s], KRON_SZ[s], err_msg=s)
        np.testing.assert_array_equal(reg.LOWER[s], KRON_LOWER[s], err_msg=s)
    np.testing.assert_array_equal(reg.FZ_DIAG, np.real(np.diag(sum(KRON_SZ.values()))))


def test_couplings_are_byte_identical_to_the_kron_ones():
    for coupling, s1, s2 in ((reg.HYPERFINE_1, "e1", "n1"), (reg.HYPERFINE_2, "e2", "n2"),
                             (reg.EXCHANGE, "e1", "e2")):
        oracle = kron_dot(s1, s2)
        assert coupling.dtype == oracle.dtype and coupling.shape == oracle.shape
        assert coupling.tobytes() == oracle.tobytes(), (s1, s2)


def test_h0_of_the_81_pair_grid_is_byte_identical_with_kron_sz(monkeypatch):
    params = [effective_params(DEFAULT_GEOMETRY.displaced(m1, m2))
              for m1, m2 in itertools.product(range(-4, 5), repeat=2)]
    h0 = [build_h0(p).tobytes() for p in params]
    monkeypatch.setattr(reg, "SZ", KRON_SZ)
    assert [build_h0(p).tobytes() for p in params] == h0


def test_bits_and_flipped_bit_follow_the_operators():
    for index in range(reg.DIM):
        ket = np.zeros(reg.DIM)
        ket[index] = 1.0
        # bit 1 <=> z projection -1/2
        assert reg.bits(index) == tuple(int(ket @ KRON_SZ[s].real @ ket < 0) for s in reg.SPINS)
    for p, q in itertools.product(range(reg.DIM), repeat=2):
        coupled = [s for s in reg.SPINS if KRON_LOWER[s][q, p] or KRON_LOWER[s][p, q]]
        assert reg.flipped_bit(p, q) == (coupled[0] if coupled else None), (p, q)
