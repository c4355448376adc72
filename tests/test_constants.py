import math
import subprocess
import sys

import pytest

from donorpair import constants
from donorpair.constants import (BOHR_RADIUS_AB, COULOMB_PREFACTOR, GAMMA_E, GAMMA_N, HBAR,
                                 HYPERFINE_A, TWO_PI)


def test_effective_bohr_radius_matches_accepted_value():
    # kappa * (M/M*) * a_B0 with M*/M = 0.19
    assert BOHR_RADIUS_AB == pytest.approx(33.14e-10, rel=1e-3)


def test_all_constants_strictly_positive():
    for name in ("GAMMA_E", "GAMMA_N", "HYPERFINE_A", "LATTICE_STEP_A0", "KAPPA",
                 "BOHR_RADIUS_AB", "COULOMB_PREFACTOR"):
        assert getattr(constants, name) > 0, name


def test_gyromagnetic_ratios():
    assert GAMMA_E / TWO_PI == pytest.approx(28.025e9)
    assert GAMMA_N / TWO_PI == pytest.approx(17.25144e6)
    assert HYPERFINE_A / TWO_PI == pytest.approx(117.53e6)


def test_si_constants_pinned():
    # e and h are exact in SI 2019; epsilon_0 is CODATA 2022
    assert HBAR == 6.62607015e-34 / (2 * math.pi)
    assert COULOMB_PREFACTOR == (
        1.602176634e-19**2 / (4 * math.pi * 8.8541878188e-12))


def test_cli_import_does_not_load_scipy(source_env):
    code = ("import sys, donorpair.cli, donorpair.protocols; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=source_env)
    assert proc.stdout.strip() == "[]"
