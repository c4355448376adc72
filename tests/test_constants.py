import dataclasses
import math
import subprocess
import sys

import pytest

from donorpair.constants import DEFAULT_CONSTANTS, HBAR, TWO_PI, PhysicalConstants


def test_effective_bohr_radius_matches_accepted_value():
    # kappa * (M/M*) * a_B0 with M*/M = 0.19
    assert DEFAULT_CONSTANTS.bohr_radius_ab == pytest.approx(33.14e-10, rel=1e-3)


def test_all_constants_strictly_positive():
    for f in dataclasses.fields(DEFAULT_CONSTANTS):
        assert getattr(DEFAULT_CONSTANTS, f.name) > 0


def test_nonpositive_constant_rejected():
    with pytest.raises(ValueError):
        PhysicalConstants(gamma_e=-1.0)


def test_inconsistent_bohr_radius_rejected():
    with pytest.raises(ValueError):
        PhysicalConstants(bohr_radius_ab=30e-10)


def test_gyromagnetic_ratios():
    assert DEFAULT_CONSTANTS.gamma_e / TWO_PI == pytest.approx(28.025e9)
    assert DEFAULT_CONSTANTS.gamma_n / TWO_PI == pytest.approx(17.25144e6)
    assert DEFAULT_CONSTANTS.hyperfine_a / TWO_PI == pytest.approx(117.53e6)


def test_si_constants_pinned():
    # e and h are exact in SI 2019; epsilon_0 is CODATA 2022
    assert HBAR == 6.62607015e-34 / (2 * math.pi)
    assert DEFAULT_CONSTANTS.coulomb_prefactor == (
        1.602176634e-19**2 / (4 * math.pi * 8.8541878188e-12))


def test_cli_import_does_not_load_scipy(source_env):
    code = ("import sys, donorpair.cli, donorpair.protocols; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=source_env)
    assert proc.stdout.strip() == "[]"
