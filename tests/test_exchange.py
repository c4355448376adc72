import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from donorpair import herring_flicker, j_for_sites
from donorpair.constants import BOHR_RADIUS_AB, LATTICE_STEP_A0, TWO_PI
from donorpair.exchange import exchange_table

# Reference couplings J/2pi (MHz) versus separation in lattice steps.
REFERENCE_TABLE = {
    40: 33.75, 41: 22.58, 42: 15.09, 43: 10.07, 44: 6.71, 45: 4.465,
    46: 2.97, 47: 1.97, 48: 1.306, 49: 0.865, 50: 0.573, 51: 0.37855,
}


@pytest.mark.parametrize("n,j_mhz", sorted(REFERENCE_TABLE.items()))
def test_reference_table(n, j_mhz):
    assert j_for_sites(n) / TWO_PI / 1e6 == pytest.approx(j_mhz, rel=0.01)


def test_reference_separations():
    assert herring_flicker(36.10e-9) / TWO_PI / 1e6 == pytest.approx(1.97, rel=0.01)
    assert herring_flicker(30.72e-9) / TWO_PI / 1e6 == pytest.approx(33.75, rel=0.01)
    assert herring_flicker(39.17e-9) / TWO_PI / 1e6 == pytest.approx(0.37855, rel=0.01)


def test_monotone_decreasing_over_table_range():
    values = [j_for_sites(n) for n in range(40, 52)]
    assert all(b < a for a, b in zip(values, values[1:]))


@given(st.floats(min_value=30e-9, max_value=40e-9))
def test_positive_over_working_range(a):
    assert herring_flicker(a) > 0


def test_smooth_over_working_range():
    # no kinks: second finite differences stay small relative to the value
    a = np.linspace(30e-9, 40e-9, 400)
    j = np.array([herring_flicker(x) for x in a])
    d2 = np.abs(np.diff(j, 2)) / j[1:-1]
    assert d2.max() < 1e-3


def test_one_site_steps_of_j():
    # J(N0 - m) - J(N0) at N0 = 47: one site further apart (m = -1), one closer (m = +1)
    j0 = j_for_sites(47)
    assert (j_for_sites(48) - j0) / TWO_PI / 1e6 == pytest.approx(-0.664, rel=0.02)
    assert (j_for_sites(46) - j0) / TWO_PI / 1e6 == pytest.approx(1.0, rel=0.02)


# The paper's printed quartic fit of dJ/J0 versus the displacement step m at
# the nominal 47-site separation; the library computes the exact quotient.
PAPER_SERIES_COEFFS = (0.4103, 0.1082, 0.0166, 0.0019)


def test_series_tracks_exact_quotient_for_small_m():
    # frozen from the exact quotient: series - exact = +0.0307 at m=+1,
    # +0.0200 at m=-1 (the fitted quartic was built for cross-checking only)
    j0 = j_for_sites(47)
    for m in (-1, 1):
        series = sum(c * m**k for k, c in enumerate(PAPER_SERIES_COEFFS, start=1))
        assert abs(series - (j_for_sites(47 - m) - j0) / j0) <= 0.032


@pytest.mark.parametrize("a", [0.0, -1e-9, math.inf, math.nan])
def test_separation_outside_the_positive_floats_is_a_value_error(a):
    with pytest.raises(ValueError, match="separation must be positive and finite"):
        herring_flicker(a)


def test_overflowing_separation_is_a_value_error():
    with pytest.raises(ValueError, match=r"separation 1e\+200 m is too large"):
        herring_flicker(1e200)
    with pytest.raises(ValueError, match="site separation 1000+ is too large"):
        j_for_sites(10**400)


def test_domain_ends_where_the_decay_factor_leaves_the_normal_floats():
    # exp(-2a/a_B) is subnormal from N = 1529, where J would lose precision
    # (J(1539) == J(1540)) and then underflow to 0.0 (from N = 1541)
    values = [j_for_sites(n) for n in range(1400, 1529)]
    assert all(b < a for a, b in zip(values, values[1:])) and values[-1] > 0
    for n in (1529, 1540, 1541, 10**6):
        with pytest.raises(ValueError, match=re.escape(
                f"separation {n * LATTICE_STEP_A0:g} m is too large for the exchange formula: "
                "its factor exp(-2a/a_B) = ")):
            j_for_sites(n)
    with pytest.raises(ValueError, match="is not a normal float"):
        exchange_table(1528, 1529)


def test_exact_linear_coefficient():
    # d(ln J)/dm for separation N0 - m equals 2 a0/aB - 5/(2 N0)
    a0 = LATTICE_STEP_A0
    ab = BOHR_RADIUS_AB
    eps = 1e-3
    n0 = 47
    jp = herring_flicker((n0 - eps) * a0)
    jm = herring_flicker((n0 + eps) * a0)
    slope = (jp - jm) / (2 * eps) / j_for_sites(n0)
    assert slope == pytest.approx(2 * a0 / ab - 5 / (2 * n0), abs=1e-4)
    assert slope == pytest.approx(0.4103, abs=1e-3)


def test_relative_step_matches_table_ratio():
    ratio = (j_for_sites(48) - j_for_sites(47)) / j_for_sites(47)
    assert ratio == pytest.approx(1.306 / 1.97 - 1.0, rel=0.01)


# float.hex of J (rad/s) at every separation of the default layout and of the
# benchmark's layouts (N0 47 and 48 with |m1|, |m2| <= 4). Frozen from the
# numpy `exp` this layer used before it became pure Python: `math.exp`
# gives the same bits at each of these separations.
FROZEN_J_HEX = {
    35: "0x1.6f5e03487ff47p+30",
    36: "0x1.eff7ff70cd62cp+29",
    37: "0x1.4e2622158c71dp+29",
    38: "0x1.c16e34b9cb70bp+28",
    39: "0x1.2db81714ea5f2p+28",
    40: "0x1.9471cf61520a6p+27",
    41: "0x1.0ea624932213ap+27",
    42: "0x1.69b0e7c440df6p+26",
    43: "0x1.e2ac668958f32p+25",
    44: "0x1.41a05c4124d36p+25",
    45: "0x1.ac12fd974267ep+24",
    46: "0x1.1c865725855a2p+24",
    47: "0x1.79c770a4ad86ap+23",
    48: "0x1.f507c822cbd88p+22",
    49: "0x1.4be2d0ad9f26fp+22",
    50: "0x1.b73abf389d220p+21",
    51: "0x1.225af08a9e97ep+21",
    52: "0x1.7f8361325dc8ap+20",
    53: "0x1.fa1785ecdf0efp+19",
    54: "0x1.4da0a42afc93dp+19",
    55: "0x1.b77e320c8ec08p+18",
    56: "0x1.213c8731d5d96p+18",
    57: "0x1.7c65cbfb624f9p+17",
    58: "0x1.f3e7f3d3abfa1p+16",
    59: "0x1.483c69c4d3395p+16",
    60: "0x1.aeba18bfd38e8p+15",
}


def test_j_bits_are_frozen_over_the_layout_separations():
    assert {n: float.hex(j_for_sites(n)) for n in FROZEN_J_HEX} == FROZEN_J_HEX


def test_exchange_table_rows_hold_python_numbers():
    for row in exchange_table(35, 60):
        assert [type(x) for x in row] == [int, float, float]
