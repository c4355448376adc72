import numpy as np
import pytest
from hypothesis import given, strategies as st

from donorpair import DEFAULT_GEOMETRY, DeviceGeometry, effective_params, field_step, j_for_sites
from donorpair.constants import GAMMA_E as GE, GAMMA_N as GN, TWO_PI


displacements = st.integers(min_value=-4, max_value=4)


def test_nominal_fields():
    p = effective_params(DEFAULT_GEOMETRY)
    assert p.b == pytest.approx(3.3, rel=1e-12)
    assert GE * p.delta_b / TWO_PI == pytest.approx(65.76e6, rel=1e-12)
    assert GN * p.delta_b / TWO_PI == pytest.approx(40.48e3, rel=1e-3)
    assert p.b2 > p.b1
    assert p.j > 0


def test_nominal_j_matches_exchange_value():
    p = effective_params(DEFAULT_GEOMETRY)
    assert p.j / TWO_PI == pytest.approx(1.97e6, rel=0.01)


def test_field_step_is_gradient_times_lattice_step():
    db = field_step()
    assert db == pytest.approx(1.3e5 * 7.68e-10, rel=1e-15)
    assert GE * db / TWO_PI == pytest.approx(2.798e6, rel=5e-3)
    # per-site step consistent with (B2-B1)/N0 at zero displacement
    p = effective_params(DEFAULT_GEOMETRY)
    assert db == pytest.approx((p.b2 - p.b1) / 47, rel=1e-3)


def test_single_site_displacement_lowers_field_and_j():
    p0 = effective_params(DEFAULT_GEOMETRY)
    p = effective_params(DEFAULT_GEOMETRY.displaced(m1=-1))
    assert p0.b1 - p.b1 == pytest.approx(9.985e-5, rel=1e-3)
    assert DEFAULT_GEOMETRY.displaced(m1=-1).separation_sites == 48
    assert p.j == j_for_sites(48)
    assert p.j / TWO_PI == pytest.approx(1.306e6, rel=0.01)


def test_rigid_translation_preserves_separation_and_j():
    p0 = effective_params(DEFAULT_GEOMETRY)
    p = effective_params(DEFAULT_GEOMETRY.displaced(m1=2, m2=2))
    db = field_step()
    assert (DEFAULT_GEOMETRY.displaced(m1=2, m2=2).separation_sites
            == DEFAULT_GEOMETRY.separation_sites)
    assert p.j == p0.j
    assert p.b1 - p0.b1 == pytest.approx(2 * db, rel=1e-12)
    assert p.b2 - p0.b2 == pytest.approx(2 * db, rel=1e-12)


@given(m1=displacements, m2=displacements, c=st.integers(min_value=-2, max_value=2))
def test_uniform_shift_property(m1, m2, c):
    if max(abs(m1 + c), abs(m2 + c)) > 4:
        return
    p = effective_params(DEFAULT_GEOMETRY.displaced(m1, m2))
    q = effective_params(DEFAULT_GEOMETRY.displaced(m1 + c, m2 + c))
    assert q.j == p.j
    assert q.delta_b == pytest.approx(p.delta_b, abs=1e-15)
    assert q.b1 - p.b1 == pytest.approx(c * field_step(), abs=1e-14)


@given(m1=displacements, m2=displacements)
def test_effective_params_deterministic(m1, m2):
    g = DEFAULT_GEOMETRY.displaced(m1, m2)
    p, q = effective_params(g), effective_params(g)
    assert (p.b1, p.b2, p.a, p.j) == (q.b1, q.b2, q.a, q.j)


def test_geometry_validation():
    with pytest.raises(ValueError):
        DeviceGeometry(m1=5)
    with pytest.raises(ValueError):
        DeviceGeometry(n0=1, m1=4, m2=-4)   # atoms cross
    with pytest.raises(ValueError):
        DeviceGeometry(gradient=-1.0)


@pytest.mark.parametrize("make, field", [
    (lambda: DeviceGeometry(n0=47.5), "n0"),
    (lambda: DeviceGeometry(n0="47"), "n0"),
    (lambda: DEFAULT_GEOMETRY.displaced(m1=0.5), "m1"),
    (lambda: DEFAULT_GEOMETRY.displaced(m2=-1.0), "m2"),
])
def test_site_counts_must_be_integers(make, field):
    # n0, m1 and m2 count lattice sites: an off-lattice chain is refused, not solved
    with pytest.raises(ValueError, match=f"^{field} = .* is not an integer$"):
        make()


def test_numpy_integer_site_counts_accepted():
    geometry = DeviceGeometry(n0=np.int64(47), m1=np.int8(-1), m2=np.int32(2))
    assert geometry.separation_sites == 50
    assert effective_params(geometry) == effective_params(DEFAULT_GEOMETRY.displaced(-1, 2))


@pytest.mark.parametrize("field", ["gradient", "mean_field_b"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "1e400"])
def test_non_finite_field_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        DeviceGeometry(**{field: value})


@pytest.mark.parametrize("geometry, message", [
    # B1 < 0 while the mean stays positive, from a gradient of about 1.9e8 T/m
    (DeviceGeometry(gradient=2e8), "B1 = -0.30996363137308736 T of DeviceGeometry(n0=47, "
                                   "gradient=200000000.0, mean_field_b=3.3, m1=0, m2=0) "
                                   "is not positive"),
    # gamma_e * B overflows to inf
    (DeviceGeometry(mean_field_b=1e300), "B1 = 1e+300 T of DeviceGeometry(n0=47, "
                                         "gradient=130000.0, mean_field_b=1e+300, m1=0, m2=0) "
                                         "is too large: its Zeeman term gamma_e*B1 is not finite"),
    # B1 and B2 round to one value from a mean field of about 3.5e13 T
    (DeviceGeometry(mean_field_b=1e200), "B1 = 1e+200 T of DeviceGeometry(n0=47, "
                                         "gradient=130000.0, mean_field_b=1e+200, m1=0, m2=0) "
                                         "equals B2 = 1e+200 T"),
])
def test_field_outside_the_model_rejected(geometry, message):
    with pytest.raises(ValueError) as exc:
        effective_params(geometry)
    assert str(exc.value).startswith("the local field ") and message in str(exc.value)


@pytest.mark.parametrize("gradient", [1e30, 1e200])
def test_no_positive_mean_field_rejected(gradient):
    # so large a gradient cancels B1 + B2 to 0 in floating point
    geometry = DeviceGeometry(gradient=gradient)
    with pytest.raises(ValueError, match=r"B1 = -.* T and B2 = .* T of DeviceGeometry\(") as exc:
        effective_params(geometry)
    assert "no positive mean" in str(exc.value) and repr(gradient) in str(exc.value)


@pytest.mark.parametrize("mean_field_b", [1.7e7, 1e9, 3.4e13])
def test_field_difference_that_rounding_decides_rejected(mean_field_b):
    # rounding error bound ulp(B1) + ulp(B2) above 1e-6 of B2 - B1, named by the mean field
    with pytest.raises(ValueError, match="the local fields B1 = ") as exc:
        effective_params(DeviceGeometry(mean_field_b=mean_field_b))
    assert f"at the mean field {mean_field_b!r} T rounding decides B2 - B1" in str(exc.value)
