import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from donorpair import (DEFAULT_GEOMETRY, DegenerateLabelError, DeviceGeometry,
                       SwapBoundaryWarning, build_h0, compute_spectra, compute_spectrum,
                       effective_params,
                       exact_spectrum, perturbative_spectrum, small_params,
                       transition_frequency, zeroth_energies)
from donorpair.constants import DEFAULT_CONSTANTS, TWO_PI
from donorpair.geometry import EffectiveParams
from donorpair.spectrum import ValidityError
from donorpair import register as reg

GE = DEFAULT_CONSTANTS.gamma_e
GN = DEFAULT_CONSTANTS.gamma_n


def _flip_flop_oracle() -> np.ndarray:
    """(A/2)(I+S- + I-S+) per atom, built directly from raising/lowering ops."""
    a = DEFAULT_CONSTANTS.hyperfine_a
    out = np.zeros((16, 16), dtype=complex)
    for e, n in (("e1", "n1"), ("e2", "n2")):
        out += a / 2 * (reg.RAISE[n] @ reg.LOWER[e] + reg.LOWER[n] @ reg.RAISE[e])
    return out


def _coupling_oracle(s1: str, s2: str) -> np.ndarray:
    """S_1 . S_2 = Sz Sz + (S+ S- + S- S+)/2, from raising/lowering ops."""
    return (reg.SZ[s1] @ reg.SZ[s2]
            + (reg.RAISE[s1] @ reg.LOWER[s2] + reg.LOWER[s1] @ reg.RAISE[s2]) / 2)


class TestHamiltonian:
    def test_hermitian_and_real(self, default_params):
        h = build_h0(default_params)
        assert np.allclose(h, h.conj().T)
        assert np.abs(h.imag).max() == 0

    def test_top_state_diagonal(self, default_params):
        p = default_params
        h = build_h0(p)
        expected = (GE - GN) * p.b + p.a / 2 + p.j / 4
        assert h[0, 0].real == pytest.approx(expected, rel=1e-14)

    def test_hyperfine_flip_flop_element(self, default_params):
        # <0010|H|0001> couples n1,e1 through the transverse hyperfine terms
        h = build_h0(default_params)
        assert h[2, 1] == pytest.approx(default_params.a / 2, rel=1e-14)
        oracle = _flip_flop_oracle()
        assert oracle[2, 1] == pytest.approx(default_params.a / 2, rel=1e-14)
        # every off-diagonal hyperfine element matches the ladder-operator form
        p_diagless = EffectiveParams(b1=default_params.b1, b2=default_params.b2,
                                     a=default_params.a, j=0.0,
                                     separation_sites=default_params.separation_sites,
                                     gamma_e=GE, gamma_n=GN)
        h_no_j = build_h0(p_diagless)
        off = h_no_j - np.diag(np.diag(h_no_j))
        assert np.allclose(off, oracle, atol=1e-6)

    @pytest.mark.parametrize("coupling, s1, s2", [
        (reg.HYPERFINE_1, "e1", "n1"),
        (reg.HYPERFINE_2, "e2", "n2"),
        (reg.EXCHANGE, "e1", "e2"),
    ])
    def test_couplings_match_ladder_operator_form(self, coupling, s1, s2):
        np.testing.assert_allclose(coupling, _coupling_oracle(s1, s2), rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            coupling[0, 0] = 1.0

    def test_block_structure_in_total_projection(self, default_params):
        h = build_h0(default_params)
        fz = reg.FZ_DIAG
        for p in range(16):
            for q in range(16):
                if fz[p] != fz[q]:
                    assert h[p, q] == 0


class TestExactSpectrum:
    def test_labels_and_weights(self, default_spectrum):
        w = default_spectrum.dominant_weights()
        assert w.min() > 0.99

    def test_decoupled_corner_states_exact(self, default_spectrum):
        p = default_spectrum.params
        e0 = (GE - GN) * p.b + p.a / 2 + p.j / 4
        e15 = (-GE + GN) * p.b + p.a / 2 + p.j / 4
        assert default_spectrum.exact_energies[0] == pytest.approx(e0, rel=1e-13)
        assert default_spectrum.exact_energies[15] == pytest.approx(e15, rel=1e-13)

    def test_trace_identity(self, default_spectrum):
        tr = np.trace(default_spectrum.hamiltonian).real
        assert default_spectrum.exact_energies.sum() == pytest.approx(tr, rel=1e-9, abs=1e-3)

    def test_unitary_eigenvectors_and_residual(self, default_spectrum):
        v = default_spectrum.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(16)) < 1e-12
        h = default_spectrum.hamiltonian
        resid = np.linalg.norm(h @ v - v * default_spectrum.exact_energies)
        assert resid <= 1e-10 * np.linalg.norm(h)

    def test_zeeman_limit_diagonal(self):
        p0 = effective_params(DEFAULT_GEOMETRY)
        p = EffectiveParams(b1=p0.b1, b2=p0.b2, a=0.0, j=0.0,
                            separation_sites=p0.separation_sites, gamma_e=GE, gamma_n=GN)
        h = build_h0(p)
        energies, _ = exact_spectrum(h)
        assert np.allclose(energies, np.diag(h).real, atol=1e-3)

    def test_degenerate_labels_rejected(self):
        # an equal-weight doublet leaves two eigenvectors claiming one label
        h = np.zeros((16, 16), dtype=complex)
        h[0, 1] = h[1, 0] = 1.0
        with pytest.raises(DegenerateLabelError):
            exact_spectrum(h)


class TestStackedSpectrum:
    GEOMETRIES = [DEFAULT_GEOMETRY.displaced(m1, m2)
                  for m1 in range(-4, 5) for m2 in range(-4, 5)]

    def test_stack_rows_equal_single_solves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            stacked = compute_spectra(self.GEOMETRIES)
            alone = [compute_spectrum(g) for g in self.GEOMETRIES]
        assert len(stacked) == 81
        for geometry, s, a in zip(self.GEOMETRIES, stacked, alone):
            assert s.params == a.params and s.smallness == a.smallness, geometry
            for field in ("hamiltonian", "exact_energies", "eigenvectors", "zeroth",
                          "pert_energies"):
                assert np.array_equal(getattr(s, field), getattr(a, field)), (geometry, field)

    def test_stack_warns_as_its_geometries_do(self):
        # (1, -4) sits at the 10/12 label crossing, (0, 0) far from it
        with pytest.warns(SwapBoundaryWarning):
            compute_spectra([DEFAULT_GEOMETRY, DEFAULT_GEOMETRY.displaced(1, -4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", SwapBoundaryWarning)
            compute_spectra([DEFAULT_GEOMETRY, DEFAULT_GEOMETRY.displaced(2, 2)])

    def test_degenerate_geometry_in_stack_is_named(self):
        # a vanishing field leaves no basis state dominant
        bad = DeviceGeometry(mean_field_b=1e-6, m1=2, m2=-1)
        with pytest.raises(DegenerateLabelError):
            compute_spectrum(bad)
        stack = [DEFAULT_GEOMETRY, DEFAULT_GEOMETRY.displaced(1, 1), bad,
                 DEFAULT_GEOMETRY.displaced(-3, 3)]
        with pytest.raises(DegenerateLabelError, match=r"m1 = 2, m2 = -1"):
            compute_spectra(stack)
        h = np.stack([build_h0(effective_params(g)) for g in stack])
        with pytest.raises(DegenerateLabelError) as info:
            exact_spectrum(h)
        assert info.value.entry == 2


class TestPerturbativeSpectrum:
    def test_leading_order_formulas(self, default_spectrum):
        p = default_spectrum.params
        e0 = default_spectrum.zeroth
        sq0 = np.hypot(GE * p.delta_b, p.j / 2)
        assert e0[1] == pytest.approx(GE * p.b - GN * p.delta_b + p.j / 4, rel=1e-14)
        assert e0[13] == pytest.approx(GN * p.b - p.j / 4 - sq0, rel=1e-12)

    def test_agreement_with_exact_at_nominal_geometry(self, default_spectrum):
        dev = np.abs(default_spectrum.pert_energies - default_spectrum.exact_energies)
        assert dev.max() <= TWO_PI * 100.0

    def test_agreement_with_exact_over_displacement_grid(self):
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            for m1 in range(-4, 5):
                for m2 in range(-4, 5):
                    p = effective_params(DEFAULT_GEOMETRY.displaced(m1, m2))
                    exact, _ = exact_spectrum(build_h0(p))
                    pert = perturbative_spectrum(p)
                    worst = max(worst, np.abs(pert - exact).max())
        assert worst <= TWO_PI * 200.0

    def test_corrections_vanish_without_hyperfine(self):
        p0 = effective_params(DEFAULT_GEOMETRY)
        p = EffectiveParams(b1=p0.b1, b2=p0.b2, a=0.0, j=p0.j,
                            separation_sites=p0.separation_sites, gamma_e=GE, gamma_n=GN)
        assert np.allclose(perturbative_spectrum(p), zeroth_energies(p), atol=1e-9)

    def test_swap_rule_and_guard_warning(self):
        # m2 - m1 = -5 sits within tens of Hz of the label crossing
        p_near = effective_params(DEFAULT_GEOMETRY.displaced(1, -4))
        with pytest.warns(SwapBoundaryWarning):
            perturbative_spectrum(p_near)
        # past the crossing the labels must be exchanged to follow the exact ones
        p_past = effective_params(DEFAULT_GEOMETRY.displaced(2, -4))
        assert p_past.a / 2 > GE * p_past.delta_b
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            pert = perturbative_spectrum(p_past)
        exact, _ = exact_spectrum(build_h0(p_past))
        assert np.abs(pert - exact).max() <= TWO_PI * 200.0
        swapped = zeroth_energies(p_past, apply_swap=False)
        assert abs(swapped[10] - exact[10]) > abs(pert[10] - exact[10])


class TestTransitions:
    def test_electron_flip_frequency(self, default_spectrum):
        nu1 = transition_frequency(default_spectrum, 13, 15)
        assert nu1 / TWO_PI / 1e9 == pytest.approx(-92.35, abs=0.01)

    def test_nuclear_flip_frequency(self, default_spectrum):
        # exact value; the leading-order formula lands on 115.655 MHz
        nu2 = transition_frequency(default_spectrum, 14, 15)
        assert nu2 / TWO_PI / 1e6 == pytest.approx(115.6916162, rel=1e-7)
        z = default_spectrum.zeroth
        assert (z[15] - z[14]) / TWO_PI / 1e6 == pytest.approx(115.655, abs=1e-3)

    @given(p=st.integers(0, 15), q=st.integers(0, 15))
    @settings(max_examples=30)
    def test_antisymmetry(self, default_spectrum, p, q):
        if p == q:
            return
        assert transition_frequency(default_spectrum, p, q) == pytest.approx(
            -transition_frequency(default_spectrum, q, p), rel=1e-15, abs=1e-9)

    def test_same_state_rejected(self, default_spectrum):
        with pytest.raises(ValueError):
            transition_frequency(default_spectrum, 3, 3)


class TestSmallness:
    def test_nominal_values(self, default_params):
        eps, eps_p, xi = small_params(default_params)
        assert xi == pytest.approx(6.354e-4, rel=1e-3)
        assert eps == pytest.approx(7.490e-3, rel=1e-3)
        assert eps_p == pytest.approx(1.354e-2, rel=1e-3)

    def test_vanish_without_exchange(self, default_params):
        p = EffectiveParams(b1=default_params.b1, b2=default_params.b2,
                            a=default_params.a, j=0.0,
                            separation_sites=default_params.separation_sites,
                            gamma_e=GE, gamma_n=GN)
        eps, eps_p, _ = small_params(p)
        assert eps == 0 and eps_p == 0

    def test_pole_guards(self, default_params):
        p = EffectiveParams(b1=3.3, b2=3.3, a=default_params.a, j=default_params.j,
                            separation_sites=47, gamma_e=GE, gamma_n=GN)
        with pytest.raises(ValidityError):
            small_params(p)
