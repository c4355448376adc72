import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from donorpair import (DEFAULT_GEOMETRY, DegenerateLabelError, DeviceGeometry, EnsembleConfig,
                       SwapBoundaryWarning, build_h0, compute_spectra, compute_spectrum,
                       effective_params, ensemble_init, exact_spectrum, perturbative_spectrum,
                       small_params, sweep_gate_error, transition_frequency, zeroth_energies)
from donorpair import protocols, spectrum
from donorpair.cli import main
from donorpair.protocols import design_protocol_pulses
from donorpair.constants import GAMMA_E as GE, GAMMA_N as GN, HYPERFINE_A, TWO_PI
from donorpair.geometry import DISPLACEMENTS, EffectiveParams
from donorpair.spectrum import ValidityError
from donorpair import register as reg


def _flip_flop_oracle() -> np.ndarray:
    """(A/2)(I+S- + I-S+) per atom, built directly from raising/lowering ops."""
    a = HYPERFINE_A
    out = np.zeros((16, 16), dtype=complex)
    for e, n in (("e1", "n1"), ("e2", "n2")):
        out += a / 2 * (reg.LOWER[n].T @ reg.LOWER[e] + reg.LOWER[n] @ reg.LOWER[e].T)
    return out


def _coupling_oracle(s1: str, s2: str) -> np.ndarray:
    """S_1 . S_2 = Sz Sz + (S+ S- + S- S+)/2, from raising/lowering ops."""
    return (reg.SZ[s1] @ reg.SZ[s2]
            + (reg.LOWER[s1].T @ reg.LOWER[s2] + reg.LOWER[s1] @ reg.LOWER[s2].T) / 2)


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
                                     a=default_params.a, j=0.0)
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
        w = np.max(np.abs(default_spectrum.eigenvectors) ** 2, axis=0)
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
        p = EffectiveParams(b1=p0.b1, b2=p0.b2, a=0.0, j=0.0)
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
        assert stacked.hamiltonian.shape == stacked.eigenvectors.shape == (81, 16, 16)
        assert stacked.exact_energies.shape == (81, 16) and stacked.params.j.shape == (81,)
        for i, (geometry, a) in enumerate(zip(self.GEOMETRIES, alone)):
            assert a.params == effective_params(geometry), geometry
            for field in ("b1", "b2", "a", "j"):
                assert getattr(stacked.params, field)[i] == getattr(a.params, field), (geometry, field)
            for field in ("hamiltonian", "exact_energies", "eigenvectors"):
                assert np.array_equal(getattr(stacked, field)[i], getattr(a, field)), (geometry, field)

    @pytest.mark.filterwarnings("ignore::donorpair.spectrum.SwapBoundaryWarning")
    @given(n0=st.integers(44, 50), gradient=st.floats(1.2e5, 1.4e5),
           field=st.floats(3.0, 3.6), m1=st.sampled_from(DISPLACEMENTS),
           m2=st.sampled_from(DISPLACEMENTS))
    @example(n0=44, gradient=1.4e5, field=3.0, m1=1, m2=-4)   # refused: labels 10/12 degenerate
    @settings(deadline=None)
    def test_one_chain_equals_its_stack_row(self, n0, gradient, field, m1, m2):
        # one body solves both: each one-chain record is its stack row, params
        # included, and a chain refused alone is refused by name in the stack
        layout = DeviceGeometry(n0=n0, gradient=gradient, mean_field_b=field)
        geometries = [layout, layout.displaced(m1, m2)]
        alone = []
        for geometry in geometries:
            try:
                alone.append(compute_spectrum(geometry))
            except ValidityError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    compute_spectra(geometries)
                return
        stack = compute_spectra(geometries)
        for i, one in enumerate(alone):
            for name in ("b1", "b2", "a", "j"):
                value = getattr(one.params, name)
                assert type(value) is float and value == getattr(stack.params, name)[i]
            for name in ("hamiltonian", "exact_energies", "eigenvectors"):
                assert getattr(one, name).tobytes() == getattr(stack, name)[i].tobytes(), name

    def test_stacked_build_equals_single_builds(self):
        params = [effective_params(g) for g in self.GEOMETRIES]
        stacked = EffectiveParams(*(np.array([getattr(p, f) for p in params])
                                    for f in ("b1", "b2", "a", "j")))
        h = build_h0(stacked)
        assert h.shape == (81, 16, 16)
        single = np.array([build_h0(p) for p in params])
        assert h.tobytes() == single.tobytes()   # every bit, signed zeros included

    @pytest.mark.parametrize("m1, m2", [(0, 0), (1, -1), (4, -1), (-3, 2)])
    def test_one_chain_derives_its_perturbative_levels(self, m1, m2):
        geometry = DEFAULT_GEOMETRY.displaced(m1, m2)
        p = effective_params(geometry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            spec = compute_spectrum(geometry)
        assert np.array_equal(spec.zeroth, zeroth_energies(p))
        assert np.array_equal(spec.pert_energies, perturbative_spectrum(p))
        assert spec.smallness == small_params(p)

    def test_exact_paths_compute_no_perturbative_level(self, monkeypatch):
        # the perturbative levels are computed only where they are read
        def no_levels(params):
            raise AssertionError("an exact path computed perturbative levels")
        monkeypatch.setattr(spectrum, "_block_energies", no_levels)
        protocols._form_tables.cache_clear()
        protocols._DESIGNS.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            compute_spectra(self.GEOMETRIES)
            sweep_gate_error("a", m_range=(-1, 0, 1), k_list=(1,))
            design_protocol_pulses()
            ensemble_init(EnsembleConfig(num_chains=10, num_realizations=1, law="A"))
        with pytest.raises(AssertionError, match="perturbative levels"):
            compute_spectrum(DEFAULT_GEOMETRY).zeroth

    def test_spectrum_command_reads_each_derived_value_once(self, monkeypatch):
        calls = []
        for name in ("zeroth_energies", "perturbative_spectrum", "small_params"):
            def counting(params, solve=getattr(spectrum, name), name=name):
                calls.append(name)
                return solve(params)
            monkeypatch.setattr(spectrum, name, counting)
        assert main(["spectrum"]) == 0
        assert sorted(calls) == ["perturbative_spectrum", "small_params", "zeroth_energies"]

    def test_stack_warns_as_its_geometries_do(self):
        # (1, -4) sits at the 10/12 label crossing, (0, 0) far from it
        with pytest.warns(SwapBoundaryWarning):
            compute_spectra([DEFAULT_GEOMETRY, DEFAULT_GEOMETRY.displaced(1, -4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", SwapBoundaryWarning)
            compute_spectra([DEFAULT_GEOMETRY, DEFAULT_GEOMETRY.displaced(2, 2)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one geometry"):
            compute_spectra([])

    def test_degenerate_geometry_in_stack_is_named(self):
        # a weak field leaves no basis state dominant (1 mT; both local
        # fields positive, as effective_params requires)
        bad = DeviceGeometry(gradient=1e3, mean_field_b=1e-3, m1=2, m2=-1)
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
        p = EffectiveParams(b1=p0.b1, b2=p0.b2, a=0.0, j=p0.j)
        assert np.allclose(perturbative_spectrum(p), zeroth_energies(p), atol=1e-9)

    def test_guard_warning_reports_the_margin_in_hz(self):
        # pair (4, -1) of the default grid lies 40 Hz from the label crossing
        with pytest.warns(SwapBoundaryWarning, match=r"margin is 40\.0 Hz;"):
            compute_spectrum(DEFAULT_GEOMETRY.displaced(4, -1))

    @pytest.mark.parametrize("solve", [
        lambda: compute_spectrum(DEFAULT_GEOMETRY.displaced(4, -1)),
        # law A can draw pair (4, -1), so its form table solves that chain
        lambda: ensemble_init(EnsembleConfig(num_chains=1, num_realizations=1, law="A")),
    ], ids=["compute_spectrum", "ensemble_init"])
    def test_guard_warning_names_the_caller(self, solve, monkeypatch):
        protocols._form_tables.cache_clear()   # no table solved before
        with pytest.warns(SwapBoundaryWarning, match=r"margin is 40\.0 Hz;") as record:
            solve()
        assert {w.filename for w in record} == {__file__}

    def test_swap_rule_and_guard_warning(self):
        # m2 - m1 = -5 sits within tens of Hz of the label crossing
        with pytest.warns(SwapBoundaryWarning):
            compute_spectrum(DEFAULT_GEOMETRY.displaced(1, -4))
        # past the crossing the labels must be exchanged to follow the exact ones
        p_past = effective_params(DEFAULT_GEOMETRY.displaced(2, -4))
        assert p_past.a / 2 > GE * p_past.delta_b
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            pert = perturbative_spectrum(p_past)
        exact, _ = exact_spectrum(build_h0(p_past))
        assert np.abs(pert - exact).max() <= TWO_PI * 200.0
        unswapped_10 = zeroth_energies(p_past)[12]   # level 10 before the label exchange
        assert abs(unswapped_10 - exact[10]) > abs(pert[10] - exact[10])


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

    @pytest.mark.parametrize("n", [3, 81])
    def test_stack_gives_each_chain_its_frequency(self, n):
        # levels sit on the last axis, so a stack's values are its chains' values
        geometries = TestStackedSpectrum.GEOMETRIES[:n]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            stack = compute_spectra(geometries)
            alone = [compute_spectrum(g) for g in geometries]
        for p, q in ((13, 15), (14, 15), (15, 13), (2, 4)):
            values = transition_frequency(stack, p, q)
            assert values.shape == (n,)
            assert values.tobytes() == np.array(
                [transition_frequency(spec, p, q) for spec in alone]).tobytes()

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
                            a=default_params.a, j=0.0)
        eps, eps_p, _ = small_params(p)
        assert eps == 0 and eps_p == 0

    def test_pole_guards(self, default_params):
        p = EffectiveParams(b1=3.3, b2=3.3, a=default_params.a, j=default_params.j)
        with pytest.raises(ValidityError):
            small_params(p)

    POLE_GRADIENT = 58085.84245741747   # 2*gamma_e*(B2-B1) lies 2e-14 of A from A (m1 = m2 = 0)

    def test_eps_prime_pole_guard(self, capsys):
        # the exact labels at the pole are clean (smallest dominant weight
        # 0.99972), so only small_params, the one reader of epsilon', refuses it
        pole = DeviceGeometry(gradient=self.POLE_GRADIENT)
        spec = compute_spectrum(pole)
        stack = compute_spectra([pole.displaced(m1=1), pole])
        for vectors in (spec.eigenvectors, *stack.eigenvectors):
            assert (np.argmax(abs(vectors) ** 2, axis=0) == np.arange(16)).all()
        assert np.array_equal(stack.exact_energies[1], spec.exact_energies)
        with pytest.raises(ValidityError, match="epsilon' pole"):
            small_params(spec.params)
        assert main(["spectrum", "--gradient-T-per-m", str(self.POLE_GRADIENT)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "epsilon' pole" in err

    @pytest.mark.parametrize("argv, column", [
        (["sweep", "--gate", "a"], "P"),
        (["ee-cnot"], "P_e"),
        (["design", "--gate", "b", "--m1", "-1"], None),
        (["ensemble", "--chains", "500", "--realizations", "2", "--law", "A,none",
          "--Kn", "2000"], "mean_P"),
    ], ids=["sweep", "ee-cnot", "design", "ensemble"])
    def test_exact_commands_run_at_eps_prime_pole(self, argv, column, capsys):
        # these read only exact and zeroth-order levels, never epsilon'
        assert main([*argv, "--gradient-T-per-m", str(self.POLE_GRADIENT)]) == 0
        header, *rows = capsys.readouterr().out.strip().split("\n")
        assert rows
        if column is not None:
            values = [float(row.split(",")[header.split(",").index(column)]) for row in rows]
            assert all(0 <= p <= 1 for p in values), values
