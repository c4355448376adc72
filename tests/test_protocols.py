import concurrent.futures
import dataclasses
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from donorpair import protocols
from donorpair.geometry import DISPLACEMENTS
from donorpair import (DEFAULT_GEOMETRY, GATES, DeviceGeometry, EnsembleConfig, ValidityError, compute_spectra, compute_spectrum,
                       design_gate, ensemble_grid, ensemble_init, ensemble_workers,
                       pulse_propagator, run_ee_cnot, run_initialization, sweep_gate_error)
from donorpair.protocols import (LAW_CODES, LAWS, _chain_draws, _chain_errors,
                                 _form_coefficients, _form_tables, _pair_rows,
                                 design_protocol_pulses, protocol_form)

# Frozen cross-implementation values (independent prototype of the same
# model run ahead of this package; tolerances cover BLAS-level variation).
FROZEN_SWEEP_A = {(0, 1): 3.3858e-5, (-1, 1): 1.3314e-3, (+1, 1): 1.2193e-3,
                  (-4, 4): 0.40818, (+4, 2): 5.1370e-2}
FROZEN_SWEEP_B = {(0, 2000): 1.150459e-1, (0, 10000): 4.4727e-4,
                  (-1, 5000): 4.1423e-2, (+4, 700): 3.5186e-1}
FROZEN_INIT = {(0, 2000): 1.065123e-1, (0, 10000): 4.890101e-4,
               (-1, 10000): 8.521113e-2}
FROZEN_EE = {0: 1.7628e-4, -1: 0.94433, +1: 0.97316}


def haar_amplitudes(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    """Uniformly random normalized complex amplitude vector (reference draw)."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def scalar_displacement(r, magnitude: float, sign: float) -> int:
    """One displacement by the per-draw rule: the first |m| whose running sum
    of r exceeds the magnitude uniform, positive if the sign uniform is below 0.5."""
    acc = 0.0
    for mag, prob in enumerate(r, start=1):
        acc += prob
        if magnitude < acc:
            return mag if sign < 0.5 else -mag
    return 0


def reference_chains(config: EnsembleConfig, realization: int):
    """(m1, m2, eight normals) of each chain of a realization, in chain order.

    Drawn here from default_rng([seed, law code, k_n, k_e, realization]) in
    full blocks of 1024 chains, (1024, 4) uniforms and then (1024, 8) normals,
    and mapped to displacements by scalar_displacement.
    """
    rng = np.random.default_rng([config.seed, LAW_CODES[config.law],
                                 config.k_n, config.k_e, realization])
    r = LAWS[config.law]
    chains = 0
    while chains < config.num_chains:
        uniforms, normals = rng.random((1024, 4)), rng.standard_normal((1024, 8))
        for u, g in zip(uniforms[:config.num_chains - chains], normals):
            yield scalar_displacement(r, u[0], u[2]), scalar_displacement(r, u[1], u[3]), g
            chains += 1


def row_of(m1: int, m2: int) -> int:
    """Form-table row of the displacement pair (m1, m2): m1 major, both from -4."""
    return (m1 + 4) * 9 + (m2 + 4)


def random_forms(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random 4x4 Hermitian matrices with spectrum in [0, 1], like protocol forms."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    return (q * rng.uniform(0.0, 1.0, size=(n, 1, 4))) @ q.conj().transpose(0, 2, 1)


class TestSweeps:
    def test_gate_a_frozen_values(self):
        table = sweep_gate_error("a", m_range=(-4, -1, 0, 1, 4), k_list=(1, 2, 4))
        for key, want in FROZEN_SWEEP_A.items():
            assert table[key] == pytest.approx(want, rel=1e-3), key

    def test_gate_b_frozen_values(self):
        table = sweep_gate_error("b", m_range=(-1, 0, 4), k_list=(700, 2000, 5000, 10000))
        for key, want in FROZEN_SWEEP_B.items():
            assert table[key] == pytest.approx(want, rel=1e-3), key

    def test_errors_are_probabilities(self):
        table = sweep_gate_error("a", m_range=range(-4, 5), k_list=(1,))
        assert all(0.0 <= p <= 1.0 for p in table.values())

    def test_errors_are_python_floats(self):
        table = sweep_gate_error("b", m_range=(-1, 0), k_list=(700,))
        assert [type(p) for p in table.values()] == [float, float]
        assert type(run_ee_cnot(DEFAULT_GEOMETRY.displaced(m1=1))) is float

    def test_neighbor_displacement_baseline_identical(self):
        table = sweep_gate_error("b", m_range=(0,), k_list=(2000,), displaced_atom=2)
        direct = sweep_gate_error("b", m_range=(0,), k_list=(2000,))
        assert table[(0, 2000)] == direct[(0, 2000)]

    def test_neighbor_displacement_electron_gate_feels_j(self):
        # the electron gate is J-sensitive, so the same neighbour sweep moves it
        table = sweep_gate_error("a", m_range=(0, 2), k_list=(4,), displaced_atom=2)
        assert abs(table[(2, 4)] - table[(0, 4)]) > 10 * table[(0, 4)]

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            sweep_gate_error("x")

    @pytest.mark.parametrize("atom", [0, 3])
    def test_displaced_atom_outside_the_pair_rejected(self, atom):
        with pytest.raises(ValueError, match="displaced_atom must be 1 or 2"):
            sweep_gate_error("a", m_range=(0,), displaced_atom=atom)


class TestInitialization:
    def test_frozen_values(self):
        for (m1, kn), want in FROZEN_INIT.items():
            run = run_initialization(DEFAULT_GEOMETRY.displaced(m1=m1), k_e=1, k_n=kn)
            assert run.final_error == pytest.approx(want, rel=1e-3), (m1, kn)

    def test_default_pulses_are_designed_for_the_chains_layout(self):
        for geometry in (DeviceGeometry(n0=48), DeviceGeometry(n0=48).displaced(m1=1)):
            pulses = design_protocol_pulses(1, 2000, DeviceGeometry(n0=48))
            assert (run_initialization(geometry, 1, 2000).final_error
                    == run_initialization(geometry, 1, 2000, pulses=pulses).final_error)

    def test_records_pulse_fidelities(self):
        run = run_initialization(DEFAULT_GEOMETRY, k_n=10000)
        assert set(run.pulse_fidelities) == {"a", "b", "c", "d"}
        assert all(0.9 < f <= 1.0 for f in run.pulse_fidelities.values())

    def test_target_state_approximately_preserved(self):
        amps = np.zeros(4, dtype=complex)
        amps[3] = 1.0   # the |1111>-like eigenstate
        run = run_initialization(DEFAULT_GEOMETRY, k_n=10000, initial=amps)
        assert run.final_error == pytest.approx(3.1162e-4, rel=1e-3)

    def test_rejects_bad_initial_length(self):
        for length in (5, 16):   # 16 too: the reference takes the engine's four amplitudes only
            with pytest.raises(ValueError, match="initial must hold 4 amplitudes"):
                run_initialization(DEFAULT_GEOMETRY, initial=np.ones(length))

    @pytest.mark.parametrize("initial", [np.zeros(4), [np.nan, 0, 0, 1], [np.inf, 0, 0, 0]])
    def test_rejects_state_without_a_norm(self, initial):
        # normalizing it would turn every step's error into NaN
        with pytest.raises(ValueError, match="finite and not all zero"):
            run_initialization(DEFAULT_GEOMETRY, initial=initial)

    def test_pulses_follow_protocol_order(self):
        # the form-table cache keys on tuple(pulses.items()), so the order is part of the key
        pulses = design_protocol_pulses(1, 2000)
        assert list(pulses) == ["a", "b", "c", "d"]
        spec0 = compute_spectrum(DEFAULT_GEOMETRY)
        assert list(pulses.values()) == [design_gate(spec0, GATES[name], k) for name, k
                                         in (("a", 1), ("b", 2000), ("c", 1), ("d", 2000))]


class TestEeCnot:
    def test_nominal_and_displaced(self):
        for m, want in FROZEN_EE.items():
            got = run_ee_cnot(DEFAULT_GEOMETRY.displaced(m1=m))
            assert got == pytest.approx(want, rel=1e-3), m

    def test_displacement_ruins_the_gate(self):
        p0 = run_ee_cnot(DEFAULT_GEOMETRY)
        assert 1e-5 <= p0 <= 5e-3
        for m in (-1, 1):
            assert run_ee_cnot(DEFAULT_GEOMETRY.displaced(m1=m)) >= 50 * p0


class TestSingleChainProperties:
    @pytest.mark.filterwarnings("ignore::donorpair.spectrum.SwapBoundaryWarning")
    @given(n0=st.integers(44, 50), gradient=st.floats(1.2e5, 1.4e5),
           m1=st.integers(-4, 4), m2=st.integers(-4, 4),
           k_a=st.sampled_from((1, 2, 4)), k_b=st.sampled_from((700, 2000, 30000)))
    @settings(max_examples=25, deadline=None)
    def test_valid_result_or_validity_error(self, n0, gradient, m1, m2, k_a, k_b):
        # a layout near the paper's either drives every single-chain path to
        # an error in [0, 1] and a form between 0 and 1, or is refused
        nominal = DeviceGeometry(n0=n0, gradient=gradient)
        chain = nominal.displaced(m1, m2)
        try:
            a = sweep_gate_error("a", (m1,), (k_a,), geometry_nominal=nominal)[m1, k_a]
            b = sweep_gate_error("b", (m2,), (k_b,), displaced_atom=2,
                                 geometry_nominal=nominal)[m2, k_b]
            ee = run_ee_cnot(chain)
            form = protocol_form(chain, design_protocol_pulses(1, k_b, geometry_nominal=nominal))
        except ValidityError:
            return
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= ee <= 1.0
        assert np.abs(form - form.conj().T).max() <= 1e-12
        eigenvalues = np.linalg.eigvalsh(form)
        assert eigenvalues.min() >= -1e-12 and eigenvalues.max() <= 1.0 + 1e-12


class TestDistribution:
    def test_law_tables(self):
        assert LAWS["A"] == (0.25, 0.125, 0.0625, 0.03125)
        assert LAWS["B"] == (0.125, 0.0625, 0.03125, 0.015625)
        assert LAWS["none"] == (0.0, 0.0, 0.0, 0.0)
        assert sorted(LAWS) == sorted(LAW_CODES)

    def test_sampling_statistics(self):
        rng = np.random.default_rng(123)
        rows = _pair_rows("A", rng.random((40000, 4)))
        for draws in (rows // 9 - 4, rows % 9 - 4):   # m1, m2
            assert abs((draws == 0).mean() - 0.53125) < 0.01
            for mag in (1, 2, 3, 4):
                assert abs((np.abs(draws) == mag).mean() - 0.5 ** (mag + 1)) < 0.01
            signed = draws[draws != 0]
            assert abs((signed > 0).mean() - 0.5) < 0.02

    @given(data=st.data(), law=st.sampled_from(sorted(LAWS)))
    @settings(max_examples=80)
    def test_displacements_match_scalar_rule(self, data, law):
        # uniforms exactly on a cumulative threshold, or just below it, included
        thresholds = list(itertools.accumulate(LAWS[law]))
        edges = thresholds + [float(np.nextafter(t, 0.0)) for t in thresholds]
        unit = st.floats(0.0, 1.0, exclude_max=True)
        mag = st.one_of(unit, st.sampled_from(edges))
        sign = st.one_of(unit, st.just(0.5))
        chains = data.draw(st.lists(st.tuples(mag, mag, sign, sign), min_size=1, max_size=40))
        got = _pair_rows(law, np.array(chains))
        r = LAWS[law]
        assert got.tolist() == [row_of(scalar_displacement(r, mag1, sign1),
                                       scalar_displacement(r, mag2, sign2))
                                for mag1, mag2, sign1, sign2 in chains]

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_every_code_pair_maps_to_its_row(self, law):
        # every (magnitude code, sign) of atom 1 against every one of atom 2:
        # magnitude uniforms at 0, exactly on each partial sum, just below it
        # and just below 1; sign uniforms at 0, around 0.5 and just below 1
        thresholds = list(itertools.accumulate(LAWS[law]))
        mags = sorted({0.0, float(np.nextafter(1.0, 0.0)), *thresholds,
                       *(float(np.nextafter(t, 0.0)) for t in thresholds)})
        signs = [0.0, float(np.nextafter(0.5, 0.0)), 0.5, float(np.nextafter(0.5, 1.0)),
                 float(np.nextafter(1.0, 0.0))]
        atom = list(itertools.product(mags, signs))   # (magnitude, sign) of one atom
        chains = [(mag1, mag2, sign1, sign2)
                  for (mag1, sign1), (mag2, sign2) in itertools.product(atom, atom)]
        got = _pair_rows(law, np.array(chains))
        r = LAWS[law]
        assert got.tolist() == [row_of(scalar_displacement(r, mag1, sign1),
                                       scalar_displacement(r, mag2, sign2))
                                for mag1, mag2, sign1, sign2 in chains]
        # the uniforms reach every (number of partial sums <= magnitude, sign < 0.5)
        # code a uniform in [0, 1) can reach: all ten under laws A and B, and
        # only |m| = 0 of either sign under law none, whose partial sums are all 0
        codes = {(sum(t <= mag for t in thresholds), sign < 0.5) for mag, sign in atom}
        assert len(codes) == (2 if law == "none" else 10)
        assert len(set(got.tolist())) == (1 if law == "none" else 81)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_haar_amplitudes_normalized(self, seed):
        amps = haar_amplitudes(np.random.default_rng(seed))
        assert np.linalg.norm(amps) == pytest.approx(1.0, rel=1e-12)


SMALL = EnsembleConfig(num_chains=60, num_realizations=3, law="A",
                       k_e=1, k_n=2000, seed=42, threads=1)


class TestEnsemble:
    def test_deterministic_repeat(self):
        r1 = ensemble_init(SMALL)
        r2 = ensemble_init(SMALL)
        assert r1.realization_means == r2.realization_means

    def test_thread_count_does_not_change_results(self, pools):
        serial = ensemble_init(SMALL)
        parallel = ensemble_init(EnsembleConfig(num_chains=60, num_realizations=3,
                                                law="A", k_e=1, k_n=2000, seed=42,
                                                threads=2))
        assert pools == [{"max_workers": 2}]
        assert serial.realization_means == parallel.realization_means

    def test_mean_matches_isolated_chains(self):
        # ensemble averaging must equal per-chain runs done in isolation
        config = EnsembleConfig(num_chains=8, num_realizations=1, law="B",
                                k_n=5000, seed=7, threads=1)
        result = ensemble_init(config)
        pulses = design_protocol_pulses(config.k_e, config.k_n)
        total = 0.0
        for m1, m2, normals in reference_chains(config, 0):
            amps = (normals[:4] + 1j * normals[4:]) / np.linalg.norm(normals)
            form = protocol_form(DEFAULT_GEOMETRY.displaced(m1, m2), pulses)
            total += 1.0 - np.vdot(amps, form @ amps).real
        assert result.mean_error == pytest.approx(total / config.num_chains, rel=1e-12)

    @given(seed=st.integers(0, 2**70), law=st.sampled_from(sorted(LAW_CODES)),
           k_n=st.integers(1, 2**40), k_e=st.integers(1, 2**33),
           realization=st.integers(0, 2**36),
           sizes=st.lists(st.integers(1, 2600), min_size=2, max_size=2, unique=True))
    @example(seed=2**70, law="A", k_n=2000, k_e=1, realization=0, sizes=[1000, 1100])
    @example(seed=5, law="B", k_n=700, k_e=2, realization=3, sizes=[1023, 1024])
    @example(seed=0, law="A", k_n=2000, k_e=1, realization=1, sizes=[1024, 1025])
    @example(seed=2**32 + 5, law="none", k_n=10000, k_e=1, realization=2, sizes=[1, 2049])
    @example(seed=9, law="A", k_n=2000, k_e=1, realization=0, sizes=[4 * 1024 - 1, 4 * 1024])
    @example(seed=10, law="B", k_n=700, k_e=1, realization=1, sizes=[4 * 1024, 4 * 1024 + 1])
    @example(seed=11, law="A", k_n=5000, k_e=3, realization=4, sizes=[4 * 1024 - 1, 4 * 1024 + 1])
    @example(seed=12, law="B", k_n=2000, k_e=1, realization=0,
             sizes=[4 * 1024 + 1, 11 * 1024 + 17])
    @example(seed=13, law="none", k_n=700, k_e=1, realization=5, sizes=[1500, 12 * 1024 + 1])
    @settings(max_examples=30, deadline=None)
    def test_chain_draws_do_not_depend_on_num_chains(self, seed, law, k_n, k_e, realization,
                                                     sizes):
        n1, n2 = sorted(sizes)

        def draws(num_chains):
            config = EnsembleConfig(num_chains=num_chains, law=law, k_e=k_e, k_n=k_n,
                                    seed=seed)
            blocks = list(_chain_draws(config, realization))
            return (np.concatenate([pairs for pairs, _ in blocks]),
                    np.concatenate([normals for _, normals in blocks]))

        pairs1, normals1 = draws(n1)
        pairs2, normals2 = draws(n2)
        assert pairs1.shape == (n1,) and normals1.shape == (n1, 8)
        assert pairs2.shape == (n2,) and normals2.shape == (n2, 8)
        assert (pairs1 == pairs2[:n1]).all()
        assert (normals1 == normals2[:n1]).all()

    def test_realization_mean_matches_list_seeded_reference(self):
        # same draws, kernel and summation order as _run_realization, but the
        # stream from default_rng(list) drawn here, displacements from the
        # scalar rule, coefficient rows solved here, outside _form_table, the
        # kernel called one chain at a time and the errors added by Python floats
        config = EnsembleConfig(num_chains=1000, num_realizations=1, law="B",
                                k_e=1, k_n=2000, seed=13)
        pulses = design_protocol_pulses(config.k_e, config.k_n)
        coeffs = {}
        total = 0.0
        for m1, m2, normals in reference_chains(config, 0):
            if (m1, m2) not in coeffs:
                coeffs[m1, m2] = _form_coefficients(protocol_form(
                    DEFAULT_GEOMETRY.displaced(m1, m2), pulses))
            total += _chain_errors(coeffs[m1, m2][:, None], np.zeros(1, int), normals[None])[0]
        assert len(coeffs) > 1
        assert ensemble_init(config).realization_means[0] == total / config.num_chains

    def test_errors_added_in_chain_order_across_blocks(self):
        # three and ten draw blocks, the last one partial: the mean is the
        # Python float sum of every chain's error in chain order, divided once
        pulses = design_protocol_pulses(1, 2000)
        [table] = _form_tables(((DEFAULT_GEOMETRY, tuple(pulses.items())),), DISPLACEMENTS)
        for num_chains in (2100, 9 * 1024 + 300):
            config = EnsembleConfig(num_chains=num_chains, num_realizations=1, law="A",
                                    k_e=1, k_n=2000, seed=17)
            total = 0.0
            for pairs, normals in _chain_draws(config, 0):
                for error in _chain_errors(table.T, pairs, normals).tolist():
                    total += error
            assert ensemble_init(config).realization_means[0] == total / config.num_chains

    def test_grid_cells_use_their_own_forms(self):
        # both cells draw only the pair (0, 0), under different pulses, in one
        # process: neither may see the other's form
        configs = [EnsembleConfig(num_chains=50, num_realizations=2, law="none",
                                  k_e=1, k_n=k_n, seed=3) for k_n in (2000, 5000)]
        for config, result in zip(configs, ensemble_grid(configs)):
            pulses = design_protocol_pulses(config.k_e, config.k_n)
            form = protocol_form(DEFAULT_GEOMETRY, pulses)
            for realization, mean in enumerate(result.realization_means):
                total = 0.0
                for m1, m2, normals in reference_chains(config, realization):
                    assert m1 == m2 == 0
                    amps = (normals[:4] + 1j * normals[4:]) / np.linalg.norm(normals)
                    total += 1.0 - np.vdot(amps, form @ amps).real
                assert mean == pytest.approx(total / config.num_chains, rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 70), split=st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_chain_errors_kernel(self, seed, rows, split):
        rng = np.random.default_rng(seed)
        forms = random_forms(rng, rows)
        coeffs = _form_coefficients(forms)
        normals = rng.normal(size=(rows, 8))
        columns, every = coeffs.T, np.arange(rows)
        errors = _chain_errors(columns, every, normals)
        # a row's error does not depend on its batch, its size or its place in it
        for i in range(rows):
            assert _chain_errors(columns, every[i:i + 1], normals[i:i + 1])[0] == errors[i]
            assert _chain_errors(coeffs[i:i + 1].T, every[:1], normals[i:i + 1])[0] == errors[i]
        order = rng.permutation(rows)
        assert (_chain_errors(columns, order, normals[order]) == errors[order]).all()
        split = min(split, rows)
        parts = [_chain_errors(columns, every[:split], normals[:split]),
                 _chain_errors(columns, every[split:], normals[split:])]
        assert (np.concatenate(parts) == errors).all()
        # chains that share a row read the same coefficients as chains given copies of it
        pairs = rng.integers(0, rows, size=2 * rows)
        shared = rng.normal(size=(2 * rows, 8))
        assert (_chain_errors(columns, pairs, shared)
                == _chain_errors(coeffs[pairs].T, np.arange(2 * rows), shared)).all()
        for i in range(rows):
            z = normals[i, :4] + 1j * normals[i, 4:]
            amps = z / np.linalg.norm(z)
            want = 1.0 - np.vdot(amps, forms[i] @ amps).real
            assert errors[i] == pytest.approx(want, rel=1e-12)
        assert (errors >= -1e-12).all() and (errors <= 1.0 + 1e-12).all()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_diagonal_coefficients_sum_to_trace(self, seed):
        # the Haar mean of a chain's error, 1 - tr M / 4, reads off the first four
        forms = random_forms(np.random.default_rng(seed), 5)
        coeffs = _form_coefficients(forms)
        assert coeffs.shape == (5, 16) and coeffs.dtype == np.float64
        for form, row in zip(forms, coeffs):
            assert abs(row[0] + row[1] + row[2] + row[3] - np.trace(form).real) <= 1e-15

    def test_single_realization_runs_without_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        config = EnsembleConfig(num_chains=4, num_realizations=1, threads=3)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        threaded = ensemble_init(config)
        serial = ensemble_init(EnsembleConfig(num_chains=4, num_realizations=1, threads=1))
        assert threaded.realization_means == serial.realization_means

    def test_import_does_not_load_process_pool(self, source_env):
        code = ("import sys, donorpair.protocols; "
                "print(sorted(m for m in sys.modules if m.startswith('concurrent.futures')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=source_env)
        assert proc.stdout.strip() == "[]"

    def test_pool_sized_by_chains(self, monkeypatch):
        def grid(chains, realizations, threads, cells=1):
            return [EnsembleConfig(num_chains=chains, num_realizations=realizations,
                                   threads=threads, k_n=700 + k) for k in range(cells)]

        # the CLI's default grid, 12 cells x 8 x 2000 chains, does not pay for a pool
        assert ensemble_workers(grid(2000, 8, 64, cells=12)) == 1
        assert ensemble_workers(grid(2000, 8, 64, cells=100)) == 8
        monkeypatch.setattr(protocols, "CHAINS_PER_WORKER", 1000)
        assert ensemble_workers(grid(999, 1, 4)) == 1
        assert ensemble_workers(grid(1000, 1, 4)) == 1        # one realization
        assert ensemble_workers(grid(1000, 3, 4)) == 3        # 3000 chains
        assert ensemble_workers(grid(1000, 3, 2)) == 2        # two threads
        assert ensemble_workers(grid(500, 2, 4)) == 1         # 1000 chains in all
        assert ensemble_workers(grid(500, 2, 4, cells=3)) == 3    # 3000 chains, 6 tasks
        assert ensemble_workers(grid(2000, 1, 4, cells=3)) == 3   # one task per cell
        assert ensemble_workers(grid(100, 8, 8, cells=12)) == 8
        assert ensemble_workers(grid(100, 8, 1, cells=12)) == 1

    def test_pool_spans_cells_of_one_realization(self, pools):
        # the pool maps over every (cell, realization) task, so 3 cells of
        # one realization each fill 3 workers
        configs = [EnsembleConfig(num_chains=40, num_realizations=1, law="A", k_e=1,
                                  k_n=k_n, seed=12, threads=threads)
                   for threads in (3, 1) for k_n in (700, 2000, 5000)]
        pooled = ensemble_grid(configs[:3])
        assert pools == [{"max_workers": 3}]
        serial = ensemble_grid(configs[3:])
        assert len(pools) == 1
        assert ([r.realization_means for r in pooled]
                == [r.realization_means for r in serial])

    @pytest.fixture
    def solves(self, monkeypatch):
        """Every stack handed to the table solve, and every table a realization reads.

        "chains" holds one list of (m1, m2) per compute_spectra stack,
        "propagated" one (pulse, rows) per pulse_propagator stack and "tables"
        the table of each _run_realization call, in call order.
        """
        seen = {"chains": [], "propagated": [], "tables": []}
        run = protocols._run_realization

        def counting_spectra(geometries, *args, **kwargs):
            seen["chains"].append([(g.m1, g.m2) for g in geometries])
            return compute_spectra(geometries, *args, **kwargs)

        def counting_propagator(h0, pulse, *args, **kwargs):
            seen["propagated"].append((pulse, len(h0)))
            return pulse_propagator(h0, pulse, *args, **kwargs)

        def recording_run(config, realization, table):
            seen["tables"].append(table)
            return run(config, realization, table)

        monkeypatch.setattr(protocols, "compute_spectra", counting_spectra)
        monkeypatch.setattr(protocols, "pulse_propagator", counting_propagator)
        monkeypatch.setattr(protocols, "_run_realization", recording_run)
        protocols._form_tables.cache_clear()
        protocols._DESIGNS.clear()
        return seen

    def test_form_tables_solved_once_per_process(self, solves):
        # every displaced chain and every pulse handed to the stacked solve
        chains, propagated = solves["chains"], solves["propagated"]
        every_pair = sorted(itertools.product(range(-4, 5), repeat=2))
        ensemble_init(EnsembleConfig(num_chains=300, num_realizations=2, law="A",
                                     k_e=1, k_n=2000, seed=1))
        assert [sorted(c) for c in chains] == [every_pair]
        assert sorted(n for _, n in propagated) == [81] * 4
        chains.clear()
        propagated.clear()
        # law B has law A's support, so it shares A's table
        ensemble_init(EnsembleConfig(num_chains=300, num_realizations=2, law="B",
                                     k_e=1, k_n=2000, seed=2))
        assert chains == [] and propagated == []
        # other pulses never hit forms solved for K_n = 2000
        ensemble_init(EnsembleConfig(num_chains=20, num_realizations=1, law="none",
                                     k_e=1, k_n=5000, seed=1))
        assert chains == [[(0, 0)]]
        assert sorted(n for _, n in propagated) == [1] * 4
        chains.clear()
        propagated.clear()
        # a cold 4-K_n grid: 81 spectra, gates a and c solved once for all K_n,
        # and one table per K_n, whatever the law
        protocols._form_tables.cache_clear()
        solves["tables"].clear()
        ensemble_grid([EnsembleConfig(num_chains=10, num_realizations=1, law=law, k_e=1,
                                      k_n=k_n, seed=1)
                       for k_n in (700, 2000, 5000, 10000) for law in ("A", "B", "none")])
        assert chains == [list(itertools.product(range(-4, 5), repeat=2))]
        pulses = [pulse for pulse, _ in propagated]
        assert len(pulses) == len(set(pulses)) == 2 + 2 * 4
        shared = design_protocol_pulses(1, 2000)
        assert shared["a"] in pulses and shared["c"] in pulses
        assert all(n == 81 for _, n in propagated)
        assert len({id(table) for table in solves["tables"]}) == 4

    def test_laws_of_one_pulse_set_share_a_table(self, solves):
        # laws A, B and none differ only in their draws, so they read one table
        ensemble_grid([EnsembleConfig(num_chains=10, num_realizations=2, law=law, k_e=1,
                                      k_n=2000, seed=5) for law in ("A", "B", "none")])
        first, *others = solves["tables"]
        assert len(others) == 5 and all(table is first for table in others)
        assert np.isfinite(first).all()   # all 81 rows solved for the grid's displacing laws

    def test_each_layout_solved_as_one_stack(self, solves):
        # two layouts: an 81-chain spectra stack each, and every pulse of a
        # layout propagated over that layout's 81 chains only
        moved = DeviceGeometry(n0=48)
        ensemble_grid([EnsembleConfig(num_chains=10, num_realizations=1, law=law, k_e=1,
                                      k_n=k_n, seed=6, geometry=geometry)
                       for geometry in (moved, DEFAULT_GEOMETRY) for k_n in (700, 2000)
                       for law in ("A", "none")])
        assert [len(c) for c in solves["chains"]] == [81, 81]
        assert [n for _, n in solves["propagated"]] == [81] * 2 * (2 + 2 * 2)

    def test_pulse_sets_of_mixed_k_share_propagators(self, solves):
        # K_e 1 and 2 at K_n 700 and 2000: gates a and c for each K_e, b and d
        # for each K_n, so 8 stacks; every cell equals its config alone, bit for bit
        configs = [EnsembleConfig(num_chains=40, num_realizations=2, law=law, k_e=k_e,
                                  k_n=k_n, seed=8)
                   for k_e in (1, 2) for k_n in (700, 2000) for law in ("A", "none")]
        grid = ensemble_grid(configs)
        pulses = [pulse for pulse, _ in solves["propagated"]]
        assert len(pulses) == len(set(pulses)) == 8
        for config, result in zip(configs, grid):
            assert ensemble_init(config).realization_means == result.realization_means

    @pytest.fixture
    def designs(self, monkeypatch):
        """Every nominal chain solved and every gate designed, from cold memos.

        "solved" holds the geometry of each protocols.compute_spectrum call
        and "gates" the gate name of each protocols.design_gate call, in
        call order; the form-table and design memos start empty.
        """
        seen = {"solved": [], "gates": []}

        def counting_spectrum(geometry):
            seen["solved"].append(geometry)
            return compute_spectrum(geometry)

        def counting_gate(*args):
            seen["gates"].append(args[1].name)
            return design_gate(*args)

        monkeypatch.setattr(protocols, "compute_spectrum", counting_spectrum)
        monkeypatch.setattr(protocols, "design_gate", counting_gate)
        protocols._form_tables.cache_clear()
        protocols._DESIGNS.clear()
        return seen

    def test_grid_designs_each_pulse_set_once(self, designs):
        # one nominal solve per distinct layout of a grid, in config order, and
        # one design per distinct (K_e, K_n, layout), whatever its laws: the
        # CLI's default 4-K_n x 3-law grid solves 1 nominal chain, with 16 designs
        solved, gates = designs["solved"], designs["gates"]
        kns = (700, 2000, 5000, 10000)
        ensemble_grid([EnsembleConfig(num_chains=10, num_realizations=1, law=law, k_e=1,
                                      k_n=k_n, seed=1)
                       for k_n in kns for law in ("A", "B", "none")])
        assert solved == [DEFAULT_GEOMETRY]
        assert len(gates) == 4 * len(kns)
        # two layouts, from a cold design memo: each is solved and designed
        # for itself, and each cell equals its config alone
        solved.clear()
        gates.clear()
        protocols._DESIGNS.clear()
        moved = DeviceGeometry(n0=48)
        configs = [EnsembleConfig(num_chains=30, num_realizations=2, law=law, k_e=1,
                                  k_n=k_n, seed=4, geometry=geometry)
                   for geometry in (moved, DEFAULT_GEOMETRY) for k_n in (700, 2000)
                   for law in ("A", "none")]
        grid = ensemble_grid(configs)
        assert solved == [moved, DEFAULT_GEOMETRY]
        assert len(gates) == 2 * 2 * 4
        solved.clear()
        for config, result in zip(configs, grid):
            assert ensemble_init(config).realization_means == result.realization_means
        assert solved == [config.geometry for config in configs]   # one solve per call

    def test_designs_memoized_across_calls(self, designs):
        # a pulse set is designed once per process for its solved nominal
        # levels and K, while every call still solves its nominal chain
        solved, gates = designs["solved"], designs["gates"]
        protocol = [GATES[name].name for name in ("a", "b", "c", "d")]
        config = EnsembleConfig(num_chains=50, num_realizations=2, law="A", k_e=1,
                                k_n=2000, seed=3)
        cold = ensemble_init(config)
        warm = ensemble_init(config)
        assert gates == protocol
        assert solved == [DEFAULT_GEOMETRY] * 2
        assert warm.realization_means == cold.realization_means
        # another K_n, or another layout, is designed anew
        ensemble_init(dataclasses.replace(config, k_n=5000))
        ensemble_init(dataclasses.replace(config, geometry=DeviceGeometry(n0=48)))
        assert gates == protocol * 3
        # a K that design_gate refuses is not stored: it raises on every call
        refused = dataclasses.replace(config, k_n=10**8)
        for _ in range(2):
            gates.clear()
            with pytest.raises(ValueError, match=f"gate {protocol[1]} at K = 100000000:"):
                ensemble_init(refused)
            assert gates == protocol[:2]

    def test_design_memo_is_bounded(self, designs, monkeypatch):
        # the oldest pulse set is dropped first, so it is designed again
        monkeypatch.setattr(protocols, "_MAX_DESIGNS", 2)
        for k_n in (700, 2000, 5000, 700):
            design_protocol_pulses(1, k_n)
        assert len(designs["gates"]) == 4 * 4
        assert len(protocols._DESIGNS) == 2

    @pytest.mark.filterwarnings("ignore::donorpair.spectrum.SwapBoundaryWarning")
    def test_form_table_rows_match_single_chain_solves(self):
        # one stacked pass over all 81 pairs against protocol_form of each chain alone
        pulses = design_protocol_pulses(1, 2000)
        [table] = _form_tables(((DEFAULT_GEOMETRY, tuple(pulses.items())),), DISPLACEMENTS)
        for m1, m2 in itertools.product(range(-4, 5), repeat=2):
            alone = _form_coefficients(protocol_form(
                DEFAULT_GEOMETRY.displaced(m1, m2), pulses))
            assert (table[(m1 + 4) * 9 + (m2 + 4)] == alone).all(), (m1, m2)

    def test_form_table_is_read_only(self):
        pulses = design_protocol_pulses(1, 2000)
        [table] = _form_tables(((DEFAULT_GEOMETRY, tuple(pulses.items())),), (-1, 0, 1))
        assert table.shape == (81, 16) and table.dtype == np.float64
        with pytest.raises(ValueError):
            table[(1 + 4) * 9 + (-1 + 4), 0] = 0.0

    def test_pool_workers_solve_no_forms(self, monkeypatch, pools):
        # K_n values no other test uses, so the parent solves both tables here;
        # a worker that solved a form would raise
        parent = os.getpid()
        solve = protocols.compute_spectra

        def parent_only_solve(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a pool worker solved a form")
            return solve(*args, **kwargs)

        configs = [EnsembleConfig(num_chains=40, num_realizations=2, law=law,
                                  k_e=1, k_n=k_n, seed=9, threads=threads)
                   for threads in (2, 1) for law, k_n in (("A", 3100), ("none", 4100))]
        monkeypatch.setattr(protocols, "compute_spectra", parent_only_solve)
        pooled = ensemble_grid(configs[:2])
        assert pools == [{"max_workers": 2}]
        serial = ensemble_grid(configs[2:])
        assert len(pools) == 1
        assert ([r.realization_means for r in pooled]
                == [r.realization_means for r in serial])

    def test_protocol_form_matches_full_protocol(self):
        pulses = design_protocol_pulses(1, 5000)
        form = protocol_form(DEFAULT_GEOMETRY.displaced(m1=1), pulses)
        assert np.abs(form - form.conj().T).max() <= 1e-14
        rng = np.random.default_rng(3)
        for _ in range(3):
            amps = haar_amplitudes(rng)
            run = run_initialization(DEFAULT_GEOMETRY.displaced(m1=1), k_e=1, k_n=5000,
                                     initial=amps, pulses=pulses, record=False)
            assert 1.0 - np.vdot(amps, form @ amps).real == pytest.approx(
                run.final_error, rel=1e-10)

    def test_mean_matches_exact_expectation(self, exact_law_mean):
        config = EnsembleConfig(num_chains=500, num_realizations=8, law="B",
                                k_e=1, k_n=2000, seed=11, threads=1)
        result = ensemble_init(config)
        exact = exact_law_mean(config.k_n, config.law)
        assert abs(result.mean_error - exact) <= 5 * result.stderr

    def test_geometry_must_be_nominal(self):
        # each sets the displacements or designs for the nominal chain, so
        # the m1, m2 of a displaced geometry would be ignored
        uses = (lambda g: EnsembleConfig(geometry=g),
                lambda g: sweep_gate_error("a", (1,), (1,), geometry_nominal=g),
                lambda g: design_protocol_pulses(geometry_nominal=g))
        for use in uses:
            for displaced in (DEFAULT_GEOMETRY.displaced(m1=1), DEFAULT_GEOMETRY.displaced(0, 3)):
                with pytest.raises(ValueError, match="must be nominal"):
                    use(displaced)

    def test_errors_in_unit_interval(self):
        r = ensemble_init(SMALL)
        assert 0.0 <= r.mean_error <= 1.0
        assert all(0.0 <= x <= 1.0 for x in r.realization_means)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(num_chains=0)
        with pytest.raises(ValueError):
            EnsembleConfig(law="Z")
        with pytest.raises(ValueError, match="seed must be non-negative"):
            EnsembleConfig(seed=-1)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads must be positive"):
                EnsembleConfig(threads=threads)
        # at most 2**32 chains per realization; nothing is allocated here
        assert EnsembleConfig(num_chains=2**32).num_chains == 2**32
        with pytest.raises(ValueError, match="num_chains must be at most"):
            EnsembleConfig(num_chains=2**32 + 1)

    def test_empty_grid_rejected(self):
        for run in (ensemble_grid, ensemble_workers):
            with pytest.raises(ValueError, match="at least one config"):
                run([])
