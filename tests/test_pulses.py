import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from donorpair import (DEFAULT_GEOMETRY, GATES, compute_spectrum, design_gate,
                       design_values, displacement_detuning, error_estimate, kn_window,
                       pulse_duration, rabi_probability, transition_frequency,
                       two_pi_k_omega)
from donorpair.constants import GAMMA_N, TWO_PI
from donorpair.pulses import PHASE_ROUNDING_TOL, GateSpec
from donorpair.spectrum import ValidityError

MHZ = TWO_PI * 1e6


class TestRabiFormula:
    def test_resonant_pulse_inverts(self):
        assert rabi_probability(MHZ, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_first_cycle_zero(self):
        omega = 5 * MHZ
        assert rabi_probability(omega, np.sqrt(3) * omega) <= 1e-12

    def test_displacement_scale_error(self):
        # Omega/2pi = 67.82 MHz against a 2.466 MHz detuning
        r = rabi_probability(67.82 * MHZ, 2.466 * MHZ)
        assert 1 - r == pytest.approx(1.321e-3, rel=1e-3)

    @given(omega=st.floats(0.01, 100.0), delta=st.floats(-300.0, 300.0))
    @settings(max_examples=60)
    def test_even_in_detuning_and_bounded(self, omega, delta):
        r = rabi_probability(omega * MHZ, delta * MHZ)
        assert 0.0 <= r <= 1.0
        assert r == pytest.approx(rabi_probability(omega * MHZ, -delta * MHZ), abs=1e-14)

    @given(k=st.integers(1, 100), delta=st.floats(0.1, 500.0))
    @settings(max_examples=60)
    def test_two_pi_k_condition_silences(self, k, delta):
        omega = two_pi_k_omega(delta * MHZ, k)
        assert rabi_probability(omega, delta * MHZ) <= 1e-10


class TestTwoPiK:
    def test_first_order_value(self):
        assert two_pi_k_omega(-117.47 * MHZ, 1) / MHZ == pytest.approx(67.82, abs=0.02)

    def test_large_k_values(self):
        assert two_pi_k_omega(-117.47 * MHZ, 700) / TWO_PI == pytest.approx(83.9e3, rel=1e-3)
        assert two_pi_k_omega(-117.47 * MHZ, 10000) / TWO_PI == pytest.approx(5.87e3, rel=1e-3)

    @given(k=st.integers(50, 5000))
    def test_asymptotic_form(self, k):
        delta = 100 * MHZ
        assert two_pi_k_omega(delta, k) == pytest.approx(delta / (2 * k), rel=1e-4)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            two_pi_k_omega(MHZ, 0)
        with pytest.raises(ValueError):
            two_pi_k_omega(0.0, 3)
        with pytest.raises(ValueError, match=r"^K = 1\.5 is not an integer"):
            two_pi_k_omega(MHZ, 1.5)

    @pytest.mark.parametrize("k", [10**154, 2**512, 10**160], ids=["1e154", "2**512", "1e160"])
    def test_rejects_k_beyond_the_float_range(self, k):
        # 4K^2 - 1 is inf at 10**154, and K^2 does not convert to a float from 2**512
        with pytest.raises(ValueError, match=f"^K = {k} is too large for the 2piK condition"):
            two_pi_k_omega(MHZ, k)

    def test_numpy_integer_k_is_read_as_an_integer(self):
        # K**2 would wrap around in int64 from about 3.04e9
        k = 4_000_000_000
        assert two_pi_k_omega(MHZ, np.int64(k)) == two_pi_k_omega(MHZ, k) == MHZ / (2 * k)

    def test_k_just_inside_the_float_range_still_designs(self):
        k = 6 * 10**153   # 4K^2 - 1 = 1.44e308, still a float
        assert two_pi_k_omega(MHZ, k) == MHZ / np.sqrt(4.0 * k**2 - 1.0) > 0.0


class TestDuration:
    def test_electron_pulse_nanoseconds(self):
        assert pulse_duration(67.82 * MHZ) == pytest.approx(7.37e-9, rel=1e-3)

    def test_nuclear_pulse_microseconds(self):
        assert pulse_duration(TWO_PI * 5.9e3) == pytest.approx(84.7e-6, rel=1e-3)

    @given(omega=st.floats(1e3, 1e9))
    def test_area_is_pi(self, omega):
        assert pulse_duration(omega) * omega == pytest.approx(np.pi, rel=1e-15)


class TestMu:
    """The amplitude ratio mu = Omega / (2 |delta_omega|) of the other nucleus' line."""

    def test_window_edge(self, default_spectrum):
        # the paper's edge: Omega/2pi = 162 kHz against delta_omega/2pi = 2 x 40.48 kHz
        k_min, _ = kn_window(default_spectrum, displacement_detuning(
            GATES["b"], DEFAULT_GEOMETRY.displaced(m1=-1)))
        omega = design_values(default_spectrum.exact_energies, GATES["b"], k_min)["omega"]
        delta_omega = 2 * GAMMA_N * default_spectrum.params.delta_b
        assert omega / TWO_PI == pytest.approx(162e3, rel=1e-2)
        assert delta_omega / TWO_PI == pytest.approx(2 * 40.48e3, rel=1e-2)

    def test_k_window_edge(self, default_spectrum):
        delta2 = (transition_frequency(default_spectrum, 12, 13)
                  - transition_frequency(default_spectrum, 14, 15))
        omega = two_pi_k_omega(delta2, 363)
        delta_omega = 2 * GAMMA_N * default_spectrum.params.delta_b
        assert kn_window(default_spectrum, displacement_detuning(
            GATES["b"], DEFAULT_GEOMETRY.displaced(m1=-1)))[0] == 363
        assert omega / (2 * abs(delta_omega)) == pytest.approx(1.0, rel=1e-2)


class TestErrorEstimate:
    def test_perfect_pulse(self):
        assert error_estimate(1.0, 0.0, 0.0) == 0.0

    def test_single_displacement_budget(self, default_spectrum):
        eps = default_spectrum.smallness[0]
        r = rabi_probability(67.82 * MHZ, 2.466 * MHZ)
        assert error_estimate(r, eps, 0.0) == pytest.approx(1.377e-3, rel=2e-3)


class TestGateSpecs:
    def test_pairs_flip_a_single_common_spin(self):
        for gate in GATES.values():
            p, q = gate.resonant
            assert p != q and (p ^ q).bit_count() == 1

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            GateSpec("bad", resonant=(13, 14), suppressed=(12, 14), drive_spins=("e1",))
        with pytest.raises(ValueError):
            GateSpec("bad", resonant=(13, 15), suppressed=(12, 13), drive_spins=("e1",))

    def test_species_is_the_flipped_spin(self):
        # the resonant pair fixes which species the 2piK condition constrains
        assert {name: gate.species for name, gate in GATES.items()} == {
            "a": "e", "b": "n", "c": "e", "d": "n", "ee": "e"}


class TestDesign:
    def test_first_gate_parameters(self, default_spectrum):
        pulse = design_gate(default_spectrum, GATES["a"], 1)
        assert pulse.nu / TWO_PI / 1e9 == pytest.approx(-92.35, abs=0.01)
        assert pulse.omega_e / MHZ == pytest.approx(67.82, abs=0.02)
        assert pulse.tau == pytest.approx(np.pi / pulse.omega_e, rel=1e-15)
        assert pulse.omega_n / pulse.omega_e == pytest.approx(
            17.25144e6 / 28.025e9, rel=1e-12)

    def test_leading_order_values(self, default_spectrum):
        lead_a = design_values(default_spectrum.zeroth, GATES["a"], 1)
        assert lead_a["nu"] / TWO_PI / 1e9 == pytest.approx(-92.35, abs=0.01)
        assert lead_a["delta"] / MHZ == pytest.approx(-117.47, abs=0.02)
        assert lead_a["omega"] / MHZ == pytest.approx(67.82, abs=0.02)
        lead_b = design_values(default_spectrum.zeroth, GATES["b"], 1)
        assert lead_b["nu"] / MHZ == pytest.approx(115.655, abs=2e-3)

    @pytest.mark.parametrize("k", [1, 2, 2000])
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_design_values_are_design_gates_rule(self, default_spectrum, name, k):
        # one 2piK rule: on the exact levels it gives design_gate's nu and tau bit for bit
        values = design_values(default_spectrum.exact_energies, GATES[name], k)
        pulse = design_gate(default_spectrum, GATES[name], k)
        assert (values["nu"].hex(), values["tau"].hex()) == (pulse.nu.hex(), pulse.tau.hex())

    def test_nuclear_gate_shares_the_suppressed_detuning(self, default_spectrum):
        # (E13 - E12) - nu2 equals (E14 - E12) - nu1 identically
        e = default_spectrum.exact_energies
        delta1 = (e[14] - e[12]) - (e[15] - e[13])
        delta2 = (e[13] - e[12]) - (e[15] - e[14])
        assert abs(delta2 - delta1) <= TWO_PI * 1.0

    def test_two_electron_gate_detuned_by_j(self, default_spectrum):
        pulse = design_gate(default_spectrum, GATES["ee"], 1)
        e = default_spectrum.exact_energies
        delta_e = (e[11] - e[9]) - pulse.nu
        j = default_spectrum.params.j
        assert abs(delta_e) == pytest.approx(j, rel=1e-4)
        assert pulse.omega_e == pytest.approx(j / np.sqrt(3), rel=1e-4)
        assert pulse.omega_e / j == pytest.approx(0.58, abs=0.01)

    def test_designed_pulse_satisfies_both_rabi_conditions(self, default_spectrum):
        gate = GATES["a"]
        pulse = design_gate(default_spectrum, gate, 1)
        delta = (transition_frequency(default_spectrum, *gate.suppressed)
                 - transition_frequency(default_spectrum, *gate.resonant))
        assert rabi_probability(pulse.omega_e, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert rabi_probability(pulse.omega_e, delta) <= 1e-10


class TestResolvableK:
    # the largest K of any default list or config, per gate: sweep --gate a
    # and b, the ensemble's K_e and K_n, ee-cnot
    LARGEST_DEFAULT_K = {"a": 4, "b": 30000, "c": 1, "d": 10000, "ee": 1}

    @staticmethod
    def edge(spectrum, gate):
        """The K whose largest phase carries a rounding error of PHASE_ROUNDING_TOL.

        tau grows as sqrt(4K^2 - 1), so in proportion to K to 1e-7 from K = 1000.
        """
        levels = spectrum.exact_energies
        values = design_values(levels, gate, 1000)
        rounding = values["tau"] * max(abs(levels).max(), abs(values["nu"])) * np.finfo(float).eps
        return 1000 * PHASE_ROUNDING_TOL / rounding

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_refused_just_outside_the_bound(self, default_spectrum, name):
        gate = GATES[name]
        edge = self.edge(default_spectrum, gate)
        assert design_gate(default_spectrum, gate, int(edge * 0.999)).tau > 0
        k = int(edge * 1.001) + 1
        with pytest.raises(ValueError, match=f"^gate {gate.name} at K = {k}: "):
            design_gate(default_spectrum, gate, k)

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_defaults_are_far_inside_the_bound(self, default_spectrum, name):
        assert self.edge(default_spectrum, GATES[name]) >= 100 * self.LARGEST_DEFAULT_K[name]


class TestDisplacementDetuning:
    def test_zero_at_nominal_geometry(self):
        assert abs(displacement_detuning(GATES["a"], DEFAULT_GEOMETRY)) <= TWO_PI * 1.0

    def test_electron_gate_one_site(self):
        d = displacement_detuning(GATES["a"], DEFAULT_GEOMETRY.displaced(m1=-1))
        assert d / MHZ == pytest.approx(2.466, abs=0.05)
        d_plus = displacement_detuning(GATES["a"], DEFAULT_GEOMETRY.displaced(m1=1))
        assert d_plus / MHZ == pytest.approx(-2.2895, rel=1e-3)
        assert abs(d_plus) < abs(d)

    def test_nuclear_gate_one_site(self):
        d = displacement_detuning(GATES["b"], DEFAULT_GEOMETRY.displaced(m1=-1))
        assert d / TWO_PI / 1e3 == pytest.approx(-1.72, abs=0.05)


class TestKnWindow:
    def test_window_edges(self, default_spectrum):
        k_min, k_max = kn_window(default_spectrum, displacement_detuning(
            GATES["b"], DEFAULT_GEOMETRY.displaced(m1=-1)))
        assert abs(k_min - 363) <= 1
        assert abs(k_max - 34148) <= 50

    def test_window_widens_with_gradient(self, default_spectrum):
        from donorpair.geometry import DeviceGeometry
        steep = DeviceGeometry(gradient=2.6e5, m1=-1)
        spec = compute_spectrum(steep.displaced(0, 0))
        k_min_steep, _ = kn_window(spec, displacement_detuning(GATES["b"], steep))
        k_min, _ = kn_window(default_spectrum, displacement_detuning(
            GATES["b"], DEFAULT_GEOMETRY.displaced(m1=-1)))
        assert k_min_steep < k_min

    def test_undefined_at_zero_displacement(self, default_spectrum):
        with pytest.raises(ValidityError):
            kn_window(default_spectrum, displacement_detuning(GATES["b"], DEFAULT_GEOMETRY))
