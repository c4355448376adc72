import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from donorpair import (DEFAULT_GEOMETRY, GATES, build_h0, compute_spectra, design_gate,
                       effective_params, pulse_propagator, rabi_probability, relax_electrons,
                       rotating_hamiltonian)
from donorpair.constants import GAMMA_E as GE, GAMMA_N as GN, TWO_PI
from donorpair.dynamics import relax_electrons_adjoint
from donorpair.geometry import EffectiveParams
from donorpair.pulses import PulseSpec
from donorpair import register as reg
from oracles import StepSizeError, integrate_lab_frame


E1_FLIPPED = 2   # |0010>: basis state 0 with electron 1 flipped


def _two_level_pulse(omega: float, delta: float, omega0: float) -> PulseSpec:
    """Pulse addressing a lone electron spin of Larmor frequency omega0.

    On the register, _two_level_h0(omega0) and the pulse act on electron 1
    alone, so basis states 0 and E1_FLIPPED form a closed two-level system.
    """
    return PulseSpec(nu=-omega0 - delta, phi=0.0, b1_amplitude=omega / GE,
                     tau=np.pi / omega, drive_spins=("e1",))


def _two_level_h0(omega0: float) -> np.ndarray:
    return omega0 * reg.SZ["e1"]


class TestTwoLevelContract:
    def test_resonant_flip_is_complete(self):
        omega0 = TWO_PI * 5e9
        pulse = _two_level_pulse(TWO_PI * 10e6, 0.0, omega0)
        u = pulse_propagator(_two_level_h0(omega0), pulse)
        assert abs(u[E1_FLIPPED, 0]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_detuned_grid_matches_rabi_formula(self):
        omega0 = TWO_PI * 5e9
        h0 = _two_level_h0(omega0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            omega = TWO_PI * rng.uniform(0.5e6, 80e6)
            delta = TWO_PI * rng.uniform(-200e6, 200e6)
            pulse = _two_level_pulse(omega, delta, omega0)
            u = pulse_propagator(h0, pulse)
            assert abs(u[E1_FLIPPED, 0]) ** 2 == pytest.approx(
                rabi_probability(omega, delta), abs=1e-8)

    def test_frame_term_commutes_with_statics(self, default_spectrum):
        pulse = design_gate(default_spectrum, GATES["a"], 1)
        h0 = default_spectrum.hamiltonian
        fz = np.diag(reg.FZ_DIAG)
        static = h0 + pulse.nu * fz
        assert np.linalg.norm(static @ fz - fz @ static) == 0
        h_rot = rotating_hamiltonian(h0, pulse)
        assert np.linalg.norm(h_rot @ fz - fz @ h_rot) > 0


class TestEvolvePulse:
    def test_gate_a_transfers_population(self, default_spectrum):
        pulse = design_gate(default_spectrum, GATES["a"], 1)
        u = pulse_propagator(default_spectrum.hamiltonian, pulse)
        assert abs(u[15, 13]) ** 2 >= 1 - 2e-3

    def test_zero_amplitude_pulse_preserves_populations(self, default_spectrum):
        pulse = PulseSpec(nu=TWO_PI * 1e8, phi=0.0, b1_amplitude=0.0, tau=1e-7,
                          drive_spins=("e1",))
        rng = np.random.default_rng(3)
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 = z / np.linalg.norm(z)
        psi = pulse_propagator(default_spectrum.hamiltonian, pulse) @ psi0
        # H0 is not diagonal, so compare against its exact evolution
        w, v = np.linalg.eigh(default_spectrum.hamiltonian)
        u0 = (v * np.exp(-1j * w * pulse.tau)) @ v.conj().T
        expected = np.exp(1j * pulse.nu * pulse.tau * reg.FZ_DIAG) * (u0 @ psi0)
        assert np.allclose(psi, expected, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::donorpair.spectrum.SwapBoundaryWarning")
    def test_stacked_propagators_equal_single_ones(self, default_spectrum):
        # every gate over all 81 displaced chains, one eigh per gate
        hamiltonians = compute_spectra([DEFAULT_GEOMETRY.displaced(m1, m2)
                                        for m1 in range(-4, 5) for m2 in range(-4, 5)]).hamiltonian
        for name, k in (("a", 1), ("b", 2000), ("c", 1), ("d", 2000), ("ee", 1)):
            pulse = design_gate(default_spectrum, GATES[name], k)
            stacked = pulse_propagator(hamiltonians, pulse)
            assert stacked.shape == (81, 16, 16)
            for i, h0 in enumerate(hamiltonians):
                assert np.array_equal(stacked[i], pulse_propagator(h0, pulse)), (name, i)

    def test_propagator_unitary(self, default_spectrum):
        pulse = design_gate(default_spectrum, GATES["b"], 2000)
        u = pulse_propagator(default_spectrum.hamiltonian, pulse)
        assert np.linalg.norm(u.conj().T @ u - np.eye(16)) <= 1e-10

    def test_suppressed_pair_is_silenced(self, default_spectrum):
        pulse = design_gate(default_spectrum, GATES["a"], 1)
        u = pulse_propagator(default_spectrum.hamiltonian, pulse)
        assert abs(u[14, 12]) ** 2 <= 1e-3

    def test_resonant_transfer_matches_formula_for_all_gates(self, default_spectrum):
        # residual eigenbasis-admixture corrections only; nuclear gates need a
        # high K so the off-resonant flip of the other nucleus stays small
        for name, k in (("a", 1), ("b", 30000), ("c", 1), ("d", 30000)):
            gate = GATES[name]
            pulse = design_gate(default_spectrum, gate, k)
            p, q = gate.resonant
            u = pulse_propagator(default_spectrum.hamiltonian, pulse)
            assert abs(u[q, p]) ** 2 >= 1 - 5e-3, name

    def test_norm_and_trace_preserved(self, default_spectrum):
        pulse = design_gate(default_spectrum, GATES["c"], 3)
        rng = np.random.default_rng(9)
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 = z / np.linalg.norm(z)
        psi = pulse_propagator(default_spectrum.hamiltonian, pulse) @ psi0
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-9)


def _pt(t: np.ndarray) -> np.ndarray:
    """Reduced (n2, n1) state: trace out both electron factors (test oracle).

    Axes of t are (n2, e2, e1, n1, n2', e2', e1', n1').
    """
    t1 = np.trace(t, axis1=1, axis2=5)        # trace e2; axes (n2,e1,n1,n2',e1',n1')
    return np.trace(t1, axis1=1, axis2=4)     # trace e1; axes (n2,n1,n2',n1')


class TestRelaxation:
    def test_ground_electrons_are_fixed(self):
        rho = np.diag(np.eye(reg.DIM, dtype=complex)[15])
        assert np.allclose(relax_electrons(rho), rho, atol=1e-15)

    def test_excited_electrons_decay_to_target(self):
        rho = np.diag(np.eye(reg.DIM, dtype=complex)[9])   # |1001>: both excited
        out = relax_electrons(rho)
        assert out[15, 15].real == pytest.approx(1.0, abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nuclear_state_untouched(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        out = relax_electrons(rho)
        before = _pt(rho.reshape([2] * 8))
        after = _pt(out.reshape([2] * 8))
        assert np.abs(before - after).max() <= 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_pulsed_state_keeps_trace_and_nuclear_state(self, default_spectrum):
        # the protocol's pulse-then-relax step on a state that mixes every label
        pulse = design_gate(default_spectrum, GATES["a"], 2)
        rng = np.random.default_rng(7)
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi = pulse_propagator(default_spectrum.hamiltonian, pulse) @ (z / np.linalg.norm(z))
        rho = np.outer(psi, psi.conj())
        out = relax_electrons(rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        before = _pt(rho.reshape([2] * 8))
        after = _pt(out.reshape([2] * 8))
        assert np.abs(before - after).max() <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        once = relax_electrons(rho)
        twice = relax_electrons(once)
        assert np.abs(once - twice).max() <= 1e-14
        # the relaxed state is a density matrix
        assert np.linalg.norm(once - once.conj().T) <= 1e-9
        assert abs(np.trace(once).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(once).min() >= -1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_duality(self, seed):
        # tr(Phi(rho) X) == tr(rho Phi^dagger(X)) for every state and observable
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        x = h + h.conj().T
        lhs = np.trace(relax_electrons(rho) @ x)
        rhs = np.trace(rho @ relax_electrons_adjoint(x))
        assert abs(lhs - rhs) <= 1e-12

    def test_adjoint_of_stack_is_stack_of_adjoints(self):
        obs = np.random.default_rng(5).normal(size=(3, 2, 16, 16)) + 0j
        stacked = relax_electrons_adjoint(obs)
        assert stacked.shape == obs.shape
        for idx in np.ndindex(3, 2):
            assert np.array_equal(stacked[idx], relax_electrons_adjoint(obs[idx]))


def _scaled_params(scale: float) -> EffectiveParams:
    p = effective_params(DEFAULT_GEOMETRY)
    return EffectiveParams(b1=p.b1 * scale, b2=p.b2 * scale, a=p.a * scale, j=p.j * scale)


class TestLabFrameIntegrator:
    SCALE = 100e6 / 92482.5e6   # electron Larmor scaled down to 100 MHz

    def _setup(self):
        params = _scaled_params(self.SCALE)
        h0 = build_h0(params)
        from donorpair.spectrum import exact_spectrum
        energies, _ = exact_spectrum(h0)
        omega = TWO_PI * 2e6
        pulse = PulseSpec(nu=energies[15] - energies[13], phi=0.3,
                          b1_amplitude=omega / GE, tau=np.pi / omega, drive_spins=("e1",))
        return h0, pulse

    def test_agrees_with_rotating_frame(self):
        h0, pulse = self._setup()
        rng = np.random.default_rng(5)
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 = z / np.linalg.norm(z)
        ref = pulse_propagator(h0, pulse) @ psi0
        psi = integrate_lab_frame(psi0, h0, pulse, dt=pulse.tau / 4000)
        assert np.linalg.norm(psi - ref) <= 1e-6
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-8

    def test_nuclear_drive_agrees_with_rotating_frame(self):
        # the drive's nuclear sign, which no electron pulse reads
        h0, _ = self._setup()
        from donorpair.spectrum import exact_spectrum
        energies, _ = exact_spectrum(h0)
        omega = TWO_PI * 2e6
        pulse = PulseSpec(nu=energies[14] - energies[15], phi=0.3, b1_amplitude=omega / GN,
                          tau=np.pi / omega, drive_spins=("n1", "n2"))
        rng = np.random.default_rng(6)
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 = z / np.linalg.norm(z)
        ref = pulse_propagator(h0, pulse) @ psi0
        psi = integrate_lab_frame(psi0, h0, pulse, dt=pulse.tau / 4000)
        assert np.linalg.norm(psi - ref) <= 1e-6

    def test_zero_drive_matches_static_evolution(self):
        h0, pulse = self._setup()
        silent = PulseSpec(nu=pulse.nu, phi=0.0, b1_amplitude=0.0, tau=2e-7,
                           drive_spins=("e1",))
        psi0 = np.eye(reg.DIM, dtype=complex)[13]
        psi = integrate_lab_frame(psi0, h0, silent, dt=1e-11)
        w, v = np.linalg.eigh(h0)
        expected = (v * np.exp(-1j * w * silent.tau)) @ v.conj().T @ psi0
        assert np.linalg.norm(psi - expected) <= 1e-8

    def test_rejects_coarse_steps(self):
        h0, pulse = self._setup()
        with pytest.raises(StepSizeError):
            integrate_lab_frame(np.eye(reg.DIM, dtype=complex)[13], h0, pulse, dt=1e-7)
