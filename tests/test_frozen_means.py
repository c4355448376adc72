"""Frozen seeded ensemble means: a gate on the bits of the chain kernel.

Every realization mean below is the float.hex of ensemble_grid's output at
seed 11, computed before the chain draws were evaluated a chunk of draw
blocks at a time. The sizes straddle the draw block (1024 chains) and the
evaluation chunk (4096 chains), so a change to the draws, the displacement
mapping, the kernel or the summation order that moves a single bit of any
mean fails here. A change that means to move them must say so and refresh
the table.

The single-chain pins below are the float.hex of sweep_gate_error,
run_ee_cnot, run_initialization and protocol_form's coefficients, computed
before single chains were driven by the ensemble engine's primitives, so a
change to the single-chain path that moves a bit fails here too. The layer
pins at the end cover the exchange table, one displaced spectrum and the
pulse-design functions the same way.
"""
import pytest

from donorpair import (DEFAULT_GEOMETRY, GATES, EnsembleConfig, compute_spectrum, design_gate,
                       displacement_detuning, ensemble_grid, interior_qubit_estimate, kn_window,
                       leading_order_design, protocol_form, run_ee_cnot, run_initialization,
                       sweep_gate_error)
from donorpair.exchange import exchange_table
from donorpair.protocols import _form_coefficients, design_protocol_pulses

SEED = 11
FROZEN_MEANS = {   # (law, K_n, num_chains): float.hex of the 2 realization means
    ('none', 700, 1): ('0x1.fa7947dccd4c0p-6', '0x1.a47148be2ef9cp-3'),
    ('none', 700, 1023): ('0x1.63b710aaeca79p-3', '0x1.610cc4c5c21e8p-3'),
    ('none', 700, 1024): ('0x1.638c9a772ada7p-3', '0x1.61613071f35f6p-3'),
    ('none', 700, 1025): ('0x1.63ca1b668115cp-3', '0x1.6151e7cb56392p-3'),
    ('none', 700, 2049): ('0x1.626928d63f716p-3', '0x1.62cdf0cd73910p-3'),
    ('none', 700, 4097): ('0x1.630babfcd52d7p-3', '0x1.65b4ce11838bep-3'),
    ('none', 700, 20000): ('0x1.642016899ed83p-3', '0x1.651ea44615c81p-3'),
    ('none', 2000, 1): ('0x1.14e94081c7258p-4', '0x1.13b3cc74616d8p-4'),
    ('none', 2000, 1023): ('0x1.39e6e2384f32fp-4', '0x1.3dba58e6fb41ap-4'),
    ('none', 2000, 1024): ('0x1.39ebfecbc92c0p-4', '0x1.3db397e2a99c2p-4'),
    ('none', 2000, 1025): ('0x1.39cb012c964b7p-4', '0x1.3d9b9f154f948p-4'),
    ('none', 2000, 2049): ('0x1.3c67be6d44fcep-4', '0x1.3d173e71511bdp-4'),
    ('none', 2000, 4097): ('0x1.3d04a02e918b2p-4', '0x1.3eb1784f50c6ap-4'),
    ('none', 2000, 20000): ('0x1.3f30825aec4d1p-4', '0x1.3e34e20354b99p-4'),
    ('A', 700, 1): ('0x1.7167cc6d5971cp-2', '0x1.4fdb0bfa70df0p-2'),
    ('A', 700, 1023): ('0x1.c493885c1aef3p-3', '0x1.c9c005e16fb68p-3'),
    ('A', 700, 1024): ('0x1.c4a6c58c7905ep-3', '0x1.c967cd34d97bap-3'),
    ('A', 700, 1025): ('0x1.c4b76f790ef78p-3', '0x1.c95447e1a3b60p-3'),
    ('A', 700, 2049): ('0x1.c70d44d3829f1p-3', '0x1.c906060ba6628p-3'),
    ('A', 700, 4097): ('0x1.c6c669b7e5544p-3', '0x1.c6e35e8663291p-3'),
    ('A', 700, 20000): ('0x1.c6d2a2d40a9a8p-3', '0x1.c63cfbccee02bp-3'),
    ('A', 2000, 1): ('0x1.b17628da5c7d0p-5', '0x1.d664943520220p-5'),
    ('A', 2000, 1023): ('0x1.4a09f932f4280p-4', '0x1.45afe61b7b8a1p-4'),
    ('A', 2000, 1024): ('0x1.49ff79d654dbdp-4', '0x1.459743339d76cp-4'),
    ('A', 2000, 1025): ('0x1.4a15248e6fee4p-4', '0x1.45b79ebf72e74p-4'),
    ('A', 2000, 2049): ('0x1.4a53cdf7b266ep-4', '0x1.486592401cfc5p-4'),
    ('A', 2000, 4097): ('0x1.474f67d25f7d8p-4', '0x1.4989876750daep-4'),
    ('A', 2000, 20000): ('0x1.4a3cba9619893p-4', '0x1.49a3c63eb9c9cp-4'),
    ('B', 700, 1): ('0x1.4d0cf7796126cp-2', '0x1.9132955a22f8cp-3'),
    ('B', 700, 1023): ('0x1.a05e466f13402p-3', '0x1.9b9a5642254f1p-3'),
    ('B', 700, 1024): ('0x1.a0212175f1dadp-3', '0x1.9bc5c2e904742p-3'),
    ('B', 700, 1025): ('0x1.9fd59782f1aa9p-3', '0x1.9ba3f6a6f3955p-3'),
    ('B', 700, 2049): ('0x1.a304713f3113bp-3', '0x1.9e73a55501c8fp-3'),
    ('B', 700, 4097): ('0x1.a3a86015a2104p-3', '0x1.9de7781a38c9fp-3'),
    ('B', 700, 20000): ('0x1.9f52b4dd74561p-3', '0x1.9f5926aa147bap-3'),
    ('B', 2000, 1): ('0x1.14697e251ff20p-4', '0x1.215addb049e78p-4'),
    ('B', 2000, 1023): ('0x1.41636b30caf84p-4', '0x1.446efc6b106bap-4'),
    ('B', 2000, 1024): ('0x1.414f1708068a1p-4', '0x1.446490ff944fep-4'),
    ('B', 2000, 1025): ('0x1.4175212801728p-4', '0x1.4446f181d4372p-4'),
    ('B', 2000, 2049): ('0x1.41f56f553ee9ap-4', '0x1.4206a358da762p-4'),
    ('B', 2000, 4097): ('0x1.42ae7281887b9p-4', '0x1.425b58c4233eep-4'),
    ('B', 2000, 20000): ('0x1.4196a6c3f3676p-4', '0x1.41af441c35f38p-4'),
}


def test_seeded_means_are_frozen():
    configs = [EnsembleConfig(num_chains=n, num_realizations=2, law=law, k_n=k_n, seed=SEED)
               for law, k_n, n in FROZEN_MEANS]
    got = {(c.law, c.k_n, c.num_chains): tuple(x.hex() for x in r.realization_means)
           for c, r in zip(configs, ensemble_grid(configs))}
    assert got == FROZEN_MEANS


SWEEP_M = (-4, -1, 0, 1, 3)
SWEEP_K = {"a": (1, 4), "b": (700, 30000)}
FROZEN_SWEEPS = {   # (gate, displaced atom): {(m, K): float.hex of the error}
    ("a", 1): {(-4, 1): "0x1.7d0a88c164020p-6", (-1, 1): "0x1.5d02576d39a00p-10",
               (0, 1): "0x1.1c06926d80000p-15", (1, 1): "0x1.3fa0de2fffe00p-10",
               (3, 1): "0x1.093e135b1e7c0p-7", (-4, 4): "0x1.a1faff6d7d020p-2",
               (-1, 4): "0x1.c09d93e63d0a0p-6", (0, 4): "0x1.348dbc0000000p-27",
               (1, 4): "0x1.848666fc2c920p-6", (3, 4): "0x1.362e5c3b14ac4p-3"},
    ("a", 2): {(-4, 1): "0x1.590de58582100p-8", (-1, 1): "0x1.2a0b403190000p-13",
               (0, 1): "0x1.1c06926d80000p-15", (1, 1): "0x1.3d2f3d4140000p-15",
               (3, 1): "0x1.ce4928d640000p-14", (-4, 4): "0x1.4792c67de13a8p-4",
               (-1, 4): "0x1.355d0173e3000p-10", (0, 4): "0x1.348dbc0000000p-27",
               (1, 4): "0x1.0e472c0a47c00p-11", (3, 4): "0x1.29a469a03e100p-9"},
    ("b", 1): {(-4, 700): "0x1.6853688af8b1ap-2", (-1, 700): "0x1.641e054216c7ap-2",
               (0, 700): "0x1.63d5a60726eb0p-2", (1, 700): "0x1.641d07d6cb2d0p-2",
               (3, 700): "0x1.6659ccbff4a62p-2", (-4, 30000): "0x1.f5e2068639573p-1",
               (-1, 30000): "0x1.26d40106ff2b8p-1", (0, 30000): "0x1.c8bbf1957d800p-12",
               (1, 30000): "0x1.26d8451f5cd20p-1", (3, 30000): "0x1.c4a3447cf4c88p-1"},
    ("b", 2): {(-4, 700): "0x1.afb60d213c25ap-2", (-1, 700): "0x1.766d853cef6bcp-2",
               (0, 700): "0x1.63d5a60726eb0p-2", (1, 700): "0x1.5189a2b8047fep-2",
               (3, 700): "0x1.2def3e3a3ee38p-2", (-4, 30000): "0x1.c0c4f6ff04000p-15",
               (-1, 30000): "0x1.16dab56227800p-12", (0, 30000): "0x1.c8bbf1957d800p-12",
               (1, 30000): "0x1.058987eda0000p-14", (3, 30000): "0x1.d43ec6ed00000p-21"},
}
FROZEN_EE = {   # (m1, K'): float.hex of the ee-CNOT error
    (-1, 1): "0x1.e37e4d04bd4f6p-1", (-1, 2): "0x1.eb68ea30a9142p-1",
    (0, 1): "0x1.71aeb47e95000p-13", (0, 2): "0x1.33e2236968000p-13",
    (1, 1): "0x1.f2402d902765ep-1", (1, 2): "0x1.f04cb12b294d7p-1",
}
FROZEN_INIT = {   # run_initialization(displaced(1, -1), K_e 1, K_n 2000)
    "final_error": "0x1.090d3a698c35cp-3",
    "a": "0x1.ffa3b0b9e0866p-1", "b": "0x1.c2dd8686405a8p-1",
    "c": "0x1.fe1a55191a3bap-1", "d": "0x1.c2dcdd458d76ep-1",
}
FROZEN_FORMS = {   # (m1, m2): float.hex of the 16 coefficients at K_e 1, K_n 2000
    (1, -1): ("0x1.bdbcb1659cf2cp-1", "0x1.c3cd15108892ap-1", "0x1.f2f0be2420d52p-1",
              "0x1.fbba324fd11c3p-1", "0x1.079c0d0febd6bp-6", "-0x1.2750f669bcc7fp-5",
              "0x1.e0cf56a6b937dp-11", "0x1.8886eda3dd4c5p-12", "0x1.aa51b955363d8p-6",
              "0x1.7ce9be4f31f14p-9", "-0x1.2962dc8a48af3p-8", "0x1.5ec7a85424e97p-4",
              "-0x1.6b38dc0d13f80p-9", "-0x1.1d502ec26cce8p-8", "0x1.0df01bb23a8b4p-5",
              "0x1.1369b592260ddp-9"),
    (-3, 2): ("0x1.e9f2cce18c32ap-1", "0x1.c1de01cd2e18cp-1", "0x1.e780f9711188cp-1",
              "0x1.bfaddc4e85b9dp-1", "-0x1.6ed1c968ef6b9p-8", "-0x1.40fc69c645b98p-7",
              "0x1.f3a76af72662dp-12", "-0x1.7f0b76c878bc9p-11", "-0x1.258140a934ab5p-7",
              "-0x1.0689246b1b42ap-8", "-0x1.66746645dcb00p-5", "0x1.5590f1d1fb634p-6",
              "0x1.49d15d9e5ac2ap-11", "-0x1.615e9f6f850c9p-13", "0x1.3b692bd5d172ap-6",
              "-0x1.64190cd1a0415p-5"),
}


@pytest.mark.parametrize("gate, atom", sorted(FROZEN_SWEEPS))
def test_sweep_errors_are_frozen(gate, atom):
    table = sweep_gate_error(gate, SWEEP_M, SWEEP_K[gate], displaced_atom=atom)
    assert {key: value.hex() for key, value in table.items()} == FROZEN_SWEEPS[gate, atom]


def test_ee_cnot_errors_are_frozen():
    got = {(m, k): run_ee_cnot(DEFAULT_GEOMETRY.displaced(m1=m), k).hex()
           for m, k in FROZEN_EE}
    assert got == FROZEN_EE


def test_initialization_run_is_frozen():
    run = run_initialization(DEFAULT_GEOMETRY.displaced(1, -1), 1, 2000)
    got = {"final_error": run.final_error.hex(),
           **{name: f.hex() for name, f in run.pulse_fidelities.items()}}
    assert got == FROZEN_INIT


def test_protocol_form_coefficients_are_frozen():
    pulses = design_protocol_pulses(1, 2000)
    got = {pair: tuple(c.hex() for c in _form_coefficients(
               protocol_form(DEFAULT_GEOMETRY.displaced(*pair), pulses)))
           for pair in FROZEN_FORMS}
    assert got == FROZEN_FORMS


# Layer pins, taken before the exchange, geometry, spectrum and pulse-design
# functions read their constants from DEFAULT_CONSTANTS directly: float.hex
# of each value, so a change that moves one bit of a layer fails here.
FROZEN_JTABLE = {   # exchange_table(40, 51): N -> (a in nm, J/2pi in MHz)
    40: ("0x1.eb851eb851eb8p+4", "0x1.0dfc10eb75a6cp+5"),
    41: ("0x1.f7ced916872b1p+4", "0x1.695720ac1c2a6p+4"),
    42: ("0x1.020c49ba5e354p+5", "0x1.e2e3b76d50abdp+3"),
    43: ("0x1.083126e978d50p+5", "0x1.4234b3601ff9dp+3"),
    44: ("0x1.0e5604189374cp+5", "0x1.ad66526ecc35cp+2"),
    45: ("0x1.147ae147ae148p+5", "0x1.1dc2295afe0f5p+2"),
    46: ("0x1.1a9fbe76c8b44p+5", "0x1.7bdda01e9d734p+1"),
    47: ("0x1.20c49ba5e3540p+5", "0x1.f85e531265d35p+0"),
    48: ("0x1.26e978d4fdf3cp+5", "0x1.4e75bed5bb827p+0"),
    49: ("0x1.2d0e560418938p+5", "0x1.bb18df135c321p-1"),
    50: ("0x1.3333333333333p+5", "0x1.25348153e1a96p-1"),
    51: ("0x1.395810624dd30p+5", "0x1.83a6609c6715bp-2"),
}
FROZEN_SPECTRUM = {   # compute_spectrum(displaced(1, -1))
    "exact_energies": ("0x1.0e98e737ebce0p+39", "0x1.0e97870ae4f3ap+39",
                       "0x1.d7871d2c8783ap+24", "0x1.694d40b6ee924p+29",
                       "-0x1.6ac6e856738cfp+29", "-0x1.7038f676f76ccp+29",
                       "-0x1.0eec91bdf9242p+39", "-0x1.0e95e9d28707ep+39",
                       "0x1.0e9795e56e06cp+39", "0x1.0e9635b8672c8p+39",
                       "0x1.6075555a9266dp+24", "0x1.64169cba788c7p+29",
                       "-0x1.1788c2283d56cp+25", "-0x1.56c8485208733p+25",
                       "-0x1.0e95daf7fe04ap+39", "-0x1.0e3f330c8be88p+39"),
    "pert_energies": ("0x1.0e98e737ebce1p+39", "0x1.0e97870ae5579p+39",
                      "0x1.d7871d1443dbbp+24", "0x1.694d40b78a3cdp+29",
                      "-0x1.6ac6e85734fccp+29", "-0x1.7038f676bd7c8p+29",
                      "-0x1.0eec91bdf6cdfp+39", "-0x1.0e95e9d28704fp+39",
                      "0x1.0e9795e56e03cp+39", "0x1.0e9635b86a45ep+39",
                      "0x1.607543273c9e6p+24", "0x1.64169cbb39b50p+29",
                      "-0x1.1788ba77c789cp+25", "-0x1.56c84845e4452p+25",
                      "-0x1.0e95daf7fe688p+39", "-0x1.0e3f330c8be89p+39"),
    "smallness": ("0x1.227835b49d657p-6", "0x1.105132539e32cp-5", "0x1.4d244b726654cp-11"),
}
FROZEN_DESIGNS = {   # design_gate(nominal spectrum, GATES[name]) at its own K: (nu, omega_e, tau)
    "a": ("-0x1.0e38b4c38083cp+39", "0x1.96632b2957ab5p+28", "0x1.faa0e38f8f87bp-28"),
    "b": ("0x1.5a9e5bb77f800p+29", "0x1.425a24599b8b6p+39", "0x1.faa0e38f8f75fp-28"),
    "c": ("-0x1.0e9b3a3a22927p+39", "0x1.9696ae89ce704p+28", "0x1.fa60b37877281p-28"),
    "d": ("0x1.5adc69cb05400p+29", "0x1.428300c2b9802p+39", "0x1.fa60b378771d6p-28"),
    "ee": ("-0x1.0e38b4c38083cp+39", "0x1.b438a96ade901p+22", "0x1.d7faafc342355p-22"),
}
FROZEN_LEADING = {   # leading_order_design(GATES["b"].with_k(2000))
    "nu": "0x1.5a81b72f82c00p+29", "delta": "-0x1.5ff1195b5621dp+29",
    "omega": "0x1.68636eabe243ep+17", "tau": "0x1.1da584d058fe9p-16",
}
FROZEN_DETUNING = "0x1.d8133e74d0000p+23"   # displacement_detuning(GATES["a"], displaced(m1=-1))
FROZEN_KN_WINDOW = (363, 34120)             # kn_window(nominal spectrum, displaced(m1=-1))
FROZEN_INTERIOR = {   # interior_qubit_estimate(m): (detuning, Rabi, Rabi error)
    1: ("0x1.0006c44c564d0p+20", "0x1.b438c079411e2p+22", "0x1.b9b8613f59b0fp+21"),
    -1: ("0x1.0006c44c564d0p+20", "0x1.b438c079411e2p+22", "-0x1.25e73eee47c24p+21"),
}


def _hexes(values) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in values)


def test_exchange_table_is_frozen():
    assert {n: (a.hex(), j.hex()) for n, a, j in exchange_table(40, 51)} == FROZEN_JTABLE


def test_displaced_spectrum_is_frozen():
    spec = compute_spectrum(DEFAULT_GEOMETRY.displaced(1, -1))
    got = {name: _hexes(getattr(spec, name)) for name in FROZEN_SPECTRUM}
    assert got == FROZEN_SPECTRUM


def test_pulse_designs_are_frozen():
    spec0 = compute_spectrum(DEFAULT_GEOMETRY)
    got = {name: _hexes((p.nu, p.omega_e, p.tau))
           for name, gate in GATES.items() for p in [design_gate(spec0, gate)]}
    assert got == FROZEN_DESIGNS


def test_analytic_design_values_are_frozen():
    lead = leading_order_design(GATES["b"].with_k(2000))
    assert {key: float(value).hex() for key, value in lead.items()} == FROZEN_LEADING
    detuning = displacement_detuning(GATES["a"], DEFAULT_GEOMETRY.displaced(m1=-1))
    assert float(detuning).hex() == FROZEN_DETUNING
    assert kn_window(compute_spectrum(DEFAULT_GEOMETRY),
                     DEFAULT_GEOMETRY.displaced(m1=-1)) == FROZEN_KN_WINDOW
    assert {m: _hexes(interior_qubit_estimate(m)) for m in FROZEN_INTERIOR} == FROZEN_INTERIOR
