"""Simulator and pulse-design toolkit for a two-donor spin register in silicon.

The names below load their module on first use, so `import donorpair` costs
nothing until one of them is read (PEP 562).
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constants": ("TWO_PI",),
    "exchange": ("herring_flicker", "j_for_sites"),
    "geometry": ("DEFAULT_GEOMETRY", "DeviceGeometry", "EffectiveParams", "effective_params",
                 "field_step"),
    "spectrum": ("DegenerateLabelError", "Spectrum", "SwapBoundaryWarning", "ValidityError",
                 "build_h0", "compute_spectra", "compute_spectrum", "exact_spectrum",
                 "perturbative_spectrum", "small_params", "transition_frequency",
                 "zeroth_energies"),
    "pulses": ("GATES", "GateSpec", "PulseSpec", "design_gate", "design_values",
               "error_estimate", "kn_window", "pulse_duration", "rabi_probability",
               "two_pi_k_omega"),
    "dynamics": ("StepSizeError", "integrate_lab_frame", "pulse_propagator", "relax_electrons",
                 "relax_electrons_adjoint", "rotating_hamiltonian"),
    "protocols": ("EnsembleConfig", "EnsembleResult", "ProtocolRun", "displacement_detuning",
                  "ensemble_grid", "ensemble_init", "ensemble_workers", "protocol_form",
                  "run_ee_cnot", "run_initialization", "sweep_gate_error"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines `name` and keep the value here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
