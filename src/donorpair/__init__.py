"""Simulator and pulse-design toolkit for a two-donor spin register in silicon."""

__version__ = "0.1.0"

from .constants import DEFAULT_CONSTANTS, PhysicalConstants, TWO_PI
from .exchange import delta_j, delta_j_series, herring_flicker, j_for_sites
from .geometry import (DEFAULT_GEOMETRY, DeviceGeometry, EffectiveParams,
                       effective_params, field_step)
from .spectrum import (DegenerateLabelError, Spectrum, SwapBoundaryWarning,
                       ValidityError, build_h0, compute_spectra, compute_spectrum,
                       exact_spectrum, perturbative_spectrum, small_params,
                       transition_frequency, zeroth_energies)
from .pulses import (GATES, GateSpec, PulseSpec, design_gate,
                     displacement_detuning, error_estimate,
                     interior_qubit_estimate, kn_window, leading_order_design,
                     nonresonant_mu, pulse_duration, rabi_probability,
                     two_pi_k_omega)
from .dynamics import (StepSizeError, evolve_pulse, integrate_lab_frame,
                       pulse_propagator, relax_electrons, relax_electrons_adjoint,
                       rotating_hamiltonian)
from .protocols import (DisplacementDistribution, EnsembleConfig,
                        EnsembleResult, ProtocolRun, ensemble_grid,
                        ensemble_init, ensemble_workers, protocol_form, run_ee_cnot,
                        run_initialization, sweep_gate_error,
                        sweep_neighbor_displacement)
