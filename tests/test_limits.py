"""Properties where the physics is near its limits: the epsilon' pole and the 10/12 crossing.

The epsilon' pole is the gradient at which 2 gamma_e (B2 - B1) = A (58085.84245741747
T/m on the nominal chain); the 10/12 label crossing is where gamma_e (B2 - B1) = A,
about twice that gradient. Each property draws a nominal layout whose gradient puts
one displaced chain of a sweep within a relative 1e-3 of either, down to exactly on
it. Each geometry must either be refused with a ValueError (ValidityError is one) or
give propagators unitary to 1e-12 and sweep errors in [0, 1] to 1e-12. These bounds
were fixed before the properties were first run.
"""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from donorpair import (GATES, DeviceGeometry, SwapBoundaryWarning, compute_spectrum,
                       effective_params, pulse_propagator, sweep_gate_error)
from donorpair.constants import GAMMA_E
from donorpair.geometry import DISPLACEMENTS
from donorpair.protocols import design_protocol_pulses

TOL = 1e-12
POLE, CROSSING = 0.5, 1.0   # gamma_e (B2 - B1) / A at the epsilon' pole and at the crossing


def gradient_at(ratio: float, m1: int, m2: int) -> float:
    """Gradient at which gamma_e (B2 - B1) = ratio * A on the chain displaced by (m1, m2).

    B2 - B1 is proportional to the gradient, so one chain at 1e5 T/m fixes it.
    """
    p = effective_params(DeviceGeometry(gradient=1e5, m1=m1, m2=m2))
    return 1e5 * ratio * p.a / (GAMMA_E * (p.b2 - p.b1))


def test_pole_gradient_is_the_guarded_one():
    assert gradient_at(POLE, 0, 0) == pytest.approx(58085.84245741747, rel=1e-12)


@given(ratio=st.sampled_from([POLE, CROSSING]), atom=st.sampled_from([1, 2]),
       m=st.sampled_from(DISPLACEMENTS), gate=st.sampled_from(sorted(GATES)),
       offset=st.floats(-1e-3, 1e-3))
@example(ratio=POLE, atom=1, m=0, gate="a", offset=0.0)
@example(ratio=POLE, atom=1, m=0, gate="b", offset=1e-12)
@example(ratio=POLE, atom=2, m=3, gate="c", offset=-1e-9)
@example(ratio=POLE, atom=1, m=-2, gate="ee", offset=1e-6)
@example(ratio=CROSSING, atom=1, m=0, gate="a", offset=0.0)
@example(ratio=CROSSING, atom=2, m=-4, gate="d", offset=1e-9)
@example(ratio=CROSSING, atom=1, m=4, gate="b", offset=-1e-6)
@settings(max_examples=40, deadline=None)
def test_refused_or_unitary_with_errors_in_unit_interval(ratio, atom, m, gate, offset):
    m1, m2 = (m, 0) if atom == 1 else (0, m)
    try:
        nominal = DeviceGeometry(gradient=gradient_at(ratio, m1, m2) * (1 + offset))
        chain = nominal.displaced(m1, m2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SwapBoundaryWarning)
            pulses = design_protocol_pulses(geometry_nominal=nominal)
            h0 = compute_spectrum(chain).hamiltonian
            propagators = [pulse_propagator(h0, pulse) for pulse in pulses.values()]
            errors = sweep_gate_error(gate, k_list=(1, 2), displaced_atom=atom,
                                      geometry_nominal=nominal)
    except ValueError:
        return
    for u in propagators:
        assert np.abs(u.conj().T @ u - np.eye(16)).max() <= TOL
    assert len(errors) == 2 * len(DISPLACEMENTS)
    assert all(-TOL <= error <= 1 + TOL for error in errors.values()), errors
