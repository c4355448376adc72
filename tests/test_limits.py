"""Properties where the physics is near its limits: the epsilon' pole, the 10/12 crossing
and the edges of the layouts the command line accepts.

The epsilon' pole is the gradient at which 2 gamma_e (B2 - B1) = A (58085.84245741747
T/m on the nominal chain); the 10/12 label crossing is where gamma_e (B2 - B1) = A,
about twice that gradient. Each property draws a nominal layout whose gradient puts
one displaced chain of a sweep within a relative 1e-3 of either, down to exactly on
it. Each geometry must either be refused with a ValueError (ValidityError is one) or
give propagators unitary to 1e-12 and sweep errors in [0, 1] to 1e-12. These bounds
were fixed before the properties were first run.

The command-line property runs every command on layouts drawn from two strategies:
a wide one (N0 in 1-3000, field and gradient log-uniform in 1e-9-1e12) and a
physical one (N0 in 20-80, gradient in 1e3-1e7 T/m, field in 0.1-10 T). Each run
either succeeds with finite numbers and every error P in [0, 1], or exits 3 with one
line on stderr that names the option or the guard that refused it.
"""
import contextlib
import io
import json
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from donorpair import (GATES, DeviceGeometry, SwapBoundaryWarning, compute_spectrum,
                       effective_params, pulse_propagator, sweep_gate_error)
from donorpair.cli import main
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


def log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0 ** x)


LAYOUTS = st.one_of(
    st.fixed_dictionaries({"--N0": st.integers(1, 3000),
                           "--b-tesla": log_uniform(1e-9, 1e12),
                           "--gradient-T-per-m": log_uniform(1e-9, 1e12)}),
    st.fixed_dictionaries({"--N0": st.integers(20, 80),
                           "--b-tesla": st.floats(0.1, 10.0),
                           "--gradient-T-per-m": log_uniform(1e3, 1e7)}))
DISPLACED = st.fixed_dictionaries({"--m1": st.sampled_from(DISPLACEMENTS),
                                   "--m2": st.sampled_from(DISPLACEMENTS)})


def layout_command(prefixes: list[list[str]], displaced: bool = False):
    """One of `prefixes` with a drawn layout, and drawn displacements if `displaced`."""
    parts = st.tuples(st.sampled_from(prefixes), LAYOUTS,
                      DISPLACED if displaced else st.just({}))
    return parts.map(lambda p: p[0] + [str(x) for options in p[1:]
                                       for item in options.items() for x in item])


# sweep, ee-cnot and ensemble set the displacements themselves: they refuse --m1 and --m2
COMMANDS = st.one_of(
    st.builds(lambda n, width: ["jtable", str(n), str(n + width)],
              st.integers(1, 3000), st.integers(0, 10)),
    layout_command([["spectrum"]], displaced=True),
    layout_command([["design", "--gate", gate] for gate in sorted(GATES)], displaced=True),
    layout_command([["sweep", "--gate", gate] for gate in ("a", "b")]),
    layout_command([["ee-cnot"]]),
    layout_command([["ensemble", "--chains", "50", "--realizations", "2", "--Kn", "2000",
                     "--law", "A,none", "--threads", "1"]]))
P_COLUMNS = ("P", "P_e", "mean_P")   # the error columns of sweep, ee-cnot and ensemble


def _numbers(value) -> list:
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run, writing no file."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("DONORPAIR_OUTDIR", None)
        warnings.simplefilter("ignore", SwapBoundaryWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def checked_errors(argv: list[str]) -> list[float]:
    """The printed errors P of a run that exits 0 or 3 as the property asks (none on 3).

    On exit 3, stderr is one "error: " line giving the reason; on exit 0,
    every number printed, in the CSV and in the "# config:" line, is finite.
    """
    code, out, err = run_cli(argv)
    assert code in (0, 3), (argv, code, err)
    if code == 3:
        line, = err.splitlines()
        assert line.startswith("error: ") and len(line.split()) >= 4, (argv, err)
        return []
    config, = [line for line in err.splitlines() if line.startswith("# config: ")]
    assert all(math.isfinite(x) for x in _numbers(json.loads(config[len("# config: "):]))), config
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert rows, argv
    errors = []
    for row in rows:
        for column, cell in zip(header, row, strict=True):
            try:
                value = float(cell)
            except ValueError:   # a ket or a law name
                continue
            assert math.isfinite(value), (argv, column, cell)
            if column in P_COLUMNS:
                errors.append(value)
    return errors


@given(argv=COMMANDS)
@settings(derandomize=True, deadline=None)
def test_every_command_succeeds_or_exits_3_on_any_layout(argv):
    # every P in [0, 1] to the TOL the sweep property above allows
    assert all(-TOL <= p <= 1 + TOL for p in checked_errors(argv)), argv


def test_printed_errors_are_never_below_zero():
    layouts = [("102", "100.0", "1.0"), ("696", "10000.0", "17.32308642209288"),
               ("696", "17.32308642209288", "17.32308642209288")]
    errors = [p for n0, field, gradient in layouts for p in checked_errors(
        ["sweep", "--gate", "a", "--N0", n0, "--b-tesla", field, "--gradient-T-per-m", gradient])]
    assert min(errors) >= 0.0, min(errors)
