import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from donorpair import cli, protocols, spectrum
from donorpair.cli import main
from donorpair.exchange import exchange_table
from donorpair.geometry import DEFAULT_GEOMETRY, DeviceGeometry, effective_params
from donorpair.protocols import displacement_detuning
from donorpair.pulses import GATES, design_gate, kn_window
from donorpair.spectrum import compute_spectrum


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def count_solves(monkeypatch):
    """The (m1, m2) of every chain solved from here on, in solve order.

    Counted where compute_spectrum and compute_spectra both derive a chain's
    parameters, so a chain counts once whichever entry point solves it.
    """
    solved = []

    def counting_params(geometry):
        solved.append((geometry.m1, geometry.m2))
        return effective_params(geometry)

    monkeypatch.setattr(spectrum, "effective_params", counting_params)
    return solved


class TestJtable:
    def test_reference_row(self, capsys):
        code, out, err = run_cli(["jtable", "40", "51"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,a_nm,J_MHz"
        assert len(lines) == 13
        row47 = dict(zip(lines[0].split(","), lines[8].split(",")))
        assert float(row47["J_MHz"]) == pytest.approx(1.97, rel=0.01)
        assert out.endswith("\n")
        assert "config" in err

    def test_single_row(self, capsys):
        code, out, _ = run_cli(["jtable", "47", "47"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_csv_roundtrip_is_exact(self, capsys):
        code, out, _ = run_cli(["jtable", "40", "51"], capsys)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        expected = exchange_table(40, 51)
        for row, (n, a_nm, j_mhz) in zip(rows, expected):
            assert int(row[0]) == n
            assert float(row[1]) == a_nm      # repr round-trip, bit exact
            assert float(row[2]) == j_mhz

    def test_invalid_range_is_validity_error(self, capsys):
        code, _, err = run_cli(["jtable", "50", "40"], capsys)
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("n_min, n_max", [("5", "3"), ("0", "3")])
    def test_range_error_names_rule_and_values(self, n_min, n_max, capsys):
        code, out, err = run_cli(["jtable", n_min, n_max], capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: need 1 <= n_min <= n_max, got {n_min} and {n_max}\n"

    @pytest.mark.parametrize("n, named", [(10**200, "separation 7.68e+190 m"),
                                          (10**400, f"site separation {10**400}")])
    def test_overflowing_separation_is_validity_error(self, n, named, capsys):
        code, out, err = run_cli(["jtable", str(n), str(n)], capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: {named} is too large for the exchange formula\n"

    def test_separation_past_the_exchange_domain_is_validity_error(self, capsys):
        # J(1529) would be subnormal: the table stops with exit 3, not a row of 0.0
        code, out, err = run_cli(["jtable", "1528", "1529"], capsys)
        assert code == 3
        assert out == ""
        assert err == ("error: separation 1.17427e-06 m is too large for the exchange formula: "
                       "its factor exp(-2a/a_B) = 1.8621490652103814e-308 is not a normal float\n")

    def test_usage_error_exit_code(self, source_env):
        proc = subprocess.run(
            [sys.executable, "-m", "donorpair.cli", "jtable", "40"],
            capture_output=True, text=True, env=source_env)
        assert proc.returncode == 2

    @pytest.mark.parametrize("dest, value", [
        ("N0", 0), ("gradient_T_per_m", 1.4e5), ("b_tesla", -1.0), ("m1", 9), ("m2", 1)],
        ids=["N0", "gradient_T_per_m", "b_tesla", "m1", "m2"])
    def test_layout_flags_refused(self, dest, value, tmp_path, capsys):
        # jtable reads no chain layout: its flags are usage errors, and a
        # configuration file's layout key is another command's, so dropped
        flag = "--" + dest.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["jtable", "40", "41", flag, str(value)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dest: value}))
        code, out, _ = run_cli(["--config", str(cfg), "jtable", "40", "41"], capsys)
        assert (code, out) == run_cli(["jtable", "40", "41"], capsys)[:2]
        assert code == 0


# CSV cell text of each kind of value a command puts in a row, and of the
# numpy scalars whose text is the same
CELLS = [(0.1, "0.1"), (1e-300, "1e-300"), (-0.0, "-0.0"), (float("nan"), "nan"),
         (7, "7"), (True, "True"), (False, "False"), ("a|b", "a|b"),
         (np.float64(0.1), "0.1"), (np.int64(-7), "-7"),
         (np.bool_(True), "True"), (np.bool_(False), "False")]


def test_format_cell_text():
    assert [cli._format_cell(value) for value, _ in CELLS] == [text for _, text in CELLS]


@pytest.mark.parametrize("argv", [
    ["jtable", "40", "51"],
    ["spectrum"],
    *[["design", "--gate", gate] for gate in sorted(GATES)],
    ["design", "--gate", "b", "--m1", "-1"],
    ["sweep", "--gate", "a"],
    ["sweep", "--gate", "b"],
    ["ensemble", "--chains", "50", "--realizations", "2", "--law", "A,none", "--Kn", "2000",
     "--threads", "1"],
    ["ee-cnot"],
], ids=lambda argv: " ".join(argv))
@pytest.mark.filterwarnings("ignore::donorpair.spectrum.SwapBoundaryWarning")
def test_each_parser_runs_its_command(argv):
    # each command's rows hold ints, floats and strs only, so _format_cell's
    # one rule (repr of a float, str of anything else) prints every cell
    args = cli.build_parser().parse_args(argv)
    assert args.func is getattr(cli, "cmd_" + argv[0].replace("-", "_"))
    rows, _ = args.func(args)
    for row in rows:
        for value in row.values():
            assert isinstance(value, (int, float, str)), (row, value)
            assert not isinstance(value, bool), (row, value)


def gate_choices(command: str) -> tuple:
    flags = cli._command_parsers(cli.build_parser())[command]._actions
    return next(a.choices for a in flags if a.dest == "gate")


def test_gate_choices():
    # the parser lists the gates without importing pulses
    assert cli.GATE_NAMES == tuple(sorted(GATES))
    assert gate_choices("design") == cli.GATE_NAMES
    assert gate_choices("sweep") == ("a", "b")


class TestSpectrum:
    def test_nominal_report(self, capsys):
        code, out, _ = run_cli(["spectrum", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        rows = {r["level"]: r for r in doc["rows"]}
        assert len(rows) == 16
        # the fully polarized level is decoupled: exact equals leading order
        assert rows[15]["exact_MHz"] == pytest.approx(rows[15]["zeroth_MHz"], abs=1e-9)
        assert abs(rows[15]["exact_MHz"] - (-92366.3127)) < 0.01
        assert doc["config"]["max_pert_dev_Hz"] < 100.0
        assert doc["config"]["pert_dev_flagged"] is False

    def test_displaced_chain_j_column(self, capsys):
        code, out, _ = run_cli(["spectrum", "--m1", "-1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["J_MHz"] == pytest.approx(1.306, rel=0.01)

    def test_deviation_column_small(self, capsys):
        code, out, _ = run_cli(["spectrum", "--format", "json"], capsys)
        doc = json.loads(out)
        assert all(abs(r["dev_Hz"]) <= 100.0 for r in doc["rows"])


    @pytest.mark.parametrize("flag", ["--b-tesla", "--gradient-T-per-m"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_field_rejected(self, flag, value, capsys):
        code, out, err = run_cli(["spectrum", flag, value], capsys)
        assert code == 3
        assert out == ""
        assert "finite" in err and "Eigenvalues" not in err


@pytest.mark.parametrize("gradient", ["1e30", "1e200"])
@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["sweep", "--gate", "a", "--K", "1"],
    ["ensemble", "--chains", "4", "--realizations", "1", "--law", "none", "--Kn", "2000"],
    ["ee-cnot"],
])
def test_huge_gradient_rejected(argv, gradient, monkeypatch, capsys):
    # B1 + B2 cancels to 0: a validity error before any chain, not a crash
    def no_run(*args):
        raise AssertionError("a chain ran with no positive mean field")
    monkeypatch.setattr(protocols, "_run_realization", no_run)
    code, out, err = run_cli(argv + ["--gradient-T-per-m", gradient], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: the local fields B1 = ") and "no positive mean" in err


@pytest.mark.parametrize("value", ["1.7e7", "1e9", "3.4e13"])
@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["ensemble", "--chains", "4", "--realizations", "1", "--law", "A", "--Kn", "2000"],
])
def test_field_difference_that_rounding_decides_rejected(argv, value, monkeypatch, capsys):
    # at 3.4e13 T the computed B2 - B1 is 66 % off; from 2**24 T, ulp(B1) +
    # ulp(B2) exceeds 1e-6 of B2 - B1 at the default gradient
    def no_run(*args):
        raise AssertionError("a chain ran with a field difference that rounding decides")
    monkeypatch.setattr(protocols, "_run_realization", no_run)
    code, out, err = run_cli(argv + ["--b-tesla", value], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: the local fields B1 = ")
    assert f"at the mean field {float(value)!r} T rounding decides B2 - B1" in err


def test_field_difference_resolved_at_a_megatesla(capsys):
    code, out, _ = run_cli(["spectrum", "--b-tesla", "1e6"], capsys)
    assert code == 0 and out


@pytest.mark.parametrize("flag, value, message", [
    ("--gradient-T-per-m", "2e8", "= -0.30996363137308736 T of DeviceGeometry(n0=47, "
                                  "gradient=200000000.0, mean_field_b=3.3, m1=0, m2=0) "
                                  "is not positive"),
    ("--b-tesla", "1e300", "= 1e+300 T of DeviceGeometry(n0=47, gradient=130000.0, "
                           "mean_field_b=1e+300, m1=0, m2=0) is too large"),
    # the two local fields round to one value: refused before the residual guard overflows
    ("--b-tesla", "1e200", "= 1e+200 T of DeviceGeometry(n0=47, gradient=130000.0, "
                           "mean_field_b=1e+200, m1=0, m2=0) equals B2 = 1e+200 T"),
])
@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["ensemble", "--chains", "4", "--realizations", "1", "--law", "A", "--Kn", "2000"],
])
def test_field_outside_the_model_rejected(argv, flag, value, message, monkeypatch, capsys):
    # B1 < 0 with a positive mean, or a Zeeman term that overflows: refused
    # by name before any arithmetic on the field
    def no_run(*args):
        raise AssertionError("a chain ran with a field outside the model")
    monkeypatch.setattr(protocols, "_run_realization", no_run)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv + [flag, value], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: the local field B1 ") and message in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["design", "--gate", "b"], ["sweep", "--gate", "a"], ["ee-cnot"],
    ["ensemble", "--chains", "4", "--realizations", "1", "--law", "A", "--Kn", "2000"],
])
def test_n0_beyond_the_float_range_rejected(argv, capsys):
    # gradient * N0 cannot convert N0 to a float: refused by name, not an internal error
    n0 = 10**400
    code, out, err = run_cli(argv + ["--N0", str(n0)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: the nominal separation N0 = {n0} is too large for a float\n"


@pytest.mark.parametrize("argv", [
    ["design", "--gate", "b", "--K"], ["sweep", "--gate", "a", "--K"], ["ee-cnot", "--K"],
    ["ensemble", "--chains", "4", "--realizations", "1", "--law", "A", "--Kn"],
    ["ensemble", "--chains", "4", "--realizations", "1", "--law", "A", "--K"],
])
@pytest.mark.parametrize("k", [10**154, 10**160], ids=["1e154", "1e160"])
def test_k_beyond_the_float_range_rejected(argv, k, capsys):
    # 4K^2 - 1 is inf at 10**154 and does not convert to a float at 10**160
    code, out, err = run_cli(argv + [str(k)], capsys)
    assert (code, out) == (3, "")
    assert err == (f"error: K = {k} is too large for the 2piK condition: "
                   f"4K^2 - 1 is not a finite float\n")


@pytest.mark.parametrize("argv, gate, k", [
    (["design", "--gate", "b", "--K"], "CN_e1n1", 10**8),
    (["sweep", "--gate", "a", "--K"], "CN_n1e1", 10**8),
    (["ee-cnot", "--K"], "CN_e2e1", 10**6),
    (["ensemble", "--chains", "4", "--realizations", "1", "--law", "A", "--Kn"], "CN_e1n1", 10**8),
    (["ensemble", "--chains", "4", "--realizations", "1", "--law", "A", "--K"], "CN_n1e1", 10**8),
])
def test_k_the_propagator_cannot_resolve_rejected(argv, gate, k, capsys):
    # the pulse's largest phase would carry a rounding error above PHASE_ROUNDING_TOL
    code, out, err = run_cli(argv + [str(k)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: gate {gate} at K = {k}: ")
    assert "the propagator cannot resolve it" in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--gate", "a", "--K", "1,01"], "--K: 1 is listed twice"),
    (["ensemble", "--law", "A,none,A", "--Kn", "2000"], "--law: 'A' is listed twice"),
    (["ensemble", "--law", "A", "--Kn", "2000,2000"], "--Kn: 2000 is listed twice"),
])
def test_repeated_list_value_rejected(argv, message, capsys):
    # a repeat would print the same seeded cell, or the same sweep rows, twice
    assert run_cli(argv, capsys) == (3, "", f"error: {message}\n")


class TestDesign:
    def test_gate_a(self, capsys):
        code, out, _ = run_cli(["design", "--gate", "a", "--K", "1",
                                "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["Omega_MHz"] == pytest.approx(67.82, abs=0.02)
        assert row["Delta_MHz"] == pytest.approx(-117.47, abs=0.02)
        assert row["nu_MHz"] == pytest.approx(-92.35e3, abs=10.0)
        assert row["tau_us"] == pytest.approx(7.37e-3, rel=1e-3)

    def test_gate_b_reports_leading_order(self, capsys):
        code, out, _ = run_cli(["design", "--gate", "b", "--format", "json"], capsys)
        row = json.loads(out)["rows"][0]
        assert row["nu_leading_MHz"] == pytest.approx(115.655, abs=2e-3)
        assert row["K"] == 2000

    def test_displaced_design_reports_detuning_shift(self, capsys):
        code, out, _ = run_cli(["design", "--gate", "b", "--m1", "-1",
                                "--format", "json"], capsys)
        row = json.loads(out)["rows"][0]
        assert row["detuning_shift_kHz"] == pytest.approx(-1.72, abs=0.05)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_displaced_gate_b_reports_kn_window(self, fmt, capsys):
        code, out, _ = run_cli(["design", "--gate", "b", "--m1", "-1", "--format", fmt],
                               capsys)
        assert code == 0
        if fmt == "json":
            row = json.loads(out)["rows"][0]
        else:
            header, values = out.strip().split("\n")
            assert header.endswith(",detuning_shift_kHz,Kn_min,Kn_max")
            row = {k: int(v) for k, v in zip(header.split(","), values.split(","))
                   if k.startswith("Kn_")}
        window = kn_window(compute_spectrum(DEFAULT_GEOMETRY), displacement_detuning(
            GATES["b"], DEFAULT_GEOMETRY.displaced(m1=-1)))
        assert (row["Kn_min"], row["Kn_max"]) == window == (363, 34120)

    @pytest.mark.parametrize("gradient", [100.0, 300.0])
    def test_kn_max_is_the_largest_k_design_accepts(self, gradient, capsys):
        # at these gradients the detuning edge (38927560 and 14187139) lies past
        # the largest K whose pulse the propagator resolves, so that K caps the window
        code, out, _ = run_cli(["design", "--gate", "b", "--m1", "1", "--gradient-T-per-m",
                                str(gradient), "--format", "json"], capsys)
        assert code == 0
        k_max = json.loads(out)["rows"][0]["Kn_max"]
        spec0 = compute_spectrum(DeviceGeometry(gradient=gradient))
        assert design_gate(spec0, GATES["b"], k_max).tau > 0
        with pytest.raises(ValueError, match="the propagator cannot resolve it"):
            design_gate(spec0, GATES["b"], k_max + 1)

    def test_displaced_gate_b_solves_two_chains(self, monkeypatch, capsys):
        # the nominal chain once, for the design and the detuning shift that
        # the Kn window reuses, then the displaced chain of that shift
        solved = count_solves(monkeypatch)
        code, _, _ = run_cli(["design", "--gate", "b", "--m1", "-1"], capsys)
        assert code == 0
        assert solved == [(0, 0), (-1, 0)]

    def test_displaced_design_derives_two_parameter_sets(self, monkeypatch, capsys):
        # the leading-order values read the nominal spectrum's parameters, so the
        # nominal and displaced chains are the only effective_params calls
        derived = []

        def counting_params(geometry):
            derived.append((geometry.m1, geometry.m2))
            return effective_params(geometry)

        monkeypatch.setattr("donorpair.geometry.effective_params", counting_params)
        monkeypatch.setattr(spectrum, "effective_params", counting_params)
        code, _, _ = run_cli(["design", "--gate", "b", "--m1", "-1"], capsys)
        assert code == 0
        assert derived == [(0, 0), (-1, 0)]

    @pytest.mark.parametrize("argv", [["--gate", "b"], ["--gate", "a", "--m1", "-1"]])
    def test_kn_window_only_for_displaced_gate_b(self, argv, capsys):
        code, out, _ = run_cli(["design", *argv], capsys)
        assert code == 0
        assert "Kn_" not in out.split("\n")[0]


class TestSweep:
    def test_cardinality(self, capsys):
        code, out, _ = run_cli(["sweep", "--gate", "a", "--K", "1,2,3,4"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,K,P"
        assert len(lines) == 1 + 9 * 4

    def test_neighbor_sweep(self, capsys):
        code, out, _ = run_cli(["sweep", "--gate", "b", "--K", "2000",
                                "--displaced-atom", "2"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 10

    def test_empty_k_list_rejected(self, capsys):
        code, out, err = run_cli(["sweep", "--gate", "a", "--K", ","], capsys)
        assert code == 3
        assert out == ""
        assert "--K lists no values" in err

    def test_non_integer_k_names_the_option(self, capsys):
        code, out, err = run_cli(["sweep", "--gate", "a", "--K", "1,x"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: --K: 'x' is not an integer\n"

    def test_geometry_in_resolved_config(self, capsys):
        code, out, _ = run_cli(["sweep", "--gate", "a", "--K", "1", "--N0", "48",
                                "--format", "json"], capsys)
        assert code == 0
        geometry = json.loads(out)["config"]["geometry"]
        assert geometry["n0"] == 48
        assert geometry["m1"] == geometry["m2"] == 0

    def test_displacement_flags_rejected(self, capsys):
        code, out, err = run_cli(["sweep", "--gate", "a", "--m1", "2"], capsys)
        assert code == 3
        assert out == ""
        assert "--m1" in err

    def test_displacement_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m2": -3}))
        code, out, err = run_cli(["--config", str(cfg), "sweep", "--gate", "b"], capsys)
        assert code == 3
        assert out == ""
        assert "--m2" in err


class TestEnsemble:
    ARGS = ["ensemble", "--chains", "40", "--realizations", "2", "--law", "A",
            "--Kn", "2000", "--seed", "7"]

    def test_deterministic_bytes(self, pools, capsys):
        _, out1, _ = run_cli(self.ARGS + ["--threads", "1"], capsys)
        _, out2, _ = run_cli(self.ARGS + ["--threads", "2"], capsys)
        assert pools == [{"max_workers": 2}]
        assert out1 == out2
        header, row = out1.strip().split("\n")
        assert header == "K_n,law,mean_P,stderr"
        assert row.startswith("2000,A,")

    def test_geometry_flags_change_output(self, capsys):
        args = self.ARGS + ["--threads", "1"]
        _, nominal, _ = run_cli(args, capsys)
        code, moved, _ = run_cli(args + ["--N0", "48", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(moved)
        assert doc["config"]["geometry"]["n0"] == 48
        assert repr(doc["rows"][0]["mean_P"]) not in nominal

    def test_displacement_flags_rejected(self, capsys):
        code, out, err = run_cli(self.ARGS + ["--m1", "1"], capsys)
        assert code == 3
        assert out == ""
        assert "--m1" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(["ensemble", "--chains", "4", "--realizations", "1",
                                  "--law", "none", "--Kn", "2000", "--seed", "-1"], capsys)
        assert code == 3
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("option", ["--law", "--Kn"])
    def test_empty_list_rejected(self, option, capsys):
        args = ["ensemble", "--chains", "4", "--realizations", "1", "--law", "none",
                "--Kn", "2000"]
        args[args.index(option) + 1] = ","
        code, out, err = run_cli(args, capsys)
        assert code == 3
        assert out == ""
        assert f"{option} lists no values" in err

    def test_non_integer_kn_names_the_option(self, capsys):
        code, out, err = run_cli(["ensemble", "--chains", "4", "--realizations", "1",
                                  "--law", "none", "--Kn", "2000,7.5"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: --Kn: '7.5' is not an integer\n"

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_non_positive_threads_rejected(self, threads, monkeypatch, capsys):
        def no_run(configs):
            raise AssertionError("chains ran with a non-positive thread count")
        monkeypatch.setattr(protocols, "ensemble_grid", no_run)
        code, out, err = run_cli(["ensemble", "--chains", "4", "--realizations", "1",
                                  "--law", "none", "--Kn", "2000", "--threads", threads], capsys)
        assert code == 3
        assert out == ""
        assert "threads must be positive" in err

    def test_chain_limit_rejected(self, monkeypatch, capsys):
        def no_run(configs):
            raise AssertionError("chains ran before the limit was checked")
        monkeypatch.setattr(protocols, "ensemble_grid", no_run)
        code, out, err = run_cli(["ensemble", "--chains", str(2**32 + 1), "--realizations", "1",
                                  "--law", "none", "--Kn", "2000"], capsys)
        assert code == 3
        assert out == ""
        assert "num_chains" in err

    def test_one_pool_per_run(self, pools, capsys):
        args = ["ensemble", "--chains", "30", "--realizations", "2", "--law", "A,B",
                "--Kn", "700,2000", "--seed", "7"]
        _, pooled, _ = run_cli(args + ["--threads", "2"], capsys)
        assert pools == [{"max_workers": 2}]
        _, serial, _ = run_cli(args + ["--threads", "1"], capsys)
        assert len(pools) == 1
        assert pooled == serial
        assert len(pooled.strip().split("\n")) == 5

    def test_small_grid_starts_no_pool(self, monkeypatch, capsys):
        # the real CHAINS_PER_WORKER: 240 chains do not pay for a pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        args = ["ensemble", "--chains", "30", "--realizations", "2", "--law", "A,B",
                "--Kn", "700,2000", "--seed", "7"]
        _, serial, _ = run_cli(args + ["--threads", "1"], capsys)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, threaded, err = run_cli(args + ["--threads", "2"], capsys)
        assert code == 0
        assert threaded == serial
        assert '"workers": 1' in err

    def test_workers_reported(self, pools, capsys):
        args = ["ensemble", "--chains", "20", "--realizations", "3", "--law", "none",
                "--Kn", "2000", "--seed", "4"]
        _, csv_one, err_one = run_cli(args + ["--threads", "1"], capsys)
        _, csv_two, err_two = run_cli(args + ["--threads", "2"], capsys)
        assert pools == [{"max_workers": 2}]
        assert csv_one == csv_two
        configs = [json.loads(err.split("# config: ", 1)[1].splitlines()[0])
                   for err in (err_one, err_two)]
        assert [c["workers"] for c in configs] == [1, 2]
        _, doc, _ = run_cli(args + ["--threads", "2", "--format", "json"], capsys)
        assert json.loads(doc)["config"]["workers"] == 2
        assert len(pools) == 2

    def test_threads_default_counts_usable_cpus(self, monkeypatch, capsys):
        args = ["ensemble", "--chains", "4", "--realizations", "1", "--law", "none",
                "--Kn", "2000", "--format", "json"]
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["config"]["threads"] == 1
        # without an affinity mask the machine's CPU count is the fallback
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["config"]["threads"] == 1


class TestEeCnot:
    def test_table(self, capsys):
        code, out, _ = run_cli(["ee-cnot", "--K", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 10
        values = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert values[0] < 1e-3
        assert values[-1] > 0.5

    def test_geometry_flags_change_output(self, capsys):
        _, nominal, _ = run_cli(["ee-cnot"], capsys)
        code, moved, _ = run_cli(["ee-cnot", "--N0", "48"], capsys)
        assert code == 0
        assert moved.split("\n")[0] == "m,P_e"
        assert moved != nominal

    def test_solves_nominal_and_nine_displaced_chains(self, monkeypatch, capsys):
        # one nominal chain for the design, then each displaced chain once
        solved = count_solves(monkeypatch)
        code, _, _ = run_cli(["ee-cnot"], capsys)
        assert code == 0
        assert solved == [(0, 0)] + [(m, 0) for m in range(-4, 5)]

    def test_displacement_flags_rejected(self, capsys):
        code, out, err = run_cli(["ee-cnot", "--m2", "-1"], capsys)
        assert code == 3
        assert out == ""
        assert "--m2" in err


CHEAP_RUNS = {   # dest: flag value of the cheap run that each command starts from
    "jtable": {},
    "spectrum": {},
    "design": {"gate": "ee", "K": "1"},
    "sweep": {"gate": "a", "K": "1"},
    "ensemble": {"chains": "4", "realizations": "1", "law": "none", "Kn": "2000"},
    "ee-cnot": {},
}
CONFIG_VALUES = {   # dest: (the value in the file, a different flag value)
    "N0": (49, 50),
    "gradient_T_per_m": (1.35e5, 1.4e5),
    "b_tesla": (3.2, 3.4),
    "m1": (-1, 1),
    "m2": (1, -1),
    "format": ("json", "csv"),
    "gate": ("b", "a"),
    "K": (2, 1),
    "displaced_atom": (2, 1),
    "chains": (5, 4),
    "realizations": (2, 1),
    "law": ("A", "none"),
    "Kn": ("700", "2000"),
    "seed": (1, 2),
    "threads": (2, 1),
}
# the commands that set the displacements reject m1 and m2 from either
# source: there no value changes the output
INERT_KEYS = {(c, k) for c in ("sweep", "ensemble", "ee-cnot") for k in ("m1", "m2")}


def config_keys() -> list[tuple[str, str, str]]:
    """(command, dest, flag) of every configuration key each command accepts."""
    return [(command, a.dest, a.option_strings[0])
            for command, p in cli._command_parsers(cli.build_parser()).items()
            for a in p._actions if a.option_strings and a.dest != "help"]


class TestConfigFile:
    @pytest.mark.parametrize("command, dest, flag", config_keys())
    def test_file_equals_flag(self, command, dest, flag, tmp_path, capsys):
        # each key of the file gives what its flag gives, and a flag beats the file
        base = [command] + (["40", "41"] if command == "jtable" else [])
        for key, value in CHEAP_RUNS[command].items():
            if key != dest:
                base += ["--" + key.replace("_", "-"), value]
        if dest == "out":
            value, other = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
        elif (command, dest) == ("sweep", "K"):
            value, other = "1,2", "1"
        else:
            value, other = CONFIG_VALUES[dest]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({dest: value}))
        by_flag = run_cli(base + [flag, str(value)], capsys)
        by_file = run_cli(["--config", str(path)] + base, capsys)
        assert by_file == by_flag
        beaten = run_cli(["--config", str(path)] + base + [flag, str(other)], capsys)
        by_other = run_cli(base + [flag, str(other)], capsys)
        assert beaten == by_other
        if (command, dest) not in INERT_KEYS:
            assert by_file[0] == 0
            assert by_file != by_other

    def test_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m1": -1, "format": "json"}))
        code, out, _ = run_cli(["--config", str(cfg), "spectrum"], capsys)
        doc = json.loads(out)
        assert doc["config"]["geometry"]["m1"] == -1
        # flags beat the file
        code, out, _ = run_cli(["--config", str(cfg), "spectrum", "--m1", "2"], capsys)
        assert json.loads(out)["config"]["geometry"]["m1"] == 2

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # the keys are the subcommands' option flags: no positional, global flag or --help
        cfg = tmp_path / "cfg.json"
        for key in ("bogus", "n_min", "config", "help"):
            cfg.write_text(json.dumps({key: 1}))
            code, _, err = run_cli(["--config", str(cfg), "spectrum"], capsys)
            assert code == 3
            assert f"unknown configuration keys: [{key!r}]" in err

    def test_displaced_atom_from_file(self, tmp_path, capsys):
        # --displaced-atom resolves flag > file > 1, like every other flag
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"displaced_atom": 2}))
        argv = ["sweep", "--gate", "b", "--K", "2000"]
        _, by_flag, _ = run_cli(argv + ["--displaced-atom", "2"], capsys)
        code, by_file, _ = run_cli(["--config", str(path)] + argv, capsys)
        assert code == 0
        assert by_file == by_flag
        assert hashlib.md5(by_file.encode()).hexdigest() == "9a3cb481cafca5ee0a886b43fd858684"
        _, plain, _ = run_cli(argv, capsys)
        code, flag_wins, _ = run_cli(["--config", str(path)] + argv + ["--displaced-atom", "1"],
                                     capsys)
        assert code == 0
        assert flag_wins == plain != by_file

    def test_displaced_atom_not_a_choice_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"displaced_atom": 3}))
        code, out, err = run_cli(["--config", str(path), "sweep", "--gate", "b"], capsys)
        assert code == 3
        assert out == ""
        assert "configuration key 'displaced_atom' must be one of [1, 2]" in err

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, err = run_cli(["jtable", "47", "48", "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text().startswith("N,a_nm,J_MHz")

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DONORPAIR_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(["jtable", "47", "48"], capsys)
        assert code == 0
        assert (tmp_path / "jtable.csv").exists()

    def test_outdir_env_created_as_directory(self, tmp_path, capsys, monkeypatch):
        # a directory that does not exist yet is made, not written as a file
        outdir = tmp_path / "fresh" / "results"
        monkeypatch.setenv("DONORPAIR_OUTDIR", str(outdir))
        assert run_cli(["jtable", "40", "41"], capsys)[0] == 0
        assert run_cli(["jtable", "47", "48", "--format", "json"], capsys)[0] == 0
        assert run_cli(["spectrum"], capsys)[0] == 0
        assert outdir.is_dir()
        assert sorted(p.name for p in outdir.iterdir()) == ["jtable.csv", "jtable.json",
                                                            "spectrum.csv"]
        assert (outdir / "jtable.csv").read_text().startswith("N,a_nm,J_MHz\n40,")
        assert json.loads((outdir / "jtable.json").read_text())["rows"][0]["N"] == 47

    def test_out_under_a_file_rejected(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        for target in (afile / "x.csv", afile / "sub" / "x.csv"):
            code, out, err = run_cli(["jtable", "40", "41", "--out", str(target)], capsys)
            assert code == 3
            assert out == ""
            assert str(target) in err and "not a directory" in err
        assert afile.read_text() == ""

    def test_outdir_env_naming_a_file_rejected(self, tmp_path, capsys, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("")
        monkeypatch.setenv("DONORPAIR_OUTDIR", str(afile))
        code, out, err = run_cli(["jtable", "40", "41"], capsys)
        assert code == 3
        assert out == ""
        assert str(afile / "jtable.csv") in err and "not a directory" in err

    def test_bad_output_path_rejected_before_any_chain(self, tmp_path, monkeypatch, capsys):
        def no_run(configs):
            raise AssertionError("chains ran before the output path was checked")
        monkeypatch.setattr(protocols, "ensemble_grid", no_run)
        afile = tmp_path / "afile"
        afile.write_text("")
        code, out, err = run_cli(["ensemble", "--chains", "4", "--realizations", "1",
                                  "--law", "none", "--Kn", "2000",
                                  "--out", str(afile / "ensemble.csv")], capsys)
        assert code == 3
        assert out == ""
        assert "not a directory" in err

    @pytest.mark.parametrize("cfg, argv", [
        ({"seed": 1.5}, ["ensemble"]),
        ({"seed": True}, ["ensemble"]),
        ({"threads": "2"}, ["ensemble"]),
        ({"chains": None}, ["ensemble"]),
        ({"N0": "47"}, ["spectrum"]),
        ({"N0": "47"}, ["ensemble"]),
        ({"K": "2"}, ["design", "--gate", "a"]),
        ({"K": 2000}, ["sweep", "--gate", "b"]),
        ({"Kn": [2000]}, ["ensemble"]),
        ({"gradient_T_per_m": "1.3e5"}, ["spectrum"]),
        ({"format": "xml"}, ["spectrum"]),
    ])
    def test_wrongly_typed_values_rejected(self, cfg, argv, tmp_path, monkeypatch, capsys):
        def no_run(configs):
            raise AssertionError("chains ran with a wrongly typed configuration")
        monkeypatch.setattr(protocols, "ensemble_grid", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["--config", str(path)] + argv, capsys)
        assert code == 3
        assert out == ""
        assert f"configuration key {next(iter(cfg))!r}" in err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_file_rejected(self, name, tmp_path, capsys):
        # a missing file and a directory both name the path and exit with code 3
        path = tmp_path / name
        code, out, err = run_cli(["--config", str(path), "spectrum"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{N0: 48}")
        code, out, err = run_cli(["--config", str(path), "spectrum"], capsys)
        assert code == 3
        assert out == ""
        assert err == (f"error: the configuration file {str(path)!r} is not valid JSON: "
                       "Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)\n")

    @pytest.mark.parametrize("document", [5, [1], "N0"])
    def test_non_object_document_rejected(self, document, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(["--config", str(path), "spectrum"], capsys)
        assert code == 3
        assert out == ""
        assert "one JSON object" in err

    @pytest.mark.parametrize("argv", [["design"], ["sweep", "--K", "2000"]])
    def test_gate_from_file(self, argv, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gate": "b"}))
        _, by_flag, _ = run_cli(argv + ["--gate", "b"], capsys)
        code, by_file, _ = run_cli(["--config", str(path)] + argv, capsys)
        assert code == 0
        assert by_file == by_flag

    @pytest.mark.parametrize("argv", [["design"], ["sweep", "--K", "1"]])
    def test_gate_flag_beats_file(self, argv, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gate": "b"}))
        _, plain, _ = run_cli(argv + ["--gate", "a"], capsys)
        code, out, _ = run_cli(["--config", str(path)] + argv + ["--gate", "a"], capsys)
        assert code == 0
        assert out == plain

    @pytest.mark.parametrize("command", ["design", "sweep"])
    @pytest.mark.parametrize("document", [None, {"format": "json"}])
    def test_gate_missing_is_usage_error(self, command, document, tmp_path, capsys):
        argv = [command]
        if document is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(document))
            argv = ["--config", str(path)] + argv
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "the following arguments are required: --gate" in err

    @pytest.mark.parametrize("command, gate", [("design", "z"), ("sweep", "c")])
    def test_gate_not_a_choice_rejected(self, command, gate, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gate": gate}))
        code, out, err = run_cli(["--config", str(path), command], capsys)
        assert code == 3
        assert out == ""
        assert "configuration key 'gate' must be one of" in err

    def test_well_typed_values_accepted(self, tmp_path, capsys):
        # a float flag takes a JSON integer; comma-list flags take one string
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gradient_T_per_m": 130000, "Kn": "2000", "law": "none",
                                    "K": 1, "chains": 4, "realizations": 1, "seed": 0,
                                    "threads": 1, "format": "json"}))
        code, out, _ = run_cli(["--config", str(path), "ensemble"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["Kn"] == [2000]
        assert doc["config"]["geometry"]["gradient"] == 130000
