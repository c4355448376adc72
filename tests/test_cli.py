import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from donorpair import cli, protocols
from donorpair.cli import main
from donorpair.exchange import exchange_table
from donorpair.pulses import GATES


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


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

    def test_usage_error_exit_code(self, source_env):
        proc = subprocess.run(
            [sys.executable, "-m", "donorpair.cli", "jtable", "40"],
            capture_output=True, text=True, env=source_env)
        assert proc.returncode == 2


def gate_choices(command: str) -> tuple:
    flags = cli._command_parser(cli.build_parser(), command)._actions
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

    def test_displacement_flags_rejected(self, capsys):
        code, out, err = run_cli(["ee-cnot", "--m2", "-1"], capsys)
        assert code == 3
        assert out == ""
        assert "--m2" in err


class TestConfigFile:
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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(["--config", str(cfg), "spectrum"], capsys)
        assert code == 3
        assert "bogus" in err

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
