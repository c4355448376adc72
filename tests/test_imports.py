"""What `import donorpair` exports, and what each kind of process loads."""
import importlib
import json
import subprocess
import sys

import pytest

import donorpair

# every name the package exports, by defining module
EXPORTS = {
    "constants": ["TWO_PI"],
    "exchange": ["herring_flicker", "j_for_sites"],
    "geometry": ["DEFAULT_GEOMETRY", "DeviceGeometry", "EffectiveParams", "effective_params",
                 "field_step"],
    "spectrum": ["DegenerateLabelError", "Spectrum", "SwapBoundaryWarning", "ValidityError",
                 "build_h0", "compute_spectra", "compute_spectrum", "exact_spectrum",
                 "perturbative_spectrum", "small_params", "transition_frequency",
                 "zeroth_energies"],
    "pulses": ["GATES", "GateSpec", "PulseSpec", "design_gate", "design_values",
               "error_estimate", "kn_window", "pulse_duration", "rabi_probability",
               "two_pi_k_omega"],
    "dynamics": ["StepSizeError", "integrate_lab_frame", "pulse_propagator", "relax_electrons",
                 "relax_electrons_adjoint", "rotating_hamiltonian"],
    "protocols": ["EnsembleConfig", "EnsembleResult", "ProtocolRun", "displacement_detuning",
                  "ensemble_grid", "ensemble_init", "ensemble_workers", "protocol_form",
                  "run_ee_cnot", "run_initialization", "sweep_gate_error"],
}
PINNED = [name for names in EXPORTS.values() for name in names]


class TestExports:
    def test_all_is_the_pinned_list(self):
        assert donorpair.__all__ == PINNED

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_their_defining_modules_objects(self, module):
        defining = importlib.import_module(f"donorpair.{module}")
        for name in EXPORTS[module]:
            assert getattr(donorpair, name) is getattr(defining, name), name

    def test_dir_lists_every_name(self):
        assert set(PINNED) <= set(dir(donorpair))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            donorpair.no_such_name  # noqa: B018
        from donorpair import register       # a submodule, not an export
        assert register.DIM == 16


def loaded_modules(source_env, code: str, roots=("numpy", "donorpair")) -> dict:
    """Modules under each of `roots` in sys.modules after `code`, in a fresh interpreter."""
    report = ("import sys, json; print(json.dumps(sorted(m for m in sys.modules "
              f"if m.split('.')[0] in {tuple(roots)!r})))")
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], capture_output=True,
                          text=True, check=True, env=source_env)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {root: [m for m in loaded if m.split(".")[0] == root] for root in roots}


def cli_run(argv: list[str], code: int) -> str:
    """Script running `donorpair.cli.main(argv)`, expecting exit `code`, output discarded."""
    return ("import contextlib, io, sys\n"
            "from donorpair.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            f"assert code == {code}, code")


@pytest.fixture(scope="module")
def bare_numpy(source_env):
    """The numpy modules that a bare `import numpy` loads (numpy.random too before numpy 2)."""
    return set(loaded_modules(source_env, "import numpy")["numpy"])


class TestImportFootprint:
    def test_package_import_loads_no_module(self, source_env):
        loaded = loaded_modules(source_env, "import donorpair")
        assert loaded == {"numpy": [], "donorpair": ["donorpair"]}

    @pytest.mark.parametrize("argv,code", [(["--version"], 0), (["--help"], 0),
                                           (["sweep"], 2)])
    def test_version_help_and_usage_errors_load_no_numpy(self, source_env, argv, code):
        assert loaded_modules(source_env, cli_run(argv, code))["numpy"] == []

    def test_jtable_loads_constants_and_exchange_only(self, source_env, tmp_path):
        out = str(tmp_path / "jtable.json")
        for argv in (["jtable", "40", "41"], ["jtable", "40", "41", "--format", "json",
                                              "--out", out]):
            loaded = loaded_modules(source_env, cli_run(argv, 0),
                                    ("numpy", "donorpair", "dataclasses", "inspect"))
            assert loaded["donorpair"] == ["donorpair", "donorpair.cli", "donorpair.constants",
                                           "donorpair.exchange"], argv
            assert loaded["numpy"] == loaded["dataclasses"] == loaded["inspect"] == [], argv
        assert json.loads((tmp_path / "jtable.json").read_text())["columns"] == [
            "N", "a_nm", "J_MHz"]

    @pytest.mark.parametrize("argv,skipped", [
        (["spectrum"], ["pulses", "dynamics", "protocols"]),
        (["design", "--gate", "a"], ["dynamics", "protocols"]),
        (["sweep", "--gate", "a"], []),
        (["ee-cnot"], []),
    ])
    def test_command_skips_layers_it_does_not_use(self, source_env, bare_numpy, argv, skipped):
        # no command but ensemble draws random numbers or may start a pool
        loaded = loaded_modules(source_env, cli_run(argv, 0),
                                ("numpy", "donorpair", "concurrent"))
        assert "donorpair.spectrum" in loaded["donorpair"]
        assert not {f"donorpair.{m}" for m in skipped} & set(loaded["donorpair"])
        assert "numpy.random" not in set(loaded["numpy"]) - bare_numpy
        assert loaded["concurrent"] == []

    @pytest.mark.parametrize("threads", [[], ["--threads", "1"]])
    def test_serial_ensemble_loads_no_pool(self, source_env, threads):
        # 20 chains are below CHAINS_PER_WORKER: no pool starts, whatever --threads allows
        argv = ["ensemble", "--chains", "10", "--realizations", "2"] + threads
        assert loaded_modules(source_env, cli_run(argv, 0), ("concurrent",)) == {
            "concurrent": []}
