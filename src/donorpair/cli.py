"""Command-line interface: tables, pulse design, sweeps and ensemble runs.

Subcommands: jtable, spectrum, design, sweep, ensemble, ee-cnot. Tabular
results go to CSV (deterministic formatting, header row, newline
terminated); --format json wraps results and the resolved configuration in
a single document. Exit status: 0 success, 2 usage error, 3 physics
validity guard or invalid option value, 1 internal error.

Each command imports the layers it runs when it runs, so --version, --help
and usage errors start without numpy.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__

PERT_FLAG_THRESHOLD_HZ = 100.0
GATE_NAMES = ("a", "b", "c", "d", "ee")   # sorted(pulses.GATES), without importing pulses
GATE_HELP = "required, as this flag or as the configuration file's gate"

GEOMETRY_KEYS = ("N0", "gradient_T_per_m", "b_tesla", "m1", "m2")
CONFIG_KEYS = GEOMETRY_KEYS + (
    "gate", "K", "Kn", "chains", "realizations", "law", "seed", "threads",
    "out", "format")


def _mhz(omega: float) -> float:
    from .constants import TWO_PI

    return omega / TWO_PI / 1e6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donorpair",
        description="Two-donor spin register: spectra, pulse design, gate-error sweeps")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON file with default option values")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N0", type=int, default=None, help="nominal site separation")
    common.add_argument("--gradient-T-per-m", type=float, default=None, dest="gradient_T_per_m")
    common.add_argument("--b-tesla", type=float, default=None, dest="b_tesla")
    common.add_argument("--m1", type=int, default=None, help="displacement of atom 1 (sites)")
    common.add_argument("--m2", type=int, default=None, help="displacement of atom 2 (sites)")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jtable", parents=[common],
                       help="exchange constant versus donor separation")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)

    sub.add_parser("spectrum", parents=[common],
                   help="labelled level energies, exact and perturbative")

    p = sub.add_parser("design", parents=[common], help="pulse parameters of one gate")
    p.add_argument("--gate", choices=GATE_NAMES, default=None, help=GATE_HELP)
    p.add_argument("--K", type=int, default=None)

    p = sub.add_parser("sweep", parents=[common],
                       help="gate error versus displacement for several K")
    p.add_argument("--gate", choices=("a", "b"), default=None, help=GATE_HELP)
    p.add_argument("--K", default=None, help="comma-separated K values")
    p.add_argument("--displaced-atom", type=int, choices=(1, 2), default=1)

    p = sub.add_parser("ensemble", parents=[common],
                       help="initialization error over an ensemble of chains")
    p.add_argument("--chains", type=int, default=None)
    p.add_argument("--realizations", type=int, default=None)
    p.add_argument("--law", default=None, help="comma-separated laws from {A,B,none}")
    p.add_argument("--Kn", default=None, help="comma-separated nuclear K values")
    p.add_argument("--K", type=int, default=None, help="electron K")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("ee-cnot", parents=[common],
                       help="two-electron CNOT error versus displacement")
    p.add_argument("--K", type=int, default=None)

    return parser


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    import json
    from pathlib import Path

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read the configuration file {path!r}: "
                         f"{exc.strerror or exc}") from exc
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("the configuration file must hold one JSON object")
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    return data


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _check_config_types(parser: argparse.ArgumentParser, command: str,
                        file_cfg: dict) -> None:
    """Reject a configuration value that the command's own flag could not give.

    An int flag takes a JSON integer, a float flag any JSON number, and every
    other flag a string (a comma list such as --Kn stays one string); a bool
    is never a number. Keys without a flag in this command are left alone.
    """
    flags = {a.dest: a for a in _command_parser(parser, command)._actions}
    for key, value in file_cfg.items():
        if key not in flags:
            continue
        kinds = {int: (int,), float: (int, float)}.get(flags[key].type, (str,))
        if isinstance(value, bool) or not isinstance(value, kinds):
            wanted = " or ".join(k.__name__ for k in kinds)
            raise ValueError(f"configuration key {key!r} must be {wanted}, "
                             f"not {type(value).__name__}")
        choices = flags[key].choices
        if choices is not None and value not in choices:
            raise ValueError(f"configuration key {key!r} must be one of {sorted(choices)}")


def _resolve(args: argparse.Namespace, file_cfg: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return default


def _geometry(args: argparse.Namespace, file_cfg: dict) -> DeviceGeometry:
    from .geometry import DEFAULT_GEOMETRY, DeviceGeometry

    return DeviceGeometry(
        n0=_resolve(args, file_cfg, "N0", DEFAULT_GEOMETRY.n0),
        gradient=_resolve(args, file_cfg, "gradient_T_per_m", DEFAULT_GEOMETRY.gradient),
        mean_field_b=_resolve(args, file_cfg, "b_tesla", DEFAULT_GEOMETRY.mean_field_b),
        m1=_resolve(args, file_cfg, "m1", 0),
        m2=_resolve(args, file_cfg, "m2", 0),
    )


def _nominal_geometry(args: argparse.Namespace, file_cfg: dict) -> DeviceGeometry:
    """Geometry of a command that draws or sweeps the displacements itself."""
    given = [k for k in ("m1", "m2") if _resolve(args, file_cfg, k, None) is not None]
    if given:
        raise ValueError(f"{args.command} sets the displacements itself; "
                         f"drop {', '.join('--' + k for k in given)}")
    return _geometry(args, file_cfg)


def _list(args: argparse.Namespace, file_cfg: dict, key: str, default: str,
          kind=str) -> list:
    """Comma-separated option value as a list of str or int.

    An empty list, or an item that is not an integer where kind is int, is a
    validity error that names the option.
    """
    values = []
    for item in str(_resolve(args, file_cfg, key, default)).split(","):
        if item:
            try:
                values.append(kind(item))
            except ValueError:
                raise ValueError(f"--{key}: {item!r} is not an integer") from None
    if not values:
        raise ValueError(f"--{key} lists no values")
    return values


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _output_path(args, file_cfg, fmt: str) -> Path | None:
    """The file the command writes, or None for stdout; checked before any work.

    The nearest existing ancestor of the file must be a directory: missing
    ones are made when the output is written, but a file in the way would
    only fail then, after the whole computation.
    """
    from pathlib import Path

    out = _resolve(args, file_cfg, "out", None)
    if out is not None:
        path = Path(out)
        if path.is_dir() or str(out).endswith(os.sep):
            path = path / f"{args.command}.{fmt}"
    elif outdir := os.environ.get("DONORPAIR_OUTDIR"):   # always a directory, made if missing
        path = Path(outdir) / f"{args.command}.{fmt}"
    else:
        return None
    ancestor = next(a for a in path.parents if a.exists())
    if not ancestor.is_dir():
        raise ValueError(f"cannot write {str(path)!r}: {str(ancestor)!r} is not a directory")
    return path


def _emit(rows: list[dict], header: list[str], resolved: dict, command: str,
          fmt: str, path: Path | None) -> None:
    import json

    resolved = dict(resolved, command=command, version=__version__)
    if fmt == "json":
        doc = {"config": resolved, "columns": header, "rows": rows}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_format_cell(row[h]) for h in header))
        text = "\n".join(lines) + "\n"
        print(f"# config: {json.dumps(resolved, sort_keys=True)}", file=sys.stderr)
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}", file=sys.stderr)


def _format_cell(x) -> str:
    import numpy as np

    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # shortest exactly round-tripping decimal
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def cmd_jtable(args, file_cfg) -> tuple[list[dict], list[str], dict]:
    from .exchange import exchange_table

    rows = [{"N": n, "a_nm": a, "J_MHz": j}
            for n, a, j in exchange_table(args.n_min, args.n_max)]
    return rows, ["N", "a_nm", "J_MHz"], {"n_min": args.n_min, "n_max": args.n_max}


def cmd_spectrum(args, file_cfg) -> tuple[list[dict], list[str], dict]:
    import dataclasses

    from . import register as reg
    from .constants import TWO_PI
    from .spectrum import compute_spectrum

    geometry = _geometry(args, file_cfg)
    spec = compute_spectrum(geometry)
    rows = []
    worst = 0.0
    for i in range(reg.DIM):
        dev_hz = (spec.pert_energies[i] - spec.exact_energies[i]) / TWO_PI
        worst = max(worst, abs(dev_hz))
        rows.append({
            "level": i,
            "ket": reg.ket_label(i),
            "exact_MHz": _mhz(spec.exact_energies[i]),
            "pert_MHz": _mhz(spec.pert_energies[i]),
            "zeroth_MHz": _mhz(spec.zeroth[i]),
            "dev_Hz": dev_hz,
        })
    eps, eps_p, xi = spec.smallness
    resolved = {
        "geometry": dataclasses.asdict(geometry),
        "J_MHz": _mhz(spec.params.j),
        "epsilon": eps, "epsilon_prime": eps_p, "xi": xi,
        "max_pert_dev_Hz": worst,
        "pert_dev_flagged": bool(worst > PERT_FLAG_THRESHOLD_HZ),
    }
    return rows, ["level", "ket", "exact_MHz", "pert_MHz", "zeroth_MHz", "dev_Hz"], resolved


def cmd_design(args, file_cfg) -> tuple[list[dict], list[str], dict]:
    import dataclasses

    from .constants import TWO_PI
    from .pulses import (DEFAULT_K_ELECTRON, DEFAULT_K_NUCLEAR, GATES, design_gate,
                         displacement_detuning, leading_order_design)
    from .spectrum import compute_spectrum

    geometry = _geometry(args, file_cfg)
    gate = GATES[args.gate]
    default_k = DEFAULT_K_ELECTRON if gate.species == "e" else DEFAULT_K_NUCLEAR
    k = _resolve(args, file_cfg, "K", default_k)
    gate = gate.with_k(k)
    spec0 = compute_spectrum(geometry.displaced(0, 0))
    pulse = design_gate(spec0, gate)
    lead = leading_order_design(gate, geometry.displaced(0, 0))
    p, q = gate.resonant
    pp, qp = gate.suppressed
    delta = ((spec0.exact_energies[qp] - spec0.exact_energies[pp])
             - (spec0.exact_energies[q] - spec0.exact_energies[p]))
    omega = pulse.omega_e if gate.species == "e" else pulse.omega_n
    rows = [{
        "gate": gate.name, "K": k,
        "nu_MHz": _mhz(pulse.nu),
        "Delta_MHz": _mhz(delta),
        "Omega_MHz": _mhz(omega),
        "tau_us": pulse.tau * 1e6,
        "B1_mT": pulse.b1_amplitude * 1e3,
        "nu_leading_MHz": _mhz(lead["nu"]),
        "Delta_leading_MHz": _mhz(lead["delta"]),
    }]
    resolved = {"geometry": dataclasses.asdict(geometry), "gate": args.gate, "K": k}
    if geometry.m1 != 0 or geometry.m2 != 0:
        rows[0]["detuning_shift_kHz"] = displacement_detuning(gate, geometry) / TWO_PI / 1e3
    return rows, list(rows[0].keys()), resolved


def cmd_sweep(args, file_cfg) -> tuple[list[dict], list[str], dict]:
    import dataclasses

    from .protocols import sweep_gate_error

    geometry = _nominal_geometry(args, file_cfg)
    default_k = "1,2,3,4" if args.gate == "a" else "700,2000,5000,10000,30000"
    k_list = _list(args, file_cfg, "K", default_k, int)
    table = sweep_gate_error(args.gate, range(-4, 5), tuple(k_list),
                             displaced_atom=args.displaced_atom,
                             geometry_nominal=geometry)
    rows = [{"m": m, "K": k, "P": table[(m, k)]}
            for k in k_list for m in range(-4, 5)]
    resolved = {"gate": args.gate, "K": k_list, "displaced_atom": args.displaced_atom,
                "geometry": dataclasses.asdict(geometry)}
    return rows, ["m", "K", "P"], resolved


def cmd_ensemble(args, file_cfg) -> tuple[list[dict], list[str], dict]:
    import dataclasses

    from .protocols import EnsembleConfig, ensemble_grid, ensemble_workers
    from .pulses import DEFAULT_K_ELECTRON

    laws = _list(args, file_cfg, "law", "A,B,none")
    kns = _list(args, file_cfg, "Kn", "700,2000,5000,10000", int)
    chains = _resolve(args, file_cfg, "chains", 2000)
    realizations = _resolve(args, file_cfg, "realizations", 8)
    seed = _resolve(args, file_cfg, "seed", 0)
    threads = _resolve(args, file_cfg, "threads", _usable_cpus())
    k_e = _resolve(args, file_cfg, "K", DEFAULT_K_ELECTRON)
    geometry = _nominal_geometry(args, file_cfg)
    configs = [EnsembleConfig(num_chains=chains, num_realizations=realizations,
                              law=law, k_e=k_e, k_n=kn, seed=seed, threads=threads,
                              geometry=geometry)
               for kn in kns for law in laws]
    rows = [{"K_n": r.config.k_n, "law": r.config.law,
             "mean_P": r.mean_error, "stderr": r.stderr}
            for r in ensemble_grid(configs)]
    resolved = {"chains": chains, "realizations": realizations, "laws": laws,
                "Kn": kns, "K_e": k_e, "seed": seed, "threads": threads,
                "workers": ensemble_workers(configs),
                "geometry": dataclasses.asdict(geometry)}
    return rows, ["K_n", "law", "mean_P", "stderr"], resolved


def cmd_ee_cnot(args, file_cfg) -> tuple[list[dict], list[str], dict]:
    import dataclasses

    from .protocols import run_ee_cnot

    k = _resolve(args, file_cfg, "K", 1)
    geometry = _nominal_geometry(args, file_cfg)
    rows = []
    for m in range(-4, 5):
        p_e = run_ee_cnot(geometry.displaced(m1=m), k_prime=k)
        rows.append({"m": m, "P_e": p_e})
    return rows, ["m", "P_e"], {"K_prime": k, "geometry": dataclasses.asdict(geometry)}


# each command returns its (rows, header, resolved config); main writes them
COMMANDS = {
    "jtable": cmd_jtable,
    "spectrum": cmd_spectrum,
    "design": cmd_design,
    "sweep": cmd_sweep,
    "ensemble": cmd_ensemble,
    "ee-cnot": cmd_ee_cnot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(args.config)
        _check_config_types(parser, args.command, file_cfg)
        if "gate" in vars(args):
            args.gate = _resolve(args, file_cfg, "gate", None)
            if args.gate is None:
                _command_parser(parser, args.command).error(
                    "the following arguments are required: --gate")
        fmt = _resolve(args, file_cfg, "format", "csv")
        path = _output_path(args, file_cfg, fmt)
        rows, header, resolved = COMMANDS[args.command](args, file_cfg)
        _emit(rows, header, resolved, args.command, fmt, path)
    except ValueError as exc:   # spectrum.ValidityError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - top-level guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
