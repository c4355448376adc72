"""Command-line interface: tables, pulse design, sweeps and ensemble runs.

Subcommands: jtable, spectrum, design, sweep, ensemble, ee-cnot; all but
jtable, which reads no chain layout, take the layout flags --N0 to --m2.
Tabular results go to CSV (deterministic formatting, header row, newline
terminated); --format json wraps results and the resolved configuration in
a single document. Exit status: 0 success, 2 usage error, 3 physics
validity guard or invalid option value, 1 internal error.

Each subcommand's parser carries the function that runs it (args.func); it
returns the rows and the resolved configuration, and main writes them.
argparse resolves every option as flag > --config file > default: main
checks the file's values for the command and makes them that subcommand's
defaults, then parses the command line again. Defaults that live in library
modules (--N0, the fields, the --K of design and ensemble) and sweep's --K,
which cmd_sweep picks by gate, stay None in the parser and are filled in by
the command.

Each command imports the layers it runs when it runs, so --version, --help
and usage errors start without numpy, and jtable runs without it.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__

PERT_FLAG_THRESHOLD_HZ = 100.0
GATE_NAMES = ("a", "b", "c", "d", "ee")   # sorted(pulses.GATES), without importing pulses
GATE_HELP = "required, as this flag or as the configuration file's gate"


def _mhz(omega: float) -> float:
    from .constants import TWO_PI

    return omega / TWO_PI / 1e6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donorpair",
        description="Two-donor spin register: spectra, pulse design, gate-error sweeps")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON file with default option values")

    layout = argparse.ArgumentParser(add_help=False)   # every command but jtable
    layout.add_argument("--N0", type=int, default=None, help="nominal site separation")
    layout.add_argument("--gradient-T-per-m", type=float, default=None, dest="gradient_T_per_m")
    layout.add_argument("--b-tesla", type=float, default=None, dest="b_tesla")
    layout.add_argument("--m1", type=int, default=None, help="displacement of atom 1 (sites)")
    layout.add_argument("--m2", type=int, default=None, help="displacement of atom 2 (sites)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output path (default stdout)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jtable", parents=[output],
                       help="exchange constant versus donor separation")
    p.set_defaults(func=cmd_jtable)
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)

    p = sub.add_parser("spectrum", parents=[layout, output],
                       help="labelled level energies, exact and perturbative")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("design", parents=[layout, output], help="pulse parameters of one gate")
    p.set_defaults(func=cmd_design)
    p.add_argument("--gate", choices=GATE_NAMES, default=None, help=GATE_HELP)
    p.add_argument("--K", type=int, default=None)

    p = sub.add_parser("sweep", parents=[layout, output],
                       help="gate error versus displacement for several K")
    p.set_defaults(func=cmd_sweep)
    p.add_argument("--gate", choices=("a", "b"), default=None, help=GATE_HELP)
    p.add_argument("--K", default=None, help="comma-separated K values")
    p.add_argument("--displaced-atom", type=int, choices=(1, 2), default=1,
                   help="the atom moved by m (default 1)")

    p = sub.add_parser("ensemble", parents=[layout, output],
                       help="initialization error over an ensemble of chains")
    p.set_defaults(func=cmd_ensemble)
    p.add_argument("--chains", type=int, default=2000)
    p.add_argument("--realizations", type=int, default=8)
    p.add_argument("--law", default="A,B,none", help="comma-separated laws from {A,B,none}")
    p.add_argument("--Kn", default="700,2000,5000,10000",
                   help="comma-separated nuclear K values")
    p.add_argument("--K", type=int, default=None, help="electron K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_usable_cpus())

    p = sub.add_parser("ee-cnot", parents=[layout, output],
                       help="two-electron CNOT error versus displacement")
    p.set_defaults(func=cmd_ee_cnot)
    p.add_argument("--K", type=int, default=1)

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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"the configuration file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("the configuration file must hold one JSON object")
    return data


def _command_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _check_config(parser: argparse.ArgumentParser, command: str, file_cfg: dict) -> dict:
    """The file's values for the command's own flags; reject any no flag could give.

    The keys are the dests of the subcommands' option flags (not their
    positionals). For the command's own flags, an int flag takes a JSON
    integer, a float flag any JSON number, and every other flag a string (a
    comma list such as --Kn stays one string); a bool is never a number.
    Keys of other commands' flags are accepted and dropped. argparse checks
    neither the type nor the choices of a default, so this is the only check
    a file value gets.
    """
    keys = {a.dest for p in _command_parsers(parser).values() for a in p._actions
            if a.option_strings and a.dest != "help"}
    unknown = set(file_cfg) - keys
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    flags = {a.dest: a for a in _command_parsers(parser)[command]._actions}
    values = {key: value for key, value in file_cfg.items() if key in flags}
    for key, value in values.items():
        kinds = {int: (int,), float: (int, float)}.get(flags[key].type, (str,))
        if isinstance(value, bool) or not isinstance(value, kinds):
            wanted = " or ".join(k.__name__ for k in kinds)
            raise ValueError(f"configuration key {key!r} must be {wanted}, "
                             f"not {type(value).__name__}")
        choices = flags[key].choices
        if choices is not None and value not in choices:
            raise ValueError(f"configuration key {key!r} must be one of {sorted(choices)}")
    return values


def _geometry(args: argparse.Namespace) -> DeviceGeometry:
    from .geometry import DeviceGeometry

    given = {"n0": args.N0, "gradient": args.gradient_T_per_m,
             "mean_field_b": args.b_tesla, "m1": args.m1, "m2": args.m2}
    return DeviceGeometry(**{k: v for k, v in given.items() if v is not None})


def _nominal_geometry(args: argparse.Namespace) -> DeviceGeometry:
    """Geometry of a command that draws or sweeps the displacements itself."""
    given = [k for k in ("m1", "m2") if getattr(args, k) is not None]
    if given:
        raise ValueError(f"{args.command} sets the displacements itself; "
                         f"drop {', '.join('--' + k for k in given)}")
    return _geometry(args)


def _list(text: str, option: str, kind=str) -> list:
    """Comma-separated option value as a list of str or int.

    An empty list, an item that is not an integer where kind is int, or a
    value listed twice (as parsed, so 1 and 01 are one K) is a validity
    error that names the option.
    """
    values = []
    for item in text.split(","):
        if item:
            try:
                value = kind(item)
            except ValueError:
                raise ValueError(f"--{option}: {item!r} is not an integer") from None
            if value in values:
                raise ValueError(f"--{option}: {value!r} is listed twice")
            values.append(value)
    if not values:
        raise ValueError(f"--{option} lists no values")
    return values


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _output_path(args) -> Path | None:
    """The file the command writes, or None for stdout; checked before any work.

    The nearest existing ancestor of the file must be a directory: missing
    ones are made when the output is written, but a file in the way would
    only fail then, after the whole computation.
    """
    from pathlib import Path

    name = f"{args.command}.{args.format}"
    if args.out is not None:
        path = Path(args.out)
        if path.is_dir() or args.out.endswith(os.sep):
            path = path / name
    elif outdir := os.environ.get("DONORPAIR_OUTDIR"):   # always a directory, made if missing
        path = Path(outdir) / name
    else:
        return None
    ancestor = next(a for a in path.parents if a.exists())
    if not ancestor.is_dir():
        raise ValueError(f"cannot write {str(path)!r}: {str(ancestor)!r} is not a directory")
    return path


def _emit(rows: list[dict], resolved: dict, command: str, fmt: str,
          path: Path | None) -> None:
    """Write the rows, whose columns are the first row's keys, and the resolved config."""
    import json

    header = list(rows[0])
    resolved = dict(resolved, command=command, version=__version__)
    if fmt == "json":
        doc = {"config": resolved, "columns": header, "rows": rows}
        text = json.dumps(doc, indent=2, sort_keys=True, default=vars) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_format_cell(row[h]) for h in header))
        text = "\n".join(lines) + "\n"
        print(f"# config: {json.dumps(resolved, sort_keys=True, default=vars)}", file=sys.stderr)
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}", file=sys.stderr)


def _format_cell(x) -> str:
    if isinstance(x, float):   # numpy.float64 included
        return repr(float(x))  # shortest exactly round-tripping decimal
    return str(x)


def cmd_jtable(args) -> tuple[list[dict], dict]:
    from .exchange import exchange_table

    rows = [{"N": n, "a_nm": a, "J_MHz": j}
            for n, a, j in exchange_table(args.n_min, args.n_max)]
    return rows, {"n_min": args.n_min, "n_max": args.n_max}


def cmd_spectrum(args) -> tuple[list[dict], dict]:
    from . import register as reg
    from .constants import TWO_PI
    from .spectrum import compute_spectrum

    geometry = _geometry(args)
    spec = compute_spectrum(geometry)
    exact, pert, zeroth = spec.exact_energies, spec.pert_energies, spec.zeroth
    rows = []
    worst = 0.0
    for i in range(reg.DIM):
        dev_hz = (pert[i] - exact[i]) / TWO_PI
        worst = max(worst, abs(dev_hz))
        rows.append({
            "level": i,
            "ket": reg.ket_label(i),
            "exact_MHz": _mhz(exact[i]),
            "pert_MHz": _mhz(pert[i]),
            "zeroth_MHz": _mhz(zeroth[i]),
            "dev_Hz": dev_hz,
        })
    eps, eps_p, xi = spec.smallness
    resolved = {
        "geometry": geometry,
        "J_MHz": _mhz(spec.params.j),
        "epsilon": eps, "epsilon_prime": eps_p, "xi": xi,
        "max_pert_dev_Hz": worst,
        "pert_dev_flagged": bool(worst > PERT_FLAG_THRESHOLD_HZ),
    }
    return rows, resolved


def cmd_design(args) -> tuple[list[dict], dict]:
    from .constants import TWO_PI
    from .pulses import (DEFAULT_K_ELECTRON, DEFAULT_K_NUCLEAR, GATES, _detuning_from,
                         design_gate, design_values, kn_window)
    from .spectrum import compute_spectrum

    geometry = _geometry(args)
    gate = GATES[args.gate]
    default_k = DEFAULT_K_ELECTRON if gate.species == "e" else DEFAULT_K_NUCLEAR
    k = default_k if args.K is None else args.K
    spec0 = compute_spectrum(geometry.displaced(0, 0))
    pulse = design_gate(spec0, gate, k)
    lead = design_values(spec0.zeroth, gate, k)
    omega = pulse.omega_e if gate.species == "e" else pulse.omega_n
    rows = [{
        "gate": gate.name, "K": k,
        "nu_MHz": _mhz(pulse.nu),
        "Delta_MHz": _mhz(design_values(spec0.exact_energies, gate, k)["delta"]),
        "Omega_MHz": _mhz(omega),
        "tau_us": pulse.tau * 1e6,
        "B1_mT": pulse.b1_amplitude * 1e3,
        "nu_leading_MHz": _mhz(lead["nu"]),
        "Delta_leading_MHz": _mhz(lead["delta"]),
    }]
    resolved = {"geometry": geometry, "gate": args.gate, "K": k}
    if geometry.m1 != 0 or geometry.m2 != 0:
        shift = _detuning_from(spec0, compute_spectrum(geometry), gate)
        rows[0]["detuning_shift_kHz"] = shift / TWO_PI / 1e3
        if args.gate == "b":   # the usable nuclear-K window of this displacement
            rows[0]["Kn_min"], rows[0]["Kn_max"] = kn_window(spec0, shift)
    return rows, resolved


def cmd_sweep(args) -> tuple[list[dict], dict]:
    from .geometry import DISPLACEMENTS
    from .protocols import sweep_gate_error

    geometry = _nominal_geometry(args)
    default_k = "1,2,3,4" if args.gate == "a" else "700,2000,5000,10000,30000"
    k_list = _list(default_k if args.K is None else args.K, "K", int)
    table = sweep_gate_error(args.gate, DISPLACEMENTS, tuple(k_list),
                             displaced_atom=args.displaced_atom, geometry_nominal=geometry)
    rows = [{"m": m, "K": k, "P": table[(m, k)]} for k in k_list for m in DISPLACEMENTS]
    resolved = {"gate": args.gate, "K": k_list, "displaced_atom": args.displaced_atom,
                "geometry": geometry}
    return rows, resolved


def cmd_ensemble(args) -> tuple[list[dict], dict]:
    from .protocols import EnsembleConfig, ensemble_grid, ensemble_workers
    from .pulses import DEFAULT_K_ELECTRON

    laws = _list(args.law, "law")
    kns = _list(args.Kn, "Kn", int)
    k_e = DEFAULT_K_ELECTRON if args.K is None else args.K
    geometry = _nominal_geometry(args)
    configs = [EnsembleConfig(num_chains=args.chains, num_realizations=args.realizations,
                              law=law, k_e=k_e, k_n=kn, seed=args.seed, threads=args.threads,
                              geometry=geometry)
               for kn in kns for law in laws]
    rows = [{"K_n": r.config.k_n, "law": r.config.law,
             "mean_P": r.mean_error, "stderr": r.stderr}
            for r in ensemble_grid(configs)]
    resolved = {"chains": args.chains, "realizations": args.realizations, "laws": laws,
                "Kn": kns, "K_e": k_e, "seed": args.seed, "threads": args.threads,
                "workers": ensemble_workers(configs),
                "geometry": geometry}
    return rows, resolved


def cmd_ee_cnot(args) -> tuple[list[dict], dict]:
    from .geometry import DISPLACEMENTS
    from .protocols import sweep_gate_error

    geometry = _nominal_geometry(args)
    table = sweep_gate_error("ee", DISPLACEMENTS, (args.K,), geometry_nominal=geometry)
    rows = [{"m": m, "P_e": table[(m, args.K)]} for m in DISPLACEMENTS]
    return rows, {"K_prime": args.K, "geometry": geometry}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the file's values become the command's defaults: flag > file > default
        command = _command_parsers(parser)[args.command]
        command.set_defaults(**_check_config(parser, args.command,
                                             _load_config_file(args.config)))
        args = parser.parse_args(argv)
        if "gate" in vars(args) and args.gate is None:
            command.error("the following arguments are required: --gate")
        path = _output_path(args)
        rows, resolved = args.func(args)
        _emit(rows, resolved, args.command, args.format, path)
    except ValueError as exc:   # spectrum.ValidityError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - top-level guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
