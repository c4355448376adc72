"""One workload run in a fresh process: set up, measure, check, report.

Started by run.py, never by hand:

    python3 perfbench/work.py --workload W --seed S --seconds T --trace 0|1 \
        --calibration C --cpus 0,1 --spawned-at MONOTONIC [--setup-only]

Prints one JSON document on stdout. `--spawned-at` is run.py's
time.monotonic() just before it started this process (CLOCK_MONOTONIC is
shared by all processes), so setup_s counts interpreter start and imports.
`--calibration` is run.py's calibration time taken just before that.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import REFERENCE_CALIBRATION_S, SpeedClock, calibration_s
from tracing import Tracer, import_profile, pool_startup
from workloads import WORKLOADS, Cli, all_cpus, version_call_s

OUT_DIR = Path(__file__).resolve().parent / "out"
CLI_PROBE_RUN = -1

CALL_COUNTS = ("register.spin_dot", "spectrum.build_h0", "spectrum.exact_spectrum",
               "spectrum.compute_spectrum", "exchange.j_for_sites", "pulses.design_gate",
               "dynamics.pulse_propagator", "dynamics.relax_electrons", "linalg.eigh",
               "protocols.setup_chain")
SELF_TIMES = ("register.spin_dot", "register.spin_vector", "spectrum.build_h0",
              "spectrum.exact_spectrum", "spectrum.compute_spectrum",
              "geometry.effective_params", "pulses.design_gate", "dynamics.pulse_propagator",
              "linalg.eigh", "protocols.setup_chain")


@dataclass
class Passes:
    """What a sequence of whole passes did and how long it took."""

    outputs: list = field(default_factory=list)      # (pass, name, output)
    errors: list = field(default_factory=list)
    samples: list = field(default_factory=list)      # (pass, name, start, end)
    clock: SpeedClock = field(default_factory=SpeedClock)
    pass_ops: list = field(default_factory=list)     # (name, items) of one pass
    attempted: int = 0
    failed: int = 0
    items: int = 0
    elapsed: float = 0.0
    first: int = 0

    def op_times(self) -> dict[str, list[float]]:
        """Seconds at reference speed of every successful call, by name."""
        out: dict[str, list[float]] = {}
        for _, name, t0, t1 in self.samples:
            out.setdefault(name, []).append((t1 - t0) * self.clock.scale(t0, t1))
        return out

    def pass_times(self) -> list[float]:
        """Seconds at reference speed spent in the calls of each pass."""
        out: dict[int, float] = {}
        for p, _, t0, t1 in self.samples:
            out[p] = out.get(p, 0.0) + (t1 - t0) * self.clock.scale(t0, t1)
        return list(out.values())

    def typical_pass_s(self) -> float:
        """Sum over one pass's calls of the median time of calls of that name.

        Medians per name use every sample of the run, so they scatter less
        than the median of the few whole-pass sums.
        """
        medians = {name: statistics.median(t) for name, t in self.op_times().items()}
        return sum(medians[name] for name, _ in self.pass_ops if name in medians)


def run_passes(workload, seconds: float, min_passes: int, first: int = 0) -> Passes:
    """Run whole passes until `seconds` have elapsed and `min_passes` are done."""
    run = Passes(first=first)
    p = first
    start = time.perf_counter()
    while p - first < min_passes or time.perf_counter() - start < seconds:
        ops = workload.operations(p)
        run.pass_ops = [(name, items) for name, _, items in ops]
        for name, thunk, items in ops:
            run.attempted += 1
            run.clock.calibrate()
            t0 = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                run.failed += 1
                run.errors.append(f"pass {p} {name}: {exc!r}")
                continue
            run.samples.append((p, name, t0, time.perf_counter()))
            run.outputs.append((p, name, out))
            run.items += items
        p += 1
    run.clock.calibrate(force=True)
    run.elapsed = time.perf_counter() - start
    return run


def set_up(args):
    """Build the workload; return it with its set-up time at reference speed.

    The calibration around set-up is run.py's, taken just before it
    started this process, and one taken here just after.
    """
    if args.workload == "cli":
        workload = Cli(args.seed, args.cpus, in_process=bool(args.trace))
        seconds = version_call_s()
    else:
        workload = WORKLOADS[args.workload](args.seed)
        seconds = time.monotonic() - args.spawned_at
    scale = REFERENCE_CALIBRATION_S / (0.5 * (args.calibration + calibration_s()))
    return workload, seconds * scale


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6     # ru_maxrss is in KiB


def measure(workload, args) -> dict:
    """End-to-end run: items_per_s is the items of one pass over its typical time."""
    run = run_passes(workload, args.seconds, workload.min_passes)
    bad, messages = workload.check(run.outputs)
    op_times = run.op_times()
    pass_s = run.typical_pass_s()
    return {
        "attempted": run.attempted,
        "failed": run.failed + len(bad),
        "correct": not bad,
        "errors": run.errors + messages,
        "metrics": {
            "items_per_s": {"value": sum(n for _, n in run.pass_ops) / pass_s,
                            "unit": "items/s"},
            "peak_rss_mb": {"value": peak_rss_mb(workload.name), "unit": "MB"},
        },
        "detail": {
            "passes": len(run.pass_times()), "elapsed_s": run.elapsed, "items": run.items,
            "pass_s": pass_s,
            "calls": {n: {"samples": len(t), "median_s": statistics.median(t)}
                      for n, t in op_times.items()},
            "calibrations": len(run.clock.values),
            "median_calibration_s": statistics.median(run.clock.values),
        },
    }


def traced(workload, args) -> dict:
    """Untraced and traced passes in turn, then the process-level probes.

    Alternating the two kinds of pass keeps slow drifts of the machine out
    of the tracing overhead. The first, untraced, pass also pays for lazy
    set-up and first calls, so the overhead leaves it out.
    """
    tracer = Tracer()
    plain, runs = [], []
    p = 0
    start = time.perf_counter()
    while len(plain) < 2 or not runs or time.perf_counter() - start < args.seconds:
        if p % 2:
            tracer.run_id = p
            with tracer:
                runs.append(run_passes(workload, 0, 1, first=p))
        else:
            plain.append(run_passes(workload, 0, 1, first=p))
        p += 1
    run_ids = [r.first for r in runs]
    if workload.name == "cli":
        probes, cli_runs = [], run_ids
    else:
        tracer.run_id = CLI_PROBE_RUN
        with tracer:
            probe = Cli(args.seed, args.cpus, in_process=True)
            probes, cli_runs = [run_passes(probe, 0, 1)], [CLI_PROBE_RUN]
    bad, messages = workload.check([out for r in plain + runs for out in r.outputs])
    cli_import_s, scipy_import_s = import_profile(dict(os.environ))
    with all_cpus(args.cpus):
        pool_s = pool_startup(len(args.cpus))
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json")

    passes = len(runs)
    table = tracer.layer_table(run_ids)
    cli_table = tracer.layer_table(cli_runs)

    def per_pass(name, key):
        return table.get(name, {}).get(key, 0) / passes

    def module_self(tab, module, n):
        return sum(row["self_s"] for name, row in tab.items()
                   if name.startswith(module + ".")) / n

    distinct = [len(set(g)) / len(g) for r in run_ids if (g := tracer.geometries[r])]
    metrics = {}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (per_pass(name, "calls"), "count/pass")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (per_pass(name, "self_s"), "s/pass")
    metrics["dynamics.self_s"] = (module_self(table, "dynamics", passes), "s/pass")
    metrics["spectrum.distinct_per_call"] = (statistics.fmean(distinct), "ratio")
    metrics["spectrum.swap_warnings"] = (
        sum(tracer.swap_warnings[r] for r in run_ids) / passes, "count/pass")
    metrics["protocols.chain_self_us"] = (
        module_self(table, "protocols", passes) / workload.chains_per_pass * 1e6, "us/chain")
    metrics["protocols.pool_startup_s"] = (pool_s, "s")
    metrics["cli.import_s"] = (cli_import_s, "s")
    metrics["constants.import_scipy_s"] = (scipy_import_s, "s")
    metrics["cli.main.self_s"] = (module_self(cli_table, "cli", len(cli_runs)), "s/pass")
    metrics["trace.overhead"] = (statistics.median(r.pass_times()[0] for r in runs)
                                 / statistics.median(r.pass_times()[0] for r in plain[1:]) - 1.0,
                                 "ratio")
    every = plain + runs + probes
    return {
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every) + len(bad),
        "correct": not bad,
        "errors": [e for r in every for e in r.errors] + messages,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": {
            "passes": passes,
            "layers": {name: {k: v / passes for k, v in row.items()}
                       for name, row in sorted(table.items())},
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--calibration", type=float, required=True)
    parser.add_argument("--cpus", type=lambda v: {int(c) for c in v.split(",")}, required=True,
                        help="CPUs the benchmark may use; this process is pinned to one")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload, setup_s = set_up(args)
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        result = (traced if args.trace else measure)(workload, args)
        result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
