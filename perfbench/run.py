"""Benchmark of the donorpair package: one command per workload run.

    python3 perfbench/run.py --workload ensemble|sweep|cli --seed N --seconds T --trace 0|1

Run from the root of a source checkout. The package is imported from its
`src/` directory, never from an installed copy; without `src/donorpair`
the command exits with code 2 and prints no result.

Every run happens in fresh processes started from here: a warm-up import
(so byte-code caches exist before anything is timed), SETUP_REPEATS - 1
set-up-only processes, and the measuring process. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones of
a separate traced run. Lines before it, starting with '#', are a readable
summary. See perfbench/README.md for what is measured and checked.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble", "sweep", "cli")
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ITEM_METRIC = {"ensemble": ("chains_per_s", "chains/s"),
               "sweep": ("points_per_s", "points/s"),
               "cli": ("invocations_per_s", "invocations/s")}


def isolated_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DONORPAIR_OUTDIR", "PYTHONWARNINGS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker(args, env: dict, cpus: list[int], setup_only: bool, timeout: float) -> dict:
    calibration = calibration_s()
    cmd = [sys.executable, str(HERE / "work.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--calibration", repr(calibration),
           "--cpus", ",".join(map(str, cpus)), "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "donorpair" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'donorpair'}", file=sys.stderr)
        return 2

    env = isolated_env()
    # Pin to one CPU, and with it every process started from here: the host
    # slows each CPU separately, so calls and their calibrations must share
    # one. Only the pooled CLI ensemble widens this again to all usable CPUs.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    subprocess.run([sys.executable, "-c", "import donorpair.cli"], env=env, cwd=ROOT,
                   check=True, timeout=SETUP_TIMEOUT_S)
    setups = [worker(args, env, cpus, True, SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
    result = worker(args, env, cpus, False, WORKER_TIMEOUT_S)
    setups.append(result["setup_s"])

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for line in result["errors"]:
        print(f"# FAILED {line}")
    metrics = result["metrics"]
    if args.trace:
        for name, row in result["detail"]["layers"].items():
            print(f"# {name:34s} calls/pass {row['calls']:12.1f}   self_s/pass "
                  f"{row['self_s']:.6f}   total_s/pass {row['total_s']:.6f}")
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        detail = result["detail"]
        alias, unit = ITEM_METRIC[args.workload]
        print(f"# {detail['passes']} passes, {detail['items']} items in {detail['elapsed_s']:.2f} s"
              f" wall; {detail['calibrations']} calibrations, median "
              f"{detail['median_calibration_s'] * 1e3:.3f} ms")
        print(f"# times below are seconds at reference speed; typical pass "
              f"{detail['pass_s']:.4f} s, {alias} = {metrics['items_per_s']['value']:.2f} {unit}")
        for name, c in detail["calls"].items():
            print(f"# call {name:16s} median {c['median_s']:.4f} s of {c['samples']} samples")
        print(f"# setup_s of {len(setups)} processes: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
