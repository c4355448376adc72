"""Tracing for the per-layer metrics: wrappers, spans, self time and probes.

The tracer wraps every public function of every `donorpair` module, in the
defining module and wherever another module imported it by name, plus
`numpy.linalg.eigh`. Nothing under `src/` changes: the wrappers are module
attributes swapped in for the traced passes and swapped back afterwards.

Each call records a span (name, start, end, parent, run id) in memory. A
span's self time is its duration minus the durations of its direct child
spans. Run ids separate the traced passes from one another and from the
probes, which measure process-level costs: import time (from
`python -X importtime`) and process-pool start-up.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

IMPORT_PROBE_REPEATS = 3
POOL_PROBE_REPEATS = 3


class Tracer:
    """Swaps wrappers into the package and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self.geometries: dict[int, list] = defaultdict(list)   # compute_spectrum args
        self.swap_warnings: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        record_geometry = name == "spectrum.compute_spectrum"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_geometry:
                geometry = args[0] if args else kwargs.get("geometry")
                self.geometries[self.run_id].append(geometry)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)

        return wrapper

    def __enter__(self) -> "Tracer":
        """Swap the wrappers in; spans recorded until exit carry `run_id`."""
        import numpy.linalg
        import donorpair.cli  # noqa: F401 - the package __init__ does not import it
        from donorpair.spectrum import SwapBoundaryWarning

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "donorpair" or n.startswith("donorpair."))]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("donorpair.")):
                    if obj not in wrappers:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._patch(mod, attr, wrappers[obj])
        self._patch(numpy.linalg, "eigh", self._wrap("linalg.eigh", numpy.linalg.eigh))
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always", SwapBoundaryWarning)
        shown = warnings.showwarning

        def count_warning(message, category, *args, **kwargs):
            if issubclass(category, SwapBoundaryWarning):
                self.swap_warnings[self.run_id] += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = count_warning
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._warnings.__exit__(None, None, None)

    # -- aggregation --------------------------------------------------------

    def layer_table(self, run_ids) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name over the given runs."""
        run_ids = set(run_ids)
        child_time = defaultdict(float)
        for name, t0, t1, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, t0, t1, parent, run) in enumerate(self.spans):
            if run in run_ids:
                row = table[name]
                row["calls"] += 1
                row["total_s"] += t1 - t0
                row["self_s"] += t1 - t0 - child_time[idx]
        return dict(table)

    def write(self, path: Path) -> None:
        """Write every span as one JSON document (names indexed once)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["name", "start", "end", "parent", "run"], "names": names,
               "spans": [[index[n], t0, t1, p, r] for n, t0, t1, p, r in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


# -- process-level probes ------------------------------------------------------

def _importtime_cumulative(stderr: str) -> dict[str, int]:
    """Cumulative microseconds per module of a `-X importtime` report."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            _, cumulative_us, name = line[len("import time:"):].split("|")
            out[name.strip()] = int(cumulative_us)
    return out


def import_profile(env: dict) -> tuple[float, float]:
    """Median (import donorpair.cli, import scipy.constants) seconds, cold process."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORT_PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import donorpair.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        rows = _importtime_cumulative(proc.stderr)
        cli_s.append(rows["donorpair.cli"] / 1e6)
        scipy_s.append(rows.get("scipy.constants", 0) / 1e6)
    return statistics.median(cli_s), statistics.median(scipy_s)


def pool_startup(threads: int) -> float:
    """Median extra wall time of a pooled ensemble_init over the serial one.

    One one-chain realization per worker, so the difference is the cost of
    starting and joining the process pool.
    """
    from donorpair.protocols import EnsembleConfig, ensemble_init

    costs = []
    for _ in range(POOL_PROBE_REPEATS):
        walls = []
        for n in (threads, 1):
            config = EnsembleConfig(num_chains=1, num_realizations=threads, law="none",
                                    seed=0, threads=n)
            t0 = time.perf_counter()
            ensemble_init(config)
            walls.append(time.perf_counter() - t0)
        costs.append(walls[0] - walls[1])
    return statistics.median(costs)
