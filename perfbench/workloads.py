"""The three workloads: the operations of one pass and the checks on their outputs.

A workload is built from the run's seed, then hands out one pass of
operations at a time. A pass is a fixed list of calls, the same in every
run, so the share of failed operations does not depend on how many passes
fit into the measured time. Each operation is (name, thunk, items); items
is the work it completes: chains for `ensemble`, gate-error points for
`sweep`, command invocations for `cli`.

`check` runs after the timed region. It returns the indices of outputs that
fail a check, with a message for each failure. The checks compare against
independent computations or required properties, never against stored
output; the README gives the basis of every bound.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np


@contextlib.contextmanager
def all_cpus(cpus: set[int]):
    """Let this process, and what it starts meanwhile, use all of `cpus`."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


# -- ensemble ---------------------------------------------------------------------

LAWS = ("none", "A", "B")
LAW_BASE = {"none": 0.0, "A": 0.5, "B": 0.25}   # r_m = base * 2**-m, m = 1..4
ENSEMBLE_CHAINS = 2000
ENSEMBLE_REALIZATIONS = 4
K_E, K_N = 1, 2000
Z_BOUND = 7.0            # |Monte-Carlo mean - exact| in standard errors


def displacement_probabilities(law: str) -> dict[int, float]:
    """P(m) of one atom's displacement: r_m = base*2**-m split over two signs."""
    r = {m: LAW_BASE[law] * 2.0 ** -m for m in range(1, 5)}
    probs = {0: 1.0 - sum(r.values())}
    for m, rm in r.items():
        probs[m] = probs[-m] = rm / 2
    return probs


class Ensemble:
    """`ensemble_init` in-process, threads=1, laws none/A/B, fixed counts."""

    name = "ensemble"
    chains_per_pass = len(LAWS) * ENSEMBLE_CHAINS * ENSEMBLE_REALIZATIONS
    min_passes = 2       # at least 2 * 4 realization means per law for the z check

    def __init__(self, seed: int) -> None:
        from donorpair.protocols import design_protocol_pulses

        self.pulses = design_protocol_pulses(K_E, K_N)
        self.seed = seed

    def operations(self, p: int):
        """One realization per call, so that each timed sample stays short."""
        from donorpair.protocols import EnsembleConfig, ensemble_init

        ops = []
        for law in LAWS:
            for k in range(ENSEMBLE_REALIZATIONS):
                seed = (self.seed * 10_000 + p) * ENSEMBLE_REALIZATIONS + k
                config = EnsembleConfig(num_chains=ENSEMBLE_CHAINS, num_realizations=1,
                                        law=law, k_e=K_E, k_n=K_N, seed=seed, threads=1)
                ops.append((law, lambda c=config: ensemble_init(c).realization_means,
                            ENSEMBLE_CHAINS))
        return ops

    def exact_means(self) -> dict[str, float]:
        """Law means as Sum P(m1) P(m2) * (1/4) Sum_i final_error(basis input i).

        The Haar average of the chain error 1 - a^H M a is 1 - tr(M)/4, and the
        four basis inputs give the four diagonal entries of M.
        """
        from donorpair import DEFAULT_GEOMETRY, run_initialization

        pair_error = {}
        for m1 in range(-4, 5):
            for m2 in range(-4, 5):
                geometry = DEFAULT_GEOMETRY.displaced(m1, m2)
                pair_error[(m1, m2)] = sum(
                    run_initialization(geometry, K_E, K_N, initial=basis, pulses=self.pulses,
                                       record=False).final_error
                    for basis in np.eye(4)) / 4
        out = {}
        for law in LAWS:
            probs = displacement_probabilities(law)
            out[law] = sum(probs[m1] * probs[m2] * err for (m1, m2), err in pair_error.items())
        return out

    def check(self, outputs):
        bad, messages = set(), []
        exact = self.exact_means()
        for law in LAWS:
            idx = [i for i, (_, label, _) in enumerate(outputs) if label == law]
            means = [x for i in idx for x in outputs[i][2]]
            for i in idx:
                if not all(0.0 <= x <= 1.0 for x in outputs[i][2]):
                    bad.add(i)
                    messages.append(f"law {law}: realization mean outside [0, 1]")
            if len(means) < 2:
                continue
            stderr = statistics.stdev(means) / math.sqrt(len(means))
            z = (statistics.fmean(means) - exact[law]) / stderr
            if abs(z) > Z_BOUND:
                bad.update(idx)
                messages.append(f"law {law}: mean {statistics.fmean(means):.6g} is {z:+.1f} "
                                f"standard errors from the exact {exact[law]:.6g}")
        return bad, messages


# -- sweep ------------------------------------------------------------------------

# Nominal layouts (N0, gradient T/m) near 47 / 1.3e5 on which every sweep point
# passes the validity guards and every check below holds with margin.
LAYOUTS = ((47, 1.28e5), (47, 1.30e5), (47, 1.32e5),
           (48, 1.28e5), (48, 1.30e5), (48, 1.32e5))
M_RANGE = range(-4, 5)
GATE_A_K = (1, 2, 3, 4)
GATE_B_K = (700, 2000, 5000, 10000, 30000)
GATE_A_FACTOR = 1.25     # analytic budget / simulated error, displaced atom 1
GATE_B_SYMMETRY = 0.20   # |P(m) - P(-m)| / max, displaced atom 1
EE_CONTRAST = 50.0       # P(+-1) >= 50 * P(0)


class Sweep:
    """Gate a and b displacement sweeps on both atoms plus the ee-CNOT scan."""

    name = "sweep"
    chains_per_pass = len(M_RANGE) * (2 * len(GATE_A_K) + 2 * len(GATE_B_K) + 1)
    min_passes = 1

    def __init__(self, seed: int) -> None:
        from donorpair import DeviceGeometry

        order = np.random.default_rng(seed).permutation(len(LAYOUTS))
        self.layouts = [DeviceGeometry(n0=LAYOUTS[i][0], gradient=LAYOUTS[i][1]) for i in order]

    def operations(self, p: int):
        from donorpair.protocols import run_ee_cnot, sweep_gate_error

        geometry = self.layout(p)
        ops = []
        for gate, k_list in (("a", GATE_A_K), ("b", GATE_B_K)):
            for atom in (1, 2):
                ops.append((f"{gate}{atom}",
                            lambda g=gate, k=k_list, a=atom: sweep_gate_error(
                                g, M_RANGE, k, displaced_atom=a, geometry_nominal=geometry),
                            len(M_RANGE) * len(k_list)))
        for m in M_RANGE:
            ops.append((f"ee{m:+d}", lambda m=m: run_ee_cnot(geometry.displaced(m1=m)), 1))
        return ops

    def layout(self, p: int):
        return self.layouts[p % len(self.layouts)]

    def check(self, outputs):
        bad, messages = set(), []
        budgets = {}
        ee = {}
        for i, (p, name, out) in enumerate(outputs):
            geometry = self.layout(p)
            values = list(out.values()) if isinstance(out, dict) else [out]
            if not all(0.0 <= v <= 1.0 for v in values):
                bad.add(i)
                messages.append(f"{name} on {geometry}: error outside [0, 1]")
            if name.startswith("ee"):
                ee.setdefault(p, {})[int(name[2:])] = (i, out)
            elif name == "a1":
                if geometry not in budgets:
                    budgets[geometry] = gate_a_budget(geometry)
                for key, est in budgets[geometry].items():
                    ratio = est / out[key]
                    if not 1 / GATE_A_FACTOR <= ratio <= GATE_A_FACTOR:
                        bad.add(i)
                        messages.append(f"a1 on {geometry} at (m, K) = {key}: "
                                        f"budget / simulated = {ratio:.3f}")
            elif name == "b1":
                for k in GATE_B_K:
                    for m in range(1, 5):
                        hi = max(out[(m, k)], out[(-m, k)])
                        if abs(out[(m, k)] - out[(-m, k)]) > GATE_B_SYMMETRY * hi + 1e-6:
                            bad.add(i)
                            messages.append(f"b1 on {geometry}: direction asymmetry at "
                                            f"m = {m}, K = {k}")
        for p, scan in ee.items():
            if 0 not in scan:
                continue
            i0, p0 = scan[0]
            for m in (-1, 1):
                if m in scan and scan[m][1] < EE_CONTRAST * p0:
                    bad.update((i0, scan[m][0]))
                    messages.append(f"ee-cnot on {self.layout(p)}: P({m:+d}) < "
                                    f"{EE_CONTRAST:g} P(0)")
        return bad, messages


def gate_a_budget(geometry) -> dict[tuple[int, int], float]:
    """Analytic error of gate a per (m1, K): error_estimate(R(Omega_K, Delta'), eps, 0)."""
    from donorpair import (GATES, compute_spectrum, displacement_detuning, error_estimate,
                           rabi_probability, transition_frequency, two_pi_k_omega)

    spec0 = compute_spectrum(geometry)
    eps = spec0.smallness[0]
    delta = transition_frequency(spec0, 12, 14) - transition_frequency(spec0, 13, 15)
    return {(m, k): error_estimate(
                rabi_probability(two_pi_k_omega(delta, k),
                                 displacement_detuning(GATES["a"], geometry.displaced(m1=m))),
                eps, 0.0)
            for m in M_RANGE if m for k in GATE_A_K}


# -- cli --------------------------------------------------------------------------

# J(N)/2pi in MHz from the paper's exchange table.
PAPER_J_MHZ = {40: 33.75, 41: 22.58, 42: 15.09, 43: 10.07, 44: 6.71, 45: 4.465,
               46: 2.97, 47: 1.97, 48: 1.306, 49: 0.865, 50: 0.573, 51: 0.37855}
J_REL_TOL = 0.01
DESIGN_OMEGA_MHZ, DESIGN_OMEGA_TOL = 67.82, 0.01      # paper's last digit
DESIGN_NU_MHZ, DESIGN_NU_TOL = -92350.0, 10.0         # -92.35 GHz, last digit
PERT_DEV_HZ = 100.0
CLI_CALL_TIMEOUT_S = 60


def cli_commands(seed: int, threads: int) -> list[tuple[str, list[str]]]:
    ensemble = ["ensemble", "--chains", "250", "--realizations", "4", "--law", "A,none",
                "--Kn", "2000", "--seed", str(seed)]
    return [("jtable", ["jtable", "40", "51"]),
            ("spectrum", ["spectrum"]),
            ("design", ["design", "--gate", "a", "--K", "1"]),
            ("sweep-a", ["sweep", "--gate", "a"]),
            ("sweep-b", ["sweep", "--gate", "b"]),
            ("ee-cnot", ["ee-cnot"]),
            ("ensemble-pooled", ensemble + ["--threads", str(threads)]),
            ("ensemble-serial", ensemble + ["--threads", "1"])]


def donorpair_process(argv: list[str]) -> str:
    """Run the `donorpair` command in a fresh interpreter; stdout, or raise."""
    proc = subprocess.run([sys.executable, "-m", "donorpair.cli", *argv],
                          capture_output=True, text=True, timeout=CLI_CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def donorpair_in_process(argv: list[str]) -> str:
    """Run `donorpair.cli.main` in this process; stdout, or raise."""
    from donorpair import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def version_call_s() -> float:
    """Wall time of one cold `donorpair --version` call."""
    t0 = time.perf_counter()
    donorpair_process(["--version"])
    return time.perf_counter() - t0


class Cli:
    """Cold-start `donorpair` commands, one process at a time."""

    name = "cli"
    # The CLI's default K lists for gates a and b are GATE_A_K and GATE_B_K;
    # then ee-cnot, and two ensembles of 2 laws x 4 realizations x 250 chains.
    chains_per_pass = len(M_RANGE) * (len(GATE_A_K) + len(GATE_B_K) + 1) + 2 * 2 * 4 * 250
    min_passes = 1

    def __init__(self, seed: int, cpus: set[int], in_process: bool = False) -> None:
        self.seed = seed
        self.cpus = cpus
        self.run = donorpair_in_process if in_process else donorpair_process

    def operations(self, p: int):
        return [(label, lambda a=argv, pooled=label == "ensemble-pooled": self.call(a, pooled), 1)
                for label, argv in cli_commands(self.seed * 1000 + p, len(self.cpus))]

    def call(self, argv: list[str], pooled: bool) -> str:
        """Run one command; the pooled ensemble gets every usable CPU."""
        if not pooled:
            return self.run(argv)
        with all_cpus(self.cpus):
            return self.run(argv)

    def check(self, outputs):
        bad, messages = set(), []
        ensembles = {}
        for i, (p, label, text) in enumerate(outputs):
            rows = list(csv.DictReader(io.StringIO(text)))
            problem = None
            if not rows:
                problem = "no rows"
            elif label == "jtable":
                got = {int(r["N"]): float(r["J_MHz"]) for r in rows}
                off = [n for n, j in PAPER_J_MHZ.items()
                       if abs(got.get(n, math.inf) - j) > J_REL_TOL * j]
                if off:
                    problem = f"J(N) off the paper's table by more than 1% at N = {off}"
            elif label == "spectrum":
                worst = max(abs(float(r["dev_Hz"])) for r in rows)
                if worst > PERT_DEV_HZ:
                    problem = f"perturbative deviation {worst:.1f} Hz"
            elif label == "design":
                omega, nu = float(rows[0]["Omega_MHz"]), float(rows[0]["nu_MHz"])
                if (abs(omega - DESIGN_OMEGA_MHZ) > DESIGN_OMEGA_TOL
                        or abs(nu - DESIGN_NU_MHZ) > DESIGN_NU_TOL):
                    problem = f"gate a design Omega {omega:.4f} MHz, nu {nu:.2f} MHz"
            elif label in ("sweep-a", "sweep-b", "ee-cnot"):
                column = "P_e" if label == "ee-cnot" else "P"
                if not all(0.0 <= float(r[column]) <= 1.0 for r in rows):
                    problem = "error outside [0, 1]"
            else:
                ensembles.setdefault(p, {})[label] = (i, text)
            if problem:
                bad.add(i)
                messages.append(f"{label}: {problem}")
        for pair in ensembles.values():
            if len(pair) < 2:
                continue
            (i1, pooled), (i2, serial) = pair["ensemble-pooled"], pair["ensemble-serial"]
            if pooled != serial:
                bad.update((i1, i2))
                messages.append("ensemble: pooled and serial stdout differ")
        return bad, messages


WORKLOADS = {cls.name: cls for cls in (Ensemble, Sweep, Cli)}
