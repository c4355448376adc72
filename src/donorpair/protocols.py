"""Gate sequences and experiments on single chains and chain ensembles.

Chains are solved here. Pulses are designed from the solved spectrum of the
nominal geometry; the simulated chain may be displaced. States are prepared
and read out in the labelled eigenbasis of the chain actually being driven
(stationary states are what survives between pulses), so reported errors
isolate the pulse physics from basis admixture.

The initialization protocol is linear in the initial state, so its engine
works in the Heisenberg picture: protocol_form carries the target projector
back through PROTOCOL_ORDER to a 4x4 form M on INIT_SUPPORT, and a chain
started in the amplitudes a ends with error 1 - a^H M a. An ensemble reads
each chain's M from form tables solved before any pool starts, and draws
its chains from seeded streams, so its output is the same bit for bit at
any parallelism. run_initialization is the Schroedinger-picture reference
that the engine is checked against.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import (pulse_propagator, relax_electrons,
                       relax_electrons_adjoint)
from .geometry import (DEFAULT_GEOMETRY, DISPLACEMENTS, MAX_DISPLACEMENT, DeviceGeometry,
                       _require_integer)
from .pulses import (DEFAULT_K_ELECTRON, DEFAULT_K_NUCLEAR, GATES, GateSpec, PulseSpec,
                     _detuning_from, design_gate)
from .spectrum import Spectrum, compute_spectra, compute_spectrum

INIT_SUPPORT = (6, 7, 14, 15)     # electrons relaxed, nuclei arbitrary
TARGET_STATE = 15
PROTOCOL_ORDER = ("a", "b", "relax", "c", "d", "relax")

LAW_CODES = {"none": 0, "A": 1, "B": 2}
MAX_CHAINS = 2**32   # largest num_chains accepted per realization
CHAINS_PER_WORKER = 200_000   # grid chains per pool worker; fewer do not pay for its start-up

# r_m, the probability of a displacement of magnitude |m| = 1, ..., 4 (direction uniform)
LAWS = {"none": (0.0,) * MAX_DISPLACEMENT,
        **{law: tuple(base * 0.5**m for m in range(1, MAX_DISPLACEMENT + 1))
           for law, base in (("A", 0.5), ("B", 0.25))}}

def _pair_index(m1, m2):
    """Row of the displacement pair (m1, m2) in a form table; ints or int arrays."""
    return (m1 + MAX_DISPLACEMENT) * len(DISPLACEMENTS) + (m2 + MAX_DISPLACEMENT)


# _pair_rows' rule. An atom's magnitude code k is the number of partial sums
# of its law's r at most its magnitude uniform (k = MAX_DISPLACEMENT means
# |m| = 0), its displacement code is k + (MAX_DISPLACEMENT + 1) * (sign < 0.5)
# and its m is _SIGNED[code]; _CODE_ROWS[len(_SIGNED) * c1 + c2] is the
# form-table row of the codes (c1, c2) of atoms 1 and 2.
_THRESHOLDS = {law: np.cumsum(r) for law, r in LAWS.items()}
_MAGS = np.arange(1, MAX_DISPLACEMENT + 2) % (MAX_DISPLACEMENT + 1)   # 1, ..., 4, 0
_SIGNED = np.concatenate([-_MAGS, _MAGS])
_CODE_ROWS = _pair_index(_SIGNED[:, None], _SIGNED).ravel()


def _pair_rows(law: str, uniforms: np.ndarray) -> np.ndarray:
    """Form-table row _pair_index(m1, m2) of each chain, from its four uniforms.

    `uniforms` holds one row (m1 magnitude, m2 magnitude, m1 sign, m2 sign)
    of uniforms in [0, 1) per chain. |m| is the first k with magnitude <
    r_1 + ... + r_k (the partial sums added in order), or 0 if there is
    none; a sign uniform below 0.5 makes m positive. The uniforms are copied
    once into contiguous (4, n) rows, one searchsorted codes both magnitude
    rows, and one lookup in _CODE_ROWS maps each code pair to its row.
    """
    u = np.ascontiguousarray(uniforms.T)
    codes = np.searchsorted(_THRESHOLDS[law], u[:2], side="right")
    codes += (MAX_DISPLACEMENT + 1) * (u[2:] < 0.5)
    return _CODE_ROWS[len(_SIGNED) * codes[0] + codes[1]]


def _check_nominal(geometry: DeviceGeometry, name: str) -> None:
    if geometry.m1 != 0 or geometry.m2 != 0:
        raise ValueError(f"{name} must be nominal (m1 = m2 = 0), not {geometry}")


def design_protocol_pulses(k_e: int = DEFAULT_K_ELECTRON, k_n: int = DEFAULT_K_NUCLEAR,
                           geometry_nominal: DeviceGeometry = DEFAULT_GEOMETRY) -> dict[str, PulseSpec]:
    """Pulses for the gates of PROTOCOL_ORDER, in its order, for the undisplaced geometry_nominal."""
    _check_nominal(geometry_nominal, "geometry_nominal")
    return dict(_protocol_pulses(compute_spectrum(geometry_nominal), k_e, k_n))


_DESIGNS: dict[tuple[bytes, int, int], tuple[tuple[str, PulseSpec], ...]] = {}
_MAX_DESIGNS = 64   # pulse sets kept per process; the oldest is dropped first


def _protocol_pulses(spec0: Spectrum, k_e: int, k_n: int) -> tuple[tuple[str, PulseSpec], ...]:
    """design_protocol_pulses' (name, pulse) pairs from the solved nominal spectrum spec0.

    Memoized per process by (spec0's exact levels, k_e, k_n): design_gate
    reads nothing of spec0 but its exact levels, so a pulse set is designed
    once per distinct solved nominal spectrum. A K that design_gate refuses
    is not stored, so it raises on every call.
    """
    key = (spec0.exact_energies.tobytes(), k_e, k_n)
    pulses = _DESIGNS.get(key)
    if pulses is None:
        pulses = tuple((name, design_gate(spec0, GATES[name],
                                          k_e if GATES[name].species == "e" else k_n))
                       for name in PROTOCOL_ORDER if name != "relax")
        if len(_DESIGNS) >= _MAX_DESIGNS:
            del _DESIGNS[next(iter(_DESIGNS))]
        _DESIGNS[key] = pulses
    return pulses


def displacement_detuning(gate: GateSpec, geometry: DeviceGeometry) -> float:
    """Shift of the resonant pair of `gate` in `geometry` from its nominal chain; 0 there.

    Solves the nominal chain, then `geometry`, and returns pulses._detuning_from.
    """
    spec0 = compute_spectrum(geometry.displaced(0, 0))
    return _detuning_from(spec0, compute_spectrum(geometry), gate)


def _transfer_error(vectors: np.ndarray, u: np.ndarray, source: int, target: int) -> float:
    """1 - |v_target^H U v_source|^2 for labelled eigenvector columns v and propagator U,
    clamped to [0, 1] as rabi_probability is (a near-perfect transfer rounds below 0)."""
    error = 1.0 - abs(np.vdot(vectors[:, target], u @ vectors[:, source])) ** 2
    return float(min(max(error, 0.0), 1.0))


def _chain_transfer_error(geometry: DeviceGeometry, pulse: PulseSpec, source: int,
                          target: int) -> float:
    """_transfer_error of one pulse on one chain, solved here: one spectrum, one propagator."""
    spec = compute_spectrum(geometry)
    return _transfer_error(spec.eigenvectors, pulse_propagator(spec.hamiltonian, pulse),
                           source, target)


# -- single-gate sweeps ------------------------------------------------------

def sweep_gate_error(gate_name: str, m_range=DISPLACEMENTS, k_list=(1,),
                     displaced_atom: int = 1,
                     geometry_nominal: DeviceGeometry = DEFAULT_GEOMETRY) -> dict[tuple[int, int], float]:
    """Error table P[(m, K)] of one gate versus displacement and K.

    The pulse is designed at each K for geometry_nominal (undisplaced, or a
    ValueError); the displaced chain, with atom `displaced_atom` (1 or 2)
    moved by m sites, is driven from the gate's resonant source eigenstate.
    """
    if gate_name not in GATES:
        raise ValueError(f"unknown gate {gate_name!r}")
    if displaced_atom not in (1, 2):
        raise ValueError(f"displaced_atom must be 1 or 2, got {displaced_atom!r}")
    _check_nominal(geometry_nominal, "geometry_nominal")
    gate = GATES[gate_name]
    p, q = gate.resonant
    spec0 = compute_spectrum(geometry_nominal)
    pulses = {k: design_gate(spec0, gate, k) for k in k_list}   # a refused K fails before any point
    out: dict[tuple[int, int], float] = {}
    for k, pulse in pulses.items():
        for m in m_range:
            displacement = {"m1": m} if displaced_atom == 1 else {"m2": m}
            geom = geometry_nominal.displaced(**displacement)
            out[(m, k)] = _chain_transfer_error(geom, pulse, p, q)
    return out


# -- initialization protocol -------------------------------------------------

@dataclass
class ProtocolRun:
    """Record of one initialization run on one chain."""

    pulse_fidelities: dict[str, float]   # empty unless recorded
    final_error: float


def run_initialization(geometry: DeviceGeometry,
                       k_e: int = DEFAULT_K_ELECTRON, k_n: int = DEFAULT_K_NUCLEAR,
                       initial: Sequence[complex] = (1, 0, 0, 0),
                       pulses: dict[str, PulseSpec] | None = None,
                       record: bool = True) -> ProtocolRun:
    """Polarize both nuclear spins with the four-pulse protocol.

    `initial` holds the amplitudes a of protocol_form on the INIT_SUPPORT
    eigenstates (|0110>, |0111>, |1110>, |1111>-like), by default the
    |0110>-like eigenstate; any other length, or amplitudes that are all
    zero or not finite, are a ValueError. The density matrix is driven
    through PROTOCOL_ORDER, relaxation resetting the electrons after the
    second and fourth pulses, and final_error = 1 - population of the
    |1111>-like eigenstate, which equals 1 - a^H M a / (a^H a). With
    `record`, pulse_fidelities holds each pulse's transfer fidelity on this
    chain. k_e and k_n are read only to design the default pulses,
    design_protocol_pulses(k_e, k_n, geometry.displaced(0, 0)) for the
    nominal layout of `geometry`; they are unused with `pulses`.
    """
    amps = np.asarray(initial, dtype=complex)
    if amps.shape != (len(INIT_SUPPORT),):
        raise ValueError(f"initial must hold {len(INIT_SUPPORT)} amplitudes, "
                         f"one per INIT_SUPPORT eigenstate; got shape {amps.shape}")
    state = np.zeros(16, dtype=complex)
    state[list(INIT_SUPPORT)] = amps
    if not 0 < (norm := np.linalg.norm(state)) < np.inf:   # NaN fails too
        raise ValueError(f"initial amplitudes must be finite and not all zero; norm {norm}")
    if pulses is None:
        pulses = design_protocol_pulses(k_e, k_n, geometry.displaced(0, 0))
    spec = compute_spectrum(geometry)
    vectors = spec.eigenvectors
    propagators = {name: pulse_propagator(spec.hamiltonian, p) for name, p in pulses.items()}

    psi = vectors @ (state / norm)
    rho = np.outer(psi, psi.conj())
    for step in PROTOCOL_ORDER:
        if step == "relax":
            rho = relax_electrons(rho)
        else:
            u = propagators[step]
            rho = u @ rho @ u.conj().T
    target = vectors[:, TARGET_STATE]
    fidelities = {name: 1.0 - _transfer_error(vectors, propagators[name], *GATES[name].resonant)
                  for name in ("a", "b", "c", "d")} if record else {}
    return ProtocolRun(fidelities, 1.0 - float(np.real(target.conj() @ rho @ target)))


def protocol_form(geometry: DeviceGeometry, pulses: dict[str, PulseSpec]) -> np.ndarray:
    """4x4 Hermitian M with final error 1 - a^H M a for initial amplitudes a.

    `a` holds amplitudes on the INIT_SUPPORT eigenstates of the chain
    `geometry`, driven by `pulses` (one per gate of PROTOCOL_ORDER). The
    target projector is carried backwards through PROTOCOL_ORDER in the
    Heisenberg picture: a pulse U maps O -> U^H O U, a relaxation applies the
    channel's adjoint. M is O restricted to the initial manifold: the
    one-chain case of _protocol_forms.
    """
    spec = compute_spectrum(geometry)
    return _protocol_forms(spec.eigenvectors, {name: pulse_propagator(spec.hamiltonian, p)
                                               for name, p in pulses.items()})


def _protocol_forms(vectors: np.ndarray, propagators: dict[str, np.ndarray]) -> np.ndarray:
    """protocol_form of a stack of chains, as stacked matmuls.

    `vectors` holds each chain's labelled eigenvectors, (..., 16, 16), and
    `propagators` each gate's propagators of the same chains; the forms are
    (..., 4, 4), each equal to the one its chain gives alone, bit for bit.
    """
    t = vectors[..., :, TARGET_STATE]
    obs = t[..., :, None] * t.conj()[..., None, :]
    for step in reversed(PROTOCOL_ORDER):
        if step == "relax":
            obs = relax_electrons_adjoint(obs)
        else:
            u = propagators[step]
            obs = u.conj().swapaxes(-1, -2) @ obs @ u
    v = vectors[..., :, list(INIT_SUPPORT)]
    return v.conj().swapaxes(-1, -2) @ obs @ v


# -- electron-electron CNOT ---------------------------------------------------

def run_ee_cnot(geometry: DeviceGeometry, k_prime: int = 1) -> float:
    """Error of the two-electron CNOT on a displaced chain.

    The pulse (designed for the nominal chain) should flip electron 1 given
    electron 2 set, with both nuclei polarized; returns 1 minus the
    population transferred between the corresponding eigenstates.
    """
    gate = GATES["ee"]
    pulse = design_gate(compute_spectrum(geometry.displaced(0, 0)), gate, k_prime)
    return _chain_transfer_error(geometry, pulse, *gate.resonant)


# -- Monte-Carlo ensemble ------------------------------------------------------

@dataclass(frozen=True)
class EnsembleConfig:
    """Settings of one Monte-Carlo ensemble of initialization runs on nominal geometry.

    num_chains, num_realizations, k_e, k_n, seed and threads must be
    integers (NumPy integers are), and k_e and k_n at least 1; any other
    value is a ValueError naming the field, raised before anything is
    solved. A K too large for the 2piK condition is refused when the pulses
    are designed.
    """

    num_chains: int = 2000
    num_realizations: int = 8
    law: str = "A"
    k_e: int = DEFAULT_K_ELECTRON
    k_n: int = DEFAULT_K_NUCLEAR
    seed: int = 0
    threads: int = 1
    geometry: DeviceGeometry = DEFAULT_GEOMETRY

    def __post_init__(self) -> None:
        for name in ("num_chains", "num_realizations", "k_e", "k_n", "seed", "threads"):
            _require_integer(name, getattr(self, name))
        if self.num_chains < 1 or self.num_realizations < 1:
            raise ValueError("chain and realization counts must be positive")
        for name in ("k_e", "k_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} = {getattr(self, name)!r} is not a positive integer")
        if self.num_chains > MAX_CHAINS:
            raise ValueError(f"num_chains must be at most 2**32 = {MAX_CHAINS}")
        if self.law not in LAW_CODES:
            raise ValueError(f"unknown displacement law {self.law!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        _check_nominal(self.geometry, "ensemble geometry")   # chains draw their own displacements


@dataclass(frozen=True)
class EnsembleResult:
    """Mean initialization error of each realization of an ensemble, with its config."""

    config: EnsembleConfig
    realization_means: tuple[float, ...]

    @property
    def mean_error(self) -> float:
        """Mean of realization_means."""
        return float(np.array(self.realization_means).mean())

    @property
    def stderr(self) -> float:
        """Standard error of mean_error over the realizations; 0 for one realization."""
        means = np.array(self.realization_means)
        return float(means.std(ddof=1) / np.sqrt(len(means))) if len(means) > 1 else 0.0


_CHAIN_BLOCK = 1024   # chains per draw block: the stream is drawn in whole blocks of this many


def _chain_draws(config: EnsembleConfig,
                 realization: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Form-table row and eight normals of each chain of a realization, a block at a time.

    The realization's one stream, default_rng([seed, law code, k_n, k_e,
    realization]), is drawn in blocks of _CHAIN_BLOCK chains: first a
    (block, 4) array of uniforms (m1 magnitude, m2 magnitude, m1 sign, m2
    sign), then a (block, 8) array of normals. The last block is drawn in
    full as well and cut to the chains that exist, so a chain's draws depend
    only on the stream and its index, not on num_chains. Each block's
    uniforms are mapped to rows _pair_index(m1, m2) by one _pair_rows call.
    """
    rng = np.random.default_rng([config.seed, LAW_CODES[config.law],
                                 config.k_n, config.k_e, realization])
    for start in range(0, config.num_chains, _CHAIN_BLOCK):
        n = min(_CHAIN_BLOCK, config.num_chains - start)
        uniforms = rng.random((_CHAIN_BLOCK, 4))[:n]
        normals = rng.standard_normal((_CHAIN_BLOCK, 8))[:n]
        yield _pair_rows(config.law, uniforms), normals


_PAIRS = np.transpose(list(itertools.combinations(range(4), 2)))   # j and k rows of the six j < k


def _form_coefficients(form: np.ndarray) -> np.ndarray:
    """The 16 real coefficients c of a 4x4 Hermitian M (or a stack of them).

    Re(z^H M z) = c . f(z) with c = [M_jj (4), 2 Re M_jk (6), -2 Im M_jk (6)]
    and f = [x_j^2 + y_j^2, x_j x_k + y_j y_k, x_j y_k - y_j x_k] for
    z = x + iy and (j, k) in _PAIRS order.
    """
    j, k = _PAIRS
    upper = form[..., j, k]
    return np.concatenate([np.diagonal(form, axis1=-2, axis2=-1).real,
                           2.0 * upper.real, -2.0 * upper.imag], axis=-1)


@functools.lru_cache(maxsize=8)
def _form_tables(keys: tuple[tuple[DeviceGeometry, tuple[tuple[str, PulseSpec], ...]], ...],
                 support: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Read-only (81, 16) _form_coefficients table of each (geometry, pulses) key.

    Row _pair_index(m1, m2) of a table holds the coefficients of
    protocol_form for the chain displaced by (m1, m2) from the nominal
    `geometry` under `pulses`, for m1 and m2 in the signed `support`; the
    other rows are NaN. Each distinct layout's support pairs are solved in
    one compute_spectra stack, and each distinct pulse of that layout is
    propagated once over that stack, so pulse sets of one layout share
    their propagators (gates a and c do not depend on K_n). The layout's
    distinct keys are then built in order, each from one _protocol_forms
    stack: a pulse is propagated when the first of them reads it and
    dropped after the last, so memory does not grow with the K_n count.
    The 8 most recently used grids are memoized, so a repeated grid solves
    nothing; a grid that only partly overlaps a memoized one is solved
    whole.
    """
    pairs = list(itertools.product(support, support))
    rows = [_pair_index(m1, m2) for m1, m2 in pairs]
    tables = {}
    for geometry in dict.fromkeys(g for g, _ in keys):
        spectra = compute_spectra([geometry.displaced(m1, m2) for m1, m2 in pairs])
        layout = [key for key in dict.fromkeys(keys) if key[0] == geometry]
        last_reader = {p: i for i, (_, pulses) in enumerate(layout) for _, p in pulses}
        propagators = {}
        for i, key in enumerate(layout):
            for _, p in key[1]:
                if p not in propagators:
                    propagators[p] = pulse_propagator(spectra.hamiltonian, p)
            table = np.full((len(DISPLACEMENTS) ** 2, 16), np.nan)
            table[rows] = _form_coefficients(_protocol_forms(
                spectra.eigenvectors, {name: propagators[p] for name, p in key[1]}))
            table.flags.writeable = False
            tables[key] = table
            propagators = {p: u for p, u in propagators.items() if last_reader[p] > i}
    return tuple(tables[key] for key in keys)


def _chain_errors(columns: np.ndarray, pairs: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Protocol error 1 - (c . f) / (f_0 + f_1 + f_2 + f_3) of each chain.

    `columns` is a transposed form table, (16, rows): columns[i] holds
    coefficient i of _form_coefficients for every table row. Chain n reads
    row pairs[n] and its eight standard normals normals[n], z = normals[n, :4]
    + i normals[n, 4:]; z / |z| is a Haar-random initial state, c . f =
    Re(z^H M z) and f_0 + ... + f_3 = z^H z. The 16 features of all chains
    are written into one (16, n) array, multiplied by the (16, n)
    coefficients of one take, and the 16 product rows are added in
    coefficient order, with elementwise arithmetic only (no BLAS, no
    pairwise sums), so a chain's error does not depend on the other chains
    or on how many there are. The features are written in place because
    np.concatenate of the three groups measured about 110 page faults per
    block: the allocator trimmed the freed temporaries and re-faulted them.
    """
    t = np.ascontiguousarray(normals.T)
    x, y = t[:4], t[4:]
    (xj, xk), (yj, yk) = x[_PAIRS], y[_PAIRS]
    features = np.empty((16, len(pairs)))
    np.add(x * x, y * y, out=features[:4])
    np.add(xj * xk, yj * yk, out=features[4:10])
    np.subtract(xj * yk, yj * xk, out=features[10:])
    norm = features[0] + features[1] + features[2] + features[3]
    features *= columns.take(pairs, axis=1)
    quad = features[0]
    for product in features[1:]:
        quad += product
    quad /= norm
    return 1.0 - quad


def _run_realization(config: EnsembleConfig, realization: int,
                     table: np.ndarray) -> float:
    """Mean protocol error over the chains of one realization.

    `table` is the realization's _form_tables entry, read through its
    transpose, a view, as _chain_errors' coefficient columns. Each draw
    block of _chain_draws is evaluated by one _chain_errors call, and the
    errors are added one by one in chain order: np.cumsum adds
    sequentially, and the running total is carried into each block's first
    error. So the mean is the same bit for bit as a Python loop over the
    chains.
    """
    columns, total = table.T, 0.0
    for pairs, normals in _chain_draws(config, realization):
        errors = _chain_errors(columns, pairs, normals)
        errors[0] += total
        total = float(np.cumsum(errors)[-1])
    return total / config.num_chains


def ensemble_init(config: EnsembleConfig) -> EnsembleResult:
    """Initialization error averaged over an ensemble of displaced chains.

    Chains are independent. Each realization draws its chains in blocks
    from one stream seeded by (seed, law, K_n, K_e, realization), so a
    chain's draws depend only on those and its index, and the result does
    not depend on scheduling. Each chain costs one quadratic form
    1 - a^H M a, with M = protocol_form of its displacement pair, read from
    a form table that later calls with the same pulses and support reuse.
    """
    return ensemble_grid([config])[0]


def ensemble_workers(configs: Sequence[EnsembleConfig]) -> int:
    """Process-pool workers that ensemble_grid(configs) starts; 1 means no pool.

    At most the largest threads of the configs, at most the grid's task
    count (the pool maps over every realization of every config), and at
    most one per CHAINS_PER_WORKER chains of the whole grid: a pool pays
    for its start-up only from about that many chains per worker.
    """
    if not configs:
        raise ValueError("an ensemble grid needs at least one config")
    tasks = sum(c.num_realizations for c in configs)
    chains = sum(c.num_chains * c.num_realizations for c in configs)
    return max(1, min(max(c.threads for c in configs), tasks, chains // CHAINS_PER_WORKER))


def ensemble_grid(configs: Sequence[EnsembleConfig]) -> list[EnsembleResult]:
    """ensemble_init of every config, with all realizations in one process pool.

    Each distinct geometry is solved once, in config order, and each config
    reads its pulse set from _protocol_pulses' memo, so each distinct
    (k_e, k_n) on each solved nominal spectrum is designed once per
    process, not once per call. The grid's form tables come
    from _form_tables before the pool starts, keyed by (geometry, pulses)
    under one support for the whole grid (every displacement if any law can
    displace an atom, else (0,)), so configs that differ only in their law
    read one table. Each task carries its table, so pool workers solve no
    forms. The pool has ensemble_workers(configs) workers and is not started
    for one.
    """
    workers = ensemble_workers(configs)   # refuses an empty grid before any solve
    spectra = {g: compute_spectrum(g) for g in dict.fromkeys(c.geometry for c in configs)}
    keys = tuple((c.geometry, _protocol_pulses(spectra[c.geometry], c.k_e, c.k_n))
                 for c in configs)
    support = DISPLACEMENTS if any(any(LAWS[c.law]) for c in configs) else (0,)
    tasks = [(config, r, table) for config, table in zip(configs, _form_tables(keys, support))
             for r in range(config.num_realizations)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # serial runs skip its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            means = list(pool.map(_run_realization, *zip(*tasks)))
    else:
        means = [_run_realization(*task) for task in tasks]
    means = iter(means)
    return [EnsembleResult(config, tuple(itertools.islice(means, config.num_realizations)))
            for config in configs]
