import concurrent.futures
import functools
import os
from pathlib import Path

import numpy as np
import pytest

import donorpair
from donorpair import (DEFAULT_GEOMETRY, DisplacementDistribution, compute_spectrum,
                       effective_params, protocol_form)
from donorpair import protocols
from donorpair.protocols import design_protocol_pulses


@pytest.fixture(scope="session")
def default_params():
    return effective_params(DEFAULT_GEOMETRY)


@pytest.fixture(scope="session")
def default_spectrum():
    return compute_spectrum(DEFAULT_GEOMETRY)


@pytest.fixture(scope="session")
def source_env():
    """Environment for subprocesses that import the donorpair under test."""
    src = str(Path(donorpair.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture(scope="session")
def exact_law_mean():
    """exact_law_mean(k_n, law): exact ensemble mean error at K_e = 1, nominal geometry.

    The Haar average of a chain's error 1 - a^H M a is 1 - tr(M)/4, with
    M = protocol_form of its pair (m1, m2), so a law's mean is the finite sum
    Sum P(m1) P(m2) (1 - tr M / 4) over the 81 displacement pairs.
    """
    @functools.cache
    def pair_errors(k_n):
        pulses = design_protocol_pulses(1, k_n)
        return {(m1, m2): 1.0 - np.trace(protocol_form(
                    DEFAULT_GEOMETRY.displaced(m1, m2), pulses)).real / 4
                for m1 in range(-4, 5) for m2 in range(-4, 5)}

    def exact(k_n, law):
        r = DisplacementDistribution(law).r
        prob = {0: 1.0 - sum(r)}
        for mag, rm in enumerate(r, start=1):
            prob[mag] = prob[-mag] = rm / 2
        return sum(prob[m1] * prob[m2] * error for (m1, m2), error in pair_errors(k_n).items())

    return exact


@pytest.fixture
def pools(monkeypatch):
    """Keyword arguments of every process pool started, with pools paying from one chain.

    CHAINS_PER_WORKER is lowered to 1, so a pool starts whenever threads and
    realizations allow one; a test may lower it to another value itself.
    """
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        started.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    monkeypatch.setattr(protocols, "CHAINS_PER_WORKER", 1)
    return started
