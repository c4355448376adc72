import os
from pathlib import Path

import pytest

import donorpair
from donorpair import DEFAULT_GEOMETRY, compute_spectrum, effective_params


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
