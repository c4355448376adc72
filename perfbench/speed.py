"""Machine-speed calibration that keeps timings comparable on a shared host.

Other tenants of the host slow every process on it by up to a third for
tens of seconds at a time, as one phase. A short fixed calibration loop,
run between the timed operations, slows down with them (measured
correlation 0.83 with cold `donorpair --version` calls). Each timed sample
is divided by the calibration time around it and multiplied by
REFERENCE_CALIBRATION_S, which gives seconds at the machine's reference
speed.

The loop mixes what the program does: small Hermitian eigendecompositions
and interpreted Python arithmetic. It keeps its own reference to
numpy.linalg.eigh, so a traced run does not count it as program work.
"""
from __future__ import annotations

import bisect
import time

import numpy as np

# Median calibration time on the reference machine (see README), in seconds.
REFERENCE_CALIBRATION_S = 0.005
CALIBRATION_INTERVAL_S = 0.2

_EIGH = np.linalg.eigh
_rng = np.random.default_rng(0)
_A = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_H = _A + _A.conj().T


def calibration_s() -> float:
    """Wall time of one fixed calibration loop."""
    t0 = time.perf_counter()
    for _ in range(60):
        _EIGH(_H)
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


class SpeedClock:
    """Calibration samples along a run, and the speed factor at any moment."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def calibrate(self, force: bool = False) -> None:
        if force or not self.times or time.perf_counter() - self.times[-1] > CALIBRATION_INTERVAL_S:
            value = calibration_s()
            self.times.append(time.perf_counter())
            self.values.append(value)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE / mean calibration just before `start` and just after `end`."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_CALIBRATION_S / (0.5 * (self.values[before] + self.values[after]))
