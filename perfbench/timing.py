"""Clock, calibration, op deadlines and the summary statistics.

The virtual CPUs this benchmark was built on alternate between two
speeds in phases of one to ten seconds; the same loop takes about 1.5x
longer in the slow phase, while CPU time still equals wall time. Plain
means of runs a few seconds long then differ by 20-30%. The estimator
cancels the phase: a fixed calibration loop of plain interpreter work is
timed next to every few tens of milliseconds of ops, and each op's time
is scaled by REFERENCE_CALIBRATION_S / (the calibration readings around
it). A time reported by the benchmark is therefore in seconds of a
machine whose calibration loop takes REFERENCE_CALIBRATION_S, which is
about what it takes in the fast phase there. Raw wall times are printed
alongside for reference.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from contextlib import contextmanager

clock = time.perf_counter

# Calibration loop length in seconds in the fast phase of the machine
# the benchmark was built on (2 vCPUs, Python 3.11).
REFERENCE_CALIBRATION_S = 0.001

# A batch of ops between two calibration readings lasts about this long.
BATCH_S = 0.05

# The smallest tail a reported percentile may have.
MIN_TAIL = 10


def calibration_work(rounds: int = 280) -> int:
    """Plain interpreter work: small tuples, dict and set updates, calls.

    It stands for the interpreter's speed, not for any one workload.
    """
    acc = 0
    for r in range(rounds):
        d = {}
        for i in range(20):
            key = (r, i & 7)
            d[key] = d.get(key, 0) + i
        acc += len(frozenset(d)) + _step(acc)
    return acc


def _step(x: int) -> int:
    return x & 1


def calibrate() -> float:
    """Seconds one calibration loop takes now: the median of three.

    The median tracks the speed ops see; the minimum of three catches
    short lulls and follows slow phases less well.
    """
    readings = []
    for _ in range(3):
        t0 = clock()
        calibration_work()
        readings.append(clock() - t0)
    return statistics.median(readings)


class Scaler:
    """Turns raw durations into reference-speed durations.

    Call `mark()` between batches; each batch is scaled by the mean of
    the calibration readings taken just before and just after it.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._pending: list[tuple[str, float]] = []
        # Compact arrays: the samples live in the process whose peak RSS
        # is measured, and a run may hold a hundred thousand of them.
        self.scaled: dict[str, array] = {}
        self.raw: dict[str, array] = {}
        self.mark()

    def add(self, kind: str, seconds: float) -> None:
        self._pending.append((kind, seconds))
        self.raw.setdefault(kind, array("d")).append(seconds)

    def mark(self) -> None:
        reading = calibrate()
        if self.readings:
            factor = REFERENCE_CALIBRATION_S / ((self.readings[-1] + reading) / 2)
            for kind, seconds in self._pending:
                self.scaled.setdefault(kind, array("d")).append(seconds * factor)
        self._pending.clear()
        self.readings.append(reading)


def percentile(samples: list[float], q: float, min_tail: int = MIN_TAIL) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above it.

    Raises ValueError when fewer than `min_tail` samples lie above it:
    such a percentile rests on too few observations to report.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    tail = sum(1 for x in ordered if x > value)
    if tail < min_tail:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has {tail} above it, "
            f"fewer than {min_tail}"
        )
    return value, tail


class OpDeadline(BaseException):
    """An op ran past its deadline.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


def _expire(signum, frame):
    raise OpDeadline()


@contextmanager
def deadline(seconds: float):
    """Raise OpDeadline in the main thread if the block runs too long."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
