"""Machine-speed calibration for the benchmark's wall-clock figures.

On a shared host, wall time drifts by up to ±25% within minutes. While a
run measures, a timer therefore interrupts it every ``PERIOD_S`` seconds
to time a short fixed calibration block. The block mixes the kinds of
work fleetopt does: interpreted Python over dicts, small numpy
operations and one small HiGHS LP through scipy. It uses no fleetopt
code. Host drift slows these kinds of work by different amounts, so a
block of one kind alone tracks the speed of the other kinds poorly.
The block's time is taken out of the measured work, and the work is
reported rescaled to a reference speed:

    reported = measured wall seconds * REFERENCE_S / median block seconds

A change in the program moves the reported figure. A change in the host's
speed mostly does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog

# block seconds that define the reference speed: about the block's time
# inside runs on a 2.0 GHz core in a typical phase of the host
REFERENCE_S = 0.009
PERIOD_S = 0.2

_rng = np.random.default_rng(0)
_LP = (-_rng.uniform(0.0, 1.0, 40), _rng.uniform(0.0, 1.0, (40, 40)), np.ones(40))


def block() -> float:
    """Run the fixed calibration work once; return its wall seconds."""
    start = time.perf_counter()
    acc: dict[int, float] = {}
    total = 0.0
    for i in range(6_000):
        key = i % 61
        acc[key] = acc.get(key, 0.0) + 0.5 * i
        total += acc[key] / (i + 1.0)
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(100):
        total += float(np.dot(a, a)) + float(np.max(a * 1.0001))
    c, A, b = _LP
    total += linprog(c, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs").fun
    if not np.isfinite(total):
        raise ArithmeticError("calibration block overflowed")
    return time.perf_counter() - start


class Sampler:
    """Calibration blocks taken from a SIGALRM timer while work runs.

    ``time`` runs a call and returns its result with its wall seconds,
    less the time the blocks took. ``scale`` converts those seconds to
    the reference speed. A disabled sampler takes no blocks, times calls
    as they are, and has scale 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.blocks: list[float] = []
        self._stolen = 0.0
        self._previous = None

    def _take(self, signum, frame) -> None:
        start = time.perf_counter()
        self.blocks.append(block())
        self._stolen += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        stolen = self._stolen
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start - (self._stolen - stolen)
        return result, seconds

    def scale(self) -> float:
        if not self.enabled:
            return 1.0
        if not self.blocks:  # too short to be sampled: take one block now
            self.blocks.append(block())
        return REFERENCE_S / statistics.median(self.blocks)
