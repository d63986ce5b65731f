"""Reference seconds: wall times scaled to a fixed speed of the host.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more within seconds, with no stolen time to account for it (other
tenants slow the cores down rather than take them away).  So while it times
work, the benchmark also times ``_work``: a fixed piece of pure-Python work
of the kind extamen does (small ints, tuples, a dict, Fractions) that uses
no extamen code.  A ``Sampler`` runs it every ``EVERY_S`` seconds from a
timer signal, in the middle of the timed work, and keeps its own time out of
that work's time.  A wall time ``t`` measured while ``_work`` took ``c``
seconds on average is reported as ``t * REF_SAMPLE_S / c``: the time the
work would take on a host where ``_work`` takes ``REF_SAMPLE_S``, about the
uncontended speed of a 2-core Xeon VM.  A change to extamen moves its times
and not ``_work``'s, so the scaled times still show it in full.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REF_SAMPLE_S = 0.00075
EVERY_S = 0.02


def _work() -> None:
    table = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 97, i * 7 % 31, i >> 3)
        table[key] = table.get(key, 0) + i
        if i % 10 == 0:
            acc += Fraction(i, 2 ** (i % 13) + 1)


def scale(seconds: float, sample_s: float) -> float:
    """``seconds`` of wall time measured while ``_work`` took ``sample_s``, in reference seconds."""
    return seconds * REF_SAMPLE_S / sample_s


class Sampler:
    """Times ``_work`` every ``EVERY_S`` wall seconds from ``SIGALRM``.

    The handler runs in the main thread between two bytecodes of whatever is
    running.  The garbage collector is off while it samples: its passes cost
    in proportion to the program's heap, which would make the sample measure
    the heap too.
    """

    def __init__(self) -> None:
        self.samples = []  # seconds each run of _work took
        self.spent = 0.0  # wall seconds spent in the handler

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        """Stop the timer, taking one last sample to close the last interval."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def mark(self) -> tuple[float, float, int]:
        """A point in time: (wall clock, time spent sampling so far, samples so far)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.spent, len(self.samples)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def interval(self, a: tuple, b: tuple) -> tuple[float, float]:
        """(wall seconds from mark a to mark b without sampling, mean sample meanwhile).

        The mean is over the samples taken between the marks, the last one
        before ``a`` and the first one after ``b``, so ``b`` must be followed
        by a sample (``stop`` takes one) before this is called.
        """
        near = self.samples[max(a[2] - 1, 0):b[2] + 1]
        return (b[0] - a[0]) - (b[1] - a[1]), sum(near) / len(near)
