"""Host-speed reference for the benchmark's timings.

On a shared host the speed of the interpreter drifts by a third or more
within seconds, which swamps the differences the benchmark exists to
show.  So every run also times a fixed piece of pure-Python work that
does not touch localsim, a reference sample: on a 0.25 s timer while
blocks run, after every block and after every set-up.  A pace is the
median of some samples divided by REFERENCE_S, the reference's median on
the host where the benchmark was defined (a 2-vCPU VM running Python
3.11.7).  Reported times are divided by the pace and throughputs
multiplied by it, so they read as times on that host at its usual speed;
the raw figures and the paces are printed alongside.  A change to
localsim cannot move the reference, so it moves the reported figures as
it moves the raw ones.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

# median seconds of one reference sample on the defining host
REFERENCE_S = 0.0135

# seconds between reference samples while blocks run
INTERVAL_S = 0.25


def _reference_work() -> int:
    # interpreter-bound like localsim: small tuples, dict updates, sorting, str
    acc = 0
    for i in range(2500):
        table = {}
        for j in range(20):
            key = (i % 7, j, i ^ j)
            table[key] = table.get(key, 0) + j
        acc += len(sorted(table, reverse=True)) + len(str(acc))
    return acc


def reference_sample() -> float:
    """Seconds one run of the reference work takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Reference samples of one phase of a run.

    Inside `running()` an interval timer interrupts whatever is running
    every INTERVAL_S and takes a sample, so a long operation is sampled
    while it runs, not only between operations.  `clock()` is
    `perf_counter()` less the time spent in samples: timings read from it
    leave the samples out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            d = reference_sample()
            self.samples.append(d)
            self.spent += d
        finally:
            self._busy = False

    def clock(self) -> float:
        """Seconds on the performance counter, samples excluded."""
        while True:
            n = len(self.samples)
            t = time.perf_counter() - self.spent
            # a sample that landed between the two reads changes the count
            if len(self.samples) == n:
                return t

    @contextlib.contextmanager
    def running(self):
        """Sample on a timer for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, first: int = 0, end: int | None = None) -> float:
        """How much slower than usual the host ran, from samples `first` up
        to `end` (by default the last): above 1 means slower."""
        return statistics.median(self.samples[first:end]) / REFERENCE_S
