"""Host-speed probe: samples how fast the host runs while a job runs.

This host's vCPU speed drifts by up to 2x within seconds, and a kernel timed
before and after a job often catches a different speed from the one the job
ran at.  :class:`Probe` instead interrupts the running job with a SIGALRM
timer every :data:`PERIOD_S` and times a fixed micro-kernel in the
handler, so the samples cover the job's own time window.  A job's time
divided by the mean probe time is then close to constant across the host's
fast and slow phases, and the probes' own time is subtracted from the job's.

The handler runs the kernel once untimed and then times a second pass.  A
probe often lands right after one of the job's large array operations, with
the kernel's code and data evicted from the caches; a single cold pass then
read 1.6x slower inside a job of 2^23-element arrays than inside a
call-bound job, so a change to the job's memory traffic would have moved
the denominator.  The warm pass reads within a few percent in both (the
self-check tests this; it is typically about 4% slower in the heavy job).

The kernel uses numpy only, never the package under test.  Among the
kernels tried (pure-Python calls and strings, integer loops, generator
seeding, small and large numpy calls) small numpy calls slowed most like the
simulate and corpus jobs when the host slowed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.005

# Fewer probes than this in a job are topped up right after it.
MIN_SAMPLES = 20

# Probe time during an import at this host's fast phase (2-vCPU Intel Xeon,
# Python 3.11); converts probe units back to seconds for ``setup_s``.
REFERENCE_S = 35e-6

_SMALL = np.linspace(0.0, 1.0, 16)


def kernel() -> None:
    """Small numpy calls: call-bound work, as in the jobs' inner loops."""
    for _ in range(10):
        np.searchsorted(_SMALL, 0.5)
        _SMALL.sum()


class Probe:
    """Context manager that samples :func:`kernel` times while it is open.

    Samples accumulate across openings until :meth:`reset`.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self._spent += t2 - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reset(self) -> None:
        self.samples.clear()
        self._spent = 0.0

    def spent(self) -> float:
        """Seconds the probes themselves took, warm-up passes included."""
        return self._spent

    def mean(self) -> float:
        """Mean probe time, topping up to :data:`MIN_SAMPLES` samples first."""
        while len(self.samples) < MIN_SAMPLES:
            self._handler(None, None)
        return sum(self.samples) / len(self.samples)
