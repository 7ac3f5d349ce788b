"""Host-speed sampling, to report timings at a fixed reference speed.

The 2-vCPU VMs this benchmark runs on change speed by up to 2x for seconds
to minutes, as neighbours on the host come and go; the same op on the same
input then takes 6 s in one run and 9 s in the next.  A ``Sampler`` times a
short, fixed piece of work every ``INTERVAL_S`` from a SIGALRM handler, so
the samples interleave with the program's own bytecode on the same core and
see the same slow spells.  Like qinet, the work is part interpreter loop and
part dense linear algebra: a slow spell slows the two by different amounts,
and either kind alone tracks only the workloads made of it.

``scale(t0, t1)`` turns a wall time measured over ``[t0, t1]`` into seconds
at the speed where the work takes ``NOMINAL_S``.  The work is the
benchmark's own, so a change to qinet moves the scaled time as it moves the
wall time, while the host's spells mostly cancel out.  The handler's own
time is counted in ``spent`` and subtracted from every timing, so wall times
are those of an unsampled run (the work costs about 1% of the run).
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
PAD_S = 0.25  # samples this close to a timed interval count for it
NOMINAL_S = 5e-4  # the work's time at the reference speed (a fast spell of a 2.1 GHz Xeon VM)


class ReferenceWork:
    """Fixed work: a dict-and-integer loop, then two 128x128 matrix products."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random((128, 128)), rng.random((128, 128))
        self.out = np.empty((128, 128))

    def __call__(self):
        table = {}
        acc = 0
        for i in range(2000):
            table[i & 255] = table.get(i & 255, 0) + i
            acc += i % 7
        for _ in range(2):
            np.matmul(self.a, self.b, out=self.out)
        return acc


class Sampler:
    """Times ``ReferenceWork`` every ``INTERVAL_S`` while installed."""

    def __init__(self):
        self.work = ReferenceWork()
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # handler time so far, to subtract from timings

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.work()
        end = time.perf_counter()
        self.starts.append(start)
        self.seconds.append(end - start)
        self.spent += time.perf_counter() - start

    def install(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0, t1):
        """Reference seconds per wall second over ``[t0, t1]``: NOMINAL_S / median work time."""
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        near = self.seconds[lo:bisect.bisect_right(self.starts, t1 + PAD_S)]
        if not near:  # no sample close by: take the nearest ones
            near = self.seconds[max(lo - 1, 0):lo + 1] or [NOMINAL_S]
        return NOMINAL_S / statistics.median(near)

    def speed(self):
        """Median host speed over every sample so far, relative to the reference speed."""
        return NOMINAL_S / statistics.median(self.seconds) if self.seconds else None
