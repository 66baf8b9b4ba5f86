"""Host-speed probe: the yardstick that end-to-end times are scaled by.

The 2-vCPU virtual machine the benchmark was tuned on runs identical code
up to 1.5 times slower or faster from one stretch of time to the next, for
seconds or for half an hour, wall and CPU time alike: other guests share
the physical cores.  A fixed kernel, timed between operations, slows down
by about the same factor.  An op's wall time times `reference / probe`,
where `probe` is the median of the kernel timings nearest to the op, reads
close to what the op takes at the reference host's usual speed, whatever
the host does meanwhile.  A change to the program moves that figure in
full: the kernel is part of the benchmark and does not depend on the
program.

Ops that run two worker threads are probed by two threads at once, each
running the kernel ROUNDS[2] times: a two-thread op slows down mostly
because handing the interpreter lock between threads on different vCPUs
gets slower under load, which a single thread does not feel, and it takes
a few switch intervals (5 ms each) to feel it.  Set-up is timed in child
interpreters, which scale their import time by `probe_in_place`.
"""

from __future__ import annotations

import bisect
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Kernel runs per thread in one probe, by probe thread count.
ROUNDS = {1: 1, 2: 8}
#: Median probe time on the reference host (2.1 GHz Xeon VM, Python 3.11,
#: numpy 2.4) by thread count, so that scaled times read as seconds there.
REFERENCE_S = {1: 0.0045, 2: 0.08}
#: Least time between two probes.
EVERY_S = 0.1
#: Probes, nearest in time to an interval, whose median gives its speed.
NEAREST = 4

_X = np.linspace(0.0, 1.0, 256)


def kernel() -> float:
    """Interpreted arithmetic interleaved with small-array numpy calls, the
    mix the d2dcap layers spend their time on."""
    acc = 0.0
    for i in range(400):
        acc += float(np.hypot(_X, i * 1e-3).sum())
        for j in range(30):
            acc += (i * j) % 7 * 0.5
    return acc


def probe_in_place(runs: int = 3) -> float:
    """Scale factor from the median of `runs` single-thread probes taken now,
    for intervals measured just before in this process."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S[1] / statistics.median(times)


def _rounds(n: int) -> None:
    for _ in range(n):
        kernel()


class SpeedProbe:
    """Timings of the kernel on `threads` threads, taken between the
    measured intervals."""

    def __init__(self, threads: int = 1):
        if threads not in ROUNDS:
            raise ValueError(f"no reference probe time for {threads} threads")
        self.threads = threads
        self._mid: list[float] = []  # midpoint of each probe, ascending
        self._dur: list[float] = []  # its wall time

    def sample(self) -> None:
        rounds = ROUNDS[self.threads]
        t0 = time.perf_counter()
        if self.threads == 1:
            _rounds(rounds)
        else:
            with ThreadPoolExecutor(self.threads) as pool:
                for future in [pool.submit(_rounds, rounds) for _ in range(self.threads)]:
                    future.result()
        t1 = time.perf_counter()
        self._mid.append(0.5 * (t0 + t1))
        self._dur.append(t1 - t0)

    def maybe_sample(self) -> None:
        """Probe unless the last probe is less than EVERY_S old."""
        if not self._mid or time.perf_counter() - self._mid[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns wall time spent in [start, end] into reference
        seconds, from the NEAREST probes around it."""
        mid = 0.5 * (start + end)
        i = bisect.bisect(self._mid, mid)
        window = range(max(0, i - NEAREST), min(len(self._mid), i + NEAREST))
        near = sorted(window, key=lambda j: abs(self._mid[j] - mid))[:NEAREST]
        return REFERENCE_S[self.threads] / statistics.median(self._dur[j] for j in near)
