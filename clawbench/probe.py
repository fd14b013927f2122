"""Machine-speed probe, run in a child process.

On a shared host whose other tenants come and go, the same Python work can
take twice as long in one second as in the next, and 30% longer in one minute
than in the next. `Probe` starts one child process that does not import
clawpack. Every `PROBE_INTERVAL_S` of wall time SIGALRM stops the benchmark,
which moves the child onto the CPU the benchmark was running on and waits for
one sample: the child runs a fixed loop once to warm its caches, then times it
`PROBE_LOOPS` times and reports the mean. The two processes never run at once,
and the child shares no heap, garbage collector or objects with the program.
The wall time spent waiting for samples is left out of every interval the
benchmark measures, and each interval is rescaled by `PROBE_REF_S / mean
sample` over the samples taken during it and the two before it, so it reads
as seconds on a host that runs the loop in `PROBE_REF_S`.

    python3 clawbench/probe.py     # the child: one sample per line of input
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.2
PROBE_REF_S = 0.007
PROBE_LOOPS = 2
PROBE_VERTICES = 3000


def make_graph():
    rng = random.Random(0)
    n = PROBE_VERTICES
    weights = [Fraction(rng.randint(1, 10)) for _ in range(n)]
    adj = [frozenset(rng.sample(range(n), 6)) for _ in range(n)]
    return weights, adj, frozenset(range(0, n, 3))


def loop(weights, adj, members) -> Fraction:
    """A scan shaped like clawpack's claw search: set algebra, sums of
    squared Fraction weights, sorting, over a fixed random graph."""
    acc = Fraction(0)
    for i in range(120):
        c = (i * 37) % len(adj)
        for u in sorted(v for v in adj[c] if v not in members):
            removed = sum((weights[x] * weights[x] for x in adj[u] & members), Fraction(0))
            if weights[u] * weights[u] > removed:
                acc += weights[u]
    return acc


def child() -> None:
    graph = make_graph()
    for _ in sys.stdin:
        loop(*graph)
        times = []
        for _ in range(PROBE_LOOPS):
            t0 = time.perf_counter()
            loop(*graph)
            times.append(time.perf_counter() - t0)
        print(statistics.fmean(times), flush=True)


class Probe:
    """Context manager around the child and the timer. `spent` is the wall
    time spent waiting for samples."""

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old = signal.signal(signal.SIGALRM, self._fire)
        self._fire(None, None)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.proc.stdin.close()
        self.proc.wait()

    def _fire(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        with open("/proc/self/stat", "rb") as fh:
            # field 39, the CPU this process last ran on
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("probe process ended")
        self.samples.append(float(line))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """Wall time since `mark` without the sampling in it, as measured
        and rescaled by the samples taken in it and the two before."""
        t0, spent0, i0 = mark
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        return wall, wall * PROBE_REF_S / statistics.fmean(self.samples[max(0, i0 - 2):])

    def factor(self) -> float:
        """Rescaling factor over the whole run."""
        return PROBE_REF_S / statistics.fmean(self.samples)


if __name__ == "__main__":
    child()
