"""Host-speed calibration: a fixed kernel timed in between the workload's calls.

On a shared host the same code runs up to 70% slower for a second or a
minute at a time, because other tenants contend for the cores and caches;
wall time and CPU time drift alike.  The benchmark therefore runs a small
fixed kernel of its own about every ``EVERY_S`` seconds and turns raw
timestamps into reference seconds: each stretch between two kernel runs is
rescaled by how fast the kernel ran at its two ends, and the kernel's own
time counts for nothing.  The kernel is code of the benchmark, not of the
library, so a change to the library moves reference seconds exactly as it
moves raw ones.

A reference second is a second on a host where one kernel run takes
``REF_KERNEL_S``, the fast state of the 2-vCPU Xeon VM the baseline was
measured on.
"""

from __future__ import annotations

import bisect
import random
import time

import numpy as np

# one kernel run on the reference host, seconds
REF_KERNEL_S = 0.65e-3
# run the kernel again once this much time has passed since the last run
EVERY_S = 0.01

# the kernel's inputs: a sparse random graph and a small float matrix, like
# the workload's own mix of Python graph walks and small numpy arrays
_RNG = random.Random(20230525)
_N = 240
_ADJ = [[] for _ in range(_N)]
for _ in range(440):
    _a, _b = _RNG.randrange(_N), _RNG.randrange(_N)
    if _a != _b:
        _ADJ[_a].append(_b)
        _ADJ[_b].append(_a)
_MAT = np.array([[_RNG.random() for _ in range(48)] for _ in range(48)])


def kernel():
    """Breadth-first search from every 40th node, then a few matrix products."""
    total = 0.0
    for src in range(0, _N, 40):
        dist = {src: 0}
        queue = [src]
        for v in queue:
            dv = dist[v] + 1
            for w in _ADJ[v]:
                if w not in dist:
                    dist[w] = dv
                    queue.append(w)
        total += sum(dist.values()) / len(dist)
    m = _MAT
    for _ in range(8):
        m = np.tanh(m @ _MAT) * 0.5
    return total + float(m.sum())


class ReferenceClock:
    """Kernel runs taken during a run, and the raw -> reference time map.

    ``tick()`` runs the kernel when ``EVERY_S`` has passed since the last
    run; ``force(runs)`` runs it ``runs`` times regardless.  Record raw
    ``time.perf_counter()`` stamps, and convert them with :meth:`mapper`
    once the run is over.
    """

    def __init__(self):
        self.runs = []  # (start, end) of every kernel run, in order
        self._last = float("-inf")

    def force(self, runs=1):
        for _ in range(runs):
            start = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.runs.append((start, self._last))

    def tick(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.force()

    def kernel_seconds(self):
        return [end - start for start, end in self.runs]

    def mapper(self):
        """A function from a raw stamp to reference seconds.

        Between kernel runs k-1 and k time runs at ``REF_KERNEL_S`` over the
        mean of their two durations; inside a run it stands still; before
        the first and after the last run the nearest run's speed holds.
        """
        if not self.runs:
            raise RuntimeError("no speed kernel run")
        starts = [s for s, _ in self.runs]
        ends = [e for _, e in self.runs]
        cost = self.kernel_seconds()
        scale = [REF_KERNEL_S / cost[0]]  # scale of the stretch before run k
        scale += [2.0 * REF_KERNEL_S / (a + b) for a, b in zip(cost, cost[1:])]
        scale.append(REF_KERNEL_S / cost[-1])
        at_start = [0.0]  # reference time at the start of run k
        for k in range(1, len(starts)):
            at_start.append(at_start[-1] + (starts[k] - ends[k - 1]) * scale[k])

        def to_reference(t):
            k = bisect.bisect_right(starts, t)  # runs that started by t
            if k == 0:
                return (t - starts[0]) * scale[0]
            if t <= ends[k - 1]:
                return at_start[k - 1]
            return at_start[k - 1] + (t - ends[k - 1]) * scale[k]

        return to_reference
