"""Times in reference seconds: measured time corrected for the host's drift.

The speed of this host drifts, by up to a factor of two within a minute and
by tens of percent from one second to the next, because other machines
share its processors; two identical runs of one round were seen to differ
by 50%.  A :class:`Speedometer` therefore times a fixed piece of pure-Python
work, the *reference kernel*, before and after every timed step and, while
a step runs, at most every ``PERIOD_S`` seconds at a call of a model
operator (see :func:`install_hooks`).  Each stretch of a step between two
kernel samples is scaled by ``KERNEL_NOMINAL_S`` over the mean of the two
kernel times around it: the time the stretch would have taken had the
kernel taken its nominal time.  A change to the library moves the steps
and not the kernel, so it shows in full; a drift of the host moves both and
cancels.  Kernel time is never part of a step's time.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction

import tracing

# Seconds the reference kernel takes at the reference speed.
KERNEL_NOMINAL_S = 0.005
# Longest stretch of a step without a kernel sample, when the step calls
# model operators.
PERIOD_S = 0.1


def reference_kernel() -> int:
    """A fixed piece of pure-Python work that calls nothing in the package.

    It mixes what the library spends its time on: small integer matrix
    products over tuples, dictionary updates and exact fractions.
    """
    m = ((1, 2, 0), (0, 1, 3), (4, 0, 1))
    acc = m
    seen: dict = {}
    for _ in range(250):
        acc = tuple(
            tuple(sum(acc[i][t] * m[t][j] for t in range(3)) % 1009 for j in range(3))
            for i in range(3)
        )
        seen[acc] = seen.get(acc, 0) + 1
    total = Fraction(0)
    for k in range(1, 50):
        total += Fraction(1, k)
    return len(seen) + total.denominator % 7


class Speedometer:
    """Kernel samples ``(start, end, seconds per kernel run)`` in time order."""

    def __init__(self):
        self.clock = time.perf_counter
        self.samples: list[tuple[float, float, float]] = []
        self.due = math.inf
        self.first = 0

    def sample(self, runs: int = 1) -> None:
        start = self.clock()
        for _ in range(runs):
            reference_kernel()
        end = self.clock()
        self.samples.append((start, end, (end - start) / runs))
        self.due = end + PERIOD_S

    def start(self) -> float:
        """Sample before a step (unless the last sample just ended) and
        return the step's start time."""
        if not self.samples or self.clock() - self.samples[-1][1] > 1e-3:
            self.sample(2)
        self.first = len(self.samples)
        self.due = self.samples[-1][1] + PERIOD_S
        return self.clock()

    def stop(self, t0: float) -> tuple[float, float]:
        """End the step begun at ``t0``: its own seconds and reference seconds."""
        t1 = self.clock()
        self.sample(2)
        self.due = math.inf
        around = self.samples[self.first - 1 :]
        own = ref = 0.0
        begin = t0
        for left, right in zip(around, around[1:]):
            end = min(right[0], t1)
            own += end - begin
            ref += (end - begin) * 2 * KERNEL_NOMINAL_S / (left[2] + right[2])
            begin = right[1]
        return own, ref

    def mean_kernel(self) -> float:
        return sum(s[2] for s in self.samples) / len(self.samples)


def install_hooks(lib, meter: Speedometer):
    """Let every call of a model operator take a kernel sample when one is
    due; return a callable that removes the hooks."""
    undos = []
    for fn in (lib.alcove.f_op, lib.alcove.e_op, lib.littelmann.f_op, lib.littelmann.e_op):

        def hooked(*args, _fn=fn, **kwargs):
            if meter.clock() >= meter.due:
                meter.sample()
            return _fn(*args, **kwargs)

        undos.append(tracing.replace(lib, fn, functools.wraps(fn)(hooked)))

    def undo():
        for u in reversed(undos):
            u()

    return undo
