"""Reference kernels, and a clock that times jobs against them.

The cores this benchmark runs on may be shared, and their speed then
drifts by tens of percent over a few seconds.  The clock runs a fixed
reference kernel between jobs and divides each stretch of job time by the
kernel time measured around it, which cancels most of that drift.  Both
kernels use nothing from polyjet, so no change to the program can change
them:

* ``Kernel`` walks a fixed synthetic expression DAG with an identity memo,
  the same kind of work as polyjet's evaluator;
* ``ProcessKernel`` starts a fresh interpreter that imports a fixed set of
  standard-library modules, the same kind of work as starting the CLI.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time

# Job time accumulated before the clock measures the kernel again.
FLUSH_S = 0.25


def _tree(layers: int = 30, width: int = 200, seed: int = 20081):
    """A shallow random DAG: each node combines 2-4 nodes of the layer below,
    so the walk stays about ``layers`` calls deep."""
    rnd = random.Random(seed)
    below = [("c", rnd.uniform(0.5, 1.5)) for _ in range(16)]
    below += [("v", i) for i in range(8)]
    for _ in range(layers):
        below = [(rnd.choice("spq"),
                  tuple(rnd.choice(below) for _ in range(rnd.randint(2, 4))))
                 for _ in range(width)]
    return ("s", tuple(below))


def _evaluate(node, point, memo) -> float:
    # a plain function, not a closure over itself, so each walk's memo is
    # freed when the walk ends instead of waiting for the cycle collector
    key = id(node)
    if key in memo:
        return memo[key]
    kind, arg = node
    if kind == "c":
        val = arg
    elif kind == "v":
        val = point[arg]
    elif kind == "s":
        val = math.fsum(_evaluate(c, point, memo) for c in arg)
    elif kind == "p":
        val = 1.0
        for c in arg:
            val *= _evaluate(c, point, memo)
        val = math.tanh(val)
    else:
        a, b = _evaluate(arg[0], point, memo), _evaluate(arg[1], point, memo)
        val = a / (1.0 + b * b)
    memo[key] = val
    return val


class Kernel:
    """Five evaluations of the fixed tree."""

    # seconds one run takes on an unloaded 2-core Xeon; it only scales
    # reference units back to seconds
    NOMINAL_S = 0.035

    def __init__(self):
        self._root = _tree()
        self.measure()  # first call pays for warming up

    def measure(self) -> float:
        t0 = time.perf_counter()
        for i in range(5):
            _evaluate(self._root, [0.1 * i] * 8, {})
        return time.perf_counter() - t0


class ProcessKernel:
    """A fresh interpreter importing standard-library modules."""

    NOMINAL_S = 0.11  # as Kernel.NOMINAL_S

    COMMAND = (sys.executable, "-c", "import argparse, dataclasses, decimal, "
               "email.parser, fractions, hashlib, json, statistics")

    def __init__(self):
        self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        # with its output piped, run() sees the exit at once; without
        # pipes, a timeout makes it poll the child only every 50 ms
        subprocess.run(self.COMMAND, capture_output=True, check=True, timeout=60)
        return time.perf_counter() - t0


class Clock:
    """Times jobs in seconds and in kernel units ("ref").

    ``time(key, fn)`` runs one job; ``key`` names the job within a round.
    Once at least FLUSH_S of job time has piled up, the kernel runs again
    and every job of that stretch is divided by the mean of the kernel
    times at the stretch's two ends.  ``lap()`` closes the current round
    and returns its jobs as (key, seconds, ref).
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self._last = kernel.measure()
        self._pending: list[tuple[str, float]] = []
        self._pending_s = 0.0
        self._jobs: list[tuple[str, float, float]] = []
        self.kernel_times: list[float] = [self._last]
        self.last = 0.0

    def time(self, key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.last = time.perf_counter() - t0
            self._pending.append((key, self.last))
            self._pending_s += self.last
            if self._pending_s >= FLUSH_S:
                self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        now = self._kernel.measure()
        self.kernel_times.append(now)
        unit = (self._last + now) / 2
        self._jobs += [(key, s, s / unit) for key, s in self._pending]
        self._last = now
        self._pending, self._pending_s = [], 0.0

    @property
    def elapsed(self) -> float:
        """Job seconds so far in the current round."""
        return sum(s for _, s, _ in self._jobs) + self._pending_s

    def lap(self) -> list[tuple[str, float, float]]:
        self._flush()
        out, self._jobs = self._jobs, []
        return out

    @property
    def nominal_s(self) -> float:
        return self._kernel.NOMINAL_S

    def kernel_median(self) -> float:
        return statistics.median(self.kernel_times)
