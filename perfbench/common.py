"""What every workload shares: run context, answer ledger, timed rounds.

Each workload is a closed loop with one job in flight: a job is one CLI
process, one law check or one space build, and the next starts when the
previous one has finished.  A workload runs rounds of jobs until its time
is up and reports a typical round, in seconds and in reference-kernel
units (see reference.py).  Only job time counts towards a round; checking
the answers does not.

With tracing on, the timed phase is split in two halves, untraced then
traced, so the difference between their typical rounds is the tracing
overhead.

This module imports neither numpy nor polyjet: the CLI workload's own
process stays small, so the peak memory its children report is theirs.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reference import Clock, ProcessKernel

LAW_TOL = 1e-8
EQUIV_TOL = 1e-9
FORMS = ("canonical_nonlinear_connection", "canonical_connection_middle_form",
         "canonical_connection_closed_form")


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; ``smoke`` is the smallest useful run."""

    import_repeats: int = 5
    setup_repeats: int = 3
    sweep_points: int = 4
    build_dims: tuple = (2, 3)
    build_shears: int = 2


SIZES = {
    "full": Sizes(),
    "smoke": Sizes(import_repeats=1, setup_repeats=1, sweep_points=1,
                   build_dims=(2, 2), build_shears=1),
}


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    workdir: Path
    clock: Clock

    def derive(self, *keys: int) -> int:
        """A sub-seed for one input or job, fixed by the workload seed."""
        text = ",".join(map(str, (self.seed, *keys))).encode()
        return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


@dataclass
class Ledger:
    """Jobs attempted and the ones whose answer was wrong."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, label: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def run(self, label: str, fn):
        """Call fn as one job; an exception counts as a failed job."""
        try:
            return fn()
        except Exception:
            self.record(False, label, traceback.format_exc(limit=3))
            return None


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    notes: list = field(default_factory=list)
    ledger: Ledger = field(default_factory=Ledger)
    layer_times: dict = field(default_factory=dict)
    probe: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; with ten samples or fewer, the smallest sample."""
    ordered = sorted(values)
    rank = max(len(ordered) - 10, 1)
    return float(ordered[rank - 1]), 100.0 * rank / len(ordered)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env(ctx: Context) -> dict:
    env = dict(os.environ)
    src = str(ctx.root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def timed_setup(clock: Clock, key: str, fn, repeats: int):
    """Run one set-up step ``repeats`` times on ``clock``.

    Returns (last result, median seconds, median seconds at the reference
    kernel's nominal speed, that is ref units times its NOMINAL_S).
    """
    clock.lap()
    result = None
    for _ in range(repeats):
        result = None  # let the previous result go before the next run
        result = clock.time(key, fn)
    jobs = clock.lap()
    return (result, median([s for _, s, _ in jobs]),
            median([r for _, _, r in jobs]) * clock.nominal_s)


def import_floor(ctx: Context, module: str) -> tuple[float, float]:
    """Median (seconds, nominal seconds) of a fresh interpreter that only
    imports ``module``, timed against a fresh interpreter."""
    _, seconds, nominal = timed_setup(
        Clock(ProcessKernel()), "import", lambda: subprocess.run(
            [sys.executable, "-c", f"import {module}"], env=child_env(ctx),
            capture_output=True, check=True, timeout=120),
        ctx.sizes.import_repeats)
    return seconds, nominal


def record_setup(result: Result, seconds: float, nominal: float) -> None:
    """setup_s is set-up time at the reference kernels' nominal speed;
    the raw seconds print as setup_raw_s."""
    result.metrics["setup_s"] = (nominal, "s")
    result.metrics["setup_raw_s"] = (seconds, "s")


def timed_rounds(ctx: Context, body, min_rounds: int = 1) -> dict:
    """Rounds of ``body(round, mode)`` while another round of median length
    still fits in the run's time (at least ``min_rounds`` of them).

    ``mode`` is None, or "traced" in the second half of a traced run.
    Returns {mode: [the jobs of each round, as Clock.lap() gives them]}.
    """
    halves = [(None, ctx.seconds / 2), ("traced", ctx.seconds / 2)] if ctx.trace \
        else [(None, ctx.seconds)]
    least = -(-min_rounds // len(halves))
    rounds, index = {}, 0
    for mode, budget in halves:
        laps, spans = rounds.setdefault(mode, []), []
        start = time.perf_counter()
        ctx.clock.lap()
        while (len(laps) < least
               or time.perf_counter() - start + median(spans) <= budget):
            t0 = time.perf_counter()
            body(index, mode)
            laps.append(ctx.clock.lap())
            spans.append(time.perf_counter() - t0)
            index += 1
    return rounds


def typical_round(laps: list) -> tuple[float, float]:
    """(seconds, ref) of a typical round: each job's median over the
    rounds, summed over the jobs.  A job slowed by a burst of outside load
    in one round does not move it."""
    per_key: dict = {}
    for jobs in laps:
        totals: dict = {}
        for key, seconds, ref in jobs:
            acc = totals.setdefault(key, [0.0, 0.0])
            acc[0] += seconds
            acc[1] += ref
        for key, acc in totals.items():
            per_key.setdefault(key, []).append(acc)
    return tuple(sum(median([acc[k] for acc in accs]) for accs in per_key.values())
                 for k in (0, 1))


def summarize_rounds(ctx: Context, result: Result, rounds: dict) -> None:
    """wall_s and wall_ref from the untraced rounds; tracing overhead."""
    plain = typical_round(rounds[None])
    result.metrics["wall_s"] = (plain[0], "s")
    result.metrics["wall_ref"] = (plain[1], "ref")
    result.notes.append(
        f"{sum(map(len, rounds.values()))} rounds (s/ref) "
        + " ".join(f"{sum(j[1] for j in jobs):.3f}/{sum(j[2] for j in jobs):.2f}"
                   for laps in rounds.values() for jobs in laps)
        + f"; reference kernel median {ctx.clock.kernel_median():.4f} s")
    if rounds.get("traced"):
        traced = typical_round(rounds["traced"])
        result.probe["overhead_s"] = traced[0] - plain[0]
        result.probe["overhead_ref"] = traced[1] - plain[1]
