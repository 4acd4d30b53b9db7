"""Time the Hamilton-space build, the canonical connections and the
connection law over a range of dimensions (m, n).

Each row builds a seeded gravitational space from ``tests/geomgen.py``
(seed 3, two shears), its chart-B pullback and chart-B ``HamiltonSpace``
("build"), the canonical nonlinear connection in both charts ("conn"), and
checks the connection law between them at 20 sample points to 1e-8
("law").  It then checks the law again at 20 points of a second seed
("law2"): a compiled program's first run walks its ops one at a time and
every later run takes the level plan (``symbolic.Program``), so the two
checks cover both evaluation paths.  It prints the seconds of each stage
and the ``max_residual`` of both checks, and exits 1 when some law fails.

Run it from the repository root, for every row or for the rows named:

    python tools/dimension_sweep.py
    python tools/dimension_sweep.py 1x2 2x2 2x3 3x3
    python tools/dimension_sweep.py 2x7 7x2 2x8

Any m, n up to ``linalg.SYM_INVERSE_MAX_DIM`` may be named; the default
rows stop at (5, 5) to keep the run short.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from geomgen import random_spatial_metric, random_temporal_metric, random_transition  # noqa: E402
from polyjet.charts import pullback_scalar  # noqa: E402
from polyjet.connections import verify_connection_law  # noqa: E402
from polyjet.hamilton import (  # noqa: E402
    HamiltonSpace,
    canonical_nonlinear_connection,
    gravitational_space,
)
from polyjet.metrics import pullback_metric  # noqa: E402

ROWS = ((1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (2, 5), (5, 2), (5, 5))
SEED = 3
SHEARS = 2
SAMPLES = 20
SECOND_SEED = 1
LAW_TOL = 1e-8


def sweep_row(m: int, n: int):
    """(build_s, conn_s, law_s, law report, second law report) for one
    (m, n)."""
    rng = np.random.default_rng(SEED)
    tm = random_transition(m, n, rng, shears=SHEARS)
    h, phi = random_temporal_metric(m, rng), random_spatial_metric(n, rng)

    start = time.perf_counter()
    space_a = gravitational_space(h, phi)
    space_b = HamiltonSpace(pullback_metric(h, tm), n,
                            pullback_scalar(space_a.hamiltonian, tm))
    built = time.perf_counter()
    N_a = canonical_nonlinear_connection(space_a)
    N_b = canonical_nonlinear_connection(space_b)
    connected = time.perf_counter()
    report = verify_connection_law(N_a, N_b, tm, dom=tm.chart.sample_domain(count=SAMPLES),
                                   tol=LAW_TOL)
    checked = time.perf_counter()
    again = verify_connection_law(N_a, N_b, tm,
                                  dom=tm.chart.sample_domain(count=SAMPLES, seed=SECOND_SEED),
                                  tol=LAW_TOL)
    return built - start, connected - built, checked - connected, report, again


def parse_row(text: str) -> tuple[int, int]:
    m, sep, n = text.partition("x")
    if not (sep and m.isdigit() and n.isdigit()):
        print(f"a row is written MxN, like 2x3; got {text!r}", file=sys.stderr)
        raise SystemExit(2)
    return int(m), int(n)


def main(argv: list[str]) -> int:
    rows = [parse_row(arg) for arg in argv] or ROWS
    print(f"{'(m, n)':8} {'build_s':>8} {'conn_s':>8} {'law_s':>8} {'max_residual':>13} "
          f"{'law2':>10}  law")
    failed = False
    for m, n in rows:
        build_s, conn_s, law_s, report, again = sweep_row(m, n)
        passed = report.passed and again.passed
        failed |= not passed
        print(f"{f'({m}, {n})':8} {build_s:8.3f} {conn_s:8.3f} {law_s:8.3f} "
              f"{report.max_residual:13.3e} {again.max_residual:10.3e}  "
              f"{'pass' if passed else 'FAIL'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
