"""Write every command's report, output and exit code on the shipped
manifests to a directory, so two trees (or two hash seeds) can be compared
byte for byte with ``diff -r``.

Each of the four commands runs on each manifest under ``manifests/`` at
seeds 0 and 7, in one process through ``polyjet.cli.main``.  A run named
``<command>-<manifest>-seed<seed>`` writes three files to OUT_DIR:

* ``.json``: the JSON report without ``wall_time_s`` (absent when the run
  stops before writing one);
* ``.out``: what the run printed, stdout then stderr, with the report path
  replaced by ``REPORT``;
* ``.exit``: the exit code.

A name may hold dots.  The tool refuses to start when two runs would
write the same files.

Seventeen more cases run at both seeds, each one command on a copy of a shipped
manifest with some keys replaced, written to a temporary file (``VARIANTS``):

* ``verify-curved-fault``: ``fault_injection`` at N2[1,2,1], the
  failing-law path (its ``worst_entry``, ``worst_point`` and exit 6);
* ``verify-curved-quartic``: H = p1_1^4, which is not regular, so the run
  reports only the transition's round trip and the regularity check and
  exits 8;
* ``verify-curved-no-inverse``: a transition without ``t_inverse`` and
  ``x_inverse`` (exit 2);
* ``christoffel-flat-one-point-interval``: a sample interval of one
  element (exit 2);
* ``verify-curved-huge-delta`` and ``christoffel-flat-huge-m``: an
  integer of 401 digits as ``fault_injection.delta`` and as
  ``dimensions.m`` (exit 2);
* ``christoffel-flat-reversed-interval``: the sample interval [0.5, 0.1]
  (exit 2);
* ``verify-curved-fault-index-out-of-range``: ``fault_injection.index``
  [3, 1, 1] for an N2 of shape (2, 2, 2) (exit 2);
* ``christoffel-flat-long-string-m``: a string of 100,000 characters as
  ``dimensions.m``, echoed by its type and size (exit 2);
* ``christoffel-flat-long-key``: an unknown top-level key of 100,000
  characters, echoed by its first 20 characters and its length (exit 2);
* ``christoffel-flat-many-point-names``: an ``evaluation_point`` with
  20,000 unknown names, echoed by the first three and the count of the
  rest (exit 2);
* ``regularity-flat-cubic-momentum``: the hamiltonian plus the harmonic
  cubic 1e-7 (p1_1^3 - 3 p1_1 p1_2^2), with p1_1 and p1_2 sampled in
  [-0.001, 0.001].  On that box the deviation E = G - h g peaks at
  2.688e-10 at seed 0 (2.872e-10 at seed 7), and the extracted potential
  term's momentum derivative, 2E, stays within tolerance too, so the
  hamiltonian is regular (exit 0);
* ``regularity-flat-cubic-momentum-3e-7``: the same with the cubic 3e-7,
  where E peaks at 8.064e-10 (8.617e-10): G factors within tolerance, but
  2E does not, so the extracted potential term depends on p1_1 and the
  regularity check fails (exit 8);
* ``verify-flat-cubic-momentum-chart-b``: ``verify`` with the cubic
  1.7e-7 on the same box.  Chart B, reached by the identity transition,
  is sampled at the next seed.  At seed 0, E peaks at 4.569e-10 on chart
  A's points, so A is regular, but at 5.028e-10 on chart B's, where 2E
  exceeds the tolerance: the ``kronecker-regularity:chart-B`` check fails
  and the run stops there (exit 8).  At seed 7 both charts pass (E peaks
  at 4.883e-10 and 4.438e-10) and the battery runs (exit 0);
* ``christoffel-curved-long-constant-key`` and
  ``christoffel-curved-long-identifier``: a ``constants`` key and an
  unknown identifier in the hamiltonian of 100,000 characters each,
  echoed by the first 20 characters and the length (exit 2);
* ``christoffel-curved-asymmetric-metric``: a spatial metric with x1 at
  (1, 2) and 0 at (2, 1), which the symmetry check names (exit 2).

Run it from the repository root, then compare two snapshots:

    python tools/report_snapshot.py /tmp/snap-a
    python tools/report_snapshot.py /tmp/snap-b
    diff -r /tmp/snap-a /tmp/snap-b
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polyjet import cli  # noqa: E402

COMMANDS = ("christoffel", "regularity", "connection", "verify")
SEEDS = (0, 7)


FAULT = {"block": "N2", "index": [1, 2, 1]}
CURVED = json.loads((ROOT / "manifests" / "curved.json").read_text())
FLAT = json.loads((ROOT / "manifests" / "flat.json").read_text())


def _flat_cubic(command: str, c: str) -> tuple:
    """``command`` on flat.json plus the harmonic cubic c (p1_1^3 -
    3 p1_1 p1_2^2), with p1_1 and p1_2 sampled in [-0.001, 0.001]."""
    return (command, FLAT, {
        "hamiltonian": FLAT["hamiltonian"] + f" + {c}*(p1_1^3 - 3*p1_1*p1_2^2)",
        "sample_domain": {**FLAT["sample_domain"], "intervals": {
            "p1_1": [-0.001, 0.001], "p1_2": [-0.001, 0.001]}}})


# run name: (command, manifest, the keys that replace the manifest's)
VARIANTS = {
    "verify-curved-fault": ("verify", CURVED, {"fault_injection": FAULT}),
    "verify-curved-quartic": ("verify", CURVED, {"hamiltonian": "p1_1^4"}),
    "verify-curved-no-inverse": ("verify", CURVED, {"transition": {
        key: maps for key, maps in CURVED["transition"].items() if "inverse" not in key}}),
    "christoffel-flat-one-point-interval": ("christoffel", FLAT, {"sample_domain": {
        **FLAT["sample_domain"], "intervals": {"t1": [0.1]}}}),
    "verify-curved-huge-delta": ("verify", CURVED, {
        "fault_injection": {**FAULT, "delta": 10**400}}),
    "christoffel-flat-huge-m": ("christoffel", FLAT, {"dimensions": {"m": 10**400, "n": 2}}),
    "christoffel-flat-reversed-interval": ("christoffel", FLAT, {"sample_domain": {
        **FLAT["sample_domain"], "intervals": {"t1": [0.5, 0.1]}}}),
    "verify-curved-fault-index-out-of-range": ("verify", CURVED, {
        "fault_injection": {**FAULT, "index": [3, 1, 1]}}),
    "christoffel-flat-long-string-m": ("christoffel", FLAT, {
        "dimensions": {"m": "x" * 100_000, "n": 2}}),
    "christoffel-flat-long-key": ("christoffel", FLAT, {"k" * 100_000: 1}),
    "christoffel-flat-many-point-names": ("christoffel", FLAT, {
        "evaluation_point": {f"y{k}": 0.0 for k in range(20_000)}}),
    "regularity-flat-cubic-momentum": _flat_cubic("regularity", "1e-7"),
    "regularity-flat-cubic-momentum-3e-7": _flat_cubic("regularity", "3e-7"),
    "verify-flat-cubic-momentum-chart-b": _flat_cubic("verify", "1.7e-7"),
    "christoffel-curved-long-constant-key": ("christoffel", CURVED, {
        "constants": {"k" * 100_000: "x"}}),
    "christoffel-curved-long-identifier": ("christoffel", CURVED, {
        "hamiltonian": "y" * 100_000}),
    "christoffel-curved-asymmetric-metric": ("christoffel", CURVED, {
        "spatial_metric": [["exp(2*x1)", "x1"], ["0", "1"]]}),
}


def snapshot(out_dir: Path) -> int:
    """Write every run's files to ``out_dir``; returns the number of runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        report_path = str(Path(tmp) / "report.json")
        cases = [(f"{command}-{manifest.stem}", command, manifest)
                 for manifest in sorted((ROOT / "manifests").glob("*.json"))
                 for command in COMMANDS]
        for name, (command, base, changes) in VARIANTS.items():
            manifest = Path(tmp) / f"{name}.json"
            manifest.write_text(json.dumps({**base, **changes}, indent=2))
            cases.append((name, command, manifest))
        stems = [f"{name}-seed{seed}" for name, _, _ in cases for seed in SEEDS]
        if len(set(stems)) < len(stems):
            raise ValueError("two runs would write the same files")
        for name, command, manifest in cases:
            for seed in SEEDS:
                stem = f"{name}-seed{seed}"
                Path(report_path).unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([command, str(manifest), "--seed", str(seed),
                                     "--json", report_path])
                printed = (stdout.getvalue() + stderr.getvalue()).replace(report_path, "REPORT")
                (out_dir / f"{stem}.out").write_text(printed)
                (out_dir / f"{stem}.exit").write_text(f"{code}\n")
                if Path(report_path).exists():
                    report = json.loads(Path(report_path).read_text())
                    report.pop("wall_time_s")
                    (out_dir / f"{stem}.json").write_text(
                        json.dumps(report, sort_keys=True, indent=2) + "\n")
                runs += 1
    return runs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs = snapshot(Path(args[0]))
    print(f"{runs} runs written to {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
