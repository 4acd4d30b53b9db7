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

``verify`` also runs, at both seeds, on a copy of ``curved.json`` written
to a temporary file with ``fault_injection`` set to N2[1,2,1] (run name
``verify-curved-fault-seed<seed>``), so the failing-law path (its
``worst_entry``, ``worst_point`` and exit 6) is compared too.

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


def snapshot(out_dir: Path) -> int:
    """Write every run's files to ``out_dir``; returns the number of runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        report_path = str(Path(tmp) / "report.json")
        faulty = Path(tmp) / "curved-fault.json"
        curved = json.loads((ROOT / "manifests" / "curved.json").read_text())
        faulty.write_text(json.dumps({**curved, "fault_injection": FAULT}, indent=2))
        cases = [(f"{command}-{manifest.stem}", command, manifest)
                 for manifest in sorted((ROOT / "manifests").glob("*.json"))
                 for command in COMMANDS]
        cases.append(("verify-curved-fault", "verify", faulty))
        for name, command, manifest in cases:
            for seed in SEEDS:
                stem = out_dir / f"{name}-seed{seed}"
                Path(report_path).unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([command, str(manifest), "--seed", str(seed),
                                     "--json", report_path])
                printed = (stdout.getvalue() + stderr.getvalue()).replace(report_path, "REPORT")
                stem.with_suffix(".out").write_text(printed)
                stem.with_suffix(".exit").write_text(f"{code}\n")
                if Path(report_path).exists():
                    report = json.loads(Path(report_path).read_text())
                    report.pop("wall_time_s")
                    stem.with_suffix(".json").write_text(
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
