"""Golden-report regression: the CLI reports for the shipped manifests at
seed 7 must match the committed files in tests/golden/ byte for byte.

Only ``wall_time_s`` is ignored.  For ``verify`` the per-check
``max_residual``, ``worst_point`` and ``worst_entry`` are ignored as well:
they come out of LAPACK and einsum rounding, which differ between
machines.  Every other number in these reports comes from the pure-Python
compiled programs and does not.

Regenerate the files (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from polyjet.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = ("flat", "curved", "nonregular")
COMMANDS = ("connection", "regularity", "christoffel", "verify")
SEED = "7"
_MACHINE_DEPENDENT = ("max_residual", "worst_point", "worst_entry")


def canonical(command: str, report: dict) -> str:
    """Report text with the fields outside the comparison removed."""
    report = dict(report)
    report.pop("wall_time_s", None)
    if command == "verify":
        report["checks"] = [{k: v for k, v in c.items() if k not in _MACHINE_DEPENDENT}
                            for c in report["checks"]]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def produce(command: str, manifest: str, out: Path):
    """Exit code and canonical report text (None when no report was written)."""
    code = main([command, str(ROOT / "manifests" / f"{manifest}.json"),
                 "--seed", SEED, "--json", str(out)])
    text = canonical(command, json.loads(out.read_text())) if out.exists() else None
    return code, text


@pytest.mark.parametrize("manifest", MANIFESTS)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(tmp_path, command, manifest):
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, text = produce(command, manifest, tmp_path / "report.json")
    assert code == exits[f"{command}-{manifest}"]
    golden = GOLDEN / f"{command}-{manifest}.json"
    if text is None:
        assert not golden.exists()
    else:
        assert text == golden.read_text()


def regenerate(scratch: Path):
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for command in COMMANDS:
        for manifest in MANIFESTS:
            out = scratch / f"{command}-{manifest}.json"
            code, text = produce(command, manifest, out)
            exits[f"{command}-{manifest}"] = code
            if text is not None:
                (GOLDEN / f"{command}-{manifest}.json").write_text(text)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exits, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
