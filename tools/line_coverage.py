"""List every executable line of ``src/polyjet`` that Tier-1 never runs.

    python tools/line_coverage.py

Runs the Tier-1 suite (``pytest tests``) in this process under a stdlib
``sys.settrace`` tracer that traces only frames of ``src/polyjet`` files,
so the rest of the run pays little for it.  The hypothesis seed is fixed
at 0, so a tree gives the same verdict on every run; a line that only
some random draws reach needs a test of its own.  A line is executable when
some bytecode of its file starts there (``dis.findlinestarts`` over every
code object the file compiles to).  Every executable line that no frame
ran is printed as ``file:line: source``.

``tools/line_coverage_allow.txt`` lists the lines that may stay unrun, one
per entry, each keyed by its file and its stripped source text rather than
by its line number, and each with the reason it stays.  The tool exits 1
when an unrun line has no entry, or when an entry matches no unrun line
(the list only shrinks), and 0 otherwise.

The tool judges lines only; the Tier-1 run judges the tests, so pytest's
exit status is printed but is not the tool's verdict.  Under the tracer a
few tests fail by design: the tracer's frames hold references to the
objects they saw, so the tests that assert an expression walk or a
dropped Hamilton space leaves no reference cycle behind
(``test_walks_leave_no_reference_cycles``,
``test_derivatives_leave_no_nodes_and_no_cycles_behind`` and
``test_a_dropped_hamilton_space_frees_the_derivatives_it_kept``) fail
here and pass in a plain run.  Tier-1 takes about four times as long
under the tracer as without it: about two minutes on a 2-core machine.
"""

from __future__ import annotations

import dis
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyjet"
ALLOW = Path(__file__).resolve().parent / "line_coverage_allow.txt"


def executable_lines(path: Path) -> set:
    """The line numbers at which some bytecode of ``path`` starts."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        # a module's code opens with an instruction at line 0 (3.11)
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run_tier1() -> tuple:
    """Run Tier-1 under the tracer; returns pytest's exit status and, for
    each traced file, the set of lines that ran."""
    prefix = str(PACKAGE) + "/"
    ran: dict = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    import pytest

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                              "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(status), ran


def read_allowlist() -> Counter:
    """(file, stripped source) -> how many unrun lines with that text the
    allowlist admits."""
    allowed = Counter()
    for raw in ALLOW.read_text().splitlines():
        if raw.strip() and not raw.startswith("#"):
            name, source, _reason = (part.strip() for part in raw.split(" | ", 2))
            allowed[name, source] += 1
    return allowed


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = run_tier1()
    print(f"pytest exit status {status} (not the verdict; see the docstring)")
    allowed = read_allowlist()
    unlisted = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            key = (path.name, source[line - 1].strip())
            if allowed[key]:
                allowed[key] -= 1
                print(f"allowed  {path.name}:{line}: {key[1]}")
            else:
                unlisted.append(f"{path.name}:{line}: {key[1]}")
    stale = [f"{name}: {text}" for (name, text), left in allowed.items() for _ in range(left)]
    for entry in unlisted:
        print(f"UNRUN    {entry}")
    for entry in stale:
        print(f"STALE    allowlist entry matches no unrun line: {entry}")
    print(f"{len(unlisted)} unrun lines not in the allowlist, {len(stale)} stale entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
