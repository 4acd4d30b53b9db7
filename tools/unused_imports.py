"""Report imports that a module of the library, its tests or its tools
never uses.

    python tools/unused_imports.py

Parses each ``src/polyjet/*.py`` except ``__init__.py``, which imports
names to re-export them, and each ``tests/*.py`` and ``tools/*.py``, and
prints every name bound by an ``import`` or ``from ... import``
(``from __future__`` aside) that the module never reads as a name.  Exits
1 when it finds one, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    """(line, name) of every import of ``path`` that no ``Name`` reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def main() -> int:
    found = 0
    for folder in ("src/polyjet", "tests", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path == ROOT / "src" / "polyjet" / "__init__.py":
                continue
            for line, name in unused_imports(path):
                print(f"{path.relative_to(ROOT)}:{line}: unused import {name}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
