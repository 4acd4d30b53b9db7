"""Report imports that a module of the library, its tests or its tools
never uses, private names of the library that no module of it reads, and
public constants of the library that nothing in the repository reads.

    python tools/unused_imports.py

Parses each ``src/polyjet/*.py`` except ``__init__.py``, which imports
names to re-export them, and each ``tests/*.py`` and ``tools/*.py``, and
prints every name bound by an ``import`` or ``from ... import``
(``from __future__`` aside) that the module never reads as a name.  It
also prints every module-level private function, class or constant of
``src/polyjet`` (a name with one leading underscore) that no statement of
``src/polyjet`` reads but the one that defines it, so a helper left behind
when its last caller goes is caught, and every module-level UPPER_CASE
constant of ``src/polyjet`` that no statement under ``src/polyjet``,
``tests``, ``tools`` or ``perfbench`` reads but the one that defines it,
so a setting that nothing consults is caught.  Exits 1 when it finds any
of these, 0 otherwise.
"""

from __future__ import annotations

import ast
import re
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


def _bound(stmt) -> list:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [node.id for target in targets if target is not None
            for node in ast.walk(target) if isinstance(node, ast.Name)]


def unread_names(defining, reading, wanted) -> list:
    """(path, line, name) of every module-level name of ``defining`` that
    ``wanted(name)`` selects and that no other statement of ``reading`` (a
    superset of ``defining``) reads, as a name or as an attribute."""
    defined, statements = [], []
    for path in reading:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            read = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute)}
            statements.append((stmt, read))
            if path in defining:
                defined += [(path, stmt, name) for name in _bound(stmt) if wanted(name)]
    return [(path, stmt.lineno, name) for path, stmt, name in defined
            if not any(name in read for other, read in statements if other is not stmt)]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _constant(name: str) -> bool:
    return re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None


def main() -> int:
    found = 0
    for folder in ("src/polyjet", "tests", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path == ROOT / "src" / "polyjet" / "__init__.py":
                continue
            for line, name in unused_imports(path):
                print(f"{path.relative_to(ROOT)}:{line}: unused import {name}")
                found += 1
    library = sorted((ROOT / "src" / "polyjet").glob("*.py"))
    everything = library + [path for folder in ("tests", "tools", "perfbench")
                            for path in sorted((ROOT / folder).glob("*.py"))]
    for what, hits in (
            ("private name", unread_names(library, library, _private)),
            ("public constant", unread_names(library, everything, _constant))):
        for path, line, name in hits:
            print(f"{path.relative_to(ROOT)}:{line}: unread {what} {name}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
