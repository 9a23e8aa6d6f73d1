"""Source hygiene: no module of ``src/repro`` imports a name it never uses.

Package ``__init__`` modules are skipped, since their imports are
re-exports.  A name counts as used when it appears as an identifier
anywhere in the module, or inside a string that parses as an expression
(string annotations and ``__all__`` entries).
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in ``tree``."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
    return names


def _used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return used


def unused_imports() -> list[str]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        out += [f"{path.relative_to(SRC.parent)}:{line}: {name}"
                for name, line in _imported(tree).items() if name not in used]
    return out


def test_no_unused_imports():
    assert unused_imports() == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\n"
                     "def f(y: 'b') -> None:\n    return c.e\n")
    assert set(_imported(tree)) - _used(tree) == {"a"}
