"""Source hygiene: every name a module of mwb imports is used in it."""

import ast
from pathlib import Path

import mwb

SOURCES = sorted(Path(mwb.__file__).parent.glob("*.py"))


def unused_imports(tree):
    """Names bound by the module's imports that nothing in it reads.
    __future__'s annotations is a compiler switch, not a name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if not (node.module == "__future__" and a.name == "annotations"):
                    bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_import_is_used():
    # __init__.py is skipped: its imports are the package's re-exports
    checked = [p for p in SOURCES if p.name != "__init__.py"]
    assert len(checked) >= 10
    unused = {
        p.name: found
        for p in checked
        if (found := unused_imports(ast.parse(p.read_text(), str(p))))
    }
    assert not unused, unused


def test_the_walk_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d\n"
        "x: b = os.path\n"
    )
    assert unused_imports(tree) == [(3, "d")]
