"""Source hygiene: mwb imports only the standard library and itself, and
its import loads neither dataclasses, inspect nor typing; every name a
module of mwb or of its tests imports is used in it, every private
module-level name is used somewhere in the package, every public one too
or it names its reason, records leave their value methods to mwb.record,
and in the CLI only main prints."""

import ast
import subprocess
import sys
from pathlib import Path

import mwb

SOURCES = sorted(Path(mwb.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
    # the package's __init__.py is skipped: its imports are its re-exports
    checked = [p for p in SOURCES if p.name != "__init__.py"] + TESTS
    assert len(checked) >= 25
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


# Modules whose import costs more than the work of most commands: dataclasses
# brings inspect, ast, dis and tokenize with it, and typing takes several ms.
HEAVY = ("dataclasses", "inspect", "typing")


def test_importing_mwb_loads_no_heavy_module():
    # -S keeps site (and whatever its .pth files import) out of the count
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import mwb, mwb.cli\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    src = str(Path(mwb.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []


def foreign_imports(tree):
    """(line, module) of each import that is neither relative, __future__,
    nor a module of the standard library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        for m in modules:
            top = m.split(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append((node.lineno, m))
    return found


def test_only_the_standard_library_is_imported():
    assert len(SOURCES) >= 10
    found = {
        p.name: hits
        for p in SOURCES
        if (hits := foreign_imports(ast.parse(p.read_text(), str(p))))
    }
    assert not found, found


def test_the_scan_sees_a_foreign_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import kernel\n"
        "from .poly import Polynomial\n"
        "from fractions import Fraction\n"
        "def f():\n    import sympy.core\n    from scipy import linalg\n"
    )
    assert foreign_imports(tree) == [(2, "numpy"), (7, "sympy.core"), (8, "scipy")]


def definitions(body):
    """(name, node) of each function, class or assigned name in a body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node


def private_definitions(tree):
    """(name, node) of each module-level function, class or constant whose
    name starts with one underscore."""
    for name, node in definitions(tree.body):
        if name.startswith("_") and not name.startswith("__"):
            yield name, node


def references(tree, skip=None):
    """Names read in the tree outside the node skip: bare names, attribute
    names and the names a from-import binds."""
    inside = {id(n) for n in ast.walk(skip)} if skip else set()
    out = set()
    for n in ast.walk(tree):
        if id(n) in inside:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def public_definitions(tree):
    """(name, node) of each module-level function, class or constant whose
    name does not start with an underscore."""
    for name, node in definitions(tree.body):
        if not name.startswith("_"):
            yield name, node


def unreferenced_names(trees, defined):
    """(module, name) of each definition that defined(tree) yields and that
    no module reads outside the definition itself."""
    everywhere = {mod: references(tree) for mod, tree in trees.items()}
    found = []
    for mod, tree in trees.items():
        for name, node in defined(tree):
            used = name in references(tree, node) or any(
                name in refs for other, refs in everywhere.items() if other != mod
            )
            if not used:
                found.append((mod, name))
    return found


def test_every_private_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert sum(len(list(private_definitions(t))) for t in trees.values()) >= 20
    assert unreferenced_names(trees, private_definitions) == []


def test_the_scan_sees_an_unreferenced_private_name():
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n"
            "def _loop(n):\n    return _loop(n - 1) if n else _LIMIT\n"
            "def _used():\n    pass\n"
            "class _Kept:\n    pass\n"
        ),
        "b.py": ast.parse("from a import _used\nimport a\nx = a._Kept\n"),
    }
    # _loop only calls itself
    assert unreferenced_names(trees, private_definitions) == [("a.py", "_loop")]


TRACED = "wrapped by name in perfbench/spans.py LAYERS, until ROADMAP item 5b"
PINNED = "a statement of the paper, pinned by tests/test_blowup.py"
INPUT = "builds an input for library callers and the tests"

# Public names that no other module of mwb reads (__init__'s re-exports are
# not reads), each with its reason; the scan must find exactly these.
UNREFERENCED_PUBLIC = {
    "polyhedra.facet_level": TRACED,
    "blowup.exceptional_multiplicities": TRACED,
    "invariant.logord_at": TRACED,
    "invariant.max_logord": TRACED,
    "invariant.minimal_tuples": TRACED,
    "monomials.integral_closure": TRACED,
    "monomials.closure_member": TRACED,
    "groebner.member": TRACED,
    "groebner.is_unit_ideal": TRACED,
    "engine.principalize": TRACED,
    "kernel.COMPILED": "read by perfbench/worker.py as the report's kernel lane",
    "blowup.equivalent": PINNED,
    "blowup.canonical_stack_rays": PINNED,
    "blowup.factored_morphism": PINNED,
    "poly.constant": INPUT,
    "cli.parse_polynomial": INPUT,
}


def test_every_public_name_is_referenced():
    # a stale entry fails too: the allowlist is the unreferenced set
    trees = {
        p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES if p.name != "__init__.py"
    }
    assert sum(len(list(public_definitions(t))) for t in trees.values()) >= 100
    found = {f"{mod}.{name}" for mod, name in unreferenced_names(trees, public_definitions)}
    assert found == set(UNREFERENCED_PUBLIC)


def test_the_scan_sees_an_unreferenced_public_name():
    trees = {
        "a": ast.parse(
            "LIMIT = 3\n"
            "def loop(n):\n    return loop(n - 1) if n else LIMIT\n"
            "def used():\n    pass\n"
            "class Kept:\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "b": ast.parse("from a import used\nimport a\nx = a.Kept\n"),
    }
    # loop only calls itself, and b's x is read nowhere
    assert unreferenced_names(trees, public_definitions) == [("a", "loop"), ("b", "x")]


def hand_written_value_methods(tree):
    """(class, name) of each class body that assigns __slots__ or defines
    __setattr__ or __eq__ itself; a record declares those.  An explicit
    __hash__ is allowed: a record whose field is a dict needs one."""
    return [
        (cls.name, name)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name, _ in definitions(cls.body)
        if name in ("__slots__", "__setattr__", "__eq__")
    ]


def test_records_declare_their_value_methods():
    found = {
        p.name: hits
        for p in SOURCES
        if (hits := hand_written_value_methods(ast.parse(p.read_text(), str(p))))
    }
    assert not found, found


def test_the_scan_sees_a_hand_written_record():
    tree = ast.parse(
        "class Point:\n"
        "    __slots__ = ('x',)\n"
        "    def __setattr__(self, *a):\n        raise AttributeError\n"
        "    def __eq__(self, other):\n        return self.x == other.x\n"
        "    def __hash__(self):\n        return hash(self.x)\n"
        "@record(frozen=True, slots=True)\n"
        "class Kept:\n"
        "    x: int\n"
        "    def __hash__(self):\n        return 0\n"
    )
    assert hand_written_value_methods(tree) == [
        ("Point", "__slots__"),
        ("Point", "__setattr__"),
        ("Point", "__eq__"),
    ]


def printing_functions(tree):
    """Names of the module's functions, main aside, that print: call print,
    a .write method or a helper whose name holds 'emit'."""

    def prints(call):
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
        return name in ("print", "write") or "emit" in name

    return sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name != "main"
        if any(isinstance(n, ast.Call) and prints(n) for n in ast.walk(fn))
    )


def test_only_main_prints():
    # each cmd_* handler returns one report; main prints it as text or JSON
    tree = ast.parse((Path(mwb.__file__).parent / "cli.py").read_text())
    names = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert sum(name.startswith("cmd_") for name in names) >= 9
    assert printing_functions(tree) == []


def test_the_scan_sees_a_printing_handler():
    tree = ast.parse(
        "def emit(args, lines):\n    for l in lines:\n        print(l)\n"
        "def cmd_a(args):\n    emit(args, ['a'])\n"
        "def cmd_b(args):\n    sys.stdout.write('b')\n"
        "def cmd_c(args):\n    return Report()\n"
        "def main(argv=None):\n    print(cmd_c(argv))\n"
    )
    assert printing_functions(tree) == ["cmd_a", "cmd_b", "emit"]
