"""Every module of the package uses each name it imports or keeps private.

No linter ships with the toolchain, so these AST walks stand in for one: a
name imported into a module and never referenced is dead code, and so is a
module-level private function, class or constant (a name starting with
``_``) that nothing in its own module references. The package ``__init__``
is exempt from the import check because its imports are the public API.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hoiplan"


def _used_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _used_names(tree)
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    used = _used_names(tree)
    return [f"{line}: {name}" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in used]


def test_detector_flags_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        ["1: os", "2: tau"]


def test_detector_flags_an_unused_private_name():
    source = ("_A = 1\n_B, C = 2, 3\n__version__ = '1'\n\n"
              "def _used():\n    return _A\n\n"
              "def _dead():\n    return _used()\n\n"
              "class _Gone:\n    pass\n")
    assert unused_private_names(source) == ["2: _B", "8: _dead", "11: _Gone"]


def test_package_modules_use_every_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_package_modules_use_every_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {p.name: unused_private_names(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}
