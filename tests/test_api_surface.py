"""Everything the package offers has a user outside the tests.

An exported name is referred to by a package module other than
``__init__.py``, named in README.md, or referred to by the benchmark harness
under ``perfbench/``.  A public method or property of an exported class is
read as an attribute in such a module or under ``perfbench/``, or appears as
``.name`` in README.md.  Each file is parsed once."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acckit"
INIT = PACKAGE / "__init__.py"
MODULES = {path: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
HARNESS = [ast.parse(path.read_text()) for path in (ROOT / "perfbench").glob("*.py")]
README = (ROOT / "README.md").read_text()
EXPORTED = {alias.asname or alias.name
            for node in MODULES[INIT].body if isinstance(node, ast.ImportFrom)
            for alias in node.names}
USERS = [tree for path, tree in MODULES.items() if path != INIT] + HARNESS


def _read(trees, names=True) -> set[str]:
    """Attribute names, and with `names` plain names, read in the trees."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif names and isinstance(node, ast.Name):
                found.add(node.id)
    return found


def test_every_export_has_a_user():
    users = _read(USERS) | set(re.findall(r"\w+", README))
    unused = sorted(EXPORTED - users)
    assert not unused, f"exported but used only by tests: {unused}"


def test_every_public_method_of_an_export_has_a_user():
    users = _read(USERS, names=False) | set(re.findall(r"\.(\w+)", README))
    unused = sorted(
        f"{cls.name}.{fn.name}"
        for tree in MODULES.values() for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in EXPORTED
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and fn.name not in users)
    assert not unused, f"public methods used only by tests: {unused}"
