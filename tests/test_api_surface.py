"""Every name the package exports has a user outside the tests: a package
module other than ``__init__.py`` refers to it, README.md names it, or the
benchmark harness under ``perfbench/`` refers to it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acckit"


def _referenced(paths) -> set[str]:
    """Names and attribute names read anywhere in the given modules."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_user():
    init = PACKAGE / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    users = (_referenced(p for p in PACKAGE.glob("*.py") if p != init)
             | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
             | _referenced((ROOT / "perfbench").glob("*.py")))
    unused = sorted(exported - users)
    assert not unused, f"exported but used only by tests: {unused}"
