"""No unused imports in the package.

An ``ast`` scan of every module under ``src/pseudolin``: a name bound by
an import must be read somewhere in the module (as a name, including the
base of an attribute access) or be listed in the module's ``__all__``.
``_kernel/__init__.py`` is exempt, since it imports the core's kernels
only to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pseudolin"
EXEMPT = {Path("_kernel", "__init__.py")}
MODULES = sorted(p.relative_to(PACKAGE) for p in PACKAGE.rglob("*.py")
                 if p.relative_to(PACKAGE) not in EXEMPT)


def unused_imports(source: str) -> list:
    """Names imported by a module that it neither reads nor exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("module", MODULES, ids=str)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_scan_finds_an_unused_import():
    src = ("from math import gcd, lcm\nimport os\nfrom x import y as z\n"
           "__all__ = ['z']\nprint(gcd(1, 2))\n")
    assert unused_imports(src) == ["lcm (line 1)", "os (line 2)"]
