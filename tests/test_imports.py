"""No unused imports and no dead private names in the package or the
tests.

An ``ast`` scan of every module under ``src/pseudolin`` and of every
module in ``tests``: a name bound by an import must be read somewhere in
the module (as a name, including the base of an attribute access) or be
listed in the module's ``__all__``.  ``_kernel/__init__.py`` is exempt,
since it imports the core's kernels only to re-export them.

A private name (one leading underscore) bound at module level must be
referenced somewhere in its tree -- the package, or the tests -- outside
the statement that binds it: read as a name, as an attribute or imported
by name.  A helper that lost its last caller fails the scan instead of
living on beside the code that replaced it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pseudolin"
EXEMPT = {Path("_kernel", "__init__.py")}
ALL_MODULES = sorted(p.relative_to(PACKAGE) for p in PACKAGE.rglob("*.py"))
MODULES = [m for m in ALL_MODULES if m not in EXEMPT]
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize(
    "path", [PACKAGE / m for m in MODULES] + TEST_MODULES,
    ids=[str(m) for m in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    src = ("from math import gcd, lcm\nimport os\nfrom x import y as z\n"
           "__all__ = ['z']\nprint(gcd(1, 2))\n")
    assert unused_imports(src) == ["lcm (line 1)", "os (line 2)"]


def _private_bindings(stmt) -> list:
    """The private names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                         ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node) -> set:
    """Names read in node: as names, as attributes, or imported by name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out |= {alias.name for alias in sub.names}
    return out


def dead_private_names(sources: dict) -> list:
    """Module-level private names of the modules in sources (name ->
    source text) that no statement other than their own binding reads."""
    bound, refs = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _private_bindings(stmt)
            bound += [(module, name, stmt.lineno, id(stmt)) for name in names]
            refs.append((id(stmt), _references(stmt)))
    return sorted(f"{module}: {name} (line {line})"
                  for module, name, line, key in bound
                  if not any(name in r for k, r in refs if k != key))


def test_no_dead_private_names():
    sources = {str(m): (PACKAGE / m).read_text() for m in ALL_MODULES}
    assert dead_private_names(sources) == []
    tests = {f"tests/{p.name}": p.read_text() for p in TEST_MODULES}
    assert dead_private_names(tests) == []


def test_the_scan_finds_a_dead_private_name():
    sources = {
        "a.py": ("_used = 1\n_LIMIT = 2\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "def _helper():\n    return _used\n"
                 "class _Unused:\n    pass\n"),
        "b.py": "from a import _helper\nprint(_LIMIT_OTHER)\n",
    }
    assert dead_private_names(sources) == [
        "a.py: _LIMIT (line 2)", "a.py: _Unused (line 7)",
        "a.py: _recursive (line 3)"]
