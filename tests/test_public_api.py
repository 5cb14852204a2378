"""The public API holds no name that only its own unit tests use.

A name in `localsim.__all__` earns its place when the benchmark, the
README or the acceptance suite uses it, or when library code uses it
outside its own definition and outside `__init__.py`.  Library code counts
only when it is itself in use: a private helper or an unexported function
always counts, an exported name only once it has earned its place, so a
name used by nothing but other unused names is unused too.
"""

import ast
import re
from pathlib import Path

import localsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localsim"


def _identifiers(text: str) -> set[str]:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _loaded(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _uses_by_definition() -> list[tuple[set[str], set[str]]]:
    """(names a top-level statement defines, names it loads) for every
    statement of the library's modules but `__init__.py`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            out.extend((_defined(s), _loaded(s)) for s in ast.parse(path.read_text()).body)
    return out


def test_every_exported_name_has_a_user():
    exported = set(localsim.__all__)
    outside = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    outside += sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("perfbench/*.md"))
    used = exported & set().union(*(_identifiers(p.read_text()) for p in outside))
    uses = _uses_by_definition()
    for defines, loads in uses:
        if not defines & exported:
            used |= exported & loads
    while True:
        new = {n for defines, loads in uses if defines & used for n in exported & loads} - used
        if not new:
            break
        used |= new
    assert sorted(exported - used) == []


def test_all_matches_the_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(localsim.__all__) == len(set(localsim.__all__))
    assert set(localsim.__all__) == public
