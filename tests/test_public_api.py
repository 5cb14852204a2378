"""The public API holds no name that only its own unit tests use, no
parameter default that only they set, no error type that nothing raises,
no integer parameter that takes a value that is not an int, and no type
whose instances can change.

A name in `localsim.__all__` earns its place when the benchmark, the
README or the acceptance suite uses it, or when library code uses it
outside its own definition and outside `__init__.py`.  Library code counts
only when it is itself in use: a private helper or an unexported function
always counts, an exported name only once it has earned its place, so a
name used by nothing but other unused names is unused too.

Two private helpers are used in one place only, checked on the package's
syntax trees: `_Table.rows` alone builds `Row`s, and `properness_audit`
alone makes memoizing steps.  On the same trees, every structure or
alphabet comparison checks identity before it reaches `__eq__`.
"""

import ast
import collections
import functools
import inspect
import random
import re
from pathlib import Path

import pytest

import localsim
from localsim import (
    Alphabet,
    MalformedWordError,
    UnsupportedStructureError,
    incl_class,
    integer_line_instance,
    max_partition,
    nowalls_demo,
    properness_audit,
    random_element,
    random_point,
    symmetric_group,
    trivial_group,
    walls_to_zipper,
)

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


def _calls(paths) -> dict[str, list[ast.Call]]:
    """Every call in the given files, keyed by the name called: `name(...)`
    or `module.name(...)`."""
    out = collections.defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                out[name].append(node)
    return out


def _passes(call: ast.Call, index: int, param: inspect.Parameter) -> bool:
    """Whether the call may set the parameter at `index`: by keyword, by
    position, or through `*` or `**` unpacking."""
    if any(k.arg in (param.name, None) for k in call.keywords):
        return True
    if param.kind not in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_set_by_a_user():
    # a default that only the unit tests set is a knob that exists for them
    # alone: `test_every_exported_name_has_a_user`'s rule for names, applied
    # to the parameters of exported callables
    paths = sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("perfbench/*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    calls = _calls(paths)
    unset = []
    for name in localsim.__all__:
        obj = getattr(localsim, name)
        if not callable(obj) or not getattr(obj, "__module__", "").startswith("localsim."):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an error type without its own __init__
            continue
        for i, param in enumerate(params):
            if param.default is not param.empty and not any(_passes(c, i, param) for c in calls[name]):
                unset.append(f"{name}.{param.name}")
    assert unset == []


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


def test_every_error_type_is_raised():
    # an error type that nothing raises is API that only its own tests use
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised |= {n.id for n in ast.walk(exc) if isinstance(n, ast.Name)}
    assert sorted(defined - raised) == []


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


@functools.cache
def _module_uses(file: str, source: str, name: str) -> tuple[tuple[str, str, str, int], ...]:
    """(module file, enclosing def or class as a dotted path, '' at module
    level, kind of use, line) for every use of `name` in one module's
    source: as a name ('Load' or 'Store'), an attribute ('Attribute'), an
    imported name ('import'), or the function of a call ('call')."""
    out = []
    stack = [(ast.parse(source), "")]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, ast.Name) and node.id == name:
            out.append((file, scope, type(node.ctx).__name__, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            out.append((file, scope, "Attribute", node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(file, scope, "import", node.lineno) for a in node.names if a.name == name]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):  # module.name(...) or name.method(...)
                called = (func.attr, getattr(func.value, "id", None))
            else:
                called = (getattr(func, "id", None),)
            if name in called:
                out.append((file, scope, "call", node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack += ((child, scope) for child in ast.iter_child_nodes(node))
    return tuple(out)


def _uses(sources: dict[str, str], name: str) -> list[tuple[str, str, str, int]]:
    """Every use of `name` in the given module sources, as `_module_uses` lists them."""
    return [use for file, source in sources.items() for use in _module_uses(file, source, name)]


def _extra_uses(sources: dict[str, str], name: str, allowed: tuple) -> list[tuple[str, str, str, int]]:
    """Every use of `name` but one of each (module file, scope, kind) in
    `allowed`: a second use of an allowed kind counts."""
    uses = _uses(sources, name)
    extra = collections.Counter(use[:3] for use in uses) - collections.Counter(allowed)
    return [use for use in uses if use[:3] in extra]


def _row_builders(sources: dict[str, str]) -> list[tuple[str, str, str, int]]:
    """Every call of `Row` or of one of its attributes, and every use of
    `_as_row` but its definition and its one use in `_Table.rows`."""
    calls = [use for use in _uses(sources, "Row") if use[2] == "call"]
    return calls + _extra_uses(sources, "_as_row", (("elements.py", "", "Store"), ("elements.py", "_Table.rows", "Load")))


def _memoizing_users(sources: dict[str, str]) -> list[tuple[str, str, str, int]]:
    """Every use of `_memoizing` but zipper's import and one call in `properness_audit`."""
    allowed = (("zipper.py", "", "import"), ("zipper.py", "properness_audit", "Load"),
               ("zipper.py", "properness_audit", "call"))
    return _extra_uses(sources, "_memoizing", allowed)


# code appended to a module, each of which either check must find
ROW_MUTANTS = (
    ("elements.py", "def f():\n    return Row('', '', 0)\n"),
    ("zipper.py", "def f():\n    return elements.Row('', '', 0)\n"),
    ("elements.py", "def f():\n    return Row._make(('', '', 0))\n"),
    ("elements.py", "def f(rows):\n    return list(map(_as_row, rows))\n"),
    ("elements.py", "x = _as_row(('', '', 0))\n"),
    ("zipper.py", "from .elements import _as_row\n"),
)
MEMOIZING_MUTANTS = (
    ("elements.py", "def f(g, h):\n    return compose(_memoizing(g), h)\n"),
    ("zipper.py", "def f(g):\n    return elements._memoizing(g)\n"),
    ("zipper.py", "step = _memoizing\n"),
    ("cli.py", "from .elements import _memoizing\n"),
    ("zipper.py", "def properness_audit(g):\n    return _memoizing(g)\n"),
)


def test_only_the_rows_view_builds_a_row():
    # tables keep plain (source, target, germ) triples; `_Table.rows` is
    # the one place a Row is made, through `_as_row`
    sources = _package_sources()
    assert _row_builders(sources) == []
    for file, mutant in ROW_MUTANTS:
        assert _row_builders({**sources, file: sources[file] + mutant}), mutant


def test_only_the_audit_makes_memoizing_steps():
    # a step from `elements._memoizing` keeps the image of every target
    # composed through it; `properness_audit` alone makes them, from its
    # symmetrized generators, and drops them on return, so no element a
    # caller holds ever keeps a memo
    sources = _package_sources()
    assert _memoizing_users(sources) == []
    for file, mutant in MEMOIZING_MUTANTS:
        assert _memoizing_users({**sources, file: sources[file] + mutant}), mutant


def _unguarded_comparisons(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module file, line) of every `!=` with a `.group` or `.alphabet`
    operand that does not follow an `is not` on the same two expressions
    inside one `and`."""

    def comparison(node):
        # (operator type, the two operands) of a single comparison
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            return type(node.ops[0]), frozenset(map(ast.dump, (node.left, node.comparators[0])))
        return None, None

    out = []
    for file, source in sources.items():
        tree = ast.parse(source)
        guarded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
                identities = set()
                for value in node.values:
                    op, operands = comparison(value)
                    if op is ast.IsNot:
                        identities.add(operands)
                    elif op is ast.NotEq and operands in identities:
                        guarded.add(value)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Compare)
                and any(isinstance(op, ast.NotEq) for op in node.ops)
                and any(isinstance(x, ast.Attribute) and x.attr in ("group", "alphabet") for x in (node.left, *node.comparators))
                and node not in guarded
            ):
                out.append((file, node.lineno))
    return out


# code appended to a module, each of which must be found unguarded
COMPARISON_MUTANTS = (
    ("elements.py", "def f(a, b):\n    return a.group != b.group\n"),
    ("zipper.py", "def f(x, a, b):\n    if x is not None and a.group != b.group:\n        return 1\n"),
    ("zipper.py", "def f(a, b):\n    if a.group is not b.group:\n        if a.group != b.group:\n            return 1\n"),
    ("structure.py", "def f(x, g):\n    return x.alphabet is not g.alphabet or x.alphabet != g.alphabet\n"),
    ("elements.py", "def f(a, b):\n    return a.group != b.group and a.group is not b.group\n"),
)


def test_structure_comparisons_check_identity_first():
    # compose, apply, the class translations and the audit compare
    # structures and alphabets as `a is not b and a != b`, so one structure
    # object never reaches the Python-level __eq__
    sources = _package_sources()
    assert _unguarded_comparisons(sources) == []
    for file, mutant in COMPARISON_MUTANTS:
        assert _unguarded_comparisons({**sources, file: sources[file] + mutant}), mutant


def nowalls(count):
    return nowalls_demo(trivial_group(2), count)


def audit_radius(radius):
    return properness_audit(trivial_group(2), [], radius=radius, threshold=4)


def audit_threshold(threshold):
    return properness_audit(trivial_group(2), [], radius=2, threshold=threshold)


def random_max_depth(max_depth):
    return random_element(trivial_group(2), random.Random(0), max_depth=max_depth)


NOT_INTS = (2.5, 2.0, "2", None, True)
SIZE = "alphabet size must be an integer >= 2, got {!r}"

# (function, value, error type, the whole message): a value that is not an
# int, bools included, raises the function's own error type; an int keeps
# the message it has always had, which the CLI prints
INTEGER_PARAMETERS = (
    *((nowalls, v, UnsupportedStructureError, f"count must be an integer, got {v!r}") for v in NOT_INTS),
    (nowalls, 0, UnsupportedStructureError, "count must be >= 1"),
    (
        nowalls,
        17,
        UnsupportedStructureError,
        "the demonstration is limited to 16 witnesses, got 17: witness k has 2^(k-1) leaves",
    ),
    *((integer_line_instance, v, UnsupportedStructureError, f"k must be an integer, got {v!r}") for v in NOT_INTS),
    (integer_line_instance, 0, UnsupportedStructureError, "k must be >= 1"),
    (
        integer_line_instance,
        501,
        UnsupportedStructureError,
        "the integer line is limited to k <= 500, got 501: it has 2k walls over 2k+1 points",
    ),
    *((audit_radius, v, UnsupportedStructureError, f"radius must be an integer, got {v!r}") for v in NOT_INTS),
    (audit_radius, -1, UnsupportedStructureError, "radius must be >= 0"),
    *((audit_threshold, v, UnsupportedStructureError, f"threshold must be an integer, got {v!r}") for v in NOT_INTS),
    *(
        (random_max_depth, v, UnsupportedStructureError, f"max_depth must be an integer >= 0, got {v!r}")
        for v in (2.5, -1, True)
    ),
    *((symmetric_group, v, MalformedWordError, SIZE.format(v)) for v in NOT_INTS),
    (symmetric_group, 1, MalformedWordError, SIZE.format(1)),
    (
        symmetric_group,
        7,
        UnsupportedStructureError,
        "symmetric germs are limited to alphabets of at most 6 letters, got 7",
    ),
    *((trivial_group, v, MalformedWordError, SIZE.format(v)) for v in NOT_INTS),
    (trivial_group, 0, MalformedWordError, SIZE.format(0)),
    (
        trivial_group,
        2_000_000,
        UnsupportedStructureError,
        "trivial germs are limited to alphabets of at most 65536 letters, got 2000000",
    ),
    *((Alphabet, v, MalformedWordError, SIZE.format(v)) for v in NOT_INTS),
    (Alphabet, 2_000_000, MalformedWordError, "alphabet size must be at most 1114111, got 2000000"),
)


@pytest.mark.parametrize(
    "function, value, error, message",
    INTEGER_PARAMETERS,
    ids=[f"{case[0].__name__}({case[1]!r})" for case in INTEGER_PARAMETERS],
)
def test_integer_parameters_are_checked_as_integers(function, value, error, message):
    with pytest.raises(error) as err:
        function(value)
    assert str(err.value) == message


def test_public_types_are_immutable_and_hashable():
    # one instance of every public class, with an attribute it has
    group = trivial_group(2)
    g = random_element(group, random.Random(0), max_depth=2)
    audit = properness_audit(group, [g], radius=1, threshold=4)
    line = integer_line_instance(1)
    instances = {
        "Alphabet": (group.alphabet, "size"),
        "AuditReport": (audit, "rows"),
        "AuditRow": (audit.rows[0], "ball_size"),
        "CanonicalElement": (g, "rows"),
        "EmbeddingClass": (incl_class(group, "\0"), "rows"),
        "Move": (line.moves[0], "image"),
        "MoveReport": (walls_to_zipper(line)[0], "separating"),
        "NowallsReport": (nowalls_demo(group, 1), "ok"),
        "Point": (random_point(group.alphabet, random.Random(0)), "period"),
        "PrefixCode": (max_partition(g), "words"),
        "Row": (g.rows[0], "target"),
        "SelfSimilarGroup": (group, "mul"),
        "WallsInstance": (line, "walls"),
    }
    public = {
        name
        for name in localsim.__all__
        if isinstance(getattr(localsim, name), type)
        and getattr(localsim, name).__module__.startswith("localsim.")
        and not issubclass(getattr(localsim, name), Exception)
    }
    assert sorted(instances) == sorted(public)
    for name, (x, attribute) in instances.items():
        assert type(x) is getattr(localsim, name)
        before = getattr(x, attribute)
        with pytest.raises(AttributeError):
            setattr(x, attribute, None)
        with pytest.raises(AttributeError):
            delattr(x, attribute)
        assert getattr(x, attribute) is before
        hash(x)
        assert isinstance(repr(x), str)
    code = instances["PrefixCode"][0]
    assert tuple(code) == code.words
    assert (group == "t2") is False
