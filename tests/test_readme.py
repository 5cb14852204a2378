"""The Python example under `## Library` in the README runs, and each value
its comments state is the value the library computes."""

import re
from pathlib import Path

from localsim import format_element

README = Path(__file__).resolve().parent.parent / "README.md"

# (expression as the README spells it, how its value is shown, the value)
STATED = (
    ("invert(g)", format_element, "0->00;10->01;11->1"),
    ('apply(g, V.alphabet.parse_point("01(10)"))', str, "(10)"),
    ("max_partition(g).words", repr, "((0,0),(0,1),(1,))"),
    ("zipper_length(g)", repr, "4"),
    ("cocycle_identity_defect(g, h)", repr, "0"),
)


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _squeeze(text: str) -> str:
    return "".join(text.split())


def test_library_example_states_true_values():
    code = _library_block()
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    comments = {}
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        comments[expr.strip()] = comment
    for expr, show, value in STATED:
        assert expr in comments, f"the README example no longer shows {expr}"
        assert value in _squeeze(comments[expr]), expr
        assert _squeeze(show(eval(expr, namespace))) == value, expr
