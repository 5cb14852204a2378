"""The README's examples run as shown: each `$ localsim ...` command prints
exactly the lines below it, and each value the comments of the Python
example under `## Library` state is the value the library computes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from localsim import cli, format_element

README = Path(__file__).resolve().parent.parent / "README.md"

# (expression as the README spells it, how its value is shown, the value)
STATED = (
    ("invert(g)", format_element, "0->00;10->01;11->1"),
    ('apply(g, V.alphabet.parse_point("01(10)"))', str, "(10)"),
    ("max_partition(g).words", repr, r"('\x00\x00','\x00\x01','\x01')"),
    ("[V.alphabet.format_word(w) for w in max_partition(g).words]", repr, "['00','01','1']"),
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


def _cli_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for every `$ localsim ...` line in the
    README; the output is the lines after it up to a blank line or fence."""
    out = []
    lines = README.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ localsim "):
            body = []
            for later in lines[i + 1:]:
                if not later.strip() or later.startswith("```"):
                    break
                body.append(later + "\n")
            out.append((line[len("$ localsim "):], "".join(body)))
    return out


CLI_EXAMPLES = _cli_examples()


def test_every_cli_example_is_collected():
    assert len(CLI_EXAMPLES) == README.read_text().count("$ localsim ") >= 14
    assert all(want for _, want in CLI_EXAMPLES)


@pytest.mark.parametrize("line, want", CLI_EXAMPLES, ids=[line for line, _ in CLI_EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(capsys, line, want):
    code = cli.main(shlex.split(line))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, want, "")


@pytest.mark.parametrize("line", [line for line, _ in CLI_EXAMPLES])
def test_cli_example_succeeds_in_records_mode(capsys, line):
    code = cli.main(["--format", "records", *shlex.split(line)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    records = [json.loads(rec) for rec in captured.out.splitlines()]
    assert records and all("cmd" in rec and rec.get("ok", True) for rec in records)
