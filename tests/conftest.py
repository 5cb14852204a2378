import re

import pytest

from localsim import SelfSimilarGroup, parse_element, symmetric_group, trivial_group
from localsim.cli import _resolve_input, parse_gens_file


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion, in numeric order."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(
                r"test_acceptance\.py::test_criterion_(\d+)_(\w+)", getattr(rep, "nodeid", "")
            )
            if m is None or (status != "error" and getattr(rep, "when", "") != "call"):
                continue
            verdict = "PASS" if status == "passed" else "FAIL"
            duration = getattr(rep, "duration", 0.0)
            lines.append(
                (int(m.group(1)), f"criterion {m.group(1)} ({m.group(2).replace('_', ' ')}): "
                                  f"{verdict} ({duration:.1f}s)")
            )
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def t2():
    return trivial_group(2)


@pytest.fixture(scope="session")
def t3():
    return trivial_group(3)


@pytest.fixture(scope="session")
def s2():
    return symmetric_group(2)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def klein(t2):
    """The Klein four-group 1, a, b, ab over two letters: a swaps the first
    letter, b fixes it, and b and ab restrict to a, so restrictions vary."""
    return SelfSimilarGroup(
        t2.alphabet,
        [[i ^ j for j in range(4)] for i in range(4)],
        (0, 1, 2, 3),
        ((0, 1), (1, 0), (0, 1), (1, 0)),
        ((0, 0), (0, 0), (1, 1), (1, 1)),
        name="klein",
    )


@pytest.fixture(scope="session")
def depth_two(t2):
    """The 8 automorphisms of the binary tree that move only the first two
    letters: v = s + 2*t0 + 4*t1 swaps the first letter when s is 1, and
    the second when the first is a and t_a is 1.  Unlike those of
    symmetric(3) and klein, its restrictions depend on the letter."""

    def parts(v):
        return v & 1, ((v >> 1) & 1, v >> 2)

    def product(i, j):  # j first, then i
        (si, ti), (sj, tj) = parts(i), parts(j)
        return (si ^ sj) | (ti[sj] ^ tj[0]) << 1 | (ti[1 ^ sj] ^ tj[1]) << 2

    mul = [[product(i, j) for j in range(8)] for i in range(8)]
    act = [(v & 1, 1 - (v & 1)) for v in range(8)]
    res = [parts(v)[1] for v in range(8)]
    return SelfSimilarGroup(t2.alphabet, mul, [row.index(0) for row in mul], act, res, name="depth two")


@pytest.fixture(scope="session")
def s3_conjugated(s3):
    """symmetric(3) with each restriction conjugated by the transposition
    of the first two letters: restrictions vary and do not commute, and
    the 3-cycles are not their own inverses."""
    c = s3.act.index((1, 0, 2))
    res = [(s3.mul[s3.mul[c][i]][c],) * 3 for i in range(s3.size)]
    return SelfSimilarGroup(s3.alphabet, s3.mul, s3.inv, s3.act, res, name="symmetric(3) conjugated")


# the four structures every randomized suite cycles through
@pytest.fixture(scope="session")
def configurations(t2, t3, s2, s3):
    return [t2, s2, t3, s3]


@pytest.fixture(scope="session")
def x0(t2):
    return parse_element("00->0;01->10;1->11", t2)


@pytest.fixture(scope="session")
def x1(t2):
    return parse_element("0->0;100->10;101->110;11->111", t2)


@pytest.fixture(scope="session")
def rot(t2):
    return parse_element("00->01;01->1;1->00", t2)


@pytest.fixture(scope="session")
def flip(t2):
    return parse_element("00->01;01->00;1->1", t2)


@pytest.fixture(scope="session")
def v_gens(t2):
    return [g for _, g in parse_gens_file(_resolve_input("v.gens"), t2)]
