import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from localsim.cli import _build_parser, _resolve_input, main

X0 = "00->0;01->10;1->11"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_zipper_length_x0(self, capsys):
        code, out, _ = run(capsys, "zipper-length", X0)
        assert code == 0
        assert out == "4\n"

    def test_cocycle_check_identities(self, capsys):
        code, out, _ = run(capsys, "cocycle-check", "id", "id")
        assert code == 0
        assert out == "defect 0\n"

    def test_canon_round_trip(self, capsys):
        code, out, _ = run(capsys, "canon", "00->0;01->10;10->11;11->11")
        assert code == 1  # target code collides
        code, out, _ = run(capsys, "canon", "0->0;10->10;11->11")
        assert code == 0
        assert out == "e->e\n"

    def test_compose_inverse(self, capsys):
        _, inv_out, _ = run(capsys, "inverse", X0)
        assert inv_out == "0->00;10->01;11->1\n"
        code, out, _ = run(capsys, "compose", X0, inv_out.strip())
        assert code == 0
        assert out == "e->e\n"

    def test_apply(self, capsys):
        code, out, _ = run(capsys, "apply", X0, "00(0)")
        assert code == 0
        assert out == "(0)\n"

    def test_maxpart(self, capsys):
        code, out, _ = run(capsys, "maxpart", X0)
        assert code == 0
        assert out == "00 01 1\n"

    def test_member(self, capsys):
        assert run(capsys, "member", "--group", "F", X0)[1] == "true\n"
        assert run(capsys, "member", "--group", "F", "00->01;01->1;1->00")[1] == "false\n"
        assert run(capsys, "member", "--group", "T", "00->01;01->1;1->00")[1] == "true\n"

    def test_symdiff_text(self, capsys):
        code, out, _ = run(capsys, "symdiff", X0)
        assert code == 0
        assert out.splitlines() == [
            "-1 e->e",
            "-1 e->1",
            "+1 0->0;1->10",
            "+1 00->0;01->10;1->11",
            "length 4",
        ]

    def test_walls_listing(self, capsys):
        code, out, _ = run(capsys, "walls", X0, "id", "--list")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "separation 4"
        assert len(lines) == 5


class TestStructureSelection:
    def test_symmetric_builtin(self, capsys):
        code, out, _ = run(capsys, "--hstruct", "symmetric", "canon", "0->1:1;1->0:1")
        assert code == 0
        assert out == "e->e:1\n"

    def test_ternary(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "3", "canon", "0->1;1->2;2->0")
        assert code == 0
        assert out == "0->1;1->2;2->0\n"

    def test_packaged_automaton(self, capsys):
        code, out, _ = run(capsys, "--hstruct", "sigma2.aut", "canon", "e->e:1")
        assert code == 0
        assert out == "e->e:1\n"

    def test_alphabet_mismatch(self, capsys):
        code, _, err = run(capsys, "--alphabet", "3", "--hstruct", "sigma2.aut", "canon", "id")
        assert code == 1
        assert "disagrees" in err

    def test_symmetric_size_limit(self, capsys):
        code, _, err = run(capsys, "--hstruct", "symmetric", "--alphabet", "7", "canon", "id")
        assert code == 1
        assert "at most 6 letters" in err

    def test_trivial_size_limit(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "65536", "canon", "id")
        assert (code, out) == (0, "e->e\n")
        code, _, err = run(capsys, "--alphabet", "65537", "canon", "id")
        assert code == 1
        assert err == "error: trivial germs are limited to alphabets of at most 65536 letters, got 65537\n"

    def test_invalid_structure_blocks_computation(self, capsys, tmp_path):
        bad = _resolve_input("sigma2.aut").replace("res 1 0 1", "res 1 0 0")
        path = tmp_path / "bad.aut"
        path.write_text(bad)
        code, _, err = run(capsys, "--hstruct", str(path), "zipper-length", "id")
        assert code == 1
        assert "restriction-cocycle" in err


class TestHstructValidate:
    def test_builtin_and_packaged(self, capsys):
        assert run(capsys, "hstruct", "validate")[0] == 0
        assert run(capsys, "hstruct", "validate", "sigma2.aut")[0] == 0
        assert run(capsys, "--hstruct", "symmetric", "--alphabet", "4", "hstruct", "validate")[0] == 0

    def test_violations_exit_two(self, capsys, tmp_path):
        bad = _resolve_input("sigma2.aut").replace("res 1 0 1", "res 1 0 0")
        path = tmp_path / "bad.aut"
        path.write_text(bad)
        code, out, _ = run(capsys, "hstruct", "validate", str(path))
        assert code == 2
        assert "restriction-cocycle" in out

    def test_alphabet_mismatch(self, capsys):
        code, out, err = run(capsys, "--alphabet", "3", "hstruct", "validate", "sigma2.aut")
        assert code == 1 and out == ""
        assert "--alphabet 3 disagrees with the file's alphabet of size 2" in err

    def test_records_mode(self, capsys):
        code, out, _ = run(capsys, "--format", "records", "hstruct", "validate", "sigma2.aut")
        assert code == 0
        rec = json.loads(out)
        assert rec["ok"] is True and rec["elements"] == 2


class TestErrorPaths:
    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "canon", "0->0")
        assert code == 1
        assert "incomplete-domain" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate", "id")[0] == 1

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 1

    def test_bad_point_literal(self, capsys):
        assert run(capsys, "apply", "id", "0101")[0] == 1

    def test_missing_gens_file(self, capsys):
        code, _, err = run(capsys, "audit", "--gens", "nope.gens", "--radius", "1", "--threshold", "0")
        assert code == 1
        assert "no such file" in err

    def test_walls2zipper_needs_input(self, capsys):
        assert run(capsys, "walls2zipper")[0] == 1

    def test_small_alphabet_rejected(self, capsys):
        assert run(capsys, "--alphabet", "1", "canon", "id")[0] == 1


class TestAuditCommand:
    def test_threshold_zero(self, capsys):
        code, out, _ = run(capsys, "audit", "--gens", "v.gens", "--radius", "3", "--threshold", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "radius 0 ball 1 within 1"
        assert all(line.endswith("within 1") for line in lines[:-1])
        assert lines[-1] == "stabilized true"

    def test_records_schema(self, capsys):
        code, out, _ = run(
            capsys, "--format", "records", "audit", "--gens", "v.gens", "--radius", "2", "--threshold", "4"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["within"] for r in records if r["cmd"] == "audit"] == [1, 6, 13]
        assert records[-1]["cmd"] == "audit-summary"


class TestDemoCommands:
    def test_nowalls(self, capsys):
        code, out, _ = run(capsys, "nowalls", "--count", "2")
        assert code == 0
        assert "ok true" in out

    def test_nowalls_wrong_structure(self, capsys):
        code, _, err = run(capsys, "--hstruct", "symmetric", "nowalls", "--count", "1")
        assert code == 1

    def test_zline(self, capsys):
        code, out, _ = run(capsys, "walls2zipper", "--zline", "4")
        assert code == 0
        assert "ok true" in out

    def test_nowalls_count_limit(self, capsys):
        # witness k has 2^(k-1) leaves; the limit is refused before any is built
        code, out, _ = run(capsys, "nowalls", "--count", "16")
        assert code == 0
        assert out.startswith("witnesses 16\n") and out.endswith("ok true\n")
        code, out, err = run(capsys, "nowalls", "--count", "17")
        assert (code, out) == (1, "")
        assert err == "error: the demonstration is limited to 16 witnesses, got 17: witness k has 2^(k-1) leaves\n"

    def test_zline_limit(self, capsys):
        code, out, _ = run(capsys, "walls2zipper", "--zline", "500")
        assert code == 0
        assert "move shift+250 image 250 separating 250 symdiff 500 match true" in out
        code, out, err = run(capsys, "walls2zipper", "--zline", "501")
        assert (code, out) == (1, "")
        assert "limited to k <= 500, got 501" in err

    def test_walls_file(self, capsys, tmp_path):
        path = tmp_path / "inst.walls"
        path.write_text("points a b\nwall a | b\nbase a\npair hop a b\n")
        code, out, _ = run(capsys, "walls2zipper", str(path))
        assert code == 0
        assert "move hop image b separating 1 symdiff 2 match true" in out

    def test_broken_walls_action_exits_two(self, capsys, tmp_path):
        path = tmp_path / "inst.walls"
        path.write_text(
            "points a b c\nwall a | b c\nbase a\nmove bad a->b b->a c->c\n"
        )
        code, out, _ = run(capsys, "walls2zipper", str(path))
        assert code == 2
        assert "preserves false" in out


class TestDeterminism:
    def test_records_byte_identical(self, capsys):
        argv = ["--format", "records", "symdiff", X0]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        for line in first[1].splitlines():
            rec = json.loads(line)
            assert list(rec) == sorted(rec)


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    return hypothesis, st, settings


def _element_text(st):
    """Element literals, well formed or nearly so, and stray text."""
    word = st.one_of(
        st.just("e"),
        st.text("0123", min_size=1, max_size=4),
        st.lists(st.integers(0, 12), min_size=1, max_size=3).map(lambda xs: "[" + ",".join(map(str, xs)) + "]"),
    )
    germ = st.one_of(st.just(""), st.integers(0, 7).map(":{}".format))
    row = st.tuples(word, word, germ).map(lambda r: f"{r[0]}->{r[1]}{r[2]}")
    return st.one_of(
        st.lists(row, min_size=1, max_size=5).map(";".join),
        st.text("0123e->;:[], id", max_size=24),
        st.text(max_size=12),
    )


def _point_text(st):
    word = st.text("0123", max_size=4)
    return st.one_of(
        st.tuples(word, word).map(lambda p: f"{p[0]}({p[1]})"),
        st.text("0123e()[], ", max_size=16),
        st.text(max_size=12),
    )


class TestArbitraryText:
    """`main` never raises on any text: it exits 0, 1 or 2."""

    @staticmethod
    def _exit(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    def test_element_commands(self):
        hypothesis, st, settings = _hypothesis()

        @settings
        @hypothesis.given(_element_text(st))
        def check(text):
            assert self._exit(["canon", text]) in (0, 1, 2)
            assert self._exit(["--hstruct", "symmetric", "inverse", text]) in (0, 1, 2)
            assert self._exit(["--alphabet", "3", "zipper-length", text]) in (0, 1, 2)

        check()

    def test_apply_points(self):
        hypothesis, st, settings = _hypothesis()

        @settings
        @hypothesis.given(_point_text(st))
        def check(text):
            assert self._exit(["apply", X0, text]) in (0, 1, 2)

        check()


class TestParserReuse:
    """Consecutive calls share one parser; none may see another's arguments."""

    def test_flag_does_not_persist(self, capsys):
        code, out, _ = run(capsys, "walls", X0, "id", "--list")
        assert (code, len(out.splitlines())) == (0, 5)
        assert run(capsys, "walls", X0, "id") == (0, "separation 4\n", "")

    def test_global_option_does_not_persist(self, capsys):
        three_cycle = "0->1;1->2;2->0"
        assert run(capsys, "--alphabet", "3", "zipper-length", three_cycle) == (0, "2\n", "")
        code, out, err = run(capsys, "zipper-length", three_cycle)
        assert (code, out) == (1, "")
        assert "out of range for alphabet of size 2" in err

    def test_format_does_not_persist(self, capsys):
        records = '{"cmd":"zipper-length","length":4}\n'
        assert run(capsys, "--format", "records", "zipper-length", X0) == (0, records, "")
        assert run(capsys, "zipper-length", X0) == (0, "4\n", "")

    def test_optional_positional_does_not_persist(self, capsys):
        code, out, _ = run(capsys, "hstruct", "validate", "sigma2.aut")
        assert (code, out) == (0, "ok: 2 elements over 2 letters, all axioms hold\n")
        code, out, _ = run(capsys, "hstruct", "validate")
        assert (code, out) == (0, "ok: 1 elements over 2 letters, all axioms hold\n")

    def test_usage_error_repeats(self, capsys):
        first = run(capsys, "member", "id")
        assert first[0] == 1
        assert first[2].startswith("usage: localsim member")
        assert run(capsys, "member", "id") == first

    def test_help_follows_terminal_width(self, capsys, monkeypatch):
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run(capsys, "--help")
            assert code == 0
            assert out == _build_parser.__wrapped__().format_help()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*argv):
    """Run the CLI in a new interpreter, through `python -m localsim.cli`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "localsim.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestFreshProcess:
    def test_zipper_length(self):
        assert run_fresh("zipper-length", X0) == (0, "4\n", "")

    def test_usage_error(self):
        code, out, err = run_fresh("member", "id")
        assert (code, out) == (1, "")
        assert err.startswith("usage: localsim member")

    def test_help(self):
        code, out, _ = run_fresh("--help")
        assert code == 0
        assert out.startswith("usage: localsim")
