"""Command-line front end.

The executable parses element literals against a chosen germ structure,
dispatches to the library, and reports either human-readable text or
line-delimited records (one JSON object per line, keys sorted), so runs
with the same configuration are byte-identical.  Exit status 0 means
success, 1 a usage or domain error, 2 a failed property check; scripts can
therefore use the tool directly as an oracle.

The argument parser is built on the first `main` call and reused by every
later one, so `main` may be called repeatedly in one process at little
cost beyond the command itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

from .elements import (
    CanonicalElement,
    apply,
    compose,
    format_element,
    identity,
    invert,
    is_in_F,
    is_in_T,
    max_partition,
    parse_element,
)
from .errors import LocalSimError
from .structure import SelfSimilarGroup, parse_automaton, symmetric_group, trivial_group
from .walls import integer_line_instance, parse_walls_file, walls_to_zipper
from .zipper import (
    cocycle_identity_defect,
    nowalls_demo,
    properness_audit,
    separating_walls,
    symdiff,
    wall_separation,
    zipper_length,
)


class _Parser(argparse.ArgumentParser):
    # usage errors are domain errors here, so exit 1 rather than argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Emitter:
    def __init__(self, mode: str):
        self.mode = mode

    def record(self, rec: dict, text: str):
        if self.mode == "records":
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        else:
            print(text)


def _resolve_input(name: str) -> str:
    """Read a data file from the filesystem, else the packaged fixtures."""
    p = Path(name)
    if p.is_file():
        return p.read_text()
    packaged = resources.files("localsim").joinpath("fixtures", p.name)
    if packaged.is_file():
        return packaged.read_text()
    raise LocalSimError(f"no such file: {name}")


_BUILTIN_GROUPS = {"trivial": trivial_group, "symmetric": symmetric_group}


def _load_group(name: str, alphabet: int | None) -> SelfSimilarGroup:
    """A built-in structure over `alphabet` letters (default 2), else an
    automaton file, whose alphabet must match `alphabet` when one is given."""
    if name in _BUILTIN_GROUPS:
        return _BUILTIN_GROUPS[name](alphabet or 2)
    group = parse_automaton(_resolve_input(name), name=Path(name).stem)
    if alphabet is not None and group.alphabet.size != alphabet:
        raise LocalSimError(f"--alphabet {alphabet} disagrees with the file's alphabet of size {group.alphabet.size}")
    return group


def _build_group(args: argparse.Namespace) -> SelfSimilarGroup:
    """The structure a computation runs over; an automaton file must pass
    validation."""
    name = args.hstruct
    group = _load_group(name, args.alphabet)
    if name in _BUILTIN_GROUPS:
        return group
    violations = group.validate()
    if violations:
        lines = "; ".join(str(v) for v in violations)
        raise LocalSimError(f"structure {name} fails validation: {lines}")
    return group


def parse_gens_file(text: str, group: SelfSimilarGroup) -> list[tuple[str, CanonicalElement]]:
    """Read `name = literal` lines, '#' starting comments."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LocalSimError(f"generators file line {ln}: expected `name = literal`")
        name, lit = (part.strip() for part in line.split("=", 1))
        out.append((name, parse_element(lit, group)))
    return out


# -- command bodies; each returns the exit status ------------------------------


def _cmd_hstruct(args, _, emit: _Emitter) -> int:
    target = args.file or args.hstruct
    group = _load_group(target, args.alphabet)
    violations = group.validate()
    rec = {
        "cmd": "hstruct-validate",
        "name": group.name or target,
        "alphabet": group.alphabet.size,
        "elements": group.size,
        "violations": [v.axiom for v in violations],
        "ok": not violations,
    }
    if violations:
        body = "\n".join(str(v) for v in violations)
        emit.record(rec, body)
        return 2
    emit.record(rec, f"ok: {group.size} elements over {group.alphabet.size} letters, all axioms hold")
    return 0


def _element_out(cmd: str, g: CanonicalElement, emit: _Emitter) -> int:
    lit = format_element(g)
    emit.record({"cmd": cmd, "element": lit, "leaves": len(g.rows)}, lit)
    return 0


def _cmd_canon(args, group, emit) -> int:
    return _element_out("canon", parse_element(args.element, group), emit)


def _cmd_compose(args, group, emit) -> int:
    g = parse_element(args.left, group)
    h = parse_element(args.right, group)
    return _element_out("compose", compose(g, h), emit)


def _cmd_inverse(args, group, emit) -> int:
    return _element_out("inverse", invert(parse_element(args.element, group)), emit)


def _cmd_apply(args, group, emit) -> int:
    g = parse_element(args.element, group)
    x = group.alphabet.parse_point(args.point)
    out = group.alphabet.format_point(apply(g, x))
    emit.record({"cmd": "apply", "point": out}, out)
    return 0


def _cmd_maxpart(args, group, emit) -> int:
    code = max_partition(parse_element(args.element, group))
    balls = [group.alphabet.format_word(w) for w in code.words]
    emit.record({"cmd": "maxpart", "balls": balls, "size": len(balls)}, " ".join(balls))
    return 0


def _cmd_member(args, group, emit) -> int:
    g = parse_element(args.element, group)
    which = args.group
    ans = is_in_F(g) if which == "F" else is_in_T(g)
    emit.record({"cmd": "member", "group": which, "member": ans}, "true" if ans else "false")
    return 0


def _cmd_zipper_length(args, group, emit) -> int:
    n = zipper_length(parse_element(args.element, group))
    emit.record({"cmd": "zipper-length", "length": n}, str(n))
    return 0


def _cmd_symdiff(args, group, emit) -> int:
    diff = symdiff(parse_element(args.element, group))
    for e, sign in diff.items():
        lit = format_element(e)
        emit.record({"cmd": "symdiff", "sign": sign, "class": lit}, f"{sign:+d} {lit}")
    emit.record({"cmd": "symdiff-total", "length": len(diff)}, f"length {len(diff)}")
    return 0


def _cmd_cocycle_check(args, group, emit) -> int:
    g1 = parse_element(args.left, group)
    g2 = parse_element(args.right, group)
    defect = cocycle_identity_defect(g1, g2)
    emit.record({"cmd": "cocycle-check", "defect": defect, "ok": defect == 0}, f"defect {defect}")
    return 0 if defect == 0 else 2


def _cmd_walls(args, group, emit) -> int:
    g1 = parse_element(args.left, group)
    g2 = parse_element(args.right, group)
    sep = wall_separation(g1, g2)
    emit.record({"cmd": "walls", "separation": sep}, f"separation {sep}")
    if args.list:
        for e, side in separating_walls(g1, g2):
            lit = format_element(e)
            emit.record({"cmd": "wall", "side": side, "class": lit}, f"{side:+d} {lit}")
    return 0


def _cmd_audit(args, group, emit) -> int:
    gens = parse_gens_file(_resolve_input(args.gens), group)
    report = properness_audit(group, [g for _, g in gens], radius=args.radius, threshold=args.threshold)
    for row in report.rows:
        emit.record(
            {"cmd": "audit", "radius": row.radius, "ball": row.ball_size, "within": row.within_threshold},
            f"radius {row.radius} ball {row.ball_size} within {row.within_threshold}",
        )
    emit.record(
        {"cmd": "audit-summary", "threshold": report.threshold, "stabilized": report.stabilized},
        f"stabilized {'true' if report.stabilized else 'false'}",
    )
    return 0


def _cmd_nowalls(args, group, emit) -> int:
    rep = nowalls_demo(group, args.count)
    rec = {
        "cmd": "nowalls",
        "witnesses": len(rep.witnesses),
        "first_in_all": all(rep.first_in_translates),
        "second_in_none": not any(rep.second_in_translates),
        "covering": format_element(rep.covering_element),
        "ok": rep.ok,
    }
    text = (
        f"witnesses {len(rep.witnesses)}\n"
        f"first-in-all {'true' if rec['first_in_all'] else 'false'}\n"
        f"second-in-none {'true' if rec['second_in_none'] else 'false'}\n"
        f"covering {rec['covering']}\n"
        f"ok {'true' if rep.ok else 'false'}"
    )
    emit.record(rec, text)
    return 0 if rep.ok else 2


def _cmd_walls2zipper(args, group, emit) -> int:
    if args.zline is not None:
        instance = integer_line_instance(args.zline)
    elif args.file is None:
        raise LocalSimError("walls2zipper needs a file or --zline K")
    else:
        instance = parse_walls_file(_resolve_input(args.file))
    result = walls_to_zipper(instance)
    for r in result.reports:
        preserves = "-" if r.preserves_walls is None else ("true" if r.preserves_walls else "false")
        emit.record(
            {
                "cmd": "walls2zipper",
                "move": r.name,
                "image": r.image,
                "separating": r.separating,
                "symdiff": r.symdiff_size,
                "match": r.sizes_match,
                "preserves_walls": r.preserves_walls,
            },
            f"move {r.name} image {r.image} separating {r.separating} "
            f"symdiff {r.symdiff_size} match {'true' if r.sizes_match else 'false'} preserves {preserves}",
        )
    ok = result.ok()
    emit.record({"cmd": "walls2zipper-summary", "ok": ok}, f"ok {'true' if ok else 'false'}")
    return 0 if ok else 2


# every other command runs over the structure chosen by --hstruct
_NO_GROUP = {"hstruct", "walls2zipper"}

_BODIES: dict[str, Callable] = {
    "hstruct": _cmd_hstruct,
    "canon": _cmd_canon,
    "compose": _cmd_compose,
    "inverse": _cmd_inverse,
    "apply": _cmd_apply,
    "maxpart": _cmd_maxpart,
    "member": _cmd_member,
    "zipper-length": _cmd_zipper_length,
    "symdiff": _cmd_symdiff,
    "cocycle-check": _cmd_cocycle_check,
    "walls": _cmd_walls,
    "audit": _cmd_audit,
    "nowalls": _cmd_nowalls,
    "walls2zipper": _cmd_walls2zipper,
}


@functools.cache
def _build_parser() -> _Parser:
    # argparse keeps no per-parse state: each parse fills a fresh Namespace,
    # and usage and help read the streams and COLUMNS when they are printed
    parser = _Parser(prog="localsim", description="local similarities on the boundary of the rooted tree")
    parser.add_argument("--alphabet", type=int, default=None, metavar="D", help="alphabet size (default 2)")
    parser.add_argument(
        "--hstruct",
        default="trivial",
        metavar="NAME",
        help="germ structure: trivial, symmetric, or an automaton file",
    )
    parser.add_argument("--format", choices=["text", "records"], default="text", help="output mode")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("hstruct", help="inspect a germ structure")
    p.add_argument("action", choices=["validate"])
    p.add_argument("file", nargs="?", default=None)

    for name, n_args, names in (
        ("canon", 1, ["element"]),
        ("compose", 2, ["left", "right"]),
        ("inverse", 1, ["element"]),
        ("maxpart", 1, ["element"]),
        ("zipper-length", 1, ["element"]),
        ("symdiff", 1, ["element"]),
        ("cocycle-check", 2, ["left", "right"]),
    ):
        p = sub.add_parser(name)
        for arg in names:
            p.add_argument(arg)

    p = sub.add_parser("apply")
    p.add_argument("element")
    p.add_argument("point")

    p = sub.add_parser("member")
    p.add_argument("element")
    p.add_argument("--group", choices=["F", "T"], required=True)

    p = sub.add_parser("walls")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("audit")
    p.add_argument("--gens", required=True, metavar="FILE")
    p.add_argument("--radius", type=int, required=True, metavar="K")
    p.add_argument("--threshold", type=int, required=True, metavar="R")

    p = sub.add_parser("nowalls")
    p.add_argument("--count", type=int, default=3, metavar="K")

    p = sub.add_parser("walls2zipper")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--zline", type=int, default=None, metavar="K")

    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; never raises on domain errors."""
    if args.alphabet is not None and args.alphabet < 2:
        print("error: --alphabet must be at least 2", file=sys.stderr)
        return 1
    emit = _Emitter(args.format)
    body = _BODIES[args.command]
    try:
        group = None if args.command in _NO_GROUP else _build_group(args)
        return body(args, group, emit)
    except (LocalSimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line (default `sys.argv[1:]`) and return its exit
    status; may be called repeatedly in one process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return run(args)


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
