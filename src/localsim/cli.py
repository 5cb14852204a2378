"""Command-line front end.

The executable parses element literals against a chosen germ structure,
dispatches to the library, and reports either human-readable text or
line-delimited records (one JSON object per line, keys sorted), so runs
with the same configuration are byte-identical.  Exit status 0 means
success, 1 a usage or domain error, 2 a failed property check; scripts can
therefore use the tool directly as an oracle.

Each command is one body, attached to its subparser as the `body` default.
A body is a generator of (record, text) pairs; `run` prints each pair as
it is yielded, as the JSON record or as the text line(s), and exits 2
exactly when some record has `"ok": false`.

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
from typing import Sequence

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


# -- command bodies: each yields (record, text) pairs ---------------------------


def _cmd_hstruct(args):
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
        yield rec, "\n".join(str(v) for v in violations)
    else:
        yield rec, f"ok: {group.size} elements over {group.alphabet.size} letters, all axioms hold"


def _element_out(cmd: str, g: CanonicalElement):
    lit = format_element(g)
    return {"cmd": cmd, "element": lit, "leaves": len(g.rows)}, lit


def _operands(args, *names: str) -> list[CanonicalElement]:
    """The named element arguments, parsed over the --hstruct structure."""
    group = _build_group(args)
    return [parse_element(getattr(args, name), group) for name in names]


def _cmd_canon(args):
    yield _element_out("canon", *_operands(args, "element"))


def _cmd_compose(args):
    yield _element_out("compose", compose(*_operands(args, "left", "right")))


def _cmd_inverse(args):
    yield _element_out("inverse", invert(*_operands(args, "element")))


def _cmd_apply(args):
    (g,) = _operands(args, "element")
    alphabet = g.group.alphabet
    out = alphabet.format_point(apply(g, alphabet.parse_point(args.point)))
    yield {"cmd": "apply", "point": out}, out


def _cmd_maxpart(args):
    (g,) = _operands(args, "element")
    balls = [g.group.alphabet.format_word(w) for w in max_partition(g).words]
    yield {"cmd": "maxpart", "balls": balls, "size": len(balls)}, " ".join(balls)


def _cmd_member(args):
    (g,) = _operands(args, "element")
    ans = is_in_F(g) if args.group == "F" else is_in_T(g)
    yield {"cmd": "member", "group": args.group, "member": ans}, "true" if ans else "false"


def _cmd_zipper_length(args):
    n = zipper_length(*_operands(args, "element"))
    yield {"cmd": "zipper-length", "length": n}, str(n)


def _cmd_symdiff(args):
    diff = symdiff(*_operands(args, "element"))
    for e, sign in sorted(diff.items(), key=lambda es: es[0].rows):
        lit = format_element(e)
        yield {"cmd": "symdiff", "sign": sign, "class": lit}, f"{sign:+d} {lit}"
    yield {"cmd": "symdiff-total", "length": len(diff)}, f"length {len(diff)}"


def _cmd_cocycle_check(args):
    defect = cocycle_identity_defect(*_operands(args, "left", "right"))
    yield {"cmd": "cocycle-check", "defect": defect, "ok": defect == 0}, f"defect {defect}"


def _cmd_walls(args):
    g1, g2 = _operands(args, "left", "right")
    sep = wall_separation(g1, g2)
    yield {"cmd": "walls", "separation": sep}, f"separation {sep}"
    if args.list:
        for e, side in separating_walls(g1, g2):
            lit = format_element(e)
            yield {"cmd": "wall", "side": side, "class": lit}, f"{side:+d} {lit}"


def _cmd_audit(args):
    group = _build_group(args)
    gens = parse_gens_file(_resolve_input(args.gens), group)
    report = properness_audit(group, [g for _, g in gens], radius=args.radius, threshold=args.threshold)
    for row in report.rows:
        yield (
            {"cmd": "audit", "radius": row.radius, "ball": row.ball_size, "within": row.within_threshold},
            f"radius {row.radius} ball {row.ball_size} within {row.within_threshold}",
        )
    yield (
        {"cmd": "audit-summary", "threshold": report.threshold, "stabilized": report.stabilized},
        f"stabilized {'true' if report.stabilized else 'false'}",
    )


def _cmd_nowalls(args):
    rep = nowalls_demo(_build_group(args), args.count)
    rec = {
        "cmd": "nowalls",
        "witnesses": len(rep.witnesses),
        "first_in_all": all(rep.first_in_translates),
        "second_in_none": not any(rep.second_in_translates),
        "covering": format_element(rep.covering_element),
        "ok": rep.ok,
    }
    yield rec, (
        f"witnesses {len(rep.witnesses)}\n"
        f"first-in-all {'true' if rec['first_in_all'] else 'false'}\n"
        f"second-in-none {'true' if rec['second_in_none'] else 'false'}\n"
        f"covering {rec['covering']}\n"
        f"ok {'true' if rep.ok else 'false'}"
    )


def _cmd_walls2zipper(args):
    if args.zline is not None:
        instance = integer_line_instance(args.zline)
    elif args.file is None:
        raise LocalSimError("walls2zipper needs a file or --zline K")
    else:
        instance = parse_walls_file(_resolve_input(args.file))
    result = walls_to_zipper(instance)
    for r in result.reports:
        preserves = "-" if r.preserves_walls is None else ("true" if r.preserves_walls else "false")
        yield (
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
    yield {"cmd": "walls2zipper-summary", "ok": ok}, f"ok {'true' if ok else 'false'}"


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
    p.set_defaults(body=_cmd_hstruct)
    p.add_argument("action", choices=["validate"])
    p.add_argument("file", nargs="?", default=None)

    for name, body, positionals in (
        ("canon", _cmd_canon, ["element"]),
        ("compose", _cmd_compose, ["left", "right"]),
        ("inverse", _cmd_inverse, ["element"]),
        ("maxpart", _cmd_maxpart, ["element"]),
        ("zipper-length", _cmd_zipper_length, ["element"]),
        ("symdiff", _cmd_symdiff, ["element"]),
        ("cocycle-check", _cmd_cocycle_check, ["left", "right"]),
        ("apply", _cmd_apply, ["element", "point"]),
    ):
        p = sub.add_parser(name)
        p.set_defaults(body=body)
        for arg in positionals:
            p.add_argument(arg)

    p = sub.add_parser("member")
    p.set_defaults(body=_cmd_member)
    p.add_argument("element")
    p.add_argument("--group", choices=["F", "T"], required=True)

    p = sub.add_parser("walls")
    p.set_defaults(body=_cmd_walls)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("audit")
    p.set_defaults(body=_cmd_audit)
    p.add_argument("--gens", required=True, metavar="FILE")
    p.add_argument("--radius", type=int, required=True, metavar="K")
    p.add_argument("--threshold", type=int, required=True, metavar="R")

    p = sub.add_parser("nowalls")
    p.set_defaults(body=_cmd_nowalls)
    p.add_argument("--count", type=int, default=3, metavar="K")

    p = sub.add_parser("walls2zipper")
    p.set_defaults(body=_cmd_walls2zipper)
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--zline", type=int, default=None, metavar="K")

    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line, printing each record as its body
    yields it; never raises on domain errors."""
    if args.alphabet is not None and args.alphabet < 2:
        print("error: --alphabet must be at least 2", file=sys.stderr)
        return 1
    ok = True
    try:
        for rec, text in args.body(args):
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")) if args.format == "records" else text)
            ok = ok and rec.get("ok", True)
    except (LocalSimError, ValueError) as exc:
        # ValueError: outside input such as a file that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the one exit-2 rule: some record reports a failed property check
    return 0 if ok else 2


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
