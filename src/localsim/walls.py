"""Finite spaces with walls and their half-space picture.

A space with walls is a finite point set with a finite multiset of
bipartitions; the distance between two points is the number of walls (with
multiplicity) putting them on opposite sides.  Assigning to each point the
set of half-spaces containing it embeds the space into a set system where
the symmetric difference of the images has size exactly twice the wall
distance.  These helpers validate instances, run that translation, and
build a truncated integer line as a worked example.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InvalidWallError, LiteralParseError, UnsupportedStructureError
from .words import _data_lines, _is_int

Wall = tuple[frozenset[str], frozenset[str]]

_MAX_LINE_K = 500


@dataclass(frozen=True)
class Move:
    """A named step away from the basepoint.

    `image` is where the basepoint lands.  When the move is known on every
    point, `mapping` carries the full bijection (as sorted pairs); a bare
    basepoint-image pair leaves it None.
    """

    name: str
    image: str
    mapping: tuple[tuple[str, str], ...] | None = None


@dataclass(frozen=True)
class WallsInstance:
    points: tuple[str, ...]
    walls: tuple[Wall, ...]
    basepoint: str
    moves: tuple[Move, ...] = ()

    def __post_init__(self):
        pts = set(self.points)
        if not self.points:
            raise InvalidWallError("no points")
        if len(pts) != len(self.points):
            raise InvalidWallError("duplicate point names")
        for i, (a, b) in enumerate(self.walls):
            if not a or not b:
                raise InvalidWallError(f"wall {i} has an empty side")
            if a & b:
                raise InvalidWallError(f"wall {i} has overlapping sides")
            if a | b != pts:
                raise InvalidWallError(f"wall {i} does not cover the points")
        if self.basepoint not in pts:
            raise InvalidWallError(f"basepoint {self.basepoint!r} is not a point")
        for m in self.moves:
            if m.image not in pts:
                raise InvalidWallError(f"move {m.name!r} lands outside the points")
            if m.mapping is not None:
                mp = dict(m.mapping)
                if len(mp) != len(m.mapping) or set(mp) != pts or set(mp.values()) != pts:
                    raise InvalidWallError(f"move {m.name!r} mapping is not a bijection of the points")
                if mp[self.basepoint] != m.image:
                    raise InvalidWallError(f"move {m.name!r} mapping disagrees with its image")

    def half_space_set(self, p: str) -> frozenset[tuple[int, int]]:
        """All half-spaces containing p, tagged (wall index, side index)."""
        if p not in self.points:
            raise InvalidWallError(f"{p!r} is not a point")
        return frozenset((i, 0 if p in w[0] else 1) for i, w in enumerate(self.walls))

    def separation(self, p: str, q: str) -> int:
        """Walls separating p from q, counted with multiplicity."""
        if p not in self.points or q not in self.points:
            raise InvalidWallError("separation asked for a non-point")
        return sum(1 for a, _ in self.walls if (p in a) != (q in a))

    def permutes_walls(self, mapping: dict[str, str]) -> bool:
        """Whether a bijection of the points preserves the wall multiset."""
        before = Counter(frozenset(w) for w in self.walls)
        after = Counter(
            frozenset((frozenset(mapping[x] for x in a), frozenset(mapping[x] for x in b)))
            for a, b in self.walls
        )
        return before == after


@dataclass(frozen=True)
class MoveReport:
    name: str
    image: str
    separating: int
    symdiff_size: int
    sizes_match: bool
    preserves_walls: bool | None


def walls_to_zipper(instance: WallsInstance) -> tuple[MoveReport, ...]:
    """Translate an instance into its half-space picture, move by move.

    One report per move, in order.  Each compares the symmetric-difference
    size of the half-space sets at the basepoint and the move's image
    against twice the separating-wall count; a full mapping is additionally
    checked to permute the walls.
    """
    base = instance.half_space_set(instance.basepoint)
    reports = []
    for m in instance.moves:
        there = instance.half_space_set(m.image)
        sep = instance.separation(instance.basepoint, m.image)
        size = len(base ^ there)
        preserves = None if m.mapping is None else instance.permutes_walls(dict(m.mapping))
        reports.append(MoveReport(m.name, m.image, sep, size, size == 2 * sep, preserves))
    return tuple(reports)


def integer_line_instance(k: int) -> WallsInstance:
    """The integers -k..k with a wall between each consecutive pair.

    Moves are the shifts by 1..max(1, k // 2), given as bare
    basepoint-image pairs since a shift of a truncated line is not a
    bijection, plus the identity with its full mapping.  The expected
    symmetric-difference size for the shift by s is 2s.  The instance
    takes space quadratic in k, so k is limited to 500.
    """
    if not _is_int(k):
        raise UnsupportedStructureError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise UnsupportedStructureError("k must be >= 1")
    if k > _MAX_LINE_K:
        raise UnsupportedStructureError(
            f"the integer line is limited to k <= {_MAX_LINE_K}, got {k}: it has 2k walls over 2k+1 points"
        )
    pts = tuple(str(i) for i in range(-k, k + 1))
    walls = tuple(
        (frozenset(str(i) for i in range(-k, j + 1)), frozenset(str(i) for i in range(j + 1, k + 1)))
        for j in range(-k, k)
    )
    moves = [Move("stay", "0", tuple((p, p) for p in pts))]
    moves.extend(Move(f"shift+{s}", str(s)) for s in range(1, max(1, k // 2) + 1))
    return WallsInstance(pts, walls, "0", tuple(moves))


def parse_walls_file(text: str) -> WallsInstance:
    """Read an instance from its line format.

    Lines, in any order, '#' starting comments:

        points a b c ...
        wall a b | c d
        base a
        move name a->b b->a ...
        pair name a b

    A `move` line lists the full bijection; a `pair` line gives only the
    basepoint and image of a step.
    """
    points: tuple[str, ...] | None = None
    walls: list[Wall] = []
    base: str | None = None
    raw_moves: list[tuple[int, str, list[str]]] = []
    for ln, _, line in _data_lines(text):
        head, *rest = line.split()
        if head == "points":
            if points is not None:
                raise LiteralParseError("duplicate points line", row=ln)
            if not rest:
                raise LiteralParseError("points line is empty", row=ln)
            points = tuple(rest)
        elif head == "wall":
            body = line[len("wall"):]
            if body.count("|") != 1:
                raise LiteralParseError("wall line needs exactly one |", row=ln)
            left, right = body.split("|")
            a, b = frozenset(left.split()), frozenset(right.split())
            if not a or not b:
                raise LiteralParseError("wall side is empty", row=ln)
            walls.append((a, b))
        elif head == "base":
            if base is not None:
                raise LiteralParseError("duplicate base line", row=ln)
            if len(rest) != 1:
                raise LiteralParseError("base line needs one point", row=ln)
            base = rest[0]
        elif head in ("move", "pair"):
            if not rest:
                raise LiteralParseError(f"{head} line needs a name", row=ln)
            raw_moves.append((ln, head, rest))
        else:
            raise LiteralParseError(f"unknown directive {head!r}", row=ln)
    if points is None:
        raise LiteralParseError("missing points line")
    if base is None:
        raise LiteralParseError("missing base line")

    moves = []
    for ln, kind, rest in raw_moves:
        name = rest[0]
        if kind == "pair":
            if len(rest) != 3:
                raise LiteralParseError("pair line needs: name, start, image", row=ln)
            if rest[1] != base:
                raise LiteralParseError(f"pair {name!r} does not start at the basepoint", row=ln)
            moves.append(Move(name, rest[2]))
        else:
            mapping = {}
            for tok in rest[1:]:
                if "->" not in tok:
                    raise LiteralParseError(f"bad mapping token {tok!r}", row=ln)
                src, dst = tok.split("->", 1)
                if src in mapping:
                    raise LiteralParseError(f"point {src!r} mapped twice", row=ln)
                mapping[src] = dst
            if base not in mapping:
                raise LiteralParseError(f"move {name!r} does not map the basepoint", row=ln)
            moves.append(Move(name, mapping[base], tuple(sorted(mapping.items()))))
    try:
        return WallsInstance(points, tuple(walls), base, tuple(moves))
    except InvalidWallError as exc:
        raise LiteralParseError(str(exc)) from exc
