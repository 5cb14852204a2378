"""The translated-inclusion action and its length, cocycle, and walls.

The ambient set consists of classes of ball embeddings: an embedding given
by a table with domain the whole space, taken up to right twist by the
finitely many global ball similarities.  The distinguished family Z inside
it collects the classes of plain ball inclusions, one per ball.  A group
element g translates a class by post-composition, and gZ differs from Z in
only finitely many classes; the signed difference is the value of a
1-cocycle at g, its support size is a length function, and the classes in
the difference are the walls separating the orbit points Z and gZ.

Membership in gZ is always decided by translating back by the inverse,
which is computed once per element, and testing for a one-row table.
The difference itself is read off the maximal partitions.  Each ball
properly containing a maximal ball of the inverse loses its inclusion
class.  Each ball B properly containing a maximal ball of g picks up the
class of g restricted to B, and that class is read straight off the
reduced table of g: the rows under B with B stripped from their sources
are already reduced, because a mergeable family among them would be
mergeable in g, so only twist minimization is left to do.  Every entry is
still checked against the membership tests before it is emitted.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .elements import (
    ELEMENT,
    EMBEDDING,
    CanonicalElement,
    Row,
    SimTable,
    _compose_rows,
    _reduce_rows,
    _trusted_table,
    compose,
    identity,
    invert,
    max_partition,
)
from .errors import IncompatibleElementsError, InvalidClassError, UnsupportedStructureError
from .structure import SelfSimilarGroup
from .words import Word, complement_balls, is_complete_code, is_prefix


@dataclass(frozen=True)
class EmbeddingClass:
    """Canonical representative of an embedding class.

    The table has kind "embedding", domain the whole space, is reduced, and
    is the lexicographically least among its right twists by the global
    ball similarities; two embeddings define the same class iff their
    canonical representatives are equal.
    """

    table: SimTable

    @property
    def group(self) -> SelfSimilarGroup:
        return self.table.group

    def sort_key(self) -> tuple[Row, ...]:
        return self.table.rows

    def __repr__(self) -> str:
        from .elements import format_element

        return f"<class {format_element(CanonicalElement(self.table))}>"


def _twist(table: SimTable, s: int) -> SimTable:
    """Right-compose with the global similarity of germ s.

    Sources are pulled back through s, germs pick up the restriction of s
    on the pulled-back ball.  Twisting preserves reducedness: s permutes
    sibling families, so a mergeable family in the twist would pull back to
    a mergeable family in the original.
    """
    group = table.group
    si = group.inv[s]
    rows = []
    for v, w, g in table.rows:
        v2, _ = group.act_word(si, v)
        rows.append(Row(v2, w, group.mul[g][group.restrict_word(s, v2)]))
    return _trusted_table(group, table.kind, tuple(sorted(rows)))


def _twist_minimal(table: SimTable) -> SimTable:
    group = table.group
    if group.size == 1:
        return table
    return min((_twist(table, s) for s in range(group.size)), key=lambda t: t.rows)


def canonical_eclass(f: SimTable, ball: Word) -> EmbeddingClass:
    """The class of an embedding defined on the ball at `ball`.

    The sources of f must partition that ball.  The class is represented on
    the whole space by precomposing with the canonical similarity onto the
    ball (strip the ball address off every source), then reduced and twist
    minimized.
    """
    group = f.group
    ball = group.alphabet.check_word(ball)
    if f.kind != EMBEDDING:
        raise InvalidClassError("embedding-kind table required")
    if not f.rows:
        raise InvalidClassError("empty table")
    for r in f.rows:
        if not is_prefix(ball, r.source):
            raise InvalidClassError(f"source {r.source} is outside the ball {ball}")
    stripped = [Row(r.source[len(ball):], r.target, r.germ) for r in f.rows]
    if not is_complete_code([r.source for r in stripped], group.alphabet.size):
        raise InvalidClassError(f"sources do not partition the ball {ball}")
    rows = _reduce_rows(group, stripped)
    return EmbeddingClass(_twist_minimal(_trusted_table(group, EMBEDDING, rows)))


def incl_class(group: SelfSimilarGroup, ball: Word) -> EmbeddingClass:
    """The class of the plain inclusion of the ball at `ball`.

    Its canonical representative is the single row () -> ball with identity
    germ (any germ twists away, and the identity germ is least).
    """
    ball = group.alphabet.check_word(ball)
    return EmbeddingClass(_trusted_table(group, EMBEDDING, (Row((), ball, 0),)))


def z_member(e: EmbeddingClass) -> bool:
    """Whether the class belongs to the inclusion family.

    A class is an inclusion class iff its reduced representative is a
    single row, i.e. the embedding is one similarity onto a ball.
    """
    return len(e.table.rows) == 1


def act_on_eclass(g: CanonicalElement, e: EmbeddingClass) -> EmbeddingClass:
    """Translate a class by post-composition with a group element."""
    if g.group != e.group:
        raise IncompatibleElementsError("element and class over different structures")
    if g.table.kind != ELEMENT:
        raise IncompatibleElementsError("only group elements act on classes")
    rows = _reduce_rows(g.group, _compose_rows(g.group, g.rows, e.table.rows))
    return EmbeddingClass(_twist_minimal(_trusted_table(g.group, EMBEDDING, rows)))


def gz_member(g: CanonicalElement, e: EmbeddingClass) -> bool:
    """Whether the class belongs to the g-translate of the inclusion family."""
    return z_member(act_on_eclass(g._inverse, e))


class SignedSupport:
    """A finitely supported function on embedding classes with values +-1."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[EmbeddingClass, int]):
        for v in mapping.values():
            if v not in (-1, 1):
                raise ValueError(f"entries must be +1 or -1, got {v}")
        self._map = dict(mapping)

    def value(self, e: EmbeddingClass) -> int:
        return self._map.get(e, 0)

    def items(self) -> list[tuple[EmbeddingClass, int]]:
        return sorted(self._map.items(), key=lambda kv: kv[0].sort_key())

    def as_dict(self) -> dict[EmbeddingClass, int]:
        return dict(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[tuple[EmbeddingClass, int]]:
        return iter(self.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedSupport):
            return NotImplemented
        return self._map == other._map

    def __repr__(self) -> str:
        pos = sum(1 for v in self._map.values() if v > 0)
        return f"<SignedSupport +{pos}/-{len(self._map) - pos}>"

    def translate(self, g: CanonicalElement) -> "SignedSupport":
        out: dict[EmbeddingClass, int] = {}
        for e, v in self._map.items():
            te = act_on_eclass(g, e)
            if te in out:
                raise InvalidClassError("translation must stay injective on the support")
            out[te] = v
        return SignedSupport(out)


def symdiff(g: CanonicalElement) -> SignedSupport:
    """The difference of the translated and plain inclusion families.

    +1 entries: for each ball B properly containing a maximal ball of g,
    the class of g restricted to B (these lie in gZ but not Z), read off
    the rows of g under B.  -1 entries: for each ball B properly
    containing a maximal ball of the inverse, the inclusion class of B (in
    Z but not gZ).  Every entry is cross-checked against the membership
    tests before it is emitted.
    """
    group = g.group
    out: dict[EmbeddingClass, int] = {}
    for b in max_partition(g._inverse).proper_prefixes():
        e = incl_class(group, b)
        if not z_member(e) or gz_member(g, e):
            raise InvalidClassError("vacated inclusion class failed its membership check")
        out[e] = -1
    rows = g.rows
    sources = g.table.sources()
    past = (group.alphabet.size,)
    for b in max_partition(g).proper_prefixes():
        # the rows under b are contiguous: from b up to b followed by a letter past the alphabet
        lo = bisect_left(sources, b)
        hi = bisect_left(sources, b + past, lo)
        k = len(b)
        under = tuple(Row(s[k:], t, germ) for s, t, germ in rows[lo:hi])
        e = EmbeddingClass(_twist_minimal(_trusted_table(group, EMBEDDING, under)))
        if z_member(e) or not gz_member(g, e):
            raise InvalidClassError("translated class failed its membership check")
        if e in out:
            raise InvalidClassError("the two sides of the difference must be disjoint")
        out[e] = 1
    return SignedSupport(out)


def zipper_length(g: CanonicalElement) -> int:
    """Size of the symmetric difference between gZ and Z."""
    return len(symdiff(g))


def cocycle_identity_defect(g1: CanonicalElement, g2: CanonicalElement) -> int:
    """Number of classes violating the cocycle identity for the pair.

    The identity predicts the value at g1*g2 as the g1-translate of the
    value at g2 plus the value at g1.  All three sides are finitely
    supported, so comparing them over the union of supports is exact.
    """
    lhs = symdiff(compose(g1, g2)).as_dict()
    pred = symdiff(g1).as_dict()
    for e, v in symdiff(g2).items():
        te = act_on_eclass(g1, e)
        pred[te] = pred.get(te, 0) + v
    pred = {e: v for e, v in pred.items() if v}
    keys = set(lhs) | set(pred)
    return sum(1 for e in keys if lhs.get(e, 0) != pred.get(e, 0))


# -- walls --------------------------------------------------------------------


def point_label(g: CanonicalElement) -> EmbeddingClass:
    """Canonical label of the orbit point gZ.

    Two elements give the same point iff they differ by a global ball
    similarity on the right, which is exactly twist equivalence of their
    tables read as embeddings.
    """
    return EmbeddingClass(_twist_minimal(_trusted_table(g.group, EMBEDDING, g.rows)))


def wall_separation(g1: CanonicalElement, g2: CanonicalElement) -> int:
    """Number of classes lying in exactly one of g1Z, g2Z.

    By left invariance this is the zipper length of g1^-1 g2.
    """
    return zipper_length(compose(invert(g1), g2))


def separating_walls(
    g1: CanonicalElement,
    g2: CanonicalElement,
    known: Iterable[CanonicalElement] = (),
) -> list[tuple[EmbeddingClass, int]]:
    """The classes separating g1Z from g2Z, each with the side of g1Z.

    Side +1 means the class lies in g1Z only, -1 in g2Z only.  A candidate
    is excluded when, among the supplied orbit points (g1 and g2 are always
    included), one of its two half-spaces comes out empty; with only the
    two defining points this never fires, but callers tracking more orbit
    points use it to drop degenerate walls.
    """
    h = compose(invert(g1), g2)
    points = [g1, g2, *known]
    out = []
    for e, v in symdiff(h).items():
        wall = act_on_eclass(g1, e)
        inside = [p for p in points if gz_member(p, wall)]
        if not inside or len(inside) == len(points):
            continue
        # v = +1 marks (g1^-1 g2)Z \ Z, whose g1-translate lies in g2Z only
        out.append((wall, -v))
    out.sort(key=lambda kv: kv[0].sort_key())
    return out


# -- the Cayley-ball audit ------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    radius: int
    ball_size: int
    within_threshold: int


@dataclass(frozen=True)
class AuditReport:
    threshold: int
    rows: tuple[AuditRow, ...]
    stabilized: bool

    def counts(self) -> list[int]:
        return [r.within_threshold for r in self.rows]


def properness_audit(
    group: SelfSimilarGroup,
    generators: Iterable[CanonicalElement],
    radius: int,
    threshold: int,
) -> AuditReport:
    """Count elements of bounded zipper length in growing Cayley balls.

    Breadth-first search over products of the symmetrized generators; for
    every radius up to the bound, reports the ball size and how many
    distinct elements in the ball have zipper length <= threshold.  The
    report carries a `stabilized` flag set when that count did not change
    over the last two radius increments.  Lengths are computed from the
    maximal-partition size (2(n-1)/(d-1)); the equality of that formula
    with the symmetric-difference size is covered by the test suite.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = group.alphabet.size
    gens: list[CanonicalElement] = []
    seen_gen = set()
    for g in generators:
        if g.group != group:
            raise IncompatibleElementsError("generator over a different structure")
        for h in (g, invert(g)):
            k = h.packed()
            if len(h.rows) > 1 or h.rows[0].germ or h.rows[0].target:
                if k not in seen_gen:
                    seen_gen.add(k)
                    gens.append(h)

    def fast_length(e: CanonicalElement) -> int:
        return 2 * (len(e.rows) - 1) // (d - 1)

    start = identity(group)
    visited = {start.packed()}
    frontier = [start]
    count = 1 if fast_length(start) <= threshold else 0
    rows = [AuditRow(0, 1, count)]
    for r in range(1, radius + 1):
        new_frontier = []
        for x in frontier:
            for s in gens:
                y = compose(s, x)
                k = y.packed()
                if k not in visited:
                    visited.add(k)
                    new_frontier.append(y)
                    if fast_length(y) <= threshold:
                        count += 1
        frontier = new_frontier
        rows.append(AuditRow(r, len(visited), count))
    stabilized = (
        len(rows) >= 3
        and rows[-1].within_threshold == rows[-2].within_threshold == rows[-3].within_threshold
    )
    return AuditReport(threshold, tuple(rows), stabilized)


# -- the two-classes demonstration ---------------------------------------------


@dataclass(frozen=True)
class NowallsReport:
    """Witnesses that the naive orbit walls cannot separate two classes.

    `first_class` (an inclusion class) lies in gZ for every witness g while
    `second_class` lies in none of them, although `covering_element` shows
    the second class does lie in hZ for some h of the full group.
    """

    first_class: EmbeddingClass
    second_class: EmbeddingClass
    witnesses: tuple[CanonicalElement, ...]
    first_in_translates: tuple[bool, ...]
    second_in_translates: tuple[bool, ...]
    covering_element: CanonicalElement
    ok: bool


def nowalls_demo(group: SelfSimilarGroup, count: int) -> NowallsReport:
    """Produce `count` distinct local isometries fixing the ball at 0
    pointwise; each keeps the inclusion class of that ball inside its
    translated family while a second class (an embedding of ball 1 with a
    non-ball image) stays outside all of them.

    Only the binary alphabet with trivial germs is supported: the second
    class is the map fixing 10* and sending 11w to 111w, and the witnesses
    are cyclic shifts of ever deeper uniform partitions of ball 1.
    """
    if group.alphabet.size != 2 or group.size != 1:
        raise UnsupportedStructureError("the demonstration needs the binary alphabet with trivial germs")
    if count < 1:
        raise ValueError("count must be >= 1")
    first = incl_class(group, (0,))
    f2 = SimTable(
        group,
        EMBEDDING,
        (Row((1, 0), (1, 0), 0), Row((1, 1), (1, 1, 1), 0)),
    )
    second = canonical_eclass(f2, (1,))

    witnesses = [identity(group)]
    depth = 1
    while len(witnesses) < count:
        leaves = [(1,) + w for w in itertools.product((0, 1), repeat=depth)]
        rows = [Row((0,), (0,), 0)]
        n = len(leaves)
        rows.extend(Row(leaves[i], leaves[(i + 1) % n], 0) for i in range(n))
        g = CanonicalElement(_trusted_table(group, ELEMENT, _reduce_rows(group, rows)))
        witnesses.append(g)
        depth += 1
    if len({w.packed() for w in witnesses}) != len(witnesses):
        raise InvalidClassError("the witnesses must be distinct elements")

    first_in = tuple(gz_member(g, first) for g in witnesses)
    second_in = tuple(gz_member(g, second) for g in witnesses)

    # an element whose translate does contain the second class: extend the
    # second embedding to a bijection of the whole space by a small search
    # over matchings of ball 0 onto the uncovered targets
    image = [r.target for r in f2.rows]
    missing = complement_balls(group.alphabet, image)
    srcs: list[Word] = [(0,)]
    while len(srcs) < len(missing):
        w = min(srcs, key=len)
        srcs.remove(w)
        srcs.extend(w + (a,) for a in group.alphabet.letters)
    covering = None
    for assignment in itertools.permutations(missing):
        rows = list(f2.rows) + [Row(s, t, 0) for s, t in zip(sorted(srcs), assignment)]
        cand = CanonicalElement(_trusted_table(group, ELEMENT, _reduce_rows(group, rows)))
        if gz_member(cand, second):
            covering = cand
            break
    ok = all(first_in) and not any(second_in) and covering is not None
    if covering is None:
        covering = identity(group)
    return NowallsReport(first, second, tuple(witnesses), first_in, second_in, covering, ok)
