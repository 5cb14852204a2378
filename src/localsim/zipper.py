"""The translated-inclusion action and its length, cocycle, and walls.

The ambient set consists of classes of ball embeddings: an embedding given
by a table with domain the whole space, taken up to right twist by the
finitely many global ball similarities.  These classes are the library's
only embeddings; a `CanonicalElement` is always a group element.  The
distinguished family Z inside the ambient set collects the classes of
plain ball inclusions, one per ball.  A group element g translates a
class by post-composition, and gZ differs from Z in only finitely many
classes; the signed difference is the value of a 1-cocycle at g, its
support size is a length function, and the classes in the difference are
the walls separating the orbit points Z and gZ.

Each quantity has one derivation.  `symdiff` reads the difference off the
maximal partitions.  Each ball properly containing a maximal ball of the
inverse loses its inclusion class.  Each ball B properly containing a
maximal ball of g picks up the class of g restricted to B, read straight
off the reduced table of g: the rows under B with B stripped from their
sources are already reduced, because a mergeable family among them would
be mergeable in g, so only twist minimization is left to do.  Every entry
is still checked against the membership tests before it is emitted;
membership in gZ translates back by the inverse, computed once per
element, and tests for a one-row table.

The entries are the internal nodes of the two maximal-partition trees, and
a complete code of n balls over d letters has (n-1)/(d-1) internal nodes,
so `zipper_length` is the closed form 2(n-1)/(d-1); the test suite checks
it against the size of `symdiff`.  `SignedSupport.translate` is the one
translation of a support, used by the cocycle identity and by the
separating walls.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .elements import (
    CanonicalElement,
    Row,
    SimTable,
    _compose_rows,
    _reduce_rows,
    _trusted_table,
    compose,
    format_element,
    identity,
    invert,
    max_partition,
)
from .errors import IncompatibleElementsError, InvalidClassError, UnsupportedStructureError
from .structure import SelfSimilarGroup
from .words import Word, is_complete_code, is_prefix


@dataclass(frozen=True)
class EmbeddingClass:
    """Canonical representative of an embedding class.

    The table's sources are a complete code and its targets pairwise
    disjoint balls; it is reduced, and it is the lexicographically least
    among its right twists by the global ball similarities.  Two
    embeddings define the same class iff their canonical representatives
    are equal.  This is the library's one representation of an embedding.
    """

    table: SimTable

    @property
    def group(self) -> SelfSimilarGroup:
        return self.table.group

    @property
    def rows(self) -> tuple[Row, ...]:
        return self.table.rows

    def __repr__(self) -> str:
        return f"<class {format_element(self)}>"


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
    return _trusted_table(group, tuple(sorted(rows)))


def _eclass(group: SelfSimilarGroup, rows: tuple[Row, ...]) -> EmbeddingClass:
    """The class of the embedding with these reduced rows, sorted by source:
    the least of its right twists."""
    table = _trusted_table(group, rows)
    if group.size > 1:
        table = min((_twist(table, s) for s in range(group.size)), key=lambda t: t.rows)
    return EmbeddingClass(table)


def canonical_eclass(f: SimTable, ball: Word) -> EmbeddingClass:
    """The class of an embedding defined on the ball at `ball`.

    The sources of f must partition that ball; its targets are not checked.
    The class is represented on the whole space by precomposing with the
    canonical similarity onto the ball (strip the ball address off every
    source), then reduced and twist minimized.
    """
    group = f.group
    ball = group.alphabet.check_word(ball)
    if not f.rows:
        raise InvalidClassError("empty table")
    for r in f.rows:
        if not is_prefix(ball, r.source):
            raise InvalidClassError(f"source {r.source} is outside the ball {ball}")
    stripped = [Row(r.source[len(ball):], r.target, r.germ) for r in f.rows]
    if not is_complete_code([r.source for r in stripped], group.alphabet.size):
        raise InvalidClassError(f"sources do not partition the ball {ball}")
    return _eclass(group, _reduce_rows(group, stripped))


def incl_class(group: SelfSimilarGroup, ball: Word) -> EmbeddingClass:
    """The class of the plain inclusion of the ball at `ball`.

    Its canonical representative is the single row () -> ball with identity
    germ (any germ twists away, and the identity germ is least).
    """
    ball = group.alphabet.check_word(ball)
    return EmbeddingClass(_trusted_table(group, (Row((), ball, 0),)))


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
    return _eclass(g.group, _reduce_rows(g.group, _compose_rows(g.group, g.rows, e.table.rows)))


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

    def items(self) -> list[tuple[EmbeddingClass, int]]:
        return sorted(self._map.items(), key=lambda kv: kv[0].table.rows)

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
        e = _eclass(group, tuple(Row(s[k:], t, germ) for s, t, germ in rows[lo:hi]))
        if z_member(e) or not gz_member(g, e):
            raise InvalidClassError("translated class failed its membership check")
        if e in out:
            raise InvalidClassError("the two sides of the difference must be disjoint")
        out[e] = 1
    return SignedSupport(out)


def zipper_length(g: CanonicalElement) -> int:
    """Size of the symmetric difference between gZ and Z, in closed form.

    Both maximal partitions of g have n balls, and each contributes its
    (n-1)/(d-1) internal nodes, so the size is 2(n-1)/(d-1).  Every
    `CanonicalElement` is a group element, so both partitions are complete.
    """
    return 2 * (len(g.rows) - 1) // (g.group.alphabet.size - 1)


def cocycle_identity_defect(g1: CanonicalElement, g2: CanonicalElement) -> int:
    """Number of classes violating the cocycle identity for the pair.

    The identity predicts the value at g1*g2 as the g1-translate of the
    value at g2 plus the value at g1.  All three sides are finitely
    supported, so comparing them over the union of supports is exact.
    """
    lhs = symdiff(compose(g1, g2)).as_dict()
    pred = symdiff(g1).as_dict()
    for e, v in symdiff(g2).translate(g1).as_dict().items():
        pred[e] = pred.get(e, 0) + v
    pred = {e: v for e, v in pred.items() if v}
    keys = set(lhs) | set(pred)
    return sum(1 for e in keys if lhs.get(e, 0) != pred.get(e, 0))


# -- walls --------------------------------------------------------------------


def wall_separation(g1: CanonicalElement, g2: CanonicalElement) -> int:
    """Number of classes lying in exactly one of g1Z, g2Z.

    By left invariance this is the zipper length of g1^-1 g2.
    """
    return zipper_length(compose(invert(g1), g2))


def separating_walls(g1: CanonicalElement, g2: CanonicalElement) -> list[tuple[EmbeddingClass, int]]:
    """The classes separating g1Z from g2Z, each with the side of g1Z, sorted.

    Side +1 means the class lies in g1Z only, -1 in g2Z only.  The walls
    are the g1-translate of the symmetric difference of h = g1^-1 g2, with
    the signs flipped: a +1 entry lies in hZ only, so its translate lies in
    g2Z only, and a -1 entry lies in Z only, so its translate lies in g1Z
    only.
    """
    walls = symdiff(compose(invert(g1), g2)).translate(g1)
    return [(e, -v) for e, v in walls.items()]


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
    over the last two radius increments.  Lengths come from
    `zipper_length`.

    Each frontier element remembers the generator that reached it.  Its
    product with that generator's inverse is its parent, which is already
    visited, so that product is skipped; the counts do not change.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    start = identity(group)
    gens: list[CanonicalElement] = []
    # the position in gens of each generator's inverse; the symmetrized set
    # holds every inverse, because generators enter it with theirs
    inverse_at: list[int] = []
    # the identity is seen from the start, so it never becomes a generator
    seen_gen = {start.packed()}
    for g in generators:
        if g.group != group:
            raise IncompatibleElementsError("generator over a different structure")
        h = invert(g)
        k = g.packed()
        if k in seen_gen:
            continue
        k_inv = h.packed()
        i = len(gens)
        seen_gen.add(k)
        gens.append(g)
        if k_inv == k:
            inverse_at.append(i)
        else:
            seen_gen.add(k_inv)
            gens.append(h)
            inverse_at += (i + 1, i)

    visited = {start.packed()}
    # the generator that reached each frontier element, in a parallel list of
    # small ints (pairs would cost a tuple per element); -1 for the start
    frontier = [start]
    reached_by = [-1]
    count = 1 if zipper_length(start) <= threshold else 0
    rows = [AuditRow(0, 1, count)]
    for r in range(1, radius + 1):
        new_frontier: list[CanonicalElement] = []
        new_reached_by: list[int] = []
        for x, j in zip(frontier, reached_by):
            back = inverse_at[j] if j >= 0 else -1
            for i, s in enumerate(gens):
                if i == back:
                    continue
                y = compose(s, x)
                k = y.packed()
                if k not in visited:
                    visited.add(k)
                    new_frontier.append(y)
                    new_reached_by.append(i)
                    if zipper_length(y) <= threshold:
                        count += 1
        frontier = new_frontier
        reached_by = new_reached_by
        rows.append(AuditRow(r, len(visited), count))
    stabilized = (
        len(rows) >= 3
        and rows[-1].within_threshold == rows[-2].within_threshold == rows[-3].within_threshold
    )
    return AuditReport(threshold, tuple(rows), stabilized)


# -- the two-classes demonstration ---------------------------------------------


_MAX_WITNESSES = 16


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
    are cyclic shifts of ever deeper uniform partitions of ball 1.  Witness
    k has 2^(k-1) leaves, so `count` is limited to 16.
    """
    if group.alphabet.size != 2 or group.size != 1:
        raise UnsupportedStructureError("the demonstration needs the binary alphabet with trivial germs")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _MAX_WITNESSES:
        raise UnsupportedStructureError(
            f"the demonstration is limited to {_MAX_WITNESSES} witnesses, got {count}: "
            "witness k has 2^(k-1) leaves"
        )
    first = incl_class(group, (0,))
    f2 = SimTable(group, (Row((1, 0), (1, 0), 0), Row((1, 1), (1, 1, 1), 0)))
    second = canonical_eclass(f2, (1,))

    witnesses = [identity(group)]
    depth = 1
    while len(witnesses) < count:
        leaves = [(1,) + w for w in itertools.product((0, 1), repeat=depth)]
        rows = [Row((0,), (0,), 0)]
        n = len(leaves)
        rows.extend(Row(leaves[i], leaves[(i + 1) % n], 0) for i in range(n))
        g = CanonicalElement(_trusted_table(group, _reduce_rows(group, rows)))
        witnesses.append(g)
        depth += 1
    if len({w.packed() for w in witnesses}) != len(witnesses):
        raise InvalidClassError("the witnesses must be distinct elements")

    first_in = tuple(gz_member(g, first) for g in witnesses)
    second_in = tuple(gz_member(g, second) for g in witnesses)

    # an element whose translate does contain the second class: the second
    # embedding extended to a bijection by sending ball 0 onto the balls its
    # image leaves uncovered, 0 and 110 (the table is already reduced)
    rows = (Row((0, 0), (0,), 0), Row((0, 1), (1, 1, 0), 0)) + f2.rows
    covering = CanonicalElement(_trusted_table(group, rows))
    ok = all(first_in) and not any(second_in) and gz_member(covering, second)
    return NowallsReport(first, second, tuple(witnesses), first_in, second_in, covering, ok)
