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

Each quantity has one derivation.  `_entries` reads the difference off the
maximal partitions.  Each ball properly containing a maximal ball of the
inverse loses its inclusion class.  The gained classes are a translate by
definition, gZ ∖ Z = g(Z ∖ g⁻¹Z): each ball B properly containing a
maximal ball of g gives g applied to the inclusion class of B, and that
translate has a closed form, read off g's rows.  The one row e -> B of the
inclusion straddles g's maximal balls, so the translate is the rows of g
under B, with B stripped off their sources, and they are reduced as they
stand: a mergeable family among them would be a mergeable family of g.
Each side keeps one check: a -1 entry is checked to lie outside gZ, and a
+1 entry to have two rows or more, so that it lies outside Z.  A vacated
inclusion class has its one target straddling maximal balls of the
inverse, so `gz_member` decides it at that target's search, and
`max_partition` hands out the element's cached sources, so the partitions
are walked once and never re-checked.

The gained rows come out reduced but not twist minimized.  `symdiff`
minimizes them as they are.  `_moved`, the one translation of a
difference, used by the cocycle identity and the walls, composes them
with the translating element and reduces them, and yields rows, not
classes.  The cocycle identity keys its one tally by the reduced rows its
entries carry, so equal rows cancel before any class is built, and it
minimizes only the keys left nonzero.  That is exact for any entries: a
reduced representative determines its class, so keying by rows refines
keying by class, and merging the leftovers by class gives the same
per-class sums.  It is cheap because each cancelling pair is two copies
of one reduced form, so over trivial germs nothing is minimized, and with
germs only the pairs one copy of which is twisted are.

`act_on_eclass` is the translation everywhere else, for the vacated
classes in `_moved`, and it reduces the composed rows only for a class of
two rows or more.  A one-row class is an inclusion class, with source e;
its translate is one row or the pieces of its one straddled target, which
never merge, by the proof in `gz_member`, which itself builds no class.

A class is canonical as the least of its right twists, and row lists
compare by their first rows first.  For a structure that passes
`validate()`, as every structure the CLI loads does, a twist pulls the
sources back through a tree automorphism, so the least twisted source is
0^j; the row it comes from covers the image of 0^D, D the deepest source,
and one search finds it.  So each twist is ranked by its first row without
being built, and only the twists tied on the least first row, usually one
or none besides the identity, are built and compared in full.

The entries are the internal nodes of the two maximal-partition trees, and
a complete code of n balls over d letters has (n-1)/(d-1) internal nodes,
so `zipper_length` is the closed form 2(n-1)/(d-1); the test suite checks
it against the size of `symdiff`, a plain dict from classes to +-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .elements import (
    CanonicalElement,
    _checked_rows,
    _compose_rows,
    _memoizing,
    _precompose,
    _reduce_rows,
    _Table,
    _source,
    _unpack,
    compose,
    format_element,
    identity,
    invert,
    max_partition,
)
from .errors import IncompatibleElementsError, InvalidClassError, UnsupportedStructureError
from .structure import SelfSimilarGroup
from .words import Word, _covering, _is_int, _overlap, _under, is_complete_code


@dataclass(frozen=True, init=False, eq=False)
class EmbeddingClass(_Table):
    """Canonical representative of an embedding class: its reduced rows,
    sorted by source, whose `rows` are `Row`s, a view built on first read.

    The sources are a complete code and the targets pairwise disjoint
    balls; the rows are the lexicographically least among their right
    twists by the global ball similarities.  Two embeddings define the
    same class iff their canonical representatives are equal.  This is the
    library's one representation of an embedding.
    """

    def __repr__(self) -> str:
        return f"<class {format_element(self)}>"


def _eclass(group: SelfSimilarGroup, rows: Sequence[tuple[Word, Word, int]]) -> EmbeddingClass:
    """The class of the embedding with these reduced rows, sorted by source:
    the least of its right twists, compared as row lists.  The twist by the
    global similarity of germ s is the rows precomposed with it, which
    keeps them reduced and their count unchanged; the identity twist is the
    rows themselves.  The class keeps the least as plain triples and builds
    its `rows` view on first read.  A single row e -> w:z twists to e -> w:zs
    over every germ zs, so its class is e -> w.

    Row lists compare by their first rows first, so each twist is first
    ranked by its first row alone, found without building the twist.  The
    structure must pass `validate()`, as every structure the CLI loads
    does: then s acts on words as a tree automorphism, so the twisted
    sources are a complete code and the least of them is 0^j.  The row it
    comes from has the source s(0^j), the one row covering s(0^D), where D
    is the deepest source; pulled back as `_precompose` pulls it, it is
    the twist's first row.  Only the twists tied on the least first row,
    usually one, are built and compared in full.
    """
    if len(rows) == 1:
        return EmbeddingClass(group, (("", rows[0][1], 0),))
    if group.size > 1:
        sources = tuple(map(_source, rows))
        probe = "\0" * max(map(len, sources))
        act_word, inv, mul = group.act_word, group.inv, group.mul
        least, tied = rows[0], [0]
        for s in range(1, group.size):
            v, w, z = rows[_covering(sources, act_word(s, probe)[0])]
            u, rest = act_word(inv[s], v)
            first = (u, w, mul[z][inv[rest]])
            if first < least:
                least, tied = first, [s]
            elif first == least:
                tied.append(s)
        rows = min(_precompose(group, rows, 0, "", s) if s else list(rows) for s in tied)
    return EmbeddingClass(group, tuple(rows))


def canonical_eclass(group: SelfSimilarGroup, rows: Iterable[tuple], ball: Word) -> EmbeddingClass:
    """The class of an embedding defined on the ball at `ball`, given by
    (source, target, germ) triples as `reduce` takes them.

    Letters and germs are checked first.  The sources must partition that
    ball and the targets must be pairwise disjoint.  The class is
    represented on the whole space by precomposing with the canonical
    similarity onto the ball (strip the ball address off every source),
    then reduced and twist minimized.
    """
    rows = _checked_rows(group, rows)
    fmt = group.alphabet.format_word
    ball = group.alphabet.check_word(ball)
    for src, _, _ in rows:
        if not src.startswith(ball):
            raise InvalidClassError(f"source {fmt(src)} is outside the ball {fmt(ball)}")
    stripped = _precompose(group, rows, len(ball), "", 0)
    sources = tuple(map(_source, stripped))
    clash = _overlap(sources)
    if clash is not None:
        raise InvalidClassError(f"sources {fmt(ball + clash[0])} and {fmt(ball + clash[1])} overlap")
    if not is_complete_code(sources, group.alphabet.size):
        raise InvalidClassError(f"sources do not partition the ball {fmt(ball)}")
    clash = _overlap(tuple(sorted(t for _, t, _ in rows)))
    if clash is not None:
        raise InvalidClassError(f"targets {fmt(clash[0])} and {fmt(clash[1])} overlap")
    return _eclass(group, _reduce_rows(group, stripped))


def incl_class(group: SelfSimilarGroup, ball: Word) -> EmbeddingClass:
    """The class of the plain inclusion of the ball at `ball`.

    Its canonical representative is the single row e -> ball with identity
    germ (any germ twists away, and the identity germ is least).
    """
    ball = group.alphabet.check_word(ball)
    return EmbeddingClass(group, (("", ball, 0),))


def z_member(e: EmbeddingClass) -> bool:
    """Whether the class belongs to the inclusion family.

    A class is an inclusion class iff its reduced representative is a
    single row, i.e. the embedding is one similarity onto a ball.
    """
    return len(e._rows) == 1


def act_on_eclass(g: CanonicalElement, e: EmbeddingClass) -> EmbeddingClass:
    """Translate a class by post-composition with a group element; `_moved`
    moves the vacated classes of a difference through it.

    The composed rows are reduced only when the class has two rows or more.
    A one-row class has source e, so its translate is one row when its
    target lies inside one maximal ball of g, and otherwise the pieces of
    that one straddled target, which never merge, as `gz_member` proves.
    Either way it is reduced as it stands.
    """
    if e.group is not g.group and e.group != g.group:
        raise IncompatibleElementsError("element and class over different structures")
    rows = _compose_rows(g, e._rows)
    if len(e._rows) > 1:
        rows = _reduce_rows(g.group, rows)
    return _eclass(g.group, rows)


def gz_member(g: CanonicalElement, e: EmbeddingClass) -> bool:
    """Whether the class belongs to the g-translate of the inclusion family:
    whether the inverse h translates it to an inclusion class.

    A target of e that is not inside one maximal ball of h decides the
    answer: the class is not in gZ.  The composition replaces such a
    target t of an e-row r by pieces: the d or more rows of h under t,
    precomposed with the one similarity of r.  A sibling family that
    contains a piece has its parent at or below the source of r, so all
    its members are pieces of r, and pulled back through that similarity
    a mergeable family among them would be a mergeable family of h, which
    is reduced.  So no piece ever merges, at least d >= 2 rows remain, and
    the translate is not an inclusion class.  Each target is therefore
    looked up among h's cached sources first.  When none straddles, a
    one-row class composes to one row, and a longer one is composed and
    reduced and its rows counted, which the twists keep: no class is built.
    """
    if e.group is not g.group and e.group != g.group:
        raise IncompatibleElementsError("element and class over different structures")
    h = g._inverse
    sources = h._sources_depth[0]
    for _, target, _ in e._rows:
        if _covering(sources, target) < 0:
            return False
    return len(e._rows) == 1 or len(_reduce_rows(g.group, _compose_rows(h, e._rows))) == 1


def _entries(g: CanonicalElement) -> tuple[list[EmbeddingClass], list[list[tuple[Word, Word, int]]]]:
    """The two sides of the difference of gZ and Z, derived as `symdiff`
    describes: the vacated inclusion classes, each checked to lie outside
    gZ, and the gained classes as g's rows under each ball with the ball
    stripped, reduced and sorted but not twist minimized, each checked to
    have two rows or more."""
    group = g.group
    vacated = []
    for b in max_partition(g._inverse).proper_prefixes():
        e = EmbeddingClass(group, (("", b, 0),))
        if gz_member(g, e):
            raise InvalidClassError("vacated inclusion class failed its membership check")
        vacated.append(e)
    sources, d = g._sources_depth[0], group.alphabet.size
    gained = []
    for b in max_partition(g).proper_prefixes():
        lo, hi = _under(sources, b, d)
        rows = _precompose(group, g._rows[lo:hi], len(b), "", 0)
        if len(rows) < 2:
            raise InvalidClassError("translated class failed its membership check")
        gained.append(rows)
    return vacated, gained


def symdiff(g: CanonicalElement) -> dict[EmbeddingClass, int]:
    """The difference of the translated and plain inclusion families, as a
    map from each class in it to its sign.

    -1 entries: for each ball B properly containing a maximal ball of the
    inverse, the inclusion class of B (in Z but not gZ), one row built
    from a checked code and checked to lie outside gZ.  +1 entries: the
    g-translate of Z ∖ g⁻¹Z, as gZ ∖ Z = g(Z ∖ g⁻¹Z), so for each ball
    B properly containing a maximal ball of g, g applied to the inclusion
    class of B, checked to have two rows or more, so it lies outside Z
    and apart from the -1 entries.  That translate is read off g in closed
    form: B straddles g's maximal balls, so composing g after the inclusion
    gives the rows of g under B with B stripped, found by one `_under`
    search among g's cached sources.  They are reduced already, since a
    mergeable family among them would be one of g, so only the twist
    minimization of `_eclass` is left.  Distinct balls give distinct
    classes on each side, as g permutes the classes.  The map's iteration
    order is not part of the contract; sort by the classes' rows where
    order matters.
    """
    vacated, gained = _entries(g)
    group = g.group
    return dict([(e, -1) for e in vacated] + [(_eclass(group, rows), 1) for rows in gained])


def _moved(g: CanonicalElement, h: CanonicalElement) -> Iterator[tuple[tuple, int]]:
    """The entries of `symdiff(h)` moved by g, as (rows, sign) pairs made
    one at a time; g permutes the classes, so no two land on one.

    A vacated class is moved by `act_on_eclass` and yields its canonical
    rows.  A gained class is moved from h's raw rows r: composed with g and
    reduced, not minimized.  Those rows are a representative of the
    translate of r's class, because translation is well defined on
    classes: the canonical representative of r's class is rs for a right
    twist s, and g(rs) = (gr)s.  So `_eclass` of them is the translate's
    canonical representative, and a caller minimizes them only where it
    needs the class.
    """
    vacated, gained = _entries(h)
    group = g.group
    for e in vacated:
        yield act_on_eclass(g, e)._rows, -1
    for rows in gained:
        yield _reduce_rows(group, _compose_rows(g, rows)), 1


def zipper_length(g: CanonicalElement) -> int:
    """Size of the symmetric difference between gZ and Z, in closed form.

    Both maximal partitions of g have n balls, and each contributes its
    (n-1)/(d-1) internal nodes, so the size is 2(n-1)/(d-1).  Every
    `CanonicalElement` is a group element, so both partitions are complete.
    """
    return 2 * (len(g._rows) - 1) // (g.group.alphabet.size - 1)


def cocycle_identity_defect(g1: CanonicalElement, g2: CanonicalElement) -> int:
    """Number of classes violating the cocycle identity for the pair.

    The identity predicts the value at g1*g2 as the g1-translate of the
    value at g2 plus the value at g1.  All three sides are finitely
    supported, so comparing them over the union of supports is exact; a
    prediction of 0 and a missing entry compare equal.

    One tally, keyed by plain row tuples, which hash in C, adds the
    prediction and subtracts the value at g1*g2, dropping each key that
    reaches 0.  Each entry is keyed by the reduced rows it already
    carries: the inclusion row of a vacated class, the raw rows from
    `_entries` of a gained one, and for the value at g2, which is never
    built as a map, the rows `_moved` yields.  Only the keys left nonzero
    are minimized by `_eclass` and tallied again, and what is left then
    counts.  That is exact for any entries: a reduced representative
    determines its class, so keying by rows refines keying by class, and
    merging the leftovers by class gives the same per-class sums.  Little
    is left, because each cancelling pair is two copies of one reduced
    form: g1g2ι_B read off g1*g2 at a ball B against g1 composed with g2's
    rows at B, and g1ι_b read off g1 at a ball b against the translate of
    ι_b, ι being an inclusion.  Over trivial germs nothing is minimized,
    and with germs only the pairs one copy of which is twisted are.  The
    composition comes first, so elements over different structures raise
    before any class is built.
    """
    product = compose(g1, g2)
    tally: dict[tuple[tuple[Word, Word, int], ...], int] = {}

    def add(entries: Iterable[tuple[tuple, int]], sign: int) -> None:
        for rows, v in entries:
            left = tally.pop(rows, 0) + sign * v
            if left:
                tally[rows] = left

    for g, sign in ((product, -1), (g1, 1)):
        vacated, gained = _entries(g)
        add([(e._rows, -1) for e in vacated] + [(tuple(rows), 1) for rows in gained], sign)
    add(_moved(g1, g2), 1)
    leftovers, tally = tally, {}
    add([(_eclass(product.group, rows)._rows, v) for rows, v in leftovers.items()], 1)
    return len(tally)


# -- walls --------------------------------------------------------------------


def wall_separation(g1: CanonicalElement, g2: CanonicalElement) -> int:
    """Number of classes lying in exactly one of g1Z, g2Z.

    By left invariance this is the zipper length of g1^-1 g2.  The inverse
    is the one cached on g1, so a base element measured against many
    others is inverted, and its sources listed for the search, once.
    """
    return zipper_length(compose(g1._inverse, g2))


def separating_walls(g1: CanonicalElement, g2: CanonicalElement) -> list[tuple[EmbeddingClass, int]]:
    """The classes separating g1Z from g2Z, each with the side of g1Z, sorted.

    Side +1 means the class lies in g1Z only, -1 in g2Z only.  The walls
    are the g1-translate of the symmetric difference of h = g1^-1 g2, with
    the signs flipped: a +1 entry lies in hZ only, so its translate lies in
    g2Z only, and a -1 entry lies in Z only, so its translate lies in g1Z
    only.  `_moved` translates them, and each is minimized at most once:
    a vacated class comes canonical from `act_on_eclass`, and only a
    gained class's reduced rows go through `_eclass`.  The composition
    comes first, so elements over different structures raise before any
    class is built.
    """
    walls = _moved(g1, compose(g1._inverse, g2))
    classes = ((EmbeddingClass(g1.group, rows) if v < 0 else _eclass(g1.group, rows), -v) for rows, v in walls)
    return sorted(classes, key=lambda ev: ev[0]._rows)


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

    The search keeps no elements between spheres.  One dict maps the
    `packed()` key of every element reached to a mask of generators to
    skip from it, and a sphere is a list of those keys, each decoded by
    `elements._unpack` when it is popped, its mask read then.  Generator i
    takes x to y exactly when i's inverse takes y back to x.  So when x's
    product with generator i is a y already reached, y's mask gains the
    bit of i's inverse, and a new y starts with that bit alone, as x is
    its parent.  A masked product is an element already expanded, so
    skipping it changes no count, and a bit set on a key already expanded
    is never read.  An edge of the Cayley graph out to the next sphere is
    composed once, an edge within one sphere once, from the end expanded
    first, and an edge back to the sphere before never, whatever the order
    within a sphere, as only an expanded element sets a mask bit.

    The outermost sphere is counted, not listed.  Memory holds one key and
    one mask per element reached, a list slot per key of the sphere being
    expanded and of the next, one tuple of sources per shape decoded, and,
    in each generator's copy from `elements._memoizing`, one image per
    distinct target word composed through it, released with the call.
    """
    if not isinstance(group, SelfSimilarGroup):
        raise UnsupportedStructureError(f"group must be a SelfSimilarGroup, got {group!r}")
    for name, value in (("radius", radius), ("threshold", threshold)):
        if not _is_int(value):
            raise UnsupportedStructureError(f"{name} must be an integer, got {value!r}")
    if radius < 0:
        raise UnsupportedStructureError("radius must be >= 0")
    try:
        generators = iter(generators)
    except TypeError:
        raise UnsupportedStructureError(f"generators must be an iterable of elements, got {generators!r}") from None
    start = identity(group)
    # the symmetrized generators in first-seen order, each mapped to its
    # inverse; the identity is left out, as the start is visited already
    inverses: dict[CanonicalElement, CanonicalElement] = {}
    for g in generators:
        if not isinstance(g, CanonicalElement):
            raise UnsupportedStructureError(f"generators must hold elements, got {g!r}")
        if g.group is not group and g.group != group:
            raise IncompatibleElementsError("generator over a different structure")
        if g != start and g not in inverses:
            h = invert(g)
            inverses[g] = h
            inverses[h] = g
    position = {g: i for i, g in enumerate(inverses)}
    # each generator with its own mask bit and the bit of its inverse
    steps = [(_memoizing(g), 1 << i, 1 << position[h]) for i, (g, h) in enumerate(inverses.items())]

    key = start.packed()
    seen = {key: 0}
    frontier = [key]
    shapes: dict[str, tuple[Word, ...]] = {}
    count = 1 if zipper_length(start) <= threshold else 0
    rows = [AuditRow(0, 1, count)]
    for r in range(1, radius + 1):
        found: list[str] = []
        keep = r < radius
        while frontier:
            key = frontier.pop()
            skip = seen[key]
            x = _unpack(group, key, shapes)
            for s, bit, back in steps:
                if skip & bit:
                    continue
                y = compose(s, x)
                k = y.packed()
                mask = seen.get(k)
                if mask is None:
                    seen[k] = back
                    if keep:
                        found.append(k)
                    if zipper_length(y) <= threshold:
                        count += 1
                else:
                    seen[k] = mask | back
        frontier = found
        rows.append(AuditRow(r, len(seen), count))
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
    k > 1 has 2^(k-1)+1 rows, so no two are equal, and `count` is limited
    to 16.
    """
    if group.alphabet.size != 2 or group.size != 1:
        raise UnsupportedStructureError("the demonstration needs the binary alphabet with trivial germs")
    if not _is_int(count):
        raise UnsupportedStructureError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise UnsupportedStructureError("count must be >= 1")
    if count > _MAX_WITNESSES:
        raise UnsupportedStructureError(
            f"the demonstration is limited to {_MAX_WITNESSES} witnesses, got {count}: "
            "witness k has 2^(k-1) leaves"
        )
    w = group.alphabet.parse_word
    first = incl_class(group, w("0"))
    second_rows = ((w("10"), w("10"), 0), (w("11"), w("111"), 0))
    second = canonical_eclass(group, second_rows, w("1"))

    witnesses = [identity(group)]
    depth = 1
    while len(witnesses) < count:
        leaves = [w("1") + "".join(u) for u in itertools.product(w("01"), repeat=depth)]
        rows = [(w("0"), w("0"), 0)]
        n = len(leaves)
        rows.extend((leaves[i], leaves[(i + 1) % n], 0) for i in range(n))
        g = CanonicalElement(group, _reduce_rows(group, rows))
        witnesses.append(g)
        depth += 1

    first_in = tuple(gz_member(g, first) for g in witnesses)
    second_in = tuple(gz_member(g, second) for g in witnesses)

    # an element whose translate does contain the second class: the second
    # embedding extended to a bijection by sending ball 0 onto the balls its
    # image leaves uncovered, 0 and 110 (the table is already reduced)
    rows = ((w("00"), w("0"), 0), (w("01"), w("110"), 0)) + second_rows
    covering = CanonicalElement(group, rows)
    ok = all(first_in) and not any(second_in) and gz_member(covering, second)
    return NowallsReport(first, second, tuple(witnesses), first_in, second_in, covering, ok)
