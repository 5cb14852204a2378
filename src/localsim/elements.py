"""Group elements as germ-decorated prefix-replacement tables.

A table row (source, target, germ) declares: on the ball at `source`, the
map replaces the source address by `target` and lets the germ act on the
tail.  A table whose sources and targets are both complete codes, in
bijection, describes a homeomorphism of the boundary: a group element.
`reduce` and `parse_element` accept no other table.  Embeddings of the
whole space into itself appear only as the points the group acts on, the
embedding classes of `zipper`, which reduce their rows with the same pass.
An element or a class is its group and its reduced rows; `SimTable` is
only the checked input form that `reduce` and `canonical_eclass` take.

Two moves generate everything here.  Expansion replaces a row by its d
children (one letter deeper, targets pushed through the germ's action,
germs replaced by restrictions) and never changes the map.  Reduction is
the inverse rewrite: a full family of sibling rows whose effect agrees
with a single similarity collapses to its parent.  Reduction is confluent
because the balls on which the map agrees with one similarity around a
point form a chain, so every table has a unique reduced form.  Reduced
tables are canonical: two tables describe the same map iff their reduced
sorted forms coincide, and the reduced source code is the coarsest ball
partition on which the map acts by single similarities.

Reduction runs over rows sorted by source, in one pass.  A sorted prefix
code lists its tree in preorder, so the rows are shifted onto a stack and
a sibling family is tried as soon as its last child is on top; a merge
puts the parent on top, which may complete the family above it.
Composition feeds this pass directly, with plain tuples sorted by source;
only the reduced rows become `Row`s.  Each row of h either chains with
the one row of g around its target, or precomposes the rows of g under
the target with its similarity, pulling their source tails back through
its germ.  The twists and restriction classes of `zipper` precompose too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    IncompatibleElementsError,
    InvalidCodeError,
    LiteralParseError,
    MalformedStructureError,
    NoSuchRowError,
    UnsupportedStructureError,
)
from .structure import SelfSimilarGroup, germ_apply
from .words import (
    Point,
    PrefixCode,
    Word,
    _canonical,
    _covering,
    _is_int,
    _overlap,
    _trusted_code,
    _trusted_point,
    _under,
    is_complete_code,
)


class Row(NamedTuple):
    source: Word
    target: Word
    germ: int


_source = itemgetter(0)


@dataclass(frozen=True)
class SimTable:
    """The checked input form of a table: rows sorted by source word.

    Construction checks letters and germs only, so that an unreduced or
    broken table can be built and diagnosed by `validate_table`, expanded
    by `expand_at`, turned into an element by `reduce` once both columns
    are complete codes, or into an embedding class by `canonical_eclass`.
    Elements and classes keep only the group and the reduced rows.
    """

    group: SelfSimilarGroup
    rows: tuple[Row, ...]

    def __post_init__(self):
        alphabet = self.group.alphabet
        rows = []
        for r in self.rows:
            src = alphabet.check_word(r.source)
            tgt = alphabet.check_word(r.target)
            if not _is_int(r.germ) or not 0 <= r.germ < self.group.size:
                raise MalformedStructureError(f"no germ {r.germ!r} in {self.group!r}")
            rows.append(Row(src, tgt, r.germ))
        rows.sort(key=_source)
        object.__setattr__(self, "rows", tuple(rows))


def _column_violations(d: int, rows: Sequence[Row]) -> list[str]:
    """The violations of rows sorted by source, whose letters and germs
    are already checked; `validate_table` and `parse_element` share it."""
    if not rows:
        return ["empty-table"]
    out: list[str] = []
    srcs = tuple(map(_source, rows))
    if _overlap(srcs) is not None:
        out.append("domain-not-antichain")
    elif not is_complete_code(srcs, d):
        out.append("incomplete-domain")
    tgts = tuple(sorted(r.target for r in rows))
    if _overlap(tgts) is not None:
        out.append("target-not-antichain")
    elif not is_complete_code(tgts, d):
        out.append("target-incomplete")
    return out


def validate_table(t: SimTable) -> list[str]:
    """Structural violations of a table, as stable diagnostic strings.

    A table is an element when both columns are complete antichains; the
    rows then pair the two codes one to one.
    """
    return _column_violations(t.group.alphabet.size, t.rows)


# -- the rewrite engine ------------------------------------------------------


# a Row from any 3-tuple, without the keyword handling of Row(...)
_as_row = partial(tuple.__new__, Row)


def _precompose(
    group: SelfSimilarGroup, rows: Sequence[tuple[Word, Word, int]], k: int, src: Word, germ: int
) -> list[tuple[Word, Word, int]]:
    """Rows sorted by source, whose sources share a k-letter prefix b,
    after the similarity src+u -> b+germ(u): plain tuples sorted by source.

    A source tail v pulls back through germ^-1 to u, leaving r, the
    restriction of germ^-1 at v; germ at u undoes r, so a row's germ z
    becomes z r^-1.  Pulling back permutes sibling families, which keeps
    the rows reduced but not sorted, so they are sorted again; under the
    identity germ they only trade b for src.
    """
    if not germ:
        return [(src + v[k:], w, z) for v, w, z in rows]
    pull, inv, mul = group.inv[germ], group.inv, group.mul
    out = []
    for v, w, z in rows:
        u, rest = group.act_word(pull, v[k:])
        out.append((src + u, w, mul[z][inv[rest]]))
    out.sort()
    return out


def _compose_rows(g: CanonicalElement, h_rows: Sequence[Row]) -> list[tuple[Word, Word, int]]:
    """Rows of g after h (h applied first), as plain tuples sorted by source.

    The h-rows must be sorted by source, and each target is looked up
    among g's cached sources by one `_covering` search.  A target inside
    one g-row emits one row: the similarities chain, and the composite germ
    is g's leftover restriction times the h germ.  A target straddling
    several g-rows emits the g-rows under it, found by `_under`, pulled
    back through the h-row by `_precompose`; g's sources are a complete
    code, so those rows cover the target's ball.  Each h-row's rows are
    sorted and inside its source, so all come out sorted by source, ready
    for `_reduce_rows`.  Nothing is built from g beyond its cached sources,
    so translating many small classes by one large element costs only
    their lookups.
    """
    group = g.group
    mul = group.mul
    d = group.alphabet.size
    g_rows = g.rows
    sources = g._sources_depth[0]
    out: list[tuple[Word, Word, int]] = []
    emit = out.append
    for src, tgt, germ in h_rows:
        i = _covering(sources, tgt)
        if i >= 0:
            g_source, g_target, g_germ = g_rows[i]
            k = len(g_source)
            if g_germ:
                path, rest = group.act_word(g_germ, tgt[k:])
                emit((src, g_target + path, mul[rest][germ]))
            else:
                emit((src, g_target + tgt[k:], germ))
        else:
            lo, hi = _under(sources, tgt, d)
            out += _precompose(group, g_rows[lo:hi], len(tgt), src, germ)
    return out


def _reduce_rows(group: SelfSimilarGroup, rows: Iterable[tuple[Word, Word, int]]) -> tuple[Row, ...]:
    """Merge sibling families until none matches a single similarity.

    The rows must be sorted by source, and their sources must form a prefix
    code.  Sorted, a prefix code lists its tree in preorder, so a sibling
    family is complete exactly when its last child (letter d-1) arrives,
    and its members are then the top d entries of a stack of the rows seen
    so far.  Each arrival, and each merge, checks that family once, so one
    shift-reduce pass finds every merge; the rows it leaves are sorted.
    """
    d = group.alphabet.size
    last = chr(d - 1)
    by_action = group._by_action
    stack: list[tuple[Word, Word, int]] = []
    for row in rows:
        stack.append(row)
        src = row[0]
        while src and src[-1] == last and len(stack) >= d:
            parent = src[:-1]
            stem = row[1][:-1]
            letters: list[int] = []
            germs: list[int] = []
            for s, t, g in stack[-d:]:
                if s[:-1] != parent or not t or t[:-1] != stem:
                    break
                letters.append(ord(t[-1]))
                germs.append(g)
            # a family cut short gives a key shorter than any in by_action
            merged = by_action.get(tuple(letters + germs))
            if merged is None:
                break
            del stack[-d:]
            row = (parent, stem, merged)
            stack.append(row)
            src = parent
    return tuple(map(_as_row, stack))


@dataclass(frozen=True)
class CanonicalElement:
    """A group element: its reduced rows, sorted by source, whose two
    columns are complete codes; equality here is equality of maps.

    Build instances through reduce / compose / invert / identity /
    parse_element rather than directly: nothing here checks the rows.
    """

    group: SelfSimilarGroup
    rows: tuple[Row, ...]

    @cached_property
    def _inverse(self) -> "CanonicalElement":
        # membership in gZ translates every class back by the inverse, so
        # it is computed once per element rather than once per class
        return invert(self)

    @cached_property
    def _sources_depth(self) -> tuple[tuple[Word, ...], int]:
        # the sorted sources, which max_partition hands out and every search
        # for a row runs over; apply searches with one prefix of a point, as
        # deep as the deepest source
        sources = tuple(map(_source, self.rows))
        return sources, max(map(len, sources), default=0)

    def packed(self) -> str:
        """One str that tells apart the elements of a group, for dedup
        sets: each row is its source and its target, each led by its
        length as a code point, then its germ as a code point.

        Read left to right, the lengths mark where each word ends, so no
        two row lists give the same str.  A length always fits in a code
        point: a complete code with a word of L letters holds words of
        every length from 1 to L, so at 0x110000 letters its sources alone
        would be some 6 * 10**11 letters long.
        """
        out: list[str] = []
        for s, t, germ in self.rows:
            out += (chr(len(s)), s, chr(len(t)), t, chr(germ))
        return "".join(out)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def reduce(t: SimTable) -> CanonicalElement:
    """The unique reduced form of a table that describes a group element.

    Both columns must be complete codes, as `validate_table` checks.
    InvalidCodeError names two overlapping sources when the sources are no
    prefix code, and lists the violations otherwise.
    """
    violations = validate_table(t)
    if "domain-not-antichain" in violations:
        u, v = map(t.group.alphabet.format_word, _overlap(tuple(map(_source, t.rows))))
        raise InvalidCodeError(f"sources {u} and {v} overlap; not a prefix code")
    if violations:
        raise InvalidCodeError(f"invalid table: {', '.join(violations)}")
    return CanonicalElement(t.group, _reduce_rows(t.group, t.rows))


def identity(group: SelfSimilarGroup) -> CanonicalElement:
    return CanonicalElement(group, (Row("", "", 0),))


def expand_at(t: SimTable, source: Word) -> SimTable:
    """Replace the row at `source` by its d one-letter-deeper children."""
    alphabet = t.group.alphabet
    source = alphabet.check_word(source)
    for r in t.rows:
        if r.source == source:
            break
    else:
        raise NoSuchRowError(f"no row with source {alphabet.format_word(source)}")
    act, res = t.group.act[r.germ], t.group.res[r.germ]
    children = [Row(source + chr(a), r.target + chr(act[a]), res[a]) for a in alphabet.letters]
    rows = tuple(x for x in t.rows if x.source != source) + tuple(children)
    return SimTable(t.group, rows)


def compose(g: CanonicalElement, h: CanonicalElement) -> CanonicalElement:
    """g after h.

    Each row of h either lands inside one row of g, or its target's ball
    is cut by g's sources, which are a complete code, into the rows of g
    under it; `_compose_rows` carries those back through the row of h.
    The result is reduced once.
    """
    if g.group != h.group:
        raise IncompatibleElementsError("cannot compose over different structures")
    rows = _reduce_rows(g.group, _compose_rows(g, h.rows))
    return CanonicalElement(g.group, rows)


def invert(g: CanonicalElement) -> CanonicalElement:
    """Swap the columns and invert the germs.

    No re-reduction is needed: the image of a maximal ball of g is a
    maximal ball of the inverse, so the swapped table is already reduced.
    """
    inv = g.group.inv
    rows = tuple(sorted(Row(t, s, inv[germ]) for s, t, germ in g.rows))
    return CanonicalElement(g.group, rows)


def apply(g: CanonicalElement, x: Point) -> Point:
    """Image of an eventually periodic point.

    The row covering one prefix of x, as deep as g's deepest source, is
    found by `_covering`.  No letter is validated here; the point's were
    checked when it was built and the rows' when the table was, so the
    image is built directly from the tail.
    """
    group = g.group
    if x.alphabet != group.alphabet:
        raise IncompatibleElementsError("point and element live over different alphabets")
    sources, depth = g._sources_depth
    i = _covering(sources, x.prefix(depth))
    if i >= 0:
        src, tgt, germ = g.rows[i]
        tail = x.drop(len(src))
        if germ:
            tail = germ_apply(group, germ, tail)
        return tail._prepend(tgt)
    raise NoSuchRowError(f"no row covers the point {x}")


def max_partition(g: CanonicalElement) -> PrefixCode:
    """The coarsest ball partition on which g acts by single similarities.

    This is just the source code of the reduced table.  Its sources are
    checked, sorted and an antichain already, so the code is the element's
    cached source tuple, with no letter checked, sorted or compared again:
    the first call costs one pass over the rows, later calls nothing.
    """
    return _trusted_code(g.group.alphabet, g._sources_depth[0])


def _require_plain_binary(g: CanonicalElement, what: str) -> None:
    if g.group.alphabet.size != 2 or g.group.size != 1:
        raise UnsupportedStructureError(f"{what} is defined for the binary alphabet with trivial germs")


def is_in_F(g: CanonicalElement) -> bool:
    """Order preserving: the targets increase in source order."""
    _require_plain_binary(g, "order-preserving membership")
    targets = [t for _, t, _ in g.rows]
    return targets == sorted(targets)


def is_in_T(g: CanonicalElement) -> bool:
    """Cyclic-order preserving: the targets increase in source order once
    rotated to start at their least target."""
    _require_plain_binary(g, "cyclic-order membership")
    targets = [t for _, t, _ in g.rows]
    k = targets.index(min(targets))
    return targets[k:] + targets[:k] == sorted(targets)


_MAX_CANDIDATES = 100_000


def enumerate_gamma(
    group: SelfSimilarGroup, p_plus: PrefixCode, p_minus: PrefixCode
) -> tuple[CanonicalElement, ...]:
    """All elements whose maximal partition is exactly p_plus and whose
    inverse has maximal partition exactly p_minus.

    Works by trying every bijection between the codes and every germ
    labelling, keeping the tables in which reduction merges nothing.  Such
    a table is its own reduced form, so its inverse is the swapped table
    with sources p_minus.  There are n! * m^n candidates for codes of n
    balls and m germs; above _MAX_CANDIDATES (100,000) the call raises
    UnsupportedStructureError, naming the count, before enumerating.
    """
    if p_plus.alphabet != group.alphabet or p_minus.alphabet != group.alphabet:
        raise IncompatibleElementsError("codes and structure live over different alphabets")
    if not p_plus.is_complete() or not p_minus.is_complete():
        raise InvalidCodeError("both codes must be complete")
    if len(p_plus) != len(p_minus):
        return ()
    srcs = p_plus.words
    candidates = math.factorial(len(srcs)) * group.size ** len(srcs)
    if candidates > _MAX_CANDIDATES:
        raise UnsupportedStructureError(f"enumeration is limited to {_MAX_CANDIDATES} candidates, got {candidates}")
    out = []
    for perm in itertools.permutations(p_minus.words):
        for germs in itertools.product(range(group.size), repeat=len(srcs)):
            # the codes are complete and sorted, so the rows need no checks
            rows = _reduce_rows(group, zip(srcs, perm, germs))
            if len(rows) == len(srcs):
                out.append(CanonicalElement(group, rows))
    return tuple(sorted(out, key=lambda e: e.rows))


# -- literals ----------------------------------------------------------------


def parse_element(text: str, group: SelfSimilarGroup) -> CanonicalElement:
    """Parse 'v->w[:germ](;v->w[:germ])*' and return the reduced element.

    'id' is accepted for the identity.  Germs are element ids of the
    structure in ASCII decimal digits, no more than `int()` converts; a
    missing germ means the identity germ.  Each distinct word text is
    parsed, and its letters validated, once by `Alphabet.parse_word`;
    sources and targets spelled alike share one str.  The rows are not checked again: they are sorted and given
    to the column check `validate_table` runs, which must find both columns
    complete codes (InvalidCodeError lists what it found otherwise), then
    reduced.
    """
    if text.strip() == "id":
        return identity(group)
    alphabet = group.alphabet
    words: dict[str, Word] = {}

    def word(t: str) -> Word:
        w = words.get(t)
        if w is None:
            w = words[t] = alphabet.parse_word(t)
        return w

    rows = []
    offset = 0
    for rownum, chunk in enumerate(text.split(";")):
        col = offset + 1
        offset += len(chunk) + 1
        part = chunk.strip()
        if "->" not in part:
            raise LiteralParseError(f"row needs 'source->target', got {part!r}", row=rownum, column=col)
        left, right = part.split("->", 1)
        germ = 0
        if ":" in right:
            right, germ_txt = right.split(":", 1)
            germ_txt = germ_txt.strip()
            if not (germ_txt.isascii() and germ_txt.isdigit()):
                raise LiteralParseError(f"bad germ name {germ_txt!r}", row=rownum, column=col)
            try:
                germ = int(germ_txt)
            except ValueError:  # more digits than int() converts
                msg = f"germ name of {len(germ_txt)} digits is too long"
                raise LiteralParseError(msg, row=rownum, column=col) from None
        try:
            src = word(left)
            tgt = word(right)
        except LiteralParseError as e:
            raise LiteralParseError(str(e), row=rownum, column=col) from None
        if not 0 <= germ < group.size:
            raise LiteralParseError(f"no germ {germ} in the structure", row=rownum, column=col)
        rows.append(Row(src, tgt, germ))
    rows.sort(key=_source)
    violations = _column_violations(alphabet.size, rows)
    if violations:
        raise InvalidCodeError(f"invalid table: {', '.join(violations)}")
    return CanonicalElement(group, _reduce_rows(group, rows))


def format_element(g) -> str:
    """The literal of an element, or of an embedding class's representative:
    anything with a `group` and sorted `rows`."""
    alphabet = g.group.alphabet
    parts = []
    for src, tgt, germ in g.rows:
        row = f"{alphabet.format_word(src)}->{alphabet.format_word(tgt)}"
        if germ:
            row += f":{germ}"
        parts.append(row)
    return ";".join(parts)


# -- randomness ---------------------------------------------------------------


def random_code_words(alphabet, rng, max_depth: int = 5, split_prob: float = 0.55) -> list[Word]:
    """A random complete code grown by independent splitting, depth-capped."""
    out: list[Word] = []
    # depth-first in letter order, as the splitting draws are made; children
    # are pushed in reverse so the first letter is visited first
    stack: list[Word] = [""]
    while stack:
        w = stack.pop()
        if len(w) < max_depth and rng.random() < split_prob:
            stack.extend(w + chr(a) for a in reversed(alphabet.letters))
        else:
            out.append(w)
    return out


def random_element(
    group: SelfSimilarGroup, rng, max_depth: int = 5, split_prob: float = 0.55
) -> CanonicalElement:
    """A random element: random source code, random equal-size target code,
    random bijection, random germs; then reduced."""
    alphabet = group.alphabet
    srcs = random_code_words(alphabet, rng, max_depth, split_prob)
    tgts: list[Word] = [""]
    while len(tgts) < len(srcs):
        splittable = [i for i, w in enumerate(tgts) if len(w) < max_depth]
        i = splittable[rng.randrange(len(splittable))]
        w = tgts.pop(i)
        tgts.extend(w + chr(a) for a in alphabet.letters)
    rng.shuffle(tgts)
    # the preorder walk lists the sources sorted, and both columns are
    # complete codes spelled with the alphabet's letters, so nothing needs
    # checking before the reduction
    rows = [(s, t, rng.randrange(group.size)) for s, t in zip(srcs, tgts)]
    return CanonicalElement(group, _reduce_rows(group, rows))


def random_point(alphabet, rng, max_len: int = 4) -> Point:
    """A random point: a preperiod under max_len letters, a period of 1 to max_len - 1."""
    if not _is_int(max_len) or max_len < 2:
        raise UnsupportedStructureError(f"max_len must be an integer >= 2, got {max_len!r}")
    pre_len = rng.randrange(0, max_len)
    per_len = rng.randrange(1, max_len)
    pre = "".join(chr(rng.randrange(alphabet.size)) for _ in range(pre_len))
    per = "".join(chr(rng.randrange(alphabet.size)) for _ in range(per_len))
    return _trusted_point(alphabet, *_canonical(pre, per))
