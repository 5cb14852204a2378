"""Group elements as germ-decorated prefix-replacement tables.

A table row (source, target, germ) declares: on the ball at `source`, the
map replaces the source address by `target` and lets the germ act on the
tail.  A table whose sources and targets are both complete codes, in
bijection, describes a homeomorphism of the boundary: a group element.
`reduce` and `parse_element` accept no other table.  Embeddings of the
whole space into itself appear only as the points the group acts on, the
embedding classes of `zipper`, which reduce their rows with the same pass.
An element or a class is its group and its reduced rows; `reduce` and
`canonical_eclass` take rows as (source, target, germ) triples and check
their letters and germs first.

Two moves generate everything here.  Expansion replaces a row by its d
children (one letter deeper, targets pushed through the germ's action,
germs replaced by restrictions) and never changes the map; only the tests
expand, so it lives in `tests/oracles.py`.  Reduction is the inverse
rewrite: a full family of sibling rows whose effect agrees with a single
similarity collapses to its parent.  Reduction is confluent because the
balls on which the map agrees with one similarity around a point form a
chain, so every table has a unique reduced form.  Reduced tables are
canonical: two tables describe the same map iff their reduced sorted
forms coincide, and the reduced source code is the coarsest ball
partition on which the map acts by single similarities.

Reduction runs over rows sorted by source, in one pass.  A sorted prefix
code lists its tree in preorder, so the rows are shifted onto a stack and
a sibling family is tried as soon as its last child is on top; a merge
puts the parent on top, which may complete the family above it.  Before
anything is sliced off the stack, the family's first member must have the
arriving row's source and target lengths, and a target that is not empty:
the d members of a mergeable family are the children of one source and of
one target, so that length gate is necessary for a merge, not sufficient,
and a family that passes it is still checked member by member.  In the
Cayley-ball audit, about nine in ten of the families tried fail it.
Composition feeds this pass directly, with plain tuples sorted by source,
and a table keeps its reduced rows as those triples: its `rows`, the same
rows as `Row`s, is a view built on first read, and no hot path reads it.
Each row of h either chains with the one row of g around its target, or
precomposes the rows of g under the target with its similarity, pulling
their source tails back through its germ.  `zipper` precomposes too, to
twist a class and to strip a ball off its sources.

The Cayley-ball audit composes through copies of its generators from
`_memoizing`, which keep the image of every target word composed through
them; no other element keeps one.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cache, cached_property, partial
from operator import itemgetter
from typing import ClassVar, Iterable, NamedTuple, NoReturn, Sequence

from .errors import (
    IncompatibleElementsError,
    InvalidCodeError,
    LiteralParseError,
    MalformedStructureError,
    MalformedWordError,
    UnsupportedStructureError,
)
from .structure import SelfSimilarGroup, germ_apply
from .words import (
    _LETTER_DIGITS,
    Point,
    PrefixCode,
    Word,
    _canonical,
    _covering,
    _is_int,
    _literal_text,
    _overlap,
    _scan_word,
    _trusted_code,
    _trusted_point,
    _under,
    _word_syntax,
    is_complete_code,
)


class Row(NamedTuple):
    source: Word
    target: Word
    germ: int


_source = itemgetter(0)


# -- the rewrite engine ------------------------------------------------------


# a Row from any 3-tuple, without keyword handling; only `_Table.rows` calls it
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


def _compose_rows(g: CanonicalElement, h_rows: Sequence[tuple[Word, Word, int]]) -> list[tuple[Word, Word, int]]:
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
    g_rows = g._rows
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


def _reduce_rows(group: SelfSimilarGroup, rows: Iterable[tuple[Word, Word, int]]) -> tuple[tuple[Word, Word, int], ...]:
    """Merge sibling families until none matches a single similarity.

    The rows must be sorted by source, and their sources must form a prefix
    code.  Sorted, a prefix code lists its tree in preorder, so a sibling
    family is complete exactly when its last child (letter d-1) arrives,
    and its members are then the top d entries of a stack of the rows seen
    so far.  Each arrival, and each merge, checks that family once, so one
    shift-reduce pass finds every merge; it leaves sorted plain triples, which
    a table keeps as they are, building its `rows` view on first read.

    A family whose first member differs from the arriving row in source
    length or target length, or has an empty target, is turned away before
    it is sliced: the members of a mergeable family all have one source
    length and one nonempty target length.  The gate only rejects, so the
    output is the one the per-member check alone gives; that check still
    decides every family that passes.
    """
    d = group.alphabet.size
    last = chr(d - 1)
    by_action = group._by_action
    stack: list[tuple[Word, Word, int]] = []
    for row in rows:
        stack.append(row)
        src = row[0]
        while src and src[-1] == last and len(stack) >= d:
            first_src, first_tgt, _ = stack[-d]
            if len(first_src) != len(src) or len(first_tgt) != len(row[1]) or not first_tgt:
                break
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
    return tuple(stack)


@dataclass(frozen=True, init=False)
class _Table:
    """A group and reduced rows sorted by source, as the plain triples every
    internal reader takes.  `rows` is a view of them as `Row`s, built on
    first read and kept; a `Row` equals its triple, so equality is kept.

    Both fields go straight into the instance dict, and the hash reads the
    group's stored hash, so building or hashing a table calls nothing at
    Python level beyond its own `__init__` or `__hash__`; the group's hash
    is a fixed point of `hash`, so a table still hashes as (group, rows)
    does.  The generated `__eq__` compares (group, rows) tuples, which
    passes an identical group in C."""

    group: SelfSimilarGroup
    _rows: tuple[tuple[Word, Word, int], ...]

    def __init__(self, group: SelfSimilarGroup, _rows: tuple[tuple[Word, Word, int], ...]):
        d = self.__dict__
        d["group"] = group
        d["_rows"] = _rows

    def __hash__(self) -> int:
        return hash((self.group._hash, self._rows))

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        return tuple(map(_as_row, self._rows))


@dataclass(frozen=True, init=False, eq=False)
class CanonicalElement(_Table):
    """A group element: its reduced rows, sorted by source, whose two
    columns are complete codes; equality here is equality of maps.  Its
    `rows` are `Row`s, a view built on first read.

    Build instances through reduce / compose / invert / identity /
    parse_element rather than directly: nothing here checks the rows.
    """

    # each target word composed through this element, mapped to the rows
    # it becomes; only the audit's copies from `_memoizing` keep one
    _images: ClassVar[dict[Word, tuple[tuple[Word, Word, int], ...]] | None] = None

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
        sources = tuple(map(_source, self._rows))
        return sources, max(map(len, sources), default=0)

    def packed(self) -> str:
        """One str that tells apart the elements of a group, for dedup
        sets: each row is its source length, its target length, its target
        and its germ, each number as one code point.  No source letters are
        written.

        The sources are a complete code in sorted order, and such a code is
        fixed by its sequence of lengths: the first word is 0^L1, and each
        later word is the successor of the one before, padded with 0s to its
        length, where the successor drops the trailing letters d-1 and
        raises the last letter left by one.  Read left to right, the
        lengths then give back every source and mark where each target
        ends, so no two elements of a group give the same str, and
        `_unpack` reads the element back that way.  A length always fits in
        a code point: a complete code with a word of L letters holds words
        of every length from 1 to L, so at 0x110000 letters its sources
        alone would be some 6 * 10**11 letters long.
        """
        out: list[str] = []
        for s, t, germ in self._rows:
            out += (chr(len(s)), chr(len(t)), t, chr(germ))
        return "".join(out)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def _unpack(group: SelfSimilarGroup, key: str, shapes: dict[str, tuple[Word, ...]]) -> CanonicalElement:
    """The element of `group` whose `packed()` key is `key`.

    Each row is read back as its source length, its target and its germ.
    The source lengths, run together, are the element's shape, and the
    sources follow from the shape by the successor rule of `packed()`.
    `shapes` maps each shape met so far to its sources; the caller keeps
    one dict per group, so the elements of one shape share one tuple of
    sources.  Nothing is checked: `key` must come from `packed()` over
    `group`.
    """
    shape = ""
    targets: list[Word] = []
    germs: list[int] = []
    i, end = 0, len(key)
    while i < end:
        j = i + 2 + ord(key[i + 1])
        shape += key[i]
        targets.append(key[i + 2 : j])
        germs.append(ord(key[j]))
        i = j + 1
    sources = shapes.get(shape)
    if sources is None:
        last = chr(group.alphabet.size - 1)
        word = ""
        words: list[Word] = []
        for n in map(ord, shape):
            if words:
                word = word.rstrip(last)
                word = word[:-1] + chr(ord(word[-1]) + 1)
            word += "\0" * (n - len(word))
            words.append(word)
        sources = shapes[shape] = tuple(words)
    return CanonicalElement(group, tuple(zip(sources, targets, germs)))


def _checked_rows(group: SelfSimilarGroup, rows: Iterable[tuple]) -> list[tuple[Word, Word, int]]:
    """(source, target, germ) triples, each word a str or a sequence of int
    letters, as str-word triples sorted by source: each row is checked to be a triple,
    then its source, target and germ in that order, so the first broken one
    is the one named."""
    check = group.alphabet.check_word
    try:
        rows = iter(rows)
    except TypeError:
        raise MalformedStructureError(f"rows must be (source, target, germ) triples, got {rows!r}") from None
    out = []
    for row in rows:
        try:
            src, tgt, germ = row
        except (TypeError, ValueError):
            raise MalformedStructureError(f"row {row!r} is not a (source, target, germ) triple") from None
        src, tgt = check(src), check(tgt)
        if not _is_int(germ) or not 0 <= germ < group.size:
            raise MalformedStructureError(f"no germ {germ!r} in {group!r}")
        out.append((src, tgt, germ))
    out.sort(key=_source)
    return out


def _element(group: SelfSimilarGroup, rows: Sequence[tuple[Word, Word, int]]) -> CanonicalElement:
    """Check that rows sorted by source, letters and germs checked, form two
    complete codes, and reduce them.  `reduce` and `parse_element` both end
    here, so InvalidCodeError gives a broken table one diagnosis."""
    d = group.alphabet.size
    violations = []
    for words, nested, incomplete in (
        (tuple(map(_source, rows)), "domain-not-antichain", "incomplete-domain"),
        (tuple(sorted(t for _, t, _ in rows)), "target-not-antichain", "target-incomplete"),
    ):
        if _overlap(words) is not None:
            violations.append(nested)
        elif not is_complete_code(words, d):
            violations.append(incomplete)
    if violations:
        raise InvalidCodeError(f"invalid table: {', '.join(violations)}")
    return CanonicalElement(group, _reduce_rows(group, rows))


def reduce(group: SelfSimilarGroup, rows: Iterable[tuple]) -> CanonicalElement:
    """The unique reduced form of a table that describes a group element:
    (source, target, germ) triples, in any order, each word a str or a
    sequence of int letters.

    Letters and germs are checked first.  Both columns must be complete
    codes; InvalidCodeError lists the violations otherwise, in the words
    `parse_element` uses for the same rows.
    """
    return _element(group, _checked_rows(group, rows))


def identity(group: SelfSimilarGroup) -> CanonicalElement:
    return CanonicalElement(group, (("", "", 0),))


def _memoizing(g: CanonicalElement) -> CanonicalElement:
    """A copy of g, equal to it, that keeps the image of each target word
    composed through it: one `_covering` search per distinct target.  Only
    the audit makes these, and it drops them on return."""
    step = CanonicalElement(g.group, g._rows)
    step.__dict__["_images"] = {}
    return step


def compose(g: CanonicalElement, h: CanonicalElement) -> CanonicalElement:
    """g after h.

    Each row of h either lands inside one row of g, or its target's ball
    is cut by g's sources, which are a complete code, into the rows of g
    under it; `_compose_rows` carries those back through the row of h.
    The result is reduced once.

    A g from `_memoizing` keeps what `_compose_rows` makes of e -> t for
    each target t it has met: one row e -> image, or g's rows under t with
    t stripped, which `_precompose` moves onto each h-row's source.
    """
    group = g.group
    if h.group is not group and h.group != group:
        raise IncompatibleElementsError("cannot compose over different structures")
    images = g._images
    if images is None:
        rows = _compose_rows(g, h._rows)
    else:
        mul = group.mul
        rows = []
        for src, tgt, germ in h._rows:
            image = images.get(tgt)
            if image is None:
                image = images[tgt] = tuple(_compose_rows(g, (("", tgt, 0),)))
            if len(image) == 1:
                _, path, z = image[0]
                rows.append((src, path, mul[z][germ]))
            else:
                rows += _precompose(group, image, 0, src, germ)
    return CanonicalElement(group, _reduce_rows(group, rows))


def invert(g: CanonicalElement) -> CanonicalElement:
    """Swap the columns and invert the germs.

    No re-reduction is needed: the image of a maximal ball of g is a
    maximal ball of the inverse, so the swapped table is already reduced.
    """
    inv = g.group.inv
    rows = tuple(sorted((t, s, inv[germ]) for s, t, germ in g._rows))
    return CanonicalElement(g.group, rows)


def apply(g: CanonicalElement, x: Point) -> Point:
    """Image of an eventually periodic point.

    The row covering one prefix of x, as deep as g's deepest source, is
    found by `_covering`.  No letter is validated here; the point's were
    checked when it was built and the rows' when the table was, so the
    image is built directly from the tail.
    """
    group = g.group
    if x.alphabet is not group.alphabet and x.alphabet != group.alphabet:
        raise IncompatibleElementsError("point and element live over different alphabets")
    sources, depth = g._sources_depth
    i = _covering(sources, x.prefix(depth))
    if i >= 0:
        src, tgt, germ = g._rows[i]
        tail = x.drop(len(src))
        if germ:
            tail = germ_apply(group, germ, tail)
        return tail._prepend(tgt)
    # only a hand-built partial map gets here: an element's sources are a
    # complete code
    raise InvalidCodeError(f"no row covers the point {x}")


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
    targets = [t for _, t, _ in g._rows]
    return targets == sorted(targets)


def is_in_T(g: CanonicalElement) -> bool:
    """Cyclic-order preserving: the targets increase in source order once
    rotated to start at their least target."""
    _require_plain_binary(g, "cyclic-order membership")
    targets = [t for _, t, _ in g._rows]
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
    alphabet = group.alphabet
    if any(p.alphabet is not alphabet and p.alphabet != alphabet for p in (p_plus, p_minus)):
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
    return tuple(sorted(out, key=lambda e: e._rows))


# -- literals ----------------------------------------------------------------


@cache
def _row_scanner(d: int) -> re.Pattern:
    """The pattern of one whole row of an element literal over d letters,
    d <= 11 (every larger alphabet spells its words alike): from the text's
    start or a ';' to the next ';' or the text's end (no character but ';'
    may precede or follow it; `$` would match before a final newline), the
    source and target words as `_word_syntax` spells them and the germ's
    digits if there is one, with whitespace allowed around every token."""
    word = _word_syntax(d)
    return re.compile(rf"(?<![^;])\s*({word})\s*->\s*({word})\s*(?::\s*([0-9]+)\s*)?(?![^;])")


def _scan_rows(text: str, group: SelfSimilarGroup) -> tuple[list[tuple[Word, Word, int]], int]:
    """The rows of a literal, in its order, read by one scan of the text,
    and where the scan stopped: one past the text's end if it read every
    row, else the start of the first row it refuses, which follows the rows
    it returns.  The rows must tile the text: each starts one ';' past the
    end of the last.  Every letter and germ must be in range; `_scan_word`
    converts each word, a digit word with one translate, and a target
    spelled as its source shares the source's str."""
    d = group.alphabet.size
    size = group.size
    rows = []
    pos = 0  # where the next row must start
    try:
        for m in _row_scanner(min(d, 11)).finditer(text):
            start, stop = m.span()
            if start != pos:
                break
            s, t, germ = m.groups()
            src = _scan_word(s, d)
            tgt = src if t == s else _scan_word(t, d)
            germ = int(germ) if germ else 0
            if src is None or tgt is None or germ >= size:
                break
            rows.append((src, tgt, germ))
            pos = stop + 1
    except ValueError:  # a germ of more digits than int() converts
        pass
    return rows, pos


def _refuse_row(text: str, start: int, row: int, group: SelfSimilarGroup) -> NoReturn:
    """Raise what is wrong with the `row`-th row of a literal, which starts
    at `start`, where the scan stopped: LiteralParseError located by the row
    and the column where it starts, a letter out of range included.  Only
    that row is read, each word by `Alphabet.parse_word`."""
    end = text.find(";", start)
    part = text[start : end if end >= 0 else len(text)].strip()
    col = start + 1
    if "->" not in part:
        raise LiteralParseError(f"row needs 'source->target', got {part!r}", row=row, column=col)
    left, right = part.split("->", 1)
    germ = 0
    if ":" in right:
        right, germ_txt = right.split(":", 1)
        germ_txt = germ_txt.strip()
        if not (germ_txt.isascii() and germ_txt.isdigit()):
            raise LiteralParseError(f"bad germ name {germ_txt!r}", row=row, column=col)
        try:
            germ = int(germ_txt)
        except ValueError:  # more digits than int() converts
            raise LiteralParseError(f"germ name of {len(germ_txt)} digits is too long", row=row, column=col) from None
    try:
        for word in (left, right):
            group.alphabet.parse_word(word)
    except (LiteralParseError, MalformedWordError) as e:
        raise LiteralParseError(str(e), row=row, column=col) from None
    if not 0 <= germ < group.size:
        raise LiteralParseError(f"no germ {germ} in the structure", row=row, column=col)
    # not reached: the scan accepts every row that passes these checks
    raise LiteralParseError(f"row {part!r} is refused", row=row, column=col)


def parse_element(text: str, group: SelfSimilarGroup) -> CanonicalElement:
    """Parse 'v->w[:germ](;v->w[:germ])*' and return the reduced element.

    'id' is accepted for the identity.  Germs are element ids of the
    structure in ASCII decimal digits, no more than `int()` converts; a
    missing germ means the identity germ.  Whitespace is allowed around
    every token.  The literal is read once, by one scan, `_scan_rows`,
    which checks the form of the whole text and every letter and germ, in
    time and memory linear in its length, and keeps no copy of the text.
    A refused literal is named at the row where the scan stopped:
    `_refuse_row` reads that row alone and raises LiteralParseError, with
    its row and column, whatever the fault.  The rows are not checked
    again: sorted, they go through the one column check and reduction
    `reduce` ends in, so both columns must be complete codes and
    InvalidCodeError lists what it found otherwise.
    """
    text = _literal_text(text, "an element literal")
    rows, stop = _scan_rows(text, group)
    if stop <= len(text):
        if text.strip() == "id":
            return identity(group)
        _refuse_row(text, stop, len(rows), group)
    rows.sort(key=_source)
    return _element(group, rows)


def format_element(g) -> str:
    """The literal of an element, or of an embedding class's representative,
    read off its plain rows, so no `Row` view is built.  Over at most ten
    letters a word's letters are chr(0) to chr(9), which no other character
    of a literal is, so the rows are joined as they are and one translate
    over the result spells every letter as its digit."""
    alphabet = g.group.alphabet
    if alphabet.size <= 10:
        return ";".join(
            f"{src or 'e'}->{tgt or 'e'}:{germ}" if germ else f"{src or 'e'}->{tgt or 'e'}"
            for src, tgt, germ in g._rows
        ).translate(_LETTER_DIGITS)
    fmt = alphabet.format_word
    return ";".join(
        f"{fmt(src)}->{fmt(tgt)}:{germ}" if germ else f"{fmt(src)}->{fmt(tgt)}" for src, tgt, germ in g._rows
    )


# -- randomness ---------------------------------------------------------------


def random_code_words(alphabet, rng, max_depth: int = 5) -> list[Word]:
    """A random complete code grown by splitting each ball shallower than
    max_depth, an int >= 0, with probability 0.55, independently."""
    if not _is_int(max_depth) or max_depth < 0:
        raise UnsupportedStructureError(f"max_depth must be an integer >= 0, got {max_depth!r}")
    out: list[Word] = []
    # depth-first in letter order, as the splitting draws are made; children
    # are pushed in reverse so the first letter is visited first
    stack: list[Word] = [""]
    while stack:
        w = stack.pop()
        if len(w) < max_depth and rng.random() < 0.55:
            stack.extend(w + chr(a) for a in reversed(alphabet.letters))
        else:
            out.append(w)
    return out


def random_element(group: SelfSimilarGroup, rng, max_depth: int = 5) -> CanonicalElement:
    """A random element: random source code, random equal-size target code,
    random bijection, random germs; then reduced.  The source code is drawn
    first, so `random_code_words` checks max_depth."""
    alphabet = group.alphabet
    srcs = random_code_words(alphabet, rng, max_depth)
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


def random_point(alphabet, rng) -> Point:
    """A random point: a preperiod of 0 to 3 letters and a period of 1 to
    3, each length and then each letter drawn uniformly."""
    pre_len = rng.randrange(0, 4)
    per_len = rng.randrange(1, 4)
    pre = "".join(chr(rng.randrange(alphabet.size)) for _ in range(pre_len))
    per = "".join(chr(rng.randrange(alphabet.size)) for _ in range(per_len))
    return _trusted_point(alphabet, *_canonical(pre, per))
