"""Independent slow-path oracles the tests compare the library against.

Everything here recomputes results from first principles: letterwise
automaton stepping instead of cycle detection, exhaustive ball enumeration
instead of prefix bookkeeping, full table enumeration instead of filtered
search.  Keep these dumb; their value is that they share no shortcuts with
the code under test.

They also share no representation with it: inside this module a word is a
tuple of int letters, as it is spelled on paper.  Words cross over at the
boundary only, through `letters` (a library word, or a tuple, to a tuple)
and `as_word` (a tuple to the library's str word); the tests write their
word literals as tuples and convert them with `as_word` too.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right

from localsim import (
    CanonicalElement,
    CompositionDomainError,
    PrefixCode,
    Row,
    SimTable,
    act_on_eclass,
    compose,
    gz_member,
    identity,
    incl_class,
    invert,
    max_partition,
    reduce,
    z_member,
    zipper_length,
)
from localsim.elements import _reduce_rows
from localsim.structure import SelfSimilarGroup
from localsim.words import Alphabet, Point, Word

Letters = tuple[int, ...]


def letters(word) -> Letters:
    """A word as a tuple of int letters: a library str word is read code
    point by code point, anything else taken letter by letter."""
    return tuple(map(ord, word)) if isinstance(word, str) else tuple(word)


def as_word(letters: Letters) -> Word:
    """A tuple of int letters as the library's word."""
    return "".join(map(chr, letters))


def _complete_codes(d: int, max_depth: int) -> list[tuple[Letters, ...]]:
    if max_depth == 0:
        return [((),)]
    shallower = _complete_codes(d, max_depth - 1)
    out = [((),)]
    for parts in itertools.product(shallower, repeat=d):
        code = tuple(sorted((a,) + w for a, part in enumerate(parts) for w in part))
        out.append(code)
    return sorted(set(out))


def enumerate_complete_codes(alphabet: Alphabet, max_depth: int) -> list[tuple[Word, ...]]:
    """All complete prefix codes of depth <= max_depth, as sorted tuples."""
    return [tuple(map(as_word, code)) for code in _complete_codes(alphabet.size, max_depth)]


def _balls(d: int, max_depth: int) -> list[Letters]:
    return [w for n in range(max_depth + 1) for w in itertools.product(range(d), repeat=n)]


def slow_proper_prefix_count(code: PrefixCode) -> int:
    """Count balls properly containing a code word, by scanning all words."""
    words = [letters(w) for w in code.words]
    depth = max(map(len, words))
    return sum(
        1
        for w in _balls(code.alphabet.size, depth)
        if any(len(w) < len(v) and v[: len(w)] == w for v in words)
    )


def slow_proper_prefixes(code: PrefixCode) -> tuple[Word, ...]:
    """The balls properly containing a code word: every prefix of every
    word collected in a set, then sorted."""
    words = [letters(w) for w in code.words]
    return tuple(map(as_word, sorted({w[:k] for w in words for k in range(len(w))})))


def point_letter(x: Point, i: int) -> int:
    """The i-th letter of an eventually periodic point, straight from the data."""
    pre, per = letters(x.preperiod), letters(x.period)
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def stepwise_apply_letters(g: CanonicalElement, x: Point, n: int) -> list[int]:
    """First n letters of g(x), one automaton step at a time."""
    group = g.group
    by_source = {letters(r.source): r for r in g.rows}
    depth = 0
    while tuple(point_letter(x, i) for i in range(depth)) not in by_source:
        depth += 1
    row = by_source[tuple(point_letter(x, i) for i in range(depth))]
    out = list(letters(row.target))
    state = row.germ
    i = depth
    while len(out) < n:
        a = point_letter(x, i)
        out.append(group.act[state][a])
        state = group.res[state][a]
        i += 1
    return out[:n]


def all_balls(alphabet: Alphabet, max_depth: int) -> list[Word]:
    return [as_word(w) for w in _balls(alphabet.size, max_depth)]


def complement_cover(alphabet: Alphabet, balls) -> list[Word]:
    """Disjoint balls covering what a union of balls leaves out, in letter
    order.  Depth first from the root: a ball inside one of the given balls
    is skipped, a ball meeting none of them is kept, and any other ball is
    split into its children."""
    balls = [letters(b) for b in balls]
    out: list[Letters] = []
    stack: list[Letters] = [()]
    while stack:
        p = stack.pop()
        if any(p[: len(b)] == b for b in balls):
            continue
        if not any(b[: len(p)] == p for b in balls):
            out.append(p)
            continue
        stack.extend(p + (a,) for a in reversed(alphabet.letters))
    return list(map(as_word, out))


def brute_force_symdiff(g: CanonicalElement) -> dict:
    """The symmetric difference found by raw membership testing.

    Candidates are the inclusion classes of every ball of depth up to the
    deepest leaf of g or its inverse plus one, together with their
    g-translates; each is classified purely by z_member/gz_member.
    """
    group = g.group
    depth = 1 + max(
        max(len(r.source) for r in g.rows),
        max(len(r.target) for r in g.rows),
    )
    out = {}
    for b in all_balls(group.alphabet, depth):
        for e in (incl_class(group, b), act_on_eclass(g, incl_class(group, b))):
            inz = z_member(e)
            ingz = gz_member(g, e)
            if inz and not ingz:
                out[e] = -1
            elif ingz and not inz:
                out[e] = 1
    return out


def slow_gz_member(g: CanonicalElement, e) -> bool:
    """Membership in gZ the long way: compose the inverse, computed afresh,
    with the whole class by the stack walk, reduce, and count the rows."""
    group = g.group
    return len(_reduce_rows(group, slow_compose_rows(group, invert(g).rows, e.rows))) == 1


def brute_force_gamma(
    group: SelfSimilarGroup,
    p_plus: PrefixCode,
    p_minus: PrefixCode,
    code_depth: int = 3,
    max_leaves: int = 3,
) -> set[CanonicalElement]:
    """Elements with the prescribed maximum partitions, the long way.

    Enumerates every table over every pair of complete codes within the
    bounds, reduces, and keeps the elements whose partitions match.
    """
    out = set()
    codes = [c for c in enumerate_complete_codes(group.alphabet, code_depth) if len(c) <= max_leaves]
    for src in codes:
        for dst in codes:
            if len(src) != len(dst):
                continue
            out |= {
                g
                for g in tables_over(group, src, dst)
                if max_partition(g).words == p_plus.words
                and max_partition(invert(g)).words == p_minus.words
            }
    return out


def tables_over(group: SelfSimilarGroup, src, dst) -> set[CanonicalElement]:
    """Every reduced element built from a bijection src -> dst with any germs."""
    out = set()
    for perm in itertools.permutations(dst):
        for germs in itertools.product(range(group.size), repeat=len(src)):
            rows = tuple(Row(s, t, z) for s, t, z in zip(src, perm, germs))
            out.add(reduce(SimTable(group, rows)))
    return out


def coarsenings(code: PrefixCode) -> list[tuple[Word, ...]]:
    """All complete codes the given one refines, including itself: those
    with a ball at or above every ball of the code."""
    words = [letters(w) for w in code.words]
    depth = max(map(len, words))
    return [
        tuple(map(as_word, q))
        for q in _complete_codes(code.alphabet.size, depth)
        if all(any(w[: len(u)] == u for u in q) for w in words)
    ]


def slow_reduce_rows(group: SelfSimilarGroup, rows) -> tuple[Row, ...]:
    """Reduction by repeated search: keep a pending set of parents, merge any
    whose d children are all rows matching one similarity, sort at the end.
    Accepts the rows in any order."""
    d = group.alphabet.size
    act, res = group.act, group.res
    table = {letters(src): (letters(tgt), germ) for src, tgt, germ in rows}
    pending = {src[:-1] for src in table if src}
    while pending:
        p = pending.pop()
        kids = []
        for a in range(d):
            r = table.get(p + (a,))
            if r is None:
                break
            kids.append(r)
        if len(kids) != d:
            continue
        stem = kids[0][0][:-1] if kids[0][0] else None
        if stem is None or any(not t or t[:-1] != stem for t, _ in kids):
            continue
        merged = None
        for s in range(group.size):
            s_act, s_res = act[s], res[s]
            if all(kids[a][0][-1] == s_act[a] and kids[a][1] == s_res[a] for a in range(d)):
                merged = s
                break
        if merged is None:
            continue
        for a in range(d):
            del table[p + (a,)]
        table[p] = (stem, merged)
        if p:
            pending.add(p[:-1])
    return tuple(Row(as_word(s), as_word(t), g) for s, (t, g) in sorted(table.items()))


def stepwise_act_word(group: SelfSimilarGroup, elem: int, word: Letters) -> tuple[Letters, int]:
    """The image of a word under one group element, a letter at a time,
    and the restriction left after it."""
    out = []
    for a in word:
        out.append(group.act[elem][a])
        elem = group.res[elem][a]
    return tuple(out), elem


def slow_compose_rows(group: SelfSimilarGroup, g_rows, h_rows) -> list[tuple[Word, Word, int]]:
    """Rows of g after h by one stack walk: every h-row goes on the stack
    as (source, target, germ, lo, hi), the g-rows its target is searched
    among, and a target above several g-sources is replaced by its d
    children, pushed in reverse so the rows come out sorted by source.
    Raises CompositionDomainError at the first piece no g-row covers."""
    act, res, mul = group.act, group.res, group.mul
    d = group.alphabet.size
    g_rows = [(letters(s), letters(t), z) for s, t, z in g_rows]
    out = []
    stack = [(letters(src), letters(tgt), germ, 0, len(g_rows)) for src, tgt, germ in reversed(h_rows)]
    while stack:
        src, tgt, germ, lo, hi = stack.pop()
        i = bisect_right(g_rows, tgt, lo, hi, key=lambda row: row[0])
        if i > lo:
            g_source, g_target, g_germ = g_rows[i - 1]
            k = len(g_source)
            if tgt[:k] == g_source:
                path, rest = stepwise_act_word(group, g_germ, tgt[k:])
                out.append((as_word(src), as_word(g_target + path), mul[rest][germ]))
                continue
        if i == hi or g_rows[i][0][: len(tgt)] != tgt:
            raise CompositionDomainError(
                f"target {group.alphabet.format_word(as_word(tgt))} lies outside the domain of the left operand"
            )
        end = bisect_left(g_rows, tgt + (d,), i, hi, key=lambda row: row[0])
        for a in reversed(range(d)):
            stack.append((src + (a,), tgt + (act[germ][a],), res[germ][a], i, end))
    return out


def slow_eclass(group: SelfSimilarGroup, rows) -> tuple[Row, ...]:
    """The least right twist of a class's reduced rows, each twist found by
    composing the rows with the global similarity of its germ by the stack
    walk and reducing the result."""
    return min(_reduce_rows(group, slow_compose_rows(group, rows, [((), (), s)])) for s in range(group.size))


def leaf_ranks(g: CanonicalElement) -> list[int]:
    """The rank of each row's target among all targets, rows in source
    order: the leaf permutation of a tree-pair diagram."""
    targets = [r.target for r in g.rows]
    order = sorted(range(len(targets)), key=lambda i: targets[i])
    ranks = [0] * len(targets)
    for rank, i in enumerate(order):
        ranks[i] = rank
    return ranks


def slow_associativity_witnesses(mul) -> tuple[tuple[int, int, int], ...]:
    """Every triple (i, j, k) with (ij)k != i(jk), by scanning all of them."""
    m = len(mul)
    return tuple(
        (i, j, k)
        for i in range(m)
        for j in range(m)
        for k in range(m)
        if mul[mul[i][j]][k] != mul[i][mul[j][k]]
    )


def slow_audit_counts(group: SelfSimilarGroup, generators, radius: int, threshold: int) -> list[tuple[int, int]]:
    """(ball size, elements within the threshold) per radius, by a plain
    breadth-first search over sets of elements: every generator and every
    inverse is applied to every frontier element, the parent included."""
    steps = {g for g in generators} | {invert(g) for g in generators}
    start = identity(group)
    visited = {start}
    frontier = {start}
    out = [(1, int(zipper_length(start) <= threshold))]
    for _ in range(radius):
        frontier = {compose(s, x) for x in frontier for s in steps} - visited
        visited |= frontier
        out.append((len(visited), sum(1 for g in visited if zipper_length(g) <= threshold)))
    return out
