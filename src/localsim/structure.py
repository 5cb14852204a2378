"""Finite self-similar groups and the ball similarities they induce.

A structure is a finite group together with a letter action and a
restriction map, given by four explicit tables over {0, ..., m-1} and the
alphabet:

    mul[i][j]   product (apply j first, then i)
    inv[i]      inverse
    act[i][a]   image of the letter a
    res[i][a]   element handling the rest of the word after a

Element 0 is always the identity.  An element acts on an infinite word as
a transducer: it maps the first letter through `act` and hands the tail to
its restriction.  The laws that make this a group action by homeomorphisms
are checked by `validate`:

    act[i*j][a] == act[i][act[j][a]]
    res[i*j][a] == res[i][act[j][a]] * res[j][a]

A similarity between two balls is "replace the source address by the
target address, then act by a group element on the tail"; the group
element is called the germ of the similarity.
"""

from __future__ import annotations

import itertools

from .errors import IncompatibleElementsError, MalformedStructureError, UnsupportedStructureError
from .words import Alphabet, Point, Word, _canonical, _data_lines, _is_int, _trusted_point


class SelfSimilarGroup:
    """Immutable table-backed self-similar group; structural equality.

    Construction checks shapes and index ranges only.  Whether the tables
    actually satisfy the group and transducer axioms is the business of
    `validate`, so that broken structures can be loaded and diagnosed.
    Every operation of the library assumes a structure that passes
    `validate()`: the built-ins do by construction, and the CLI validates
    every automaton file it loads.  On a broken table an embedding class
    can come out wrong without an error.
    """

    __slots__ = ("alphabet", "size", "mul", "inv", "act", "res", "name", "_hash", "_by_action", "_letterwise")

    def __init__(self, alphabet: Alphabet, mul, inv, act, res, name: str = ""):
        size = len(mul)
        if size == 0:
            raise MalformedStructureError("a structure needs at least the identity element")
        d = alphabet.size
        mul = tuple(tuple(row) for row in mul)
        inv = tuple(inv)
        act = tuple(tuple(row) for row in act)
        res = tuple(tuple(row) for row in res)
        if len(inv) != size or len(act) != size or len(res) != size:
            raise MalformedStructureError("mul/inv/act/res disagree about the element count")
        for table, width, bound, label in (
            (mul, size, size, "mul"),
            (act, d, d, "act"),
            (res, d, size, "res"),
            # inv as one row of m entries, whose length is checked above
            ((inv,), size, size, "inv"),
        ):
            for row in table:
                if len(row) != width:
                    raise MalformedStructureError(f"{label} row has length {len(row)}, expected {width}")
                # a row of plain ints is range-checked in C; any other row,
                # or one out of range, cell by cell, which finds the first bad
                # entry and lets an int subclass other than bool through
                if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < bound:
                    continue
                for v in row:
                    if not _is_int(v) or not 0 <= v < bound:
                        raise MalformedStructureError(f"{label} entry {v!r} out of range")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "res", res)
        object.__setattr__(self, "name", name)
        # a fixed point of hash, so a table hashing (group._hash, rows) hashes
        # as (group, rows) does
        object.__setattr__(self, "_hash", hash(hash((alphabet.size, mul, inv, act, res))))
        # the first element with each letter action and restriction row: the
        # germ a sibling family of similarities merges into; and, for each
        # element whose restrictions are all itself, its act row, which is a
        # `str.translate` table as it stands: the letter a goes to the code
        # point act[i][a], so the element moves a whole word in one call
        by_action: dict[tuple[int, ...], int] = {}
        letterwise: list[tuple[int, ...] | None] = []
        for i in range(size):
            by_action.setdefault(act[i] + res[i], i)
            letterwise.append(act[i] if res[i].count(i) == d else None)
        object.__setattr__(self, "_by_action", by_action)
        object.__setattr__(self, "_letterwise", tuple(letterwise))

    def __setattr__(self, *_):
        raise AttributeError("SelfSimilarGroup is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # rebuilt through __init__, as the slots refuse to be set one by one
        return SelfSimilarGroup, (self.alphabet, self.mul, self.inv, self.act, self.res, self.name)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SelfSimilarGroup):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.alphabet == other.alphabet
            and self.mul == other.mul
            and self.inv == other.inv
            and self.act == other.act
            and self.res == other.res
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name or f"{self.size} elements"
        return f"SelfSimilarGroup({label}, d={self.alphabet.size})"

    def act_word(self, elem: int, word: Word) -> tuple[Word, int]:
        """Image of a finite word and the restriction left after reading it.

        An element whose restrictions are all itself acts letter by letter,
        so its image is one `str.translate`; any other steps through the
        word one letter at a time.
        """
        table = self._letterwise[elem]
        if table is not None:
            return word.translate(table), elem
        out = []
        state = elem
        act, res = self.act, self.res
        for a in map(ord, word):
            out.append(act[state][a])
            state = res[state][a]
        return "".join(map(chr, out)), state

    # -- axioms ------------------------------------------------------------

    def _generators(self) -> list[int] | None:
        """A short generating set of the table, or None when it is no group.

        The set starts at 0 and takes the least element outside the closure
        of the set under left and right products with it.  In a group each
        such step at least doubles the closure, so a set longer than the bit
        length of m means the table is no group.
        """
        m, mul = self.size, self.mul
        gens = [0]
        while True:
            closure = set(gens)
            todo = list(gens)
            while todo:
                x = todo.pop()
                for a in gens:
                    for y in (mul[x][a], mul[a][x]):
                        if y not in closure:
                            closure.add(y)
                            todo.append(y)
            if len(closure) == m:
                return gens
            if len(gens) == m.bit_length():
                return None
            gens.append(next(i for i in range(m) if i not in closure))

    def validate(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Map each broken axiom to all its witnesses; {} when every axiom holds.

        Checked, in the order the mapping keeps: the group table axioms
        (identity row/column, two-sided inverses, associativity), the
        identity element acting trivially, the transducer laws for action
        and restriction of products, and faithfulness (distinct elements
        must act differently on some word).

        Associativity and the two transducer laws are laws on pairs (i, j):
        the row of i*j equals a row built from the rows of i and j.  For
        each law the j at which it holds for every i are closed under
        products, so the law holds everywhere once it holds at every j of
        a generating set (`_generators`):

            associativity (Light's test), for such middle elements a and b:
                (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y)
            the action law, given associativity:
                act[i(jk)] = act[(ij)k] = act[ij]∘act[k]
                           = act[i]∘act[j]∘act[k] = act[i]∘act[jk]
            the restriction law, given both, where b = act[k][a]:
                res[i(jk)][a] = res[ij][b]·res[k][a]
                              = res[i][act[j][b]]·res[j][b]·res[k][a]
                              = res[i][act[jk][a]]·res[jk][a]

        So each law is checked at m times a few pairs.  Only when that check
        fails, or a premise or the generating set is missing, are all m^2
        pairs scanned, cell by cell in (i, j, k) order, so that a violation
        lists every witness.  Faithfulness refines a partition of the
        elements until it is stable, at most m rounds of O(m*d) work, so no
        word length is assumed.
        """
        m, d = self.size, self.alphabet.size
        mul, inv, act, res = self.mul, self.inv, self.act, self.res
        gens = self._generators()
        out: dict[str, tuple[tuple[int, ...], ...]] = {}

        def collect(axiom: str, witnesses: list[tuple[int, ...]]) -> None:
            if witnesses:
                out[axiom] = tuple(witnesses)

        def law(axiom: str, cells, premises: bool) -> bool:
            # cells(js) lists the witnesses (i, j, k) with j in js, in order;
            # true when the law holds everywhere
            if premises and gens is not None and not cells(gens):
                return True
            witnesses = cells(range(m))
            collect(axiom, witnesses)
            return not witnesses

        collect("identity-element", [(i,) for i in range(m) if mul[0][i] != i or mul[i][0] != i])
        collect("inverse-element", [(i,) for i in range(m) if mul[i][inv[i]] != 0 or mul[inv[i]][i] != 0])
        # a row of mul is m cells long, so only the pairs whose rows differ
        # are scanned cell by cell
        associative = law(
            "associativity",
            lambda js: [
                (i, j, k)
                for i in range(m)
                for j in js
                if mul[mul[i][j]] != tuple(map(mul[i].__getitem__, mul[j]))
                for k in range(m)
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]
            ],
            True,
        )
        collect("identity-action", [(0, a) for a in range(d) if act[0][a] != a])
        collect("identity-restriction", [(0, a) for a in range(d) if res[0][a] != 0])
        acts = law(
            "action-composition",
            lambda js: [
                (i, j, a) for i in range(m) for j in js for a in range(d) if act[mul[i][j]][a] != act[i][act[j][a]]
            ],
            associative,
        )
        law(
            "restriction-cocycle",
            lambda js: [
                (i, j, a)
                for i in range(m)
                for j in js
                for a in range(d)
                if res[mul[i][j]][a] != mul[res[i][act[j][a]]][res[j][a]]
            ],
            associative and acts,
        )

        # faithfulness by partition refinement: after t rounds two elements
        # share a class iff they act identically on all words of length <= t;
        # a round that splits no class leaves every later round unchanged
        cls = [0] * m
        while True:
            keys: dict[tuple, int] = {}
            new = []
            for i in range(m):
                k = (act[i], tuple(map(cls.__getitem__, res[i])))
                new.append(keys.setdefault(k, len(keys)))
            if new == cls:
                break
            cls = new
        collect(
            "faithfulness",
            [(i, j) for i in range(m) for j in range(i + 1, m) if cls[i] == cls[j]],
        )
        return out


_MAX_LETTERS = 65_536


def trivial_group(d: int) -> SelfSimilarGroup:
    """The one-element structure over a d-letter alphabet.

    Its tables grow with d, about 61 bytes a letter, so d is limited to
    _MAX_LETTERS (65,536).
    """
    if _is_int(d) and d > _MAX_LETTERS:
        raise UnsupportedStructureError(
            f"trivial germs are limited to alphabets of at most {_MAX_LETTERS} letters, got {d}"
        )
    return SelfSimilarGroup(Alphabet(d), ((0,),), (0,), (tuple(range(d)),), ((0,) * d,), name=f"trivial({d})")


def symmetric_group(d: int) -> SelfSimilarGroup:
    """The full symmetric group on the alphabet, acting letter by letter.

    Elements are the permutations of {0..d-1} in lexicographic order of
    their one-line notation (the identity comes first); every restriction
    is the element itself.  The multiplication table has (d!)^2 cells, so
    d is limited to 6.
    """
    if _is_int(d) and d > 6:
        raise UnsupportedStructureError(f"symmetric germs are limited to alphabets of at most 6 letters, got {d}")
    alphabet = Alphabet(d)
    perms = list(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    # mul[p][q] is the index of p after q.  Only the rows of the adjacent
    # transpositions are built cell by cell; every other row p = s p' is
    # reached from a row p' already built, as mul[p][q] = mul[s][mul[p'][q]].
    gens = []
    for a in range(d - 1):
        s = list(range(d))
        s[a], s[a + 1] = a + 1, a
        gens.append(tuple(index[tuple(s[c] for c in q)] for q in perms))
    rows: list[tuple[int, ...] | None] = [None] * len(perms)
    rows[0] = tuple(range(len(perms)))
    reached = [0]
    for j in reached:
        for row_s in gens:
            i = row_s[j]
            if rows[i] is None:
                rows[i] = tuple(map(row_s.__getitem__, rows[j]))
                reached.append(i)
    mul = tuple(rows)
    inv = tuple(row.index(0) for row in mul)
    act = tuple(perms)
    res = tuple((i,) * d for i in range(len(perms)))
    return SelfSimilarGroup(alphabet, mul, inv, act, res, name=f"symmetric({d})")


def parse_automaton(text: str, name: str = "") -> SelfSimilarGroup:
    """Parse the line-oriented automaton format.

    Header lines `alphabet d` and `elements m`, and one record per table
    cell: `mul i j k`, `inv i j`, `act i a b`, `res i a j`, in any order,
    headers included.  '#' starts a comment.  Every cell must be
    given exactly once.  Fields are ASCII decimal digits, as in word and
    germ literals, no more than `int()` converts.

    Only the shape is checked here: call `validate()` on the result before
    any other operation, which assumes a structure that passes it.
    """
    d = m = None
    cells: dict[tuple, int] = {}
    expect_args = {"mul": 3, "inv": 2, "act": 3, "res": 3}
    for lineno, raw, line in _data_lines(text):
        parts = line.split()
        kw, args = parts[0], parts[1:]
        if not all(p.isascii() and p.isdigit() for p in args):
            raise MalformedStructureError(f"line {lineno}: non-integer field in {raw!r}")
        try:
            vals = [int(p) for p in args]
        except ValueError:  # more digits than int() converts
            raise MalformedStructureError(f"line {lineno}: field of {max(map(len, args))} digits is too long") from None
        if kw == "alphabet":
            if len(vals) != 1 or d is not None:
                raise MalformedStructureError(f"line {lineno}: bad or repeated alphabet header")
            d = vals[0]
            if d < 2:
                raise MalformedStructureError(f"line {lineno}: alphabet size must be >= 2, got {d}")
        elif kw == "elements":
            if len(vals) != 1 or m is not None:
                raise MalformedStructureError(f"line {lineno}: bad or repeated elements header")
            m = vals[0]
        elif kw in expect_args:
            if len(vals) != expect_args[kw]:
                raise MalformedStructureError(f"line {lineno}: {kw} takes {expect_args[kw]} integers")
            key = (kw,) + tuple(vals[:-1])
            if key in cells:
                raise MalformedStructureError(f"line {lineno}: duplicate record for {key}")
            cells[key] = vals[-1]
        else:
            raise MalformedStructureError(f"line {lineno}: unknown record {kw!r}")
    if d is None or m is None:
        raise MalformedStructureError("missing 'alphabet' or 'elements' header")
    if m < 1:
        raise MalformedStructureError("elements count must be >= 1")

    def cell(key: tuple) -> int:
        # each record is used once: the ones left over lie outside the tables
        if key not in cells:
            raise MalformedStructureError(f"missing record for {key}")
        return cells.pop(key)

    mul = [[cell(("mul", i, j)) for j in range(m)] for i in range(m)]
    inv = [cell(("inv", i)) for i in range(m)]
    act = [[cell(("act", i, a)) for a in range(d)] for i in range(m)]
    res = [[cell(("res", i, a)) for a in range(d)] for i in range(m)]
    if cells:
        raise MalformedStructureError(f"records out of range: {sorted(cells)[:3]}")
    return SelfSimilarGroup(Alphabet(d), mul, inv, act, res, name=name)


def germ_apply(group: SelfSimilarGroup, elem: int, x: Point) -> Point:
    """Run the transducer of one group element over an eventually periodic point.

    The preperiod is consumed directly.  Over the period the restriction
    state evolves; since there are finitely many states, repeated passes
    over the period cycle, and the detected cycle is the output period.
    """
    if x.alphabet is not group.alphabet and x.alphabet != group.alphabet:
        raise IncompatibleElementsError("point and germ live over different alphabets")
    if not _is_int(elem) or not 0 <= elem < group.size:
        raise MalformedStructureError(f"no element {elem!r} in {group!r}")
    out_pre, state = group.act_word(elem, x.preperiod)
    seen: dict[int, int] = {}
    chunks: list[Word] = []
    while state not in seen:
        seen[state] = len(chunks)
        chunk, state = group.act_word(state, x.period)
        chunks.append(chunk)
    start = seen[state]
    pre = out_pre + "".join(chunks[:start])
    per = "".join(chunks[start:])
    # the letters come from the action table; only the form needs finding
    return _trusted_point(group.alphabet, *_canonical(pre, per))
