"""Exact combinatorics on the boundary of the rooted d-ary tree.

Infinite words over a d-letter alphabet form a compact ultrametric space;
a finite word addresses the closed ball of all its infinite extensions.
Everything here is integer-exact: distances are handled through their
exponent (the length of the longest common prefix), never as floats.

Words are plain tuples of small ints.  The alphabet is passed where an
operation actually needs to know d.  Letters are validated once, where a
word enters the library: in `Alphabet.parse_word` for literals, and by
`check_word` wherever a public constructor or function takes a word
(`Point`, `Point.prepend`, `PrefixCode`, `SimTable`, ...).  Words derived
from checked ones (suffixes, rotations, table rows, images under a germ)
are not checked again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Iterator

from .errors import InvalidCodeError, LiteralParseError, MalformedWordError

Word = tuple[int, ...]

# ASCII digit -> letter, so that a digit word converts in one call
_DIGIT_LETTERS = bytes.maketrans(b"0123456789", bytes(range(10)))


def is_prefix(prefix: Word, word: Word) -> bool:
    return word[: len(prefix)] == prefix


class Containment(Enum):
    """How the ball at `outer` relates to the ball at `inner`."""

    PROPER = "proper"
    EQUAL = "equal"
    NONE = "none"
    REVERSE = "reverse"


@dataclass(frozen=True)
class Alphabet:
    """The ordered alphabet {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise MalformedWordError(f"alphabet size must be an integer >= 2, got {self.size!r}")

    @property
    def letters(self) -> range:
        return range(self.size)

    def check_word(self, word: Iterable[int]) -> Word:
        word = tuple(word)
        for a in word:
            if not isinstance(a, int) or not 0 <= a < self.size:
                raise MalformedWordError(f"letter {a!r} out of range for alphabet of size {self.size}")
        return word

    def words_up_to(self, depth: int) -> list[Word]:
        """All ball addresses of length <= depth, in canonical order.

        Canonical word order is lexicographic with prefixes first, which is
        exactly Python tuple comparison.
        """
        out: list[Word] = []
        for n in range(depth + 1):
            out.extend(itertools.product(self.letters, repeat=n))
        out.sort()
        return out

    # -- literals ----------------------------------------------------------

    def parse_word(self, text: str) -> Word:
        """Parse a word literal: digits for d <= 10, '[a,b,...]' otherwise, 'e' empty.

        Letters are ASCII decimal digits only.  This is where a literal's
        letters are validated, once: a digit word is range-checked on the
        string and converted in one call, and a bracket word goes through
        `check_word`.  Out-of-range letters raise `check_word`'s
        MalformedWordError either way.
        """
        t = text.strip()
        if t == "e":
            return ()
        if t.startswith("["):
            if not t.endswith("]"):
                raise LiteralParseError(f"unterminated bracket word {text!r}")
            body = t[1:-1].strip()
            if not body:
                raise LiteralParseError("empty word is spelled 'e', not '[]'")
            parts = [p.strip() for p in body.split(",")]
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise LiteralParseError(f"bad bracket word {text!r}")
            return self.check_word(int(p) for p in parts)
        if not (t.isascii() and t.isdigit()):
            raise LiteralParseError(f"bad word literal {text!r}")
        if self.size > 10:
            raise LiteralParseError("alphabets larger than 10 need the bracket syntax [a,b,...]")
        # stripping the alphabet's digits leaves exactly the out-of-range ones
        if t.strip("0123456789"[: self.size]):
            self.check_word(int(c) for c in t)
        return tuple(t.encode().translate(_DIGIT_LETTERS))

    def format_word(self, word: Word) -> str:
        if not word:
            return "e"
        if self.size <= 10:
            return "".join(map(str, word))
        return "[" + ",".join(map(str, word)) + "]"

    def parse_point(self, text: str) -> "Point":
        """Parse 'prefix(period)', e.g. '01(10)'; the prefix may be absent."""
        t = text.strip()
        i = t.find("(")
        if i < 0 or not t.endswith(")"):
            raise LiteralParseError(f"point literal must look like 'prefix(period)', got {text!r}")
        pre_txt = t[:i].strip()
        per_txt = t[i + 1 : -1].strip()
        pre = self.parse_word(pre_txt) if pre_txt else ()
        per = self.parse_word(per_txt)
        if not per:
            raise LiteralParseError("point literal needs a nonempty period")
        return Point(self, pre, per)

    def format_point(self, point: "Point") -> str:
        pre = self.format_word(point.preperiod) if point.preperiod else ""
        return f"{pre}({self.format_word(point.period)})"


def ball_contains(outer: Word, inner: Word, alphabet: Alphabet | None = None) -> Containment:
    """Relate the balls addressed by two words.

    Returns PROPER/EQUAL when the outer ball contains the inner one,
    REVERSE when the containment is strictly the other way, NONE when the
    balls are disjoint.  Two balls meeting at all are nested, so these four
    cases are exhaustive.
    """
    if alphabet is not None:
        outer = alphabet.check_word(outer)
        inner = alphabet.check_word(inner)
    else:
        for a in outer + inner:
            if not isinstance(a, int) or a < 0:
                raise MalformedWordError(f"letter {a!r} is not a valid alphabet letter")
    if outer == inner:
        return Containment.EQUAL
    if is_prefix(outer, inner):
        return Containment.PROPER
    if is_prefix(inner, outer):
        return Containment.REVERSE
    return Containment.NONE


@dataclass(frozen=True)
class Point:
    """An eventually periodic infinite word, kept in minimal canonical form.

    The canonical form has a primitive period and the shortest preperiod
    (trailing letters equal to the period's last letter are absorbed by
    rotating the period).  Structural equality of canonical forms is then
    equality of the underlying infinite words.
    """

    alphabet: Alphabet
    preperiod: Word
    period: Word

    def __post_init__(self):
        pre = self.alphabet.check_word(self.preperiod)
        per = self.alphabet.check_word(self.period)
        if not per:
            raise MalformedWordError("a point needs a nonempty period")
        n = len(per)
        for p in range(1, n + 1):
            if n % p == 0 and per[:p] * (n // p) == per:
                per = per[:p]
                break
        pre, per = _absorb(pre, per)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def letter(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        pre, per = self.preperiod, self.period
        if n <= len(pre):
            return pre[: max(n, 0)]
        k = n - len(pre)
        return pre + (per * (k // len(per) + 1))[:k]

    def drop(self, n: int) -> "Point":
        """The point with its first n letters removed.

        Built directly, with no letter checked again: a suffix of a
        canonical preperiod still ends off the period, and a rotation of a
        primitive period is primitive, so the result is already canonical.
        """
        pre, per = self.preperiod, self.period
        if n <= len(pre):
            return _trusted_point(self.alphabet, pre[n:], per)
        shift = (n - len(pre)) % len(per)
        return _trusted_point(self.alphabet, (), per[shift:] + per[:shift])

    def prepend(self, word: Word) -> "Point":
        """The point spelled by `word` followed by this point.

        The letters of `word` are checked here, once; those of the point
        were checked when it was built.
        """
        return self._prepend(self.alphabet.check_word(word))

    def _prepend(self, word: Word) -> "Point":
        # `word` is already checked.  The period stays primitive, so only
        # the trailing letters that match the period need absorbing.
        return _trusted_point(self.alphabet, *_absorb(word + self.preperiod, self.period))

    def __str__(self) -> str:
        return self.alphabet.format_point(self)


def _absorb(pre: Word, per: Word) -> tuple[Word, Word]:
    """Shorten the preperiod while its last letter equals the period's,
    rotating the period right once per absorbed letter."""
    p = len(per)
    k = 0
    while k < len(pre) and pre[-1 - k] == per[(-1 - k) % p]:
        k += 1
    r = k % p
    return pre[: len(pre) - k], per[p - r :] + per[: p - r]


def _trusted_point(alphabet: Alphabet, preperiod: Word, period: Word) -> Point:
    # internal fast path: letters already checked, parts already canonical
    x = object.__new__(Point)
    object.__setattr__(x, "alphabet", alphabet)
    object.__setattr__(x, "preperiod", preperiod)
    object.__setattr__(x, "period", period)
    return x


def distance_exponent(x: Point, y: Point) -> int | None:
    """Length of the longest common prefix of two points, None if they coincide.

    The ultrametric distance between distinct points is exp(-t) for the
    returned t; only the exponent is ever needed, so no floats appear.
    """
    if x.alphabet != y.alphabet:
        raise MalformedWordError("points live over different alphabets")
    if x == y:
        return None
    bound = max(len(x.preperiod), len(y.preperiod)) + math.lcm(len(x.period), len(y.period)) + 1
    for i in range(bound):
        if x.letter(i) != y.letter(i):
            return i
    raise AssertionError("distinct canonical points must differ within the scan bound")


def is_complete_code(words: Collection[Word], d: int) -> bool:
    """True iff the balls of an antichain partition the whole space.

    An antichain is complete exactly when the ball measures sum to 1;
    with integers: sum of d^(D-|w|) over the code equals d^D.
    """
    if not words:
        return False
    depth = max(len(w) for w in words)
    return sum(d ** (depth - len(w)) for w in words) == d**depth


@dataclass(frozen=True)
class PrefixCode:
    """A finite antichain of ball addresses, stored sorted.

    No word of the code is a prefix of another, so the addressed balls are
    pairwise disjoint.  A complete code partitions the whole space.
    """

    alphabet: Alphabet
    words: tuple[Word, ...]

    def __post_init__(self):
        ws = sorted(self.alphabet.check_word(w) for w in self.words)
        if len(set(ws)) != len(ws):
            raise InvalidCodeError("repeated word in prefix code")
        # in sorted order a prefix lands immediately before its extensions
        for u, v in itertools.pairwise(ws):
            if is_prefix(u, v):
                raise InvalidCodeError(f"{u} is a prefix of {v}; not an antichain")
        object.__setattr__(self, "words", tuple(ws))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def is_complete(self) -> bool:
        """True iff the balls of the code partition the whole space."""
        return is_complete_code(self.words, self.alphabet.size)

    def max_depth(self) -> int:
        if not self.words:
            raise InvalidCodeError("empty code has no depth")
        return max(len(w) for w in self.words)

    def proper_prefixes(self) -> tuple[Word, ...]:
        """All balls properly containing some ball of the code, sorted."""
        seen = {w[:k] for w in self.words for k in range(len(w))}
        return tuple(sorted(seen))

    def refines(self, other: "PrefixCode") -> bool:
        """Every ball of this code lies inside some ball of `other`."""
        others = set(other.words)
        return all(any(w[:k] in others for k in range(len(w) + 1)) for w in self.words)


def proper_prefix_count(code: PrefixCode) -> int:
    """Number of distinct balls properly containing some ball of the code.

    For a complete code with n words over a d-letter alphabet this equals
    (n - 1) / (d - 1): the internal nodes of the code's tree.
    """
    if not code.words:
        raise InvalidCodeError("empty code")
    return len(code.proper_prefixes())


def clopen_normalize(alphabet: Alphabet, words: Iterable[Word]) -> tuple[Word, ...]:
    """Normal form of a union of balls, as its sorted balls.

    Nested balls are dropped and full sibling families merged into their
    parent.  In normal form a ball lies inside the union iff one of the
    returned balls sits at or above it.
    """
    keep = {alphabet.check_word(w) for w in words}
    keep = {w for w in keep if not any(w[:k] in keep for k in range(len(w)))}
    d = alphabet.size
    changed = True
    while changed:
        changed = False
        for parent in sorted({w[:-1] for w in keep if w}, key=len, reverse=True):
            family = [parent + (a,) for a in range(d)]
            if all(f in keep for f in family):
                keep.difference_update(family)
                keep.add(parent)
                changed = True
    return tuple(sorted(keep))


def complement_balls(alphabet: Alphabet, words: Iterable[Word]) -> tuple[Word, ...]:
    """Minimal ball cover of the complement of a union of balls."""
    inside = clopen_normalize(alphabet, words)
    out: list[Word] = []
    # depth-first in letter order; children are pushed in reverse so the
    # first letter is visited first
    stack: list[Word] = [()]
    while stack:
        p = stack.pop()
        if any(is_prefix(b, p) for b in inside):
            continue
        if not any(is_prefix(p, b) for b in inside):
            out.append(p)
            continue
        stack.extend(p + (a,) for a in reversed(alphabet.letters))
    return tuple(out)
