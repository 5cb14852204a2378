"""Exact combinatorics on the boundary of the rooted d-ary tree.

Infinite words over a d-letter alphabet form a compact ultrametric space;
a finite word addresses the closed ball of all its infinite extensions.
Everything here is integer-exact.

Words are plain tuples of small ints.  The alphabet is passed where an
operation actually needs to know d.  Letters are validated once, where a
word enters the library: in `Alphabet.parse_word` for literals, and by
`check_word` wherever a public constructor or function takes a word
(`Point`, `PrefixCode`, `SimTable`, ...).  Words derived from checked ones
(suffixes, rotations, table rows, images under a germ) are not checked
again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator

from .errors import InvalidCodeError, LiteralParseError, MalformedWordError

Word = tuple[int, ...]

# ASCII digit -> letter, so that a digit word converts in one call
_DIGIT_LETTERS = bytes.maketrans(b"0123456789", bytes(range(10)))


def is_prefix(prefix: Word, word: Word) -> bool:
    return word[: len(prefix)] == prefix


def _is_int(v) -> bool:
    """The one test for a letter, a germ or a structure table entry: an
    int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _overlap(sorted_words: tuple[Word, ...]) -> tuple[Word, Word] | None:
    """Two neighbours of which the first is a prefix of (or equal to) the
    second, or None if the words are an antichain.  In sorted order the
    extensions of a word directly follow it, so neighbours are enough."""
    for u, v in itertools.pairwise(sorted_words):
        if v[: len(u)] == u:
            return u, v
    return None


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
            if not _is_int(a) or not 0 <= a < self.size:
                raise MalformedWordError(f"letter {a!r} out of range for alphabet of size {self.size}")
        return word

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
        pre, per = _canonical(pre, per)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

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

    def _prepend(self, word: Word) -> "Point":
        # `word` is already checked.  The period stays primitive, so only
        # the trailing letters that match the period need absorbing.
        return _trusted_point(self.alphabet, *_absorb(word + self.preperiod, self.period))

    def __str__(self) -> str:
        return self.alphabet.format_point(self)


def _canonical(pre: Word, per: Word) -> tuple[Word, Word]:
    """The canonical parts of the point pre(per), for a nonempty period:
    the primitive root of the period, then the preperiod absorbed."""
    n = len(per)
    for p in range(1, n + 1):
        if n % p == 0 and per[:p] * (n // p) == per:
            per = per[:p]
            break
    return _absorb(pre, per)


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


def is_complete_code(words: Collection[Word], d: int) -> bool:
    """True iff the balls of an antichain partition the whole space.

    The words must be an antichain, and the caller checks that first:
    nested words can sum to 1 as well, as 0, 00, 01 do over two letters.
    An antichain is complete exactly when the ball measures sum to 1; with
    integers: sum of d^(D-|w|) over the code equals d^D.
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
        ws = tuple(sorted(self.alphabet.check_word(w) for w in self.words))
        pair = _overlap(ws)
        if pair is not None:
            u, v = pair
            if u == v:
                raise InvalidCodeError("repeated word in prefix code")
            raise InvalidCodeError(f"{u} is a prefix of {v}; not an antichain")
        object.__setattr__(self, "words", ws)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def is_complete(self) -> bool:
        """True iff the balls of the code partition the whole space."""
        return is_complete_code(self.words, self.alphabet.size)

    def proper_prefixes(self) -> tuple[Word, ...]:
        """All balls properly containing some ball of the code, sorted.

        One walk over the sorted words.  A word's proper prefixes that are
        also prefixes of its predecessor are out already, and they are its
        shortest ones; the others, taken from the longest down to the first
        shared one, sort after everything before them.  So the output comes
        sorted and without repeats, in time proportional to the letters of
        the code and of the output.
        """
        words = self.words
        if not words:
            return ()
        out = [words[0][:k] for k in range(len(words[0]))]
        for prev, w in itertools.pairwise(words):
            new = []
            for k in reversed(range(len(w))):
                u = w[:k]
                if u == prev[:k]:
                    break
                new.append(u)
            new.reverse()
            out += new
        return tuple(out)


def _trusted_code(alphabet: Alphabet, words: tuple[Word, ...]) -> PrefixCode:
    # internal fast path: letters already checked, words sorted and an antichain
    x = object.__new__(PrefixCode)
    object.__setattr__(x, "alphabet", alphabet)
    object.__setattr__(x, "words", words)
    return x
