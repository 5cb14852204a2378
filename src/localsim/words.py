"""Exact combinatorics on the boundary of the rooted d-ary tree.

Infinite words over a d-letter alphabet form a compact ultrametric space;
a finite word addresses the closed ball of all its infinite extensions.
Everything here is integer-exact.

A word is a `str` whose code points are its letters: the letter a is
`chr(a)`.  A word keeps its hash once computed, and slicing, comparing
and searching run over packed code points, one or two bytes a letter up
to 65,536 letters.  str order is code point order, which is the
lexicographic order of the letters, so sorting and bisecting words mean
what they mean for letter sequences.  No word is ever encoded: from
55,296 letters on, some letters are surrogate code points.  The alphabet
is passed where an operation actually needs to know d; it has at most
0x10FFFF letters, so that every letter and the bound chr(d) are code
points.  Letters are validated once, where a word enters the library.  An
element literal is read once, by a scan that checks its words: in a digit
word `_word_syntax` matches only the alphabet's own digits, and `_scan_word`
range-checks a bracket word's letters.  A refused literal is named at the
row where the scan stopped, which alone is read again: `Alphabet.parse_word`,
which checks the words of a point literal, names a word fault there.
`check_word` checks a word wherever a public constructor or function takes
one (`Point`, `PrefixCode`, `reduce`, ...), and also takes any iterable of
int letters.  Words derived from checked ones (suffixes, rotations, table
rows, images under a germ) are not checked again.

A sorted prefix code lists its tree in preorder, and two searches over
it serve every lookup in the library.  The code word that is a prefix of
a word w, if there is one, is the last code word not after w, since the
words between that prefix and w would extend it too (`_covering`).  The
code words inside the ball at b are contiguous: they run from b up to b
followed by the letter d, one past the alphabet, which sorts after every
extension of b and before every other word after b (`_under`).
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator

from .errors import InvalidCodeError, LiteralParseError, MalformedWordError

Word = str

# ASCII digit <-> letter, so that a word over at most ten letters converts
# in one call either way; reading deletes 'e', so that the empty word's
# spelling converts in the same call
_DIGITS = "0123456789"
_LETTERS = "".join(map(chr, range(10)))
_DIGIT_LETTERS = str.maketrans(_DIGITS, _LETTERS, "e")
_LETTER_DIGITS = str.maketrans(_LETTERS, _DIGITS)

# the letters of a bracket word that `_word_syntax` matched
_LETTER_RUN = re.compile("[0-9]+")

# the largest alphabet: its letters and the bound chr(d) that `_under`
# appends are all code points
_MAX_SIZE = 0x10FFFF


def _is_int(v) -> bool:
    """The one test for a letter, a germ, a structure table entry or an
    integer parameter: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _data_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """The line rule of every data file: '#' starts a comment, lines blank
    after that are skipped, and lines count from 1.  Yields (line number,
    raw line, text before the comment, stripped).  The text must be a str."""
    for ln, raw in enumerate(_literal_text(text, "a data file's text").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, raw, line


def _literal_text(text, what: str) -> str:
    """The text of a literal or a data file, which must be a str; `what` names it."""
    if not isinstance(text, str):
        raise LiteralParseError(f"{what} is a str, got {type(text).__name__}")
    return text


def _word_syntax(d: int) -> str:
    """The regex, with no group, of a word literal over d letters, without
    the whitespace allowed around it: 'e', a bracket word, or for d <= 10 a
    word of the alphabet's own digits, so that a digit out of range does
    not match.  Letters are ASCII decimal digits, so `[0-9]`, never `\\d`,
    which takes other scripts' digits too.  `_scan_word` converts a match."""
    bracket = r"\[\s*[0-9]+(?:\s*,\s*[0-9]+)*\s*\]"
    return rf"e|{bracket}" if d > 10 else rf"e|{bracket}|[0-{d - 1}]+"


def _scan_word(t: str, d: int) -> Word | None:
    """The word that t, a match of `_word_syntax(d)`, spells; None if t is
    a bracket word with a letter out of range or of more digits than
    `int()` converts, which `Alphabet.parse_word` names."""
    if t[0] != "[":
        return t.translate(_DIGIT_LETTERS)
    try:
        word = "".join(map(chr, map(int, _LETTER_RUN.findall(t))))
    except (ValueError, OverflowError):  # too many digits, or past the last code point
        return None
    return word if max(word) < chr(d) else None


def _overlap(sorted_words: tuple[Word, ...]) -> tuple[Word, Word] | None:
    """Two neighbours of which the first is a prefix of (or equal to) the
    second, or None if the words are an antichain.  In sorted order the
    extensions of a word directly follow it, so neighbours are enough."""
    for u, v in itertools.pairwise(sorted_words):
        if v.startswith(u):
            return u, v
    return None


def _covering(code: tuple[Word, ...], w: Word) -> int:
    """The index of the code word that is a prefix of w, or -1."""
    i = bisect_right(code, w) - 1
    if i >= 0 and w.startswith(code[i]):
        return i
    return -1


def _under(code: tuple[Word, ...], b: Word, d: int) -> tuple[int, int]:
    """The index range of the code words inside the ball at b, for a code
    over d letters."""
    i = bisect_left(code, b)
    return i, bisect_left(code, b + chr(d), i)


@dataclass(frozen=True)
class Alphabet:
    """The ordered alphabet {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        if not _is_int(self.size) or self.size < 2:
            raise MalformedWordError(f"alphabet size must be an integer >= 2, got {self.size!r}")
        if self.size > _MAX_SIZE:
            raise MalformedWordError(f"alphabet size must be at most {_MAX_SIZE}, got {self.size}")

    @property
    def letters(self) -> range:
        return range(self.size)

    def check_word(self, word: str | Iterable[int]) -> Word:
        """The word with these letters: a str, checked code point by code
        point, or any iterable of int letters."""
        if isinstance(word, str):
            if not word or max(word) < chr(self.size):
                return word
            # some letter is out of range; the loop below names the first
            word = map(ord, word)
        try:
            word = tuple(word)
        except TypeError:
            raise MalformedWordError(f"a word is a str or an iterable of int letters, got {word!r}") from None
        for a in word:
            if not _is_int(a) or not 0 <= a < self.size:
                raise MalformedWordError(f"letter {a!r} out of range for alphabet of size {self.size}")
        return "".join(map(chr, word))

    # -- literals ----------------------------------------------------------

    def parse_word(self, text: str) -> Word:
        """Parse a word literal: digits for d <= 10, '[a,b,...]' otherwise, 'e' empty.

        Letters are ASCII decimal digits only, as in `_word_syntax`.  This
        validates a point literal's letters, and names a word fault in the
        row where an element literal's scan stopped: a digit word is
        range-checked on the string and converted in one call, and a bracket
        word goes through `check_word`.  Out-of-range letters raise
        `check_word`'s MalformedWordError either way; a bracket letter with
        more digits than `int()` converts raises LiteralParseError.
        """
        t = _literal_text(text, "a word literal").strip()
        if t == "e":
            return ""
        if t.startswith("["):
            if not t.endswith("]"):
                raise LiteralParseError(f"unterminated bracket word {text!r}")
            body = t[1:-1].strip()
            if not body:
                raise LiteralParseError("empty word is spelled 'e', not '[]'")
            parts = [p.strip() for p in body.split(",")]
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise LiteralParseError(f"bad bracket word {text!r}")
            try:
                letters = [int(p) for p in parts]
            except ValueError:  # more digits than int() converts
                raise LiteralParseError(f"bracket letter of {max(map(len, parts))} digits is too long") from None
            return self.check_word(letters)
        if not (t.isascii() and t.isdigit()):
            raise LiteralParseError(f"bad word literal {text!r}")
        if self.size > 10:
            raise LiteralParseError("alphabets larger than 10 need the bracket syntax [a,b,...]")
        # stripping the alphabet's digits leaves exactly the out-of-range ones
        if t.strip(_DIGITS[: self.size]):
            self.check_word(int(c) for c in t)
        return t.translate(_DIGIT_LETTERS)

    def format_word(self, word: Word) -> str:
        if not word:
            return "e"
        if self.size <= 10:
            return word.translate(_LETTER_DIGITS)
        return "[" + ",".join(str(ord(c)) for c in word) + "]"

    def parse_point(self, text: str) -> "Point":
        """Parse 'prefix(period)', e.g. '01(10)'; the prefix may be absent."""
        t = _literal_text(text, "a point literal").strip()
        i = t.find("(")
        if i < 0 or not t.endswith(")"):
            raise LiteralParseError(f"point literal must look like 'prefix(period)', got {text!r}")
        pre_txt = t[:i].strip()
        per_txt = t[i + 1 : -1].strip()
        pre = self.parse_word(pre_txt) if pre_txt else ""
        per = self.parse_word(per_txt)
        if not per:
            raise LiteralParseError("point literal needs a nonempty period")
        # parse_word has checked every letter; only the form needs finding
        return _trusted_point(self, *_canonical(pre, per))

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
        return _trusted_point(self.alphabet, "", per[shift:] + per[:shift])

    def _prepend(self, word: Word) -> "Point":
        # `word` is already checked.  The period stays primitive, so only
        # the trailing letters that match the period need absorbing.
        return _trusted_point(self.alphabet, *_absorb(word + self.preperiod, self.period))

    def __str__(self) -> str:
        return self.alphabet.format_point(self)


def _canonical(pre: Word, per: Word) -> tuple[Word, Word]:
    """The canonical parts of the point pre(per), for a nonempty period:
    the primitive root of the period, then the preperiod absorbed.  The
    root's length is the least rotation that gives the period back, which
    divides the period's length."""
    return _absorb(pre, per[: (per + per).find(per, 1)])


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
    d = x.__dict__
    d["alphabet"] = alphabet
    d["preperiod"] = preperiod
    d["period"] = period
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
        try:
            words = iter(self.words)
        except TypeError:
            raise InvalidCodeError(f"a prefix code is an iterable of words, got {self.words!r}") from None
        ws = tuple(sorted(self.alphabet.check_word(w) for w in words))
        pair = _overlap(ws)
        if pair is not None:
            u, v = pair
            if u == v:
                raise InvalidCodeError("repeated word in prefix code")
            u, v = map(self.alphabet.format_word, pair)
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
    d = x.__dict__
    d["alphabet"] = alphabet
    d["words"] = words
    return x
