import itertools
import random
import time

import pytest

from localsim import (
    Alphabet,
    InvalidClassError,
    InvalidCodeError,
    LiteralParseError,
    LocalSimError,
    MalformedWordError,
    Point,
    PrefixCode,
    canonical_eclass,
    incl_class,
    reduce,
    trivial_group,
)
from localsim.elements import random_code_words
from localsim.words import _covering, _under
from oracles import (
    SplitOdds,
    all_balls,
    as_word,
    enumerate_complete_codes,
    point_letter,
    slow_proper_prefix_count,
    slow_proper_prefixes,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


class TestBallContains:
    """A ball contains another exactly when its address is a prefix of the other's."""

    def test_nesting_is_chainlike(self):
        # balls as sets of depth-5 words: containment is the prefix relation,
        # and two balls that do not nest are disjoint
        words = all_balls(A2, 4)
        deep = [as_word(x) for x in itertools.product((0, 1), repeat=5)]
        ball = {w: {x for x in deep if x[: len(w)] == w} for w in words}
        for u, v in itertools.product(words, repeat=2):
            assert v.startswith(u) == (ball[v] <= ball[u])
            if not v.startswith(u) and not u.startswith(v):
                assert not ball[u] & ball[v]


class TestPointCanonicalForm:
    def test_preperiod_absorbed(self):
        assert Point(A2, (0,), (0,)) == Point(A2, (), (0,))

    def test_rotation_absorbed(self):
        assert Point(A2, (0,), (1, 0)) == Point(A2, (), (0, 1))

    def test_period_minimized(self):
        assert Point(A2, (), (0, 1, 0, 1)) == Point(A2, (), (0, 1))

    def test_mixed_stays_put(self):
        p = Point(A2, (0, 1), (1, 0))
        assert p.preperiod == as_word((0, 1)) and p.period == as_word((1, 0))

    def test_letters_survive_canonicalization(self):
        rng = random.Random(11)
        for _ in range(200):
            pre = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
            per = tuple(rng.randrange(2) for _ in range(1, rng.randint(1, 4) + 1))
            raw = list(pre) + list(per) * 12
            p = Point(A2, pre, per)
            assert [point_letter(p, i) for i in range(12)] == raw[:12]

    def test_empty_period_rejected(self):
        with pytest.raises(MalformedWordError, match="^a point needs a nonempty period$"):
            Point(Alphabet(2), "", "")


class TestPrefixCode:
    def test_whole_space_is_complete(self):
        assert PrefixCode(A2, ((),)).is_complete()

    def test_three_leaf_complete(self):
        assert PrefixCode(A2, ((0, 0), (0, 1), (1,))).is_complete()

    def test_missing_leaf_incomplete(self):
        assert not PrefixCode(A2, ((0, 0), (1,))).is_complete()

    def test_non_antichain_rejected(self):
        with pytest.raises(InvalidCodeError, match=r"^0 is a prefix of 01; not an antichain$"):
            PrefixCode(A2, ((0,), (0, 1)))
        with pytest.raises(InvalidCodeError, match="^repeated word in prefix code$"):
            PrefixCode(A2, ((1,), (0,), (1,)))

    @pytest.mark.parametrize("words", [5, None, 2.5], ids=["int", "None", "float"])
    def test_words_must_be_iterable(self, words):
        with pytest.raises(InvalidCodeError, match=rf"^a prefix code is an iterable of words, got {words!r}$"):
            PrefixCode(A2, words)


class TestProperPrefixCount:
    """The balls properly containing a code ball: the internal nodes of the
    code's tree, which `symdiff` reads off and `zipper_length` counts."""

    def test_root(self):
        assert PrefixCode(A2, ((),)).proper_prefixes() == ()

    def test_three_leaves(self):
        assert PrefixCode(A2, ((0, 0), (0, 1), (1,))).proper_prefixes() == (as_word(()), as_word((0,)))

    def test_ternary_root_split(self):
        assert PrefixCode(A3, ((0,), (1,), (2,))).proper_prefixes() == (as_word(()),)

    def test_matches_enumeration_and_closed_form(self):
        # every complete binary code of depth <= 4, plus ternary to depth 2
        for alphabet, depth in ((A2, 4), (A3, 2)):
            d = alphabet.size
            for words in enumerate_complete_codes(alphabet, depth):
                code = PrefixCode(alphabet, words)
                n = len(code.proper_prefixes())
                assert n == slow_proper_prefix_count(code)
                assert n * (d - 1) == len(words) - 1

    def test_walk_matches_set_oracle_on_edge_codes(self):
        a12 = Alphabet(12)
        codes = [
            PrefixCode(A2, ()),
            PrefixCode(A2, ((),)),
            PrefixCode(A2, ((0, 1, 1),)),
            PrefixCode(A3, ((2, 2, 0, 1),)),
            PrefixCode(a12, ((11, 0, 5),)),
            # the first word is the deepest, complete and incomplete
            PrefixCode(A2, ((0,) * 9, (1,))),
            PrefixCode(A2, ((0, 0, 0, 0, 0, 1), (0, 1), (1, 0, 1, 1))),
            PrefixCode(A3, ((0, 2, 2, 2, 2), (0, 2, 2, 2, 0), (1,), (2, 1))),
            PrefixCode(a12, ((0, 11, 3, 3), (0, 11, 4), (11,))),
        ]
        for code in codes:
            got = code.proper_prefixes()
            assert got == slow_proper_prefixes(code)
        assert PrefixCode(A2, ((0, 1, 1),)).proper_prefixes() == tuple(map(as_word, ((), (0,), (0, 1))))

    def test_walk_matches_set_oracle_on_random_antichains(self):
        hypothesis, st, settings = _hypothesis()
        depth_cap = {2: 8, 3: 5, 12: 3}

        @settings
        @hypothesis.given(
            st.sampled_from([2, 3, 12]),
            st.randoms(use_true_random=True),
            st.integers(1, 8),
            st.sampled_from([0.3, 0.55, 0.8]),
            st.sampled_from([1.0, 0.7, 0.3]),
        )
        def check(d, rng, depth, split_prob, keep):
            alphabet = Alphabet(d)
            split_prob = split_prob if d < 12 else split_prob / 4
            words = random_code_words(alphabet, SplitOdds(rng, split_prob), min(depth, depth_cap[d]))
            # keep < 1 drops words at random, leaving an incomplete antichain
            code = PrefixCode(alphabet, [w for w in words if keep == 1.0 or rng.random() < keep])
            got = code.proper_prefixes()
            assert got == slow_proper_prefixes(code)
            assert list(got) == sorted(set(got))

        check()

    def test_comb_walk_is_output_linear(self):
        # collecting every prefix of every word builds about n^3/6 letters,
        # some 19 s at this size; the output has n^2/2
        n = 2000
        code = PrefixCode(A2, [(1,) * i + (0,) for i in range(n - 1)] + [(1,) * (n - 1)])
        start = time.perf_counter()
        got = code.proper_prefixes()
        elapsed = time.perf_counter() - start
        assert got == tuple(as_word((1,) * i) for i in range(n - 1))
        assert elapsed < 2.0


# every rejection in Alphabet.parse_word and parse_point: (alphabet size,
# parser, text, error type, message fragment)
BAD_LITERALS = (
    (12, "word", "[0,1", LiteralParseError, "unterminated bracket word '[0,1'"),
    (12, "word", "[ ]", LiteralParseError, "empty word is spelled 'e', not '[]'"),
    (12, "word", "[0,x]", LiteralParseError, "bad bracket word '[0,x]'"),
    (12, "word", "[" + "9" * 5000 + "]", LiteralParseError, "bracket letter of 5000 digits is too long"),
    (12, "word", "[0," + "0" * 5000 + "]", LiteralParseError, "bracket letter of 5000 digits is too long"),
    (12, "word", "[12]", MalformedWordError, "letter 12 out of range for alphabet of size 12"),
    (2, "word", "0x", LiteralParseError, "bad word literal '0x'"),
    (12, "word", "01", LiteralParseError, "alphabets larger than 10 need the bracket syntax"),
    (2, "word", "012", MalformedWordError, "letter 2 out of range for alphabet of size 2"),
    (2, "point", "01", LiteralParseError, "point literal must look like 'prefix(period)', got '01'"),
    (2, "point", "(01", LiteralParseError, "point literal must look like 'prefix(period)'"),
    (2, "point", "01()", LiteralParseError, "bad word literal ''"),
    (2, "point", "01(e)", LiteralParseError, "point literal needs a nonempty period"),
    (12, "point", "([0,1)", LiteralParseError, "unterminated bracket word '[0,1'"),
    (2, "word", 5, LiteralParseError, "a word literal is a str, got int"),
    (2, "word", b"01", LiteralParseError, "a word literal is a str, got bytes"),
    (2, "point", 5, LiteralParseError, "a point literal is a str, got int"),
    (2, "point", None, LiteralParseError, "a point literal is a str, got NoneType"),
)


@pytest.mark.parametrize("size, kind, text, error, fragment", BAD_LITERALS, ids=[c[-1][:40] for c in BAD_LITERALS])
def test_literal_rejected(size, kind, text, error, fragment):
    alphabet = Alphabet(size)
    parse = alphabet.parse_word if kind == "word" else alphabet.parse_point
    with pytest.raises(error) as err:
        parse(text)
    assert fragment in str(err.value)


class TestParsePoint:
    """`parse_point` checks each letter once, in `parse_word`, and builds
    the canonical point directly: it gives what the checking constructor
    gives, and rejects what it rejected."""

    @pytest.mark.parametrize("size", [2, 3, 12])
    def test_equals_the_checked_constructor(self, size):
        alphabet = Alphabet(size)
        rng = random.Random(size)

        def spell(word):
            if not word:
                return "e"
            if size <= 10:
                return "".join(map(str, word))
            return "[" + ",".join(map(str, word)) + "]"

        for _ in range(300):
            root = tuple(rng.randrange(size) for _ in range(rng.randint(1, 3)))
            per = root * rng.randint(1, 3)
            # a preperiod ending in letters of the period is absorbed by it
            pre = tuple(rng.randrange(size) for _ in range(rng.randrange(4))) + per[rng.randrange(len(per) + 1) :]
            # an empty preperiod may be left out or spelled e
            head = spell(pre) if pre else rng.choice(["", "e"])
            text = f"{head}({spell(per)})"
            assert alphabet.parse_point(text) == Point(alphabet, pre, per), text

    @pytest.mark.parametrize(
        "size, text, error, message",
        [
            (2, "01", LiteralParseError, "point literal must look like 'prefix(period)', got '01'"),
            (2, "01(e)", LiteralParseError, "point literal needs a nonempty period"),
            (2, "0(2)", MalformedWordError, "letter 2 out of range for alphabet of size 2"),
            (3, "3(0)", MalformedWordError, "letter 3 out of range for alphabet of size 3"),
            (12, "([0,12])", MalformedWordError, "letter 12 out of range for alphabet of size 12"),
        ],
    )
    def test_rejections_keep_type_and_message(self, size, text, error, message):
        with pytest.raises(LocalSimError) as err:
            Alphabet(size).parse_point(text)
        assert (type(err.value), str(err.value)) == (error, message)


class TestLiterals:
    def test_word_round_trip(self):
        for w in all_balls(A2, 4):
            assert A2.parse_word(A2.format_word(w)) == w

    def test_empty_word_spelled_e(self):
        assert A2.parse_word("e") == as_word(())
        assert A2.format_word(as_word(())) == "e"

    def test_bracket_form(self):
        a12 = Alphabet(12)
        assert a12.parse_word("[0,11,3]") == as_word((0, 11, 3))
        assert a12.format_word(as_word((0, 11, 3))) == "[0,11,3]"

    def test_point_round_trip(self):
        for text in ("(0)", "(01)", "01(10)", "1(1)"):
            p = A2.parse_point(text)
            assert A2.parse_point(A2.format_point(p)) == p

    def test_letters_are_ascii_decimal(self):
        # str.isdigit and int() also take superscripts, other scripts' digits,
        # signs and underscores
        for text in ("²", "١", "0١", "[1_0]", "[+1]", "[1,²]", "[1,,0]"):
            with pytest.raises(LiteralParseError):
                A2.parse_word(text)
        for text in ("²(0)", "(١)"):
            with pytest.raises(LiteralParseError):
                A2.parse_point(text)
        assert Alphabet(12).parse_word("[ 1 , 10 ]") == as_word((1, 10))

    def test_out_of_range_digit_message(self):
        for alphabet, text, letter in ((A2, "012", 2), (A2, "2", 2), (A3, "0213", 3), (Alphabet(7), "97", 9)):
            with pytest.raises(MalformedWordError) as err:
                alphabet.parse_word(text)
            assert str(err.value) == f"letter {letter} out of range for alphabet of size {alphabet.size}"
        with pytest.raises(MalformedWordError, match="^letter 12 out of range for alphabet of size 12$"):
            Alphabet(12).parse_word("[0,12]")

    def test_non_int_letters_rejected(self):
        for word in ((1.0,), ("1",), (0, None), (0, 1.0), (True,), (False,), (0, True)):
            with pytest.raises(MalformedWordError):
                A2.check_word(word)
        with pytest.raises(MalformedWordError):
            Point(A2, (1.0,), (0,))
        with pytest.raises(MalformedWordError):
            Point(A2, (), ("0",))
        with pytest.raises(MalformedWordError):
            Point(A2, (True,), (False,))

    def test_non_ascii_digits_rejected(self):
        # fullwidth, mathematical double-struck, N'Ko and Bengali digits all pass str.isdigit
        for text in ("０", "𝟘", "߀", "৪", "0０", "1𝟙0"):
            with pytest.raises(LiteralParseError):
                A2.parse_word(text)
            with pytest.raises(LiteralParseError):
                A2.parse_point(f"({text})")
        with pytest.raises(LiteralParseError):
            Alphabet(12).parse_word("[1,０]")


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    return hypothesis, st, settings


def _point_parts(st, max_size=6):
    """(alphabet, preperiod, period) with digit (d <= 10) and bracket alphabets."""
    sizes = st.one_of(st.integers(2, 10), st.integers(11, 300))
    return sizes.flatmap(
        lambda d: st.tuples(
            st.just(Alphabet(d)),
            st.lists(st.integers(0, d - 1), max_size=max_size).map(tuple),
            st.lists(st.integers(0, d - 1), min_size=1, max_size=max_size).map(tuple),
        )
    )


class TestLiteralProperties:
    """Round trips and canonical forms over generated input, guarding the
    one-call digit conversion and the direct `Point` paths."""

    def test_word_round_trip(self):
        hypothesis, st, settings = _hypothesis()

        @settings
        @hypothesis.given(_point_parts(st, max_size=40))
        def check(parts):
            alphabet, word, _ = parts
            assert alphabet.parse_word(alphabet.format_word(as_word(word))) == as_word(word)

        check()

    def test_point_round_trip(self):
        hypothesis, st, settings = _hypothesis()

        @settings
        @hypothesis.given(_point_parts(st))
        def check(parts):
            x = Point(*parts)
            alphabet = x.alphabet
            assert alphabet.parse_point(alphabet.format_point(x)) == x

        check()

    def test_aliases_share_one_canonical_form(self):
        hypothesis, st, settings = _hypothesis()

        @settings
        @hypothesis.given(_point_parts(st), st.integers(0, 3), st.integers(1, 3), st.integers(0, 12))
        def check(parts, unroll, repeat, r):
            alphabet, pre, per = parts
            x = Point(alphabet, pre, per)
            r %= len(per)
            aliases = (
                Point(alphabet, pre + per * unroll, per),
                Point(alphabet, pre, per * repeat),
                Point(alphabet, pre + per[:r], per[r:] + per[:r]),
                Point(alphabet, x.preperiod, x.period),
            )
            assert all(y == x for y in aliases)
            # the canonical form: shortest preperiod, primitive period
            assert not x.preperiod or x.preperiod[-1] != x.period[-1]
            p = len(x.period)
            assert all(p % q or x.period[:q] * (p // q) != x.period for q in range(1, p))
            n = len(pre) + 2 * len(per) + 1
            raw = (list(pre) + list(per) * n)[:n]
            assert x.prefix(n) == as_word(raw) and raw == [point_letter(x, i) for i in range(n)]
            # drop and _prepend (the path apply takes) build their results
            # without the constructor;
            # from letter n on, the word runs through the period rotated by s
            s = (n - len(pre)) % len(per)
            for k in range(n + 1):
                assert x.drop(k) == Point(alphabet, tuple(raw[k:]), per[s:] + per[:s])
            word = tuple(raw[:r])
            assert x._prepend(as_word(word)) == Point(alphabet, word + pre, per)
            assert x._prepend(as_word(word)).drop(len(word)) == x

        check()


class TestWordType:
    """A word is a str whose code points are its letters."""

    @staticmethod
    def _letters(st, d):
        # over 65,536 letters, the surrogate code points and the last letter
        # are drawn as often as the rest
        letter = st.integers(0, d - 1)
        if d == 65_536:
            letter = st.one_of(letter, st.integers(0xD800, 0xDFFF), st.just(d - 1))
        return st.lists(letter, max_size=6).map(tuple)

    def test_check_word_embeds_letter_tuples(self):
        # order and the prefix relation survive, so sorted codes and both
        # searches keep their meaning
        hypothesis, st, settings = _hypothesis()
        surrogates = []

        @settings
        @hypothesis.given(st.sampled_from([2, 3, 12, 65_536]), st.data())
        def check(d, data):
            alphabet = Alphabet(d)
            letters = self._letters(st, d)
            u = data.draw(letters)
            # v often shares a prefix with u: it starts with a part of u
            v = u[: data.draw(st.integers(0, len(u)))] + data.draw(letters)
            wu, wv = alphabet.check_word(u), alphabet.check_word(v)
            assert type(wu) is str and list(map(ord, wu)) == list(u)
            assert (wu < wv) == (u < v) and (wu == wv) == (u == v)
            assert wv.startswith(wu) == (v[: len(u)] == u)
            assert alphabet.check_word(wu) == wu and alphabet.check_word(list(u)) == wu
            surrogates.append(any(0xD800 <= a <= 0xDFFF for a in u + v))

        check()
        assert any(surrogates)

    def test_str_words_are_checked_code_point_by_code_point(self):
        assert A2.check_word("") == "" and A2.check_word("\x01\x00") == as_word((1, 0))
        for text, letter in (("\x02", 2), ("\x00\x01\x02", 2), ("0", 48)):
            with pytest.raises(MalformedWordError, match=f"^letter {letter} out of range for alphabet of size 2$"):
                A2.check_word(text)
        with pytest.raises(MalformedWordError, match="^letter 65536 out of range"):
            Alphabet(65_536).check_word(as_word((0xD800, 65_536)))

    @pytest.mark.parametrize(
        "word, build",
        (
            (None, lambda t2, w: t2.alphabet.check_word(w)),
            (5, lambda t2, w: reduce(t2, [(w, (0,), 0)])),
            (5, lambda t2, w: PrefixCode(t2.alphabet, [w])),
            (3, lambda t2, w: incl_class(t2, w)),
        ),
        ids=["check_word", "reduce", "PrefixCode", "incl_class"],
    )
    def test_word_that_is_no_iterable_rejected(self, word, build):
        with pytest.raises(MalformedWordError) as err:
            build(trivial_group(2), word)
        assert str(err.value) == f"a word is a str or an iterable of int letters, got {word!r}"

    def test_alphabet_size_is_capped_below_the_last_code_point(self):
        Alphabet(0x10FFFF)
        with pytest.raises(MalformedWordError, match="^alphabet size must be at most 1114111, got 1114112$"):
            Alphabet(0x110000)

    def test_surrogate_letters_never_encoded(self):
        # letters 55,296 to 57,343 are surrogate code points, which no
        # encoding takes; every word operation works on them all the same
        a = Alphabet(65_536)
        w = as_word((0xD800, 0xDFFF, 7))
        assert a.parse_word(a.format_word(w)) == w and a.format_word(w) == "[55296,57343,7]"
        x = Point(a, w, as_word((0xDC00,)))
        assert a.parse_point(a.format_point(x)) == x and x.prefix(5) == w + as_word((0xDC00,)) * 2
        code = PrefixCode(a, (w, w[:2] + as_word((8,)), as_word((0xDFFF,))))
        assert code.proper_prefixes() == (as_word(()), w[:1], w[:2])

    def test_format_inverts_parse(self):
        hypothesis, st, settings = _hypothesis()

        @settings
        @hypothesis.given(st.one_of(st.integers(2, 10), st.integers(11, 300), st.just(65_536)), st.data())
        def check(d, data):
            alphabet = Alphabet(d)
            letters = data.draw(self._letters(st, d))
            if not letters:
                text = "e"
            elif d <= 10:
                text = "".join(map(str, letters))
            else:
                text = "[" + ",".join(map(str, letters)) + "]"
            assert alphabet.parse_word(text) == as_word(letters)
            assert alphabet.format_word(alphabet.parse_word(text)) == text

        check()


# every message that names a word names it as a literal: (what is built,
# a thunk that builds it, error type, the whole message)
def _class(d, rows, ball):
    return lambda: canonical_eclass(trivial_group(d), rows, ball)


NAMED_WORDS = (
    ("code", lambda: PrefixCode(A2, ((0,), (0, 1))), InvalidCodeError, "0 is a prefix of 01; not an antichain"),
    (
        "code over 12 letters",
        lambda: PrefixCode(Alphabet(12), ((11,), (11, 0))),
        InvalidCodeError,
        "[11] is a prefix of [11,0]; not an antichain",
    ),
    ("class outside", _class(2, [((0,), (0,), 0)], (1,)), InvalidClassError, "source 0 is outside the ball 1"),
    (
        "class outside over 12 letters",
        _class(12, [((11,), (0,), 0)], (10,)),
        InvalidClassError,
        "source [11] is outside the ball [10]",
    ),
    (
        "class overlap",
        _class(2, [((1, 0), (1, 0, 0), 0), ((1, 0, 1), (0,), 0), ((1, 1), (1, 1), 0)], (1,)),
        InvalidClassError,
        "sources 10 and 101 overlap",
    ),
    ("class partition", _class(2, [((0, 0), (0,), 0)], (0,)), InvalidClassError, "sources do not partition the ball 0"),
    ("class partition at root", _class(2, [((0,), (0,), 0)], ()), InvalidClassError, "sources do not partition the ball e"),
    ("class targets", _class(2, [((0,), (0,), 0), ((1,), (0, 1), 0)], ()), InvalidClassError, "targets 0 and 01 overlap"),
)


@pytest.mark.parametrize("build, error, message", [c[1:] for c in NAMED_WORDS], ids=[c[0] for c in NAMED_WORDS])
def test_message_names_words_as_literals(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def _scan_covering(code, w) -> int:
    return next((i for i, u in enumerate(code) if w.startswith(u)), -1)


def _scan_under(code, b) -> list[int]:
    return [i for i, u in enumerate(code) if u.startswith(b)]


class TestPrefixCodeSearch:
    """`_covering` and `_under` against a linear scan of the code."""

    def test_matches_a_linear_scan(self):
        hypothesis, st, settings = _hypothesis()

        @settings
        @hypothesis.given(st.sampled_from([2, 3, 12]), st.data())
        def check(d, data):
            letters = st.lists(st.integers(0, d - 1), max_size=4).map(as_word)
            words = set(data.draw(st.lists(letters, max_size=12)))
            # the antichain of the minimal words drawn
            code = tuple(sorted(u for u in words if not any(v != u and u.startswith(v) for v in words)))
            # a query near a code word: the word itself, a prefix or an extension
            base = data.draw(st.sampled_from(code)) if code and data.draw(st.booleans()) else as_word(())
            w = base[: data.draw(st.integers(0, len(base)))] + data.draw(letters)
            assert _covering(code, w) == _scan_covering(code, w)
            start, end = _under(code, w, d)
            assert 0 <= start <= end <= len(code)
            assert list(range(start, end)) == _scan_under(code, w)

        check()

    def test_edge_cases(self):
        w = as_word
        assert _covering((), w((0, 1))) == -1 and _under((), w((0,)), 2) == (0, 0)
        # the one-ball code covers every word and lies under the root only
        assert _covering((w(()),), w(())) == 0 and _covering((w(()),), w((1, 0))) == 0
        assert _under((w(()),), w(()), 2) == (0, 1) and _under((w(()),), w((1,)), 2) == (1, 1)
        code = tuple(map(w, ((0, 1), (1, 0), (1, 1, 0))))
        # a word equal to a code word is covered by it and is the one word under it
        for i, u in enumerate(code):
            assert _covering(code, u) == i and _under(code, u, 2) == (i, i + 1)
        # words sorting before and after every code word, and the root above them all
        for u, at in (((0, 0, 1), 0), ((1, 1, 1, 1), 3)):
            assert _covering(code, w(u)) == -1 and _under(code, w(u), 2) == (at, at)
        assert _covering(code, w(())) == -1 and _under(code, w(()), 2) == (0, 3)
        assert _under(code, w((1,)), 2) == (1, 3) and _covering(code, w((1, 1, 0, 1))) == 2
