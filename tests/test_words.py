import itertools
import random
import time

import pytest

from localsim import (
    Alphabet,
    InvalidCodeError,
    LiteralParseError,
    MalformedWordError,
    Point,
    PrefixCode,
    is_prefix,
)
from localsim.elements import random_code_words
from oracles import all_balls, enumerate_complete_codes, point_letter, slow_proper_prefix_count, slow_proper_prefixes

A2 = Alphabet(2)
A3 = Alphabet(3)


class TestBallContains:
    """A ball contains another exactly when its address is a prefix of the other's."""

    def test_root_contains_everything(self):
        assert is_prefix((), (0, 1))

    def test_equal(self):
        assert is_prefix((0, 1), (0, 1))

    def test_siblings_disjoint(self):
        assert not is_prefix((0,), (1,)) and not is_prefix((1,), (0,))

    def test_reverse(self):
        assert not is_prefix((0, 1), (0,)) and is_prefix((0,), (0, 1))

    def test_nesting_is_chainlike(self):
        # balls as sets of depth-5 words: containment is the prefix relation,
        # and two balls that do not nest are disjoint
        words = all_balls(A2, 4)
        deep = list(itertools.product((0, 1), repeat=5))
        ball = {w: {x for x in deep if x[: len(w)] == w} for w in words}
        for u, v in itertools.product(words, repeat=2):
            assert is_prefix(u, v) == (ball[v] <= ball[u])
            if not is_prefix(u, v) and not is_prefix(v, u):
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
        assert p.preperiod == (0, 1) and p.period == (1, 0)

    def test_letters_survive_canonicalization(self):
        rng = random.Random(11)
        for _ in range(200):
            pre = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
            per = tuple(rng.randrange(2) for _ in range(1, rng.randint(1, 4) + 1))
            raw = list(pre) + list(per) * 12
            p = Point(A2, pre, per)
            assert [point_letter(p, i) for i in range(12)] == raw[:12]


class TestPrefixCode:
    def test_whole_space_is_complete(self):
        assert PrefixCode(A2, ((),)).is_complete()

    def test_three_leaf_complete(self):
        assert PrefixCode(A2, ((0, 0), (0, 1), (1,))).is_complete()

    def test_missing_leaf_incomplete(self):
        assert not PrefixCode(A2, ((0, 0), (1,))).is_complete()

    def test_non_antichain_rejected(self):
        with pytest.raises(InvalidCodeError, match=r"^\(0,\) is a prefix of \(0, 1\); not an antichain$"):
            PrefixCode(A2, ((0,), (0, 1)))
        with pytest.raises(InvalidCodeError, match="^repeated word in prefix code$"):
            PrefixCode(A2, ((1,), (0,), (1,)))


class TestProperPrefixCount:
    """The balls properly containing a code ball: the internal nodes of the
    code's tree, which `symdiff` reads off and `zipper_length` counts."""

    def test_root(self):
        assert PrefixCode(A2, ((),)).proper_prefixes() == ()

    def test_three_leaves(self):
        assert PrefixCode(A2, ((0, 0), (0, 1), (1,))).proper_prefixes() == ((), (0,))

    def test_ternary_root_split(self):
        assert PrefixCode(A3, ((0,), (1,), (2,))).proper_prefixes() == ((),)

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
        assert PrefixCode(A2, ((0, 1, 1),)).proper_prefixes() == ((), (0,), (0, 1))

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
            words = random_code_words(alphabet, rng, min(depth, depth_cap[d]), split_prob)
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
        assert got == tuple((1,) * i for i in range(n - 1))
        assert elapsed < 2.0


class TestLiterals:
    def test_word_round_trip(self):
        for w in all_balls(A2, 4):
            assert A2.parse_word(A2.format_word(w)) == w

    def test_empty_word_spelled_e(self):
        assert A2.parse_word("e") == ()
        assert A2.format_word(()) == "e"

    def test_bracket_form(self):
        a12 = Alphabet(12)
        assert a12.parse_word("[0,11,3]") == (0, 11, 3)
        assert a12.format_word((0, 11, 3)) == "[0,11,3]"

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
        assert Alphabet(12).parse_word("[ 1 , 10 ]") == (1, 10)

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
            assert alphabet.parse_word(alphabet.format_word(word)) == word

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
            assert list(x.prefix(n)) == raw == [point_letter(x, i) for i in range(n)]
            # drop and _prepend (the path apply takes) build their results
            # without the constructor;
            # from letter n on, the word runs through the period rotated by s
            s = (n - len(pre)) % len(per)
            for k in range(n + 1):
                assert x.drop(k) == Point(alphabet, tuple(raw[k:]), per[s:] + per[:s])
            word = tuple(raw[:r])
            assert x._prepend(word) == Point(alphabet, word + pre, per)
            assert x._prepend(word).drop(len(word)) == x

        check()
