import collections
import itertools
import random
import time

import pytest

from localsim import (
    CanonicalElement,
    IncompatibleElementsError,
    InvalidCodeError,
    LiteralParseError,
    MalformedStructureError,
    NoSuchRowError,
    Point,
    PrefixCode,
    Row,
    SimTable,
    UnsupportedStructureError,
    apply,
    compose,
    enumerate_gamma,
    expand_at,
    format_element,
    identity,
    invert,
    is_in_F,
    is_in_T,
    max_partition,
    parse_element,
    random_element,
    random_point,
    reduce,
    symmetric_group,
    trivial_group,
    validate_table,
)
from localsim.elements import _compose_rows, _reduce_rows, random_code_words
from oracles import (
    as_word,
    brute_force_gamma,
    coarsenings,
    enumerate_complete_codes,
    leaf_ranks,
    point_letter,
    slow_compose_rows,
    slow_reduce_rows,
    stepwise_apply_letters,
)


def comb_swap(n: int) -> str:
    """The element of V whose sources are the comb 1, 01, ..., 0^(n-1)1, 0^n
    and which swaps its two deepest leaves; its deepest rows have n letters."""
    rows = [f"{'0' * k}1->{'0' * k}1" for k in range(n - 1)]
    deep, last = "0" * (n - 1) + "1", "0" * n
    return ";".join(rows + [f"{deep}->{last}", f"{last}->{deep}"])


def letter_swap(d: int, a: int, b: int) -> str:
    """The element over d letters that swaps the balls at letters a and b."""
    image = {a: b, b: a}
    return ";".join(f"[{x}]->[{image.get(x, x)}]" for x in range(d))


class TestPacked:
    """`packed()` is one str key for every element, also past the limits of
    a byte: word lengths over 255, more than 256 letters, more than 256
    germs.  Equal elements give equal keys and distinct ones distinct keys."""

    @staticmethod
    def _cases(t2):
        return (
            ("255 letters", t2, comb_swap(255), comb_swap(254)),
            ("a row deeper than 255 letters", t2, comb_swap(256), comb_swap(257)),
            ("257 letters", trivial_group(257), letter_swap(257, 0, 1), letter_swap(257, 0, 2)),
            ("720 germs", symmetric_group(6), "e->e:300", "e->e:301"),
        )

    def test_str_key_for_every_element(self, t2):
        for label, group, text, _ in self._cases(t2):
            assert isinstance(parse_element(text, group).packed(), str), label

    def test_injective_past_the_byte_limits(self, t2):
        for label, group, text, other in self._cases(t2):
            g, same, h = parse_element(text, group), parse_element(text, group), parse_element(other, group)
            assert g.packed() == same.packed() and hash(g.packed()) == hash(same.packed()), label
            assert g.packed() != h.packed(), label
            assert len({g.packed(), same.packed(), h.packed()}) == 2, label

    def test_injective_on_every_small_element(self, t2, s2):
        # every element with at most 4 leaves; run together without their
        # lengths, the rows of some of them would read alike
        for group in (t2, s2):
            codes = [PrefixCode(group.alphabet, c) for c in enumerate_complete_codes(group.alphabet, 3)]
            elems = {g for p in codes for q in codes if len(p) == len(q) <= 4 for g in enumerate_gamma(group, p, q)}
            assert len({g.packed() for g in elems}) == len(elems) > 500
            assert len({"".join(s + t + chr(z) for s, t, z in g.rows) for g in elems}) < len(elems)


class TestValidateTable:
    def test_identity_clean(self, t2):
        assert validate_table(SimTable(t2, (Row((), (), 0),))) == []
        assert validate_table(SimTable(t2, (Row("", "", 0),))) == []

    def test_incomplete_domain(self, t2):
        issues = validate_table(SimTable(t2, (Row((0,), (0,), 0),)))
        assert "incomplete-domain" in issues

    def test_target_collision(self, t2):
        issues = validate_table(
            SimTable(t2, (Row((0,), (0,), 0), Row((1,), (0, 1), 0)))
        )
        assert "target-not-antichain" in issues

    def test_partial_image_rejected(self, t2):
        # an embedding of the whole space onto two smaller balls is no element
        t = SimTable(t2, (Row((0,), (0, 0), 0), Row((1,), (1, 0), 0)))
        assert validate_table(t) == ["target-incomplete"]
        with pytest.raises(InvalidCodeError, match="invalid table: target-incomplete"):
            reduce(t)

    def test_germs_are_ints(self, s2):
        for germ in (1.0, True, "1"):
            with pytest.raises(MalformedStructureError, match="no germ"):
                SimTable(s2, (Row((), (), germ),))


class TestExpandReduce:
    def test_expand_identity(self, t2):
        t = expand_at(SimTable(t2, identity(t2).rows), ())
        assert t.rows == (Row(as_word((0,)), as_word((0,)), 0), Row(as_word((1,)), as_word((1,)), 0))

    def test_expand_pushes_germ(self, s2):
        root_swap = SimTable(s2, (Row((), (), 1),))
        t = expand_at(root_swap, ())
        assert t.rows == (Row(as_word((0,)), as_word((1,)), 1), Row(as_word((1,)), as_word((0,)), 1))

    def test_expand_missing_row(self, t2):
        with pytest.raises(NoSuchRowError):
            expand_at(SimTable(t2, identity(t2).rows), (0, 1))
        with pytest.raises(NoSuchRowError):
            expand_at(SimTable(t2, identity(t2).rows), as_word((0, 1)))

    def test_reduce_recognizes_identity(self, t2):
        t = SimTable(t2, (Row((0,), (0,), 0), Row((1,), (1,), 0)))
        assert reduce(t) == identity(t2)

    def test_reduce_rejects_overlapping_sources(self, t2):
        # the root above a second row, and a repeated source
        for rows in (
            (Row((), (), 0), Row((0,), (1,), 0)),
            (Row((0,), (0,), 0), Row((0,), (1,), 0), Row((1,), (1,), 0)),
        ):
            t = SimTable(t2, rows)
            assert "domain-not-antichain" in validate_table(t)
            with pytest.raises(InvalidCodeError, match="not a prefix code"):
                reduce(t)

    def test_reduce_rejects_incomplete_domain(self, t2):
        # 0->0 alone maps the ball at 0 only; its reduced form would be a
        # one-row table that no group element has
        for rows, issue in (
            ((Row((0,), (0,), 0),), "incomplete-domain, target-incomplete"),
            ((Row((0,), (0,), 0), Row((1, 0), (1,), 0)), "incomplete-domain"),
            ((), "empty-table"),
        ):
            with pytest.raises(InvalidCodeError, match=f"^invalid table: {issue}$"):
                reduce(SimTable(t2, rows))

    def test_reduce_reverses_germ_expansion(self, s2):
        t = SimTable(s2, (Row((0,), (1,), 1), Row((1,), (0,), 1)))
        assert reduce(t).rows == (Row(as_word(()), as_word(()), 1),)

    def test_x0_already_reduced(self, x0):
        assert x0.rows == tuple(
            Row(as_word(s), as_word(t), z) for s, t, z in (((0, 0), (0,), 0), ((0, 1), (1, 0), 0), ((1,), (1, 1), 0)))

    def test_confluence_under_random_expansion(self, configurations):
        rng = random.Random(41)
        for group in configurations:
            for _ in range(60):
                g = random_element(group, rng, max_depth=4)
                t = SimTable(group, g.rows)
                for _ in range(rng.randrange(1, 6)):
                    source = rng.choice([r.source for r in t.rows])
                    t = expand_at(t, source)
                assert reduce(t) == g


KERNEL_DEPTH = {2: 4, 3: 3}


def random_table(group, rng, shape: str, splits: int) -> SimTable:
    """A random element's table, or an embedding made from one by moving its
    targets ("embedding") or its sources ("sub-ball") under a random letter,
    expanded at `splits` random rows."""
    g = random_element(group, rng, max_depth=KERNEL_DEPTH[group.alphabet.size])
    a = as_word((rng.randrange(group.alphabet.size),))
    if shape == "element":
        t = SimTable(group, g.rows)
    elif shape == "embedding":
        t = SimTable(group, tuple(Row(s, a + w, z) for s, w, z in g.rows))
    else:
        t = SimTable(group, tuple(Row(a + s, w, z) for s, w, z in g.rows))
    for _ in range(splits):
        t = expand_at(t, rng.choice([r.source for r in t.rows]))
    return t


class TestRewriteKernel:
    """The in-order compose and the shift-reduce pass, against the dict-based
    reduction in the oracles."""

    def test_compose_rows_come_out_sorted(self, x0, x1, rot):
        # x0's target 10 lies above x1's sources 100 and 101, so it is split
        for g, h in ((x1, x0), (x0, rot), (rot, x1), (x1, invert(x1))):
            sources = [s for s, _, _ in _compose_rows(g, h.rows)]
            assert all(u < v for u, v in itertools.pairwise(sources))
        assert len(_compose_rows(x1, x0.rows)) == 4

    def test_random_tables(self, configurations):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.sampled_from(configurations),
            st.randoms(use_true_random=True),
            st.sampled_from(["element", "embedding", "sub-ball"]),
            st.integers(0, 6),
        )
        def check(group, rng, shape, splits):
            t = random_table(group, rng, shape, splits)
            assert _reduce_rows(group, t.rows) == slow_reduce_rows(group, t.rows)

            g = random_element(group, rng, max_depth=KERNEL_DEPTH[group.alphabet.size])
            right = random_table(group, rng, "element", splits)
            rows = _compose_rows(g, right.rows)
            assert all(u[0] < v[0] for u, v in itertools.pairwise(rows))
            assert _reduce_rows(group, rows) == slow_reduce_rows(group, rows) == compose(g, reduce(right)).rows

        check()

    def test_compose_rows_match_the_stack_walk(self, t2, s2, t3, s3, klein, s3_conjugated):
        # shallow right operands against deep left ones, so many targets
        # straddle several g-rows; over s2, s3, klein and s3_conjugated most
        # left germs are not the identity, so the pieces go through act and
        # res.  A straddling h-row whose germ is not the identity pulls the
        # g-rows under its target back through a letter permutation, which
        # is where the pulled-back block must be sorted again.
        rng = random.Random(151)
        straddled = 0
        straddling_rows = collections.Counter()
        for group in (t2, s2, t3, s3, klein, s3_conjugated):
            depth = KERNEL_DEPTH[group.alphabet.size]
            for _ in range(40):
                g = random_element(group, rng, max_depth=depth)
                h = random_element(group, rng, max_depth=rng.randint(1, depth))
                got = _compose_rows(g, h.rows)
                assert got == slow_compose_rows(group, g.rows, h.rows)
                straddled += len(got) > len(h.rows) and any(r.germ for r in g.rows)
                for _, tgt, germ in h.rows:
                    if not any(tgt[: len(v)] == v for v, _, _ in g.rows):
                        straddling_rows[germ != 0] += 1
        # with this seed: 68 of 140 straddling h-rows have a germ other
        # than the identity
        assert straddled >= 50 and straddling_rows[True] >= 50


class TestComposeInvert:
    def test_identity_neutral(self, x0, t2):
        assert compose(x0, identity(t2)) == x0
        assert compose(identity(t2), x0) == x0

    def test_inverse_law(self, x0):
        assert compose(x0, invert(x0)) == identity(x0.group)

    def test_x0_squared_partition(self, x0):
        assert max_partition(compose(x0, x0)).words == tuple(map(as_word, ((0, 0, 0), (0, 0, 1), (0, 1), (1,))))

    def test_invert_x0_frozen(self, x0):
        assert invert(x0).rows == tuple(
            Row(as_word(s), as_word(t), z) for s, t, z in (((0,), (0, 0), 0), ((1, 0), (0, 1), 0), ((1, 1), (1,), 0)))

    def test_invert_is_involution(self, configurations):
        rng = random.Random(43)
        for group in configurations:
            for _ in range(25):
                g = random_element(group, rng, max_depth=4)
                assert invert(invert(g)) == g

    def test_image_code_is_inverse_partition(self, configurations):
        # the image balls of the maximum regions are the inverse's regions
        rng = random.Random(47)
        for group in configurations:
            for _ in range(25):
                g = random_element(group, rng, max_depth=4)
                assert tuple(sorted(r.target for r in g.rows)) == max_partition(invert(g)).words

    def test_max_partition_is_the_checked_code(self, t2, t3, s2, s3, klein, s3_conjugated, x0, x1):
        # max_partition hands out the cached sources without checking them
        # again; the checked constructor must build the same code
        rng = random.Random(149)
        for group in (t2, t3, s2, s3, klein, s3_conjugated):
            d = group.alphabet.size
            rotation = ";".join(f"{a}->{(a + 1) % d}:{group.size - 1}" for a in range(d))
            parsed = [parse_element(rotation, group), identity(group)]
            for _ in range(10):
                g = random_element(group, rng, max_depth=3)
                h = random_element(group, rng, max_depth=3)
                parsed += [g, invert(g), compose(g, h), compose(h, parsed[0])]
            if group is t2:
                parsed += [x0, x1, compose(x0, x1), invert(x1)]
            for g in parsed:
                code = max_partition(g)
                want = PrefixCode(group.alphabet, tuple(r.source for r in g.rows))
                assert type(code.words) is tuple and code.words == want.words and code == want

    def test_cached_inverse_leaves_equality_alone(self, t2):
        g = random_element(t2, random.Random(5), max_depth=4)
        same = CanonicalElement(g.group, g.rows)
        assert g._inverse == invert(g) and compose(g, g._inverse) == identity(t2)
        assert g == same and hash(g) == hash(same)

    def test_structure_mismatch(self, t2, s2):
        with pytest.raises(IncompatibleElementsError):
            compose(identity(t2), identity(s2))


class TestApply:
    def test_identity_everywhere(self, t2):
        for text in ("(0)", "01(10)", "1(1)"):
            x = t2.alphabet.parse_point(text)
            assert apply(identity(t2), x) == x

    def test_x0_on_left_branch(self, x0, t2):
        a = t2.alphabet
        assert apply(x0, a.parse_point("00(0)")) == a.parse_point("0(0)")

    def test_x0_on_right_branch(self, x0, t2):
        a = t2.alphabet
        assert apply(x0, a.parse_point("1(1)")) == a.parse_point("11(1)")

    def test_point_outside_embedding_domain(self, t2):
        # the domain is the ball at 01, so the points on either side of it miss;
        # no literal or operation yields such a map, so it is built directly
        g = CanonicalElement(t2, (Row(as_word((0, 1)), as_word(()), 0),))
        a = t2.alphabet
        assert apply(g, a.parse_point("011(0)")) == a.parse_point("10(0)")
        for text in ("00(1)", "(0)", "1(0)", "(1)"):
            with pytest.raises(NoSuchRowError):
                apply(g, a.parse_point(text))

    def test_matches_stepwise_automaton(self, configurations):
        rng = random.Random(53)
        for group in configurations:
            for _ in range(20):
                g = random_element(group, rng, max_depth=4)
                for _ in range(10):
                    x = random_point(group.alphabet, rng)
                    y = apply(g, x)
                    want = stepwise_apply_letters(g, x, 16)
                    assert [point_letter(y, i) for i in range(16)] == want

    def test_matches_stepwise_automaton_generated(self, configurations):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.sampled_from(configurations),
            st.randoms(use_true_random=True),
            st.lists(st.integers(0, 2), max_size=8),
            st.lists(st.integers(0, 2), min_size=1, max_size=5),
        )
        def check(group, rng, pre, per):
            d = group.alphabet.size
            x = Point(group.alphabet, tuple(a % d for a in pre), tuple(a % d for a in per))
            g = random_element(group, rng, max_depth=KERNEL_DEPTH[d])
            y = apply(g, x)
            n = len(pre) + 2 * len(per) + KERNEL_DEPTH[d] + 1
            assert [point_letter(y, i) for i in range(n)] == stepwise_apply_letters(g, x, n)
            assert apply(invert(g), y) == x

        check()

    def test_homomorphism_on_points(self, configurations):
        rng = random.Random(59)
        for group in configurations:
            for _ in range(20):
                g = random_element(group, rng, max_depth=4)
                h = random_element(group, rng, max_depth=4)
                gh = compose(g, h)
                for _ in range(10):
                    x = random_point(group.alphabet, rng)
                    assert apply(gh, x) == apply(g, apply(h, x))


class TestMembership:
    def test_identity_in_both(self, t2):
        assert is_in_F(identity(t2)) and is_in_T(identity(t2))

    def test_x0_order_preserving(self, x0):
        assert is_in_F(x0) and is_in_T(x0)

    def test_rotation_in_T_only(self, rot):
        assert not is_in_F(rot) and is_in_T(rot)

    def test_transposition_in_neither(self, flip):
        assert not is_in_F(flip) and not is_in_T(flip)

    def test_wrong_structure_rejected(self, s2, t3):
        for group in (s2, t3):
            with pytest.raises(UnsupportedStructureError):
                is_in_F(identity(group))

    def test_target_order_matches_the_leaf_ranks(self, t2):
        # every element of V with at most 5 leaves: F when the ranks are the
        # identity, T when they are a rotation of it
        start = time.perf_counter()
        codes = [PrefixCode(t2.alphabet, c) for c in enumerate_complete_codes(t2.alphabet, 4) if len(c) <= 5]
        counts = collections.Counter()
        for src, dst in itertools.product(codes, repeat=2):
            for g in enumerate_gamma(t2, src, dst):
                ranks = leaf_ranks(g)
                n = len(ranks)
                in_f = ranks == list(range(n))
                in_t = all(ranks[i] == (ranks[0] + i) % n for i in range(n))
                assert (is_in_F(g), is_in_T(g)) == (in_f, in_t), format_element(g)
                counts[in_f, in_t] += 1
        assert counts[True, True] and counts[False, True] and counts[False, False]
        assert time.perf_counter() - start < 2


class TestEnumerateGamma:
    def test_root_to_root_trivial(self, t2):
        root = PrefixCode(t2.alphabet, ((),))
        assert enumerate_gamma(t2, root, root) == (identity(t2),)

    def test_depth_one_swap_only(self, t2):
        halves = PrefixCode(t2.alphabet, ((0,), (1,)))
        found = enumerate_gamma(t2, halves, halves)
        assert [format_element(g) for g in found] == ["0->1;1->0"]

    def test_root_to_root_with_germs(self, s2):
        root = PrefixCode(s2.alphabet, ((),))
        found = enumerate_gamma(s2, root, root)
        assert [format_element(g) for g in found] == ["e->e", "e->e:1"]

    def test_size_mismatch_empty(self, t2):
        root = PrefixCode(t2.alphabet, ((),))
        halves = PrefixCode(t2.alphabet, ((0,), (1,)))
        assert enumerate_gamma(t2, root, halves) == ()

    def test_incomplete_rejected(self, t2):
        with pytest.raises(InvalidCodeError):
            enumerate_gamma(t2, PrefixCode(t2.alphabet, ((0,),)), PrefixCode(t2.alphabet, ((0,),)))

    def test_foreign_alphabet_rejected(self, t2, t3):
        # binary codes over a ternary structure would give tables that miss letter 2
        c2 = PrefixCode(t2.alphabet, ((0,), (1,)))
        c3 = PrefixCode(t3.alphabet, ((0,), (1,), (2,)))
        for group, plus, minus in ((t3, c2, c2), (t2, c3, c3), (t3, c3, PrefixCode(t2.alphabet, ((),)))):
            with pytest.raises(IncompatibleElementsError):
                enumerate_gamma(group, plus, minus)

    def test_members_have_prescribed_partitions(self, t2, s2):
        for group in (t2, s2):
            alphabet = group.alphabet
            plus = PrefixCode(alphabet, ((0, 0), (0, 1), (1,)))
            minus = PrefixCode(alphabet, ((0,), (1, 0), (1, 1)))
            for g in enumerate_gamma(group, plus, minus):
                assert max_partition(g).words == plus.words
                assert max_partition(invert(g)).words == minus.words

    def test_candidate_limit(self, klein):
        # 5! * 4^5 = 122,880 candidates, just over the limit of 100,000;
        # enumerating them would take seconds
        code = PrefixCode(klein.alphabet, ((0, 0), (0, 1), (1, 0), (1, 1, 0), (1, 1, 1)))
        start = time.perf_counter()
        with pytest.raises(UnsupportedStructureError, match="100000 candidates, got 122880$"):
            enumerate_gamma(klein, code, code)
        assert time.perf_counter() - start < 1

    def test_matches_brute_force_small(self, t2, s2):
        for group in (t2, s2):
            alphabet = group.alphabet
            codes = [c for c in enumerate_complete_codes(alphabet, 2) if len(c) <= 3]
            for src in codes:
                for dst in codes:
                    want = brute_force_gamma(
                        group, PrefixCode(alphabet, src), PrefixCode(alphabet, dst), code_depth=2
                    )
                    got = enumerate_gamma(group, PrefixCode(alphabet, src), PrefixCode(alphabet, dst))
                    assert set(got) == want


class TestGammaRefinementUnion:
    def test_union_over_coarsenings_is_exhaustive(self, t2):
        # every element whose partitions are refined by the fixed codes
        # appears in exactly one bucket of the coarsening decomposition
        alphabet = t2.alphabet
        plus = PrefixCode(alphabet, ((0,), (1, 0), (1, 1, 0), (1, 1, 1)))
        minus = PrefixCode(alphabet, ((0, 0), (0, 1), (1, 0), (1, 1)))
        union: set = set()
        for q_plus in coarsenings(plus):
            for q_minus in coarsenings(minus):
                if len(q_plus) != len(q_minus):
                    continue
                batch = enumerate_gamma(
                    t2, PrefixCode(alphabet, q_plus), PrefixCode(alphabet, q_minus)
                )
                assert union.isdisjoint(batch)
                union |= set(batch)
        from oracles import tables_over

        everything: set = set()
        for q_plus in coarsenings(plus):
            for q_minus in coarsenings(minus):
                if len(q_plus) == len(q_minus):
                    everything |= tables_over(t2, q_plus, q_minus)
        assert union == everything


class TestLiterals:
    def test_round_trip_fixtures(self, x0, x1, rot, flip):
        for g in (x0, x1, rot, flip):
            assert parse_element(format_element(g), g.group) == g

    def test_round_trip_random(self, configurations):
        rng = random.Random(61)
        for group in configurations:
            for _ in range(50):
                g = random_element(group, rng, max_depth=4)
                assert parse_element(format_element(g), group) == g

    def test_round_trip_generated(self, configurations):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.sampled_from(configurations), st.randoms(use_true_random=True))
        def check(group, rng):
            g = random_element(group, rng, max_depth=KERNEL_DEPTH[group.alphabet.size])
            assert parse_element(format_element(g), group) == g

        check()

    def test_row_errors_located_after_repeated_words(self, t2, s2):
        cases = (
            # the same bad word twice: the first occurrence is reported
            ("0->1;1->x;x->0", t2, 1, 6),
            # a bad row after rows whose words are all seen before
            ("0->0;1->1;0->0;junk", t2, 3, 16),
            ("00->0;01->10;1->11;00->0:7", s2, 3, 20),
            # a digit word over d > 10, spelled earlier as a germ
            ("[0]->[0]:0;[1]->0", trivial_group(12), 1, 12),
        )
        for text, group, row, column in cases:
            with pytest.raises(LiteralParseError) as err:
                parse_element(text, group)
            assert (err.value.row, err.value.column) == (row, column), text

    def test_id_literal(self, t2):
        assert parse_element("id", t2) == identity(t2)

    def test_germ_suffix(self, s2):
        g = parse_element("e->e:1", s2)
        assert g.rows == (Row(as_word(()), as_word(()), 1),)
        assert format_element(g) == "e->e:1"

    def test_incomplete_rejected(self, t2):
        # one literal per violation kind, and two that break both columns
        for text, issues in (
            ("0->0", "incomplete-domain, target-incomplete"),
            ("0->0;01->10;1->11", "domain-not-antichain"),
            ("0->0;10->1", "incomplete-domain"),
            ("0->0;1->0", "target-not-antichain"),
            ("0->00;1->1", "target-incomplete"),
            ("0->0;0->1;1->1", "domain-not-antichain, target-not-antichain"),
        ):
            with pytest.raises(InvalidCodeError) as err:
                parse_element(text, t2)
            assert str(err.value) == f"invalid table: {issues}", text

    def test_missing_arrow_located(self, t2):
        with pytest.raises(LiteralParseError) as err:
            parse_element("00->0;junk;1->11", t2)
        assert err.value.row == 1
        assert err.value.column == 7

    def test_unknown_germ(self, t2):
        with pytest.raises(LiteralParseError):
            parse_element("e->e:1", t2)

    def test_letters_and_germs_are_ascii_decimal(self, s2):
        for text in ("e->e:١", "e->e:+1", "e->e:-1", "e->e:1_0", "e->e:²", "e->e:", "²->e", "0->1;١->0",
                     "0->０;1->1", "0->0;1->1;𝟘->0"):
            with pytest.raises(LiteralParseError):
                parse_element(text, s2)
        assert parse_element("e->e: 1 ", s2) == parse_element("e->e:1", s2)

    def test_overlong_germ_rejected(self, s2):
        # more digits than int() converts, even when the value is small
        for germ in ("9" * 5000, "0" * 4999 + "1"):
            with pytest.raises(LiteralParseError, match=r"^germ name of 5000 digits is too long \(row 1, column 6\)$"):
                parse_element("0->1;1->0:" + germ, s2)


class TestGroupLaws:
    def test_associativity_and_inverses(self, configurations):
        rng = random.Random(67)
        for group in configurations:
            elems = [random_element(group, rng, max_depth=4) for _ in range(30)]
            e = identity(group)
            for i, g in enumerate(elems):
                assert compose(g, invert(g)) == e
                assert compose(invert(g), g) == e
                h = elems[(i + 1) % len(elems)]
                k = elems[(i + 2) % len(elems)]
                assert compose(compose(g, h), k) == compose(g, compose(h, k))


class TestRandomCodes:
    def test_deeper_than_recursion_limit(self, t2):
        class SplitsThenStops:
            # splits on the first 1500 draws, never after
            draws = 0

            def random(self):
                self.draws += 1
                return 0.0 if self.draws <= 1500 else 0.99

        words = random_code_words(t2.alphabet, SplitsThenStops(), max_depth=1500)
        assert len(words) == 1501
        assert words[0] == as_word((0,) * 1500) and words == sorted(words)
        assert PrefixCode(t2.alphabet, words).is_complete()

    def test_random_point_needs_room_for_a_period(self, t3):
        class NoDraws:
            def randrange(self, *args):
                raise AssertionError("drew before checking max_len")

        for max_len in (1, 0, -3):
            with pytest.raises(UnsupportedStructureError, match=f"max_len must be an integer >= 2, got {max_len}"):
                random_point(t3.alphabet, NoDraws(), max_len)
        # from 2 on, the points and the draw after them are those of the
        # implementation without the check
        rng = random.Random(163)
        points = [t3.alphabet.format_point(random_point(t3.alphabet, rng, m)) for m in (2, 2, 3, 4, 4, 6)]
        assert points == ["(1)", "(0)", "(0)", "(010)", "(201)", "2211(0)"]
        assert rng.random() == 0.3645698690874747

    # (element, point, next draw) from random_element(group, Random(seed),
    # max_depth) then random_point(alphabet, rng, 5), for seeds 1, 2, 3, as
    # the implementation with tuple words drew them
    DRAWS = {
        "t2": [("0->1;1->0", "001(0110)", 712), ("e->e", "(1)", 855), ("000->01;001->1;01->001;1->000", "(01)", 687)],
        "s2": [("e->e:1", "001(0110)", 712), ("e->e", "(1)", 855), ("000->01;001->1:1;01->001:1;1->000:1", "(01)", 687)],
        "t3": [
            ("0->2;1->10;20->0;21->12;22->11", "202(010)", 22),
            ("e->e", "(1)", 855),
            ("00->00;01->01;02->1;1->2;2->02", "(20)", 308),
        ],
        "s3": [
            ("0->2:3;1->10;20->0:3;21->12:3;22->11:4", "(1202)", 967),
            ("e->e", "(1)", 855),
            ("00->00:4;01->01:4;02->1:3;10->20:3;11->21:5;12->22:1;2->02:1", "2(0200)", 776),
        ],
        "t12": [
            (
                "[0]->[2];[1]->[6];[2]->[11];[3]->[0];[4]->[10];[5]->[3];[6]->[5];[7]->[8];[8]->[9];[9]->[7];"
                "[10]->[1];[11]->[4]",
                "[6,11,0]([8,3])",
                782,
            ),
            ("e->e", "([5])", 855),
            (
                "[0]->[4];[1]->[11];[2]->[10];[3]->[8];[4]->[2];[5]->[3];[6]->[6];[7]->[0];[8]->[1];[9]->[7];"
                "[10]->[9];[11]->[5]",
                "[9,11]([6,11,6,6])",
                745,
            ),
        ],
    }

    def test_same_draws_as_with_tuple_words(self, t2, s2, t3, s3):
        groups = {"t2": (t2, 3), "s2": (s2, 3), "t3": (t3, 2), "s3": (s3, 2), "t12": (trivial_group(12), 1)}
        for name, (group, depth) in groups.items():
            got = []
            for seed in (1, 2, 3):
                rng = random.Random(seed)
                g = random_element(group, rng, max_depth=depth)
                x = random_point(group.alphabet, rng, 5)
                got.append((format_element(g), group.alphabet.format_point(x), rng.randrange(1000)))
            assert got == self.DRAWS[name], name
