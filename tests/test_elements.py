import collections
import gc
import itertools
import random
import re
import time

import pytest

from localsim import (
    Alphabet,
    CanonicalElement,
    EmbeddingClass,
    IncompatibleElementsError,
    InvalidCodeError,
    LiteralParseError,
    LocalSimError,
    MalformedStructureError,
    Point,
    PrefixCode,
    Row,
    UnsupportedStructureError,
    act_on_eclass,
    apply,
    canonical_eclass,
    compose,
    enumerate_gamma,
    format_element,
    gz_member,
    identity,
    incl_class,
    invert,
    is_in_F,
    is_in_T,
    max_partition,
    parse_automaton,
    parse_element,
    properness_audit,
    random_element,
    random_point,
    reduce,
    symdiff,
    symmetric_group,
    trivial_group,
)
from localsim import elements
from localsim.cli import _resolve_input
from localsim.elements import _compose_rows, _reduce_rows, _unpack, random_code_words
from oracles import (
    all_balls,
    as_word,
    brute_force_gamma,
    coarsenings,
    enumerate_complete_codes,
    leaf_ranks,
    point_letter,
    slow_audit_composes,
    slow_compose_rows,
    slow_expand_at,
    slow_reduce_rows,
    stepwise_apply_letters,
    walk_literal,
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

    def test_equal_keys_exactly_for_equal_elements(self, t2, s2, t3, s3):
        # the key holds no source letters, only lengths; shallow random
        # elements repeat, so both equal and distinct pairs are compared
        rng = random.Random(25)
        for group in (t2, s2, t3, s3):
            elems = [random_element(group, rng, max_depth=rng.randrange(1, 4)) for _ in range(300)]
            keys = [g.packed() for g in elems]
            pairs = [(keys[i] == keys[j], elems[i] == elems[j]) for i, j in itertools.combinations(range(300), 2)]
            assert all(same_key == same_element for same_key, same_element in pairs), group
            assert any(same_element for _, same_element in pairs), group


class TestUnpack:
    """`_unpack` reads a `packed()` key back to its element; each group gets
    one dict of shapes, shared by all its keys."""

    @staticmethod
    def _round_trip(group, elems, shapes):
        for g in elems:
            back = _unpack(group, g.packed(), shapes)
            assert back == g and all(type(row) is Row for row in back.rows), g

    def test_random_elements_of_every_fixture(self, t2, s2, t3, s3, klein, depth_two):
        rng = random.Random(31)
        sigma2 = parse_automaton(_resolve_input("sigma2.aut"))
        for group in (t2, s2, t3, s3, klein, depth_two, sigma2):
            depth = KERNEL_DEPTH[group.alphabet.size]
            elems = [random_element(group, rng, max_depth=rng.randrange(depth + 1)) for _ in range(300)]
            shapes = {}
            self._round_trip(group, [identity(group)] + elems, shapes)
            # elements of one shape share their sources
            assert len(shapes) < len(elems), group

    def test_past_the_byte_limits(self, t2):
        shapes = collections.defaultdict(dict)
        for _, group, text, other in TestPacked._cases(t2):
            self._round_trip(group, [parse_element(text, group), parse_element(other, group)], shapes[group])



class TestRowsView:
    """A table keeps its rows as plain (source, target, germ) tuples in
    `_rows`; `rows` is the same rows as `Row`s, a view built on first read
    and kept.  No producer builds a `Row`, and the audit reads none."""

    @staticmethod
    def _check(x):
        assert all(type(r) is tuple for r in x._rows), x
        assert "rows" not in vars(x), x
        rows = x.rows
        assert rows == x._rows and x.rows is rows and all(type(r) is Row for r in rows), x

    @staticmethod
    def _tables(group, rng, shapes):
        """Fresh results of every producer of elements and classes, each
        yielded before anything reads its `rows`."""
        depth = KERNEL_DEPTH[group.alphabet.size]
        g = random_element(group, rng, max_depth=depth)
        h = random_element(group, rng, max_depth=depth)
        yield identity(group)
        yield g
        yield compose(g, h)
        yield invert(g)
        yield parse_element(format_element(g), group)
        yield reduce(group, g._rows[::-1])
        yield _unpack(group, g.packed(), shapes)
        diff = symdiff(g)
        yield from diff
        for e in list(diff) + [incl_class(group, w) for w in all_balls(group.alphabet, 1)]:
            yield act_on_eclass(h, e)
            yield canonical_eclass(group, e._rows, "")
        yield from (incl_class(group, w) for w in all_balls(group.alphabet, 2))

    def test_every_producer_over_every_fixture(self, t2, s2, t3, s3, klein, depth_two):
        rng = random.Random(3201)
        sigma2 = parse_automaton(_resolve_input("sigma2.aut"))
        for group in (t2, s2, t3, s3, klein, depth_two, sigma2):
            shapes = {}
            classes = 0
            for _ in range(15):
                for x in self._tables(group, rng, shapes):
                    self._check(x)
                    classes += not isinstance(x, CanonicalElement)
            assert classes > 100, group

    def test_table_protocol_over_every_producer(self, t2, s2, t3, s3, klein, depth_two):
        # a table hashes its group's stored hash, a fixed point of hash,
        # with its rows, so its hash is that of (group, rows); its
        # hand-written __init__ leaves it frozen, and the two kinds of
        # table never equal each other
        rng = random.Random(3202)
        sigma2 = parse_automaton(_resolve_input("sigma2.aut"))
        kinds = collections.Counter()
        for group in (t2, s2, t3, s3, klein, depth_two, sigma2):
            assert hash(group._hash) == group._hash == hash(group)
            shapes = {}
            for _ in range(3):
                for x in self._tables(group, rng, shapes):
                    assert hash(x) == hash((x.group, x._rows)) == hash((x.group, x.rows)), x
                    for name in ("group", "_rows", "rows", "other"):
                        with pytest.raises(AttributeError):
                            setattr(x, name, None)
                        with pytest.raises(AttributeError):
                            delattr(x, name)
                    other = EmbeddingClass if isinstance(x, CanonicalElement) else CanonicalElement
                    twin = other(x.group, x._rows)
                    assert twin != x and x != twin and hash(twin) == hash(x), x
                    kinds[type(x)] += 1
        assert set(kinds) == {CanonicalElement, EmbeddingClass}

    def test_audit_builds_no_row(self, t2, v_gens, monkeypatch):
        calls = collections.Counter()
        as_row = elements._as_row

        def counted(row):
            calls["_as_row"] += 1
            return as_row(row)

        monkeypatch.setattr(elements, "_as_row", counted)
        report = properness_audit(t2, v_gens, radius=4, threshold=4)
        assert [r.within_threshold for r in report.rows] == [1, 6, 13, 20, 22]
        assert calls["_as_row"] == 0
        # the patch is live: a view read afterwards goes through it
        assert identity(t2).rows == (Row("", "", 0),) and calls["_as_row"] == 1


# rows that are not (source, target, germ) triples: (rows, the whole message)
MALFORMED_ROWS = (
    ([((0,), (0,))], "row ((0,), (0,)) is not a (source, target, germ) triple"),
    ([((0,), (0,), 0, 1)], "row ((0,), (0,), 0, 1) is not a (source, target, germ) triple"),
    ([5], "row 5 is not a (source, target, germ) triple"),
    (5, "rows must be (source, target, germ) triples, got 5"),
)


class TestValidateTable:
    """`reduce` names every violation of a table's two columns."""

    def test_identity_clean(self, t2):
        assert reduce(t2, (Row((), (), 0),)) == identity(t2)
        assert reduce(t2, (Row("", "", 0),)) == identity(t2)

    def test_incomplete_domain(self, t2):
        with pytest.raises(InvalidCodeError, match="^invalid table: incomplete-domain, target-incomplete$"):
            reduce(t2, (Row((0,), (0,), 0),))

    def test_target_collision(self, t2):
        with pytest.raises(InvalidCodeError, match="^invalid table: target-not-antichain$"):
            reduce(t2, (Row((0,), (0,), 0), Row((1,), (0, 1), 0)))

    def test_partial_image_rejected(self, t2):
        # an embedding of the whole space onto two smaller balls is no element
        rows = (Row((0,), (0, 0), 0), Row((1,), (1, 0), 0))
        with pytest.raises(InvalidCodeError, match="^invalid table: target-incomplete$"):
            reduce(t2, rows)

    def test_germs_are_ints(self, s2):
        for germ in (1.0, True, "1"):
            with pytest.raises(MalformedStructureError, match="no germ"):
                reduce(s2, (Row((), (), germ),))

    @pytest.mark.parametrize("rows, message", MALFORMED_ROWS, ids=[case[1] for case in MALFORMED_ROWS])
    def test_malformed_rows(self, t2, rows, message):
        # reduce and canonical_eclass check rows in the one helper
        for build in (lambda: reduce(t2, rows), lambda: canonical_eclass(t2, rows, ())):
            with pytest.raises(MalformedStructureError) as err:
                build()
            assert str(err.value) == message



# one literal per violation kind, and three that break both columns:
# (literal, the violations `reduce` and `parse_element` both list)
BROKEN_LITERALS = (
    ("0->0", "incomplete-domain, target-incomplete"),
    ("0->0;01->10;1->11", "domain-not-antichain"),
    ("0->0;10->1", "incomplete-domain"),
    ("0->0;1->0", "target-not-antichain"),
    ("0->00;1->1", "target-incomplete"),
    ("0->0;0->1;1->1", "domain-not-antichain, target-not-antichain"),
    ("e->e;0->1", "domain-not-antichain, target-not-antichain"),
)


class TestExpandReduce:
    def test_expand_identity(self, t2):
        rows = slow_expand_at(t2, identity(t2).rows, ())
        assert rows == (Row(as_word((0,)), as_word((0,)), 0), Row(as_word((1,)), as_word((1,)), 0))

    def test_expand_pushes_germ(self, s2):
        root_swap = (Row((), (), 1),)
        rows = slow_expand_at(s2, root_swap, ())
        assert rows == (Row(as_word((0,)), as_word((1,)), 1), Row(as_word((1,)), as_word((0,)), 1))

    def test_reduce_recognizes_identity(self, t2):
        assert reduce(t2, (Row((0,), (0,), 0), Row((1,), (1,), 0))) == identity(t2)

    @pytest.mark.parametrize("text, issues", BROKEN_LITERALS, ids=[case[0] for case in BROKEN_LITERALS])
    def test_reduce_matches_parse_element(self, t2, text, issues):
        # a broken table gets one diagnosis, given as rows or as a literal
        w = t2.alphabet.parse_word
        rows = tuple(Row(w(s), w(t), 0) for s, t in (row.split("->") for row in text.split(";")))
        with pytest.raises(InvalidCodeError) as by_rows:
            reduce(t2, rows)
        with pytest.raises(InvalidCodeError) as by_literal:
            parse_element(text, t2)
        assert str(by_rows.value) == str(by_literal.value) == f"invalid table: {issues}"

    def test_reduce_rejects_incomplete_domain(self, t2):
        # the empty table, which no literal spells, covers no ball at all
        with pytest.raises(InvalidCodeError, match="^invalid table: incomplete-domain, target-incomplete$"):
            reduce(t2, ())

    def test_reduce_reverses_germ_expansion(self, s2):
        assert reduce(s2, (Row((0,), (1,), 1), Row((1,), (0,), 1))).rows == (Row(as_word(()), as_word(()), 1),)

    def test_x0_already_reduced(self, x0):
        assert x0.rows == tuple(
            Row(as_word(s), as_word(t), z) for s, t, z in (((0, 0), (0,), 0), ((0, 1), (1, 0), 0), ((1,), (1, 1), 0)))

    def test_confluence_under_random_expansion(self, configurations):
        rng = random.Random(41)
        for group in configurations:
            for _ in range(60):
                g = random_element(group, rng, max_depth=4)
                rows = g.rows
                for _ in range(rng.randrange(1, 6)):
                    source = rng.choice([r.source for r in rows])
                    rows = slow_expand_at(group, rows, source)
                assert reduce(group, rows) == g


KERNEL_DEPTH = {2: 4, 3: 3}


def random_table(group, rng, shape: str, splits: int) -> tuple[Row, ...]:
    """A random element's rows, or an embedding made from them by moving its
    targets ("embedding") or its sources ("sub-ball") under a random letter,
    expanded at `splits` random rows; sorted by source."""
    g = random_element(group, rng, max_depth=KERNEL_DEPTH[group.alphabet.size])
    a = as_word((rng.randrange(group.alphabet.size),))
    if shape == "element":
        rows = g.rows
    elif shape == "embedding":
        rows = tuple(Row(s, a + w, z) for s, w, z in g.rows)
    else:
        rows = tuple(Row(a + s, w, z) for s, w, z in g.rows)
    for _ in range(splits):
        rows = slow_expand_at(group, rows, rng.choice([r.source for r in rows]))
    return rows


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
            rows = random_table(group, rng, shape, splits)
            assert _reduce_rows(group, rows) == slow_reduce_rows(group, rows)

            g = random_element(group, rng, max_depth=KERNEL_DEPTH[group.alphabet.size])
            right = random_table(group, rng, "element", splits)
            rows = _compose_rows(g, right)
            assert all(u[0] < v[0] for u, v in itertools.pairwise(rows))
            assert _reduce_rows(group, rows) == slow_reduce_rows(group, rows) == compose(g, reduce(group, right)).rows

        check()

    def test_reduce_matches_oracle_on_audit_composes(self, monkeypatch, t2, v_gens):
        # every compose of the v.gens audit to radius 4: the inputs whose
        # sibling families the length gate in _reduce_rows mostly turns away
        inputs = []

        def recording(group, rows):
            inputs.append(rows)
            return _reduce_rows(group, rows)

        monkeypatch.setattr(elements, "_reduce_rows", recording)
        report = properness_audit(t2, v_gens, 4, 4)
        monkeypatch.undo()
        assert [r.ball_size for r in report.rows] == [1, 8, 42, 201, 933]
        # every edge of the radius-3 ball out to the next sphere, and one of
        # each pair of edges inside a sphere; none back to the sphere before
        assert len(inputs) == slow_audit_composes(t2, v_gens, 4) == 1139
        for rows in inputs:
            assert _reduce_rows(t2, rows) == slow_reduce_rows(t2, rows)

    def test_reduce_gate_families(self, t2, t3, x0):
        def comb(d):
            last = chr(d - 1)
            words = [last * i + chr(a) for i in range(3) for a in range(d - 1)] + [last * 3]
            return [(w, w, 0) for w in sorted(words)]

        cases = (
            # (01, 1) arrives with 1, but its first member is a letter deeper;
            # their targets have equal lengths
            (t2, [("\0\0", "\1\0", 0), ("\0\1", "\0\0", 0), ("\1", "\0\1", 0)], 3),
            # (10, 11) arrives with 11, whose target 1 is a letter shorter
            # than the first member's 01; their sources have equal lengths
            (t2, invert(x0).rows, 3),
            # sources and target lengths fit, but a target is empty
            (t2, [("\0", "", 0), ("\1", "", 0)], 2),
            # the identity comb: the last leaf's arrival merges up to the root
            (t2, comb(2), 1),
            (t3, comb(3), 1),
        )
        for group, rows, count in cases:
            reduced = _reduce_rows(group, rows)
            assert reduced == slow_reduce_rows(group, rows) and len(reduced) == count
        assert _reduce_rows(t3, comb(3)) == identity(t3).rows

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


class TestMemoizingCompose:
    """`_memoizing` copies a generator for the audit: composing through the
    copy reads each target's image from its memo, and no other element,
    the caller's generators included, ever keeps one."""

    def test_same_products_as_the_original(self, monkeypatch, t2, s2, t3, s3, klein, depth_two):
        # right operands from the identity to deeper than the left one, so
        # their targets both lie inside one row of g and straddle several;
        # the second pass over the same pairs must search no source at all
        rng = random.Random(3401)
        sigma2 = parse_automaton(_resolve_input("sigma2.aut"))
        searches = collections.Counter()
        covering = elements._covering

        def counted(sources, w):
            searches["_covering"] += 1
            return covering(sources, w)

        for group in (t2, s2, t3, s3, klein, depth_two, sigma2):
            depth = KERNEL_DEPTH[group.alphabet.size]
            kinds = collections.Counter()
            for _ in range(12):
                g = random_element(group, rng, max_depth=depth)
                hs = [random_element(group, rng, max_depth=rng.randint(0, depth + 1)) for _ in range(8)]
                for h in hs:
                    for _, tgt, germ in h._rows:
                        kinds[covering(g._sources_depth[0], tgt) >= 0, germ != 0] += 1
                want = [compose(g, h) for h in hs]
                step = elements._memoizing(g)
                assert step == g and hash(step) == hash(g) and "_images" not in vars(g)
                monkeypatch.setattr(elements, "_covering", counted)
                passes = []
                for _ in range(2):
                    searches.clear()
                    got = [compose(step, h) for h in hs]
                    assert got == want and [x._rows for x in got] == [x._rows for x in want], (group, g)
                    assert all(type(r) is tuple for x in got for r in x._rows)
                    passes.append(searches["_covering"])
                monkeypatch.undo()
                # one search per distinct target on the first pass, none on the second
                targets = {t for h in hs for _, t, _ in h._rows}
                assert passes == [len(targets), 0] and len(step._images) == len(targets)
            assert kinds[True, False] and kinds[False, False], group
            if group.size > 1:
                assert kinds[True, True] and kinds[False, True], group

    def test_no_memo_on_ordinary_elements(self, t2, s2, v_gens):
        g = parse_element("00->1:1;01->01;1->00", s2)
        h = parse_element("0->1:1;1->0:1", s2)
        compose(g, h)
        compose(h, g)
        symdiff(g)
        gens = list(v_gens)
        report = properness_audit(t2, gens, radius=4, threshold=4)
        assert [r.within_threshold for r in report.rows] == [1, 6, 13, 20, 22]
        assert CanonicalElement._images is None
        for x in [g, h] + gens + [invert(x) for x in gens]:
            assert "_images" not in vars(x) and x._images is None, x
        # the audit's own steps, and their memos, went with the call
        gc.collect()
        assert not [x for x in gc.get_objects() if isinstance(x, CanonicalElement) and "_images" in vars(x)]


# operands over two structures: (operation, a thunk given the trivial and
# the symmetric structure on two letters, the whole message)
STRUCTURE_MISMATCHES = (
    ("compose", lambda t2, s2: compose(identity(t2), identity(s2)), "cannot compose over different structures"),
    (
        "apply",
        lambda t2, s2: apply(identity(t2), Point(Alphabet(3), (), (2,))),
        "point and element live over different alphabets",
    ),
    (
        "act_on_eclass",
        lambda t2, s2: act_on_eclass(identity(t2), incl_class(s2, (0,))),
        "element and class over different structures",
    ),
    (
        "gz_member",
        lambda t2, s2: gz_member(identity(t2), incl_class(s2, (0,))),
        "element and class over different structures",
    ),
    (
        "properness_audit",
        lambda t2, s2: properness_audit(t2, [identity(s2)], 1, 4),
        "generator over a different structure",
    ),
)


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

    @pytest.mark.parametrize(
        "build, message", [case[1:] for case in STRUCTURE_MISMATCHES], ids=[case[0] for case in STRUCTURE_MISMATCHES]
    )
    def test_structure_mismatch(self, t2, s2, build, message):
        with pytest.raises(IncompatibleElementsError, match=f"^{re.escape(message)}$"):
            build(t2, s2)


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
            with pytest.raises(InvalidCodeError, match="^no row covers the point "):
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


def ten_rows(old: str, new: str) -> str:
    """The identity over ten letters, one row a letter, with one row respelled."""
    return ";".join(f"{a}->{a}" for a in range(10)).replace(old, new, 1)


# literals that a scan of the whole text could read wrongly, each raising
# as the whole-text row walk `oracles.walk_literal` does: (name, structure,
# text, error type, whole message)
SCAN_TRAPS = (
    # converting before checking would read chr(5) and '\t', chr(9), as letters
    ("control character as a word", trivial_group(10), ten_rows("5->5", "\x05->5"), LiteralParseError,
     "bad word literal '\\x05' (row 5, column 26)"),
    ("tab inside a word", trivial_group(10), ten_rows("1->1", "1\t1->1"), LiteralParseError,
     "bad word literal '1\\t1' (row 1, column 6)"),
    ("tab as a word", trivial_group(10), ten_rows("9->9", "9->\t"), LiteralParseError,
     "bad word literal '' (row 9, column 46)"),
    ("NUL after a word", trivial_group(10), ten_rows("2->2", "2->2\x00"), LiteralParseError,
     "bad word literal '2\\x00' (row 2, column 11)"),
    # `\d` would take these
    ("Arabic-Indic digit", trivial_group(10), ten_rows("7->7", "\u0667->7"), LiteralParseError,
     "bad word literal '\u0667' (row 7, column 36)"),
    ("fullwidth digit", trivial_group(10), ten_rows("7->7", "7->\uff17"), LiteralParseError,
     "bad word literal '\uff17' (row 7, column 36)"),
    ("Arabic-Indic bracket letter", trivial_group(12), "[0]->[0];[1]->[\u0661];[2]->[2]", LiteralParseError,
     "bad bracket word '[\u0661]' (row 1, column 10)"),
    # `$` would match before the newline
    ("empty row before a final newline", trivial_group(2), "0->1;1->0;\n", LiteralParseError,
     "row needs 'source->target', got '' (row 2, column 11)"),
    ("germ of 5000 digits", symmetric_group(2), "0->1;1->0: " + "1" * 5000 + " ", LiteralParseError,
     "germ name of 5000 digits is too long (row 1, column 6)"),
    ("germ out of range once stripped", symmetric_group(2), "0->1;1->0:\t2 ", LiteralParseError,
     "no germ 2 in the structure (row 1, column 6)"),
    ("id and a row", trivial_group(2), "id;0->1", LiteralParseError,
     "row needs 'source->target', got 'id' (row 0, column 1)"),
    ("empty text", trivial_group(2), "", LiteralParseError, "row needs 'source->target', got '' (row 0, column 1)"),
    ("leading semicolon", trivial_group(2), ";0->1;1->0", LiteralParseError,
     "row needs 'source->target', got '' (row 0, column 1)"),
    ("bracket letter out of range", trivial_group(12), "[0]->[0];[1]->[12]", LiteralParseError,
     "letter 12 out of range for alphabet of size 12 (row 1, column 10)"),
    ("bracket letter too long", trivial_group(12), "[0]->[0];[1]->[1," + "9" * 5000 + "]", LiteralParseError,
     "bracket letter of 5000 digits is too long (row 1, column 10)"),
)

# literals that are no str: (text, the whole message)
NOT_TEXT = (
    (5, "an element literal is a str, got int"),
    (None, "an element literal is a str, got NoneType"),
    (b"0->1;1->0", "an element literal is a str, got bytes"),
)

# whitespace that a literal may hold around its tokens
SPACING = ("", " ", "  ", "\t", "\n", "\x0b", "\u3000")


def respellings(g: CanonicalElement, rng: random.Random) -> tuple[str, str, str]:
    """Three spellings of g's literal that `format_element` does not write:
    whitespace around every '->', ';' and ':'; every word in brackets, with
    whitespace inside; every germ with leading zeros."""
    fmt = g.group.alphabet.format_word

    def space() -> str:
        return rng.choice(SPACING)

    def bracket(w: str) -> str:
        return "[" + ",".join(f"{space()}{ord(a)}{space()}" for a in w) + "]" if w else "e"

    def germ(z: int, spelled: str) -> str:
        return f":{spelled}" if z else ""

    spaced = ";".join(
        f"{space()}{fmt(s)}{space()}->{space()}{fmt(t)}{space()}{germ(z, f'{space()}{z}{space()}')}"
        for s, t, z in g.rows
    )
    bracketed = ";".join(f"{bracket(s)}->{bracket(t)}{germ(z, str(z))}" for s, t, z in g.rows)
    zeros = ";".join(f"{fmt(s)}->{fmt(t)}:{'0' * rng.randrange(1, 4)}{z}" for s, t, z in g.rows)
    return spaced, bracketed, zeros


class TestLiterals:
    def test_round_trip_fixtures(self, x0, x1, rot, flip):
        for g in (x0, x1, rot, flip):
            assert parse_element(format_element(g), g.group) == g

    def test_round_trip_random(self, configurations):
        rng = random.Random(61)
        for group in configurations + [trivial_group(12)]:
            for _ in range(50):
                g = random_element(group, rng, max_depth=4 if group.alphabet.size <= 3 else 2)
                assert parse_element(format_element(g), group) == g

    def test_every_spelling_parses_through_the_scan(self, configurations, t2, monkeypatch):
        # the refused row is only read to name what is wrong with it
        def refused(text, start, row, group):
            pytest.fail(f"the scan refused row {row} of {text!r}")

        monkeypatch.setattr(elements, "_refuse_row", refused)
        rng = random.Random(67)
        for group in configurations + [trivial_group(12)]:
            for _ in range(40):
                g = random_element(group, rng, max_depth=KERNEL_DEPTH.get(group.alphabet.size, 2))
                assert parse_element(format_element(g), group) == g
                for text in respellings(g, rng):
                    assert parse_element(text, group) == g, text
        for text in ("0->1;1->0\n", "\n0->1\x1c;\x0b1->0\u3000", "\u20030\u2003->\u20031\u2003;1->0:0\n"):
            assert parse_element(text, t2) == parse_element("0->1;1->0", t2), text

    def test_target_spelled_as_its_source_shares_its_str(self, t2):
        # so an identity comb's rows hold each word once
        text = "00->00;01->1;1->01"
        rows, stop = elements._scan_rows(text, t2)
        assert rows == [("\0\0", "\0\0", 0), ("\0\1", "\1", 0), ("\1", "\0\1", 0)]
        assert stop == len(text) + 1
        assert rows[0][1] is rows[0][0]

    def test_mutated_literals_read_as_the_row_walk(self, t2, s2, t3, s3):
        # one character inserted, deleted or replaced anywhere in a literal:
        # the scan and the refused row's reading give the element, or the
        # exception type, message, row and column, of the whole-text walk
        def outcome(read, text, group):
            try:
                return read(text, group)
            except LocalSimError as e:
                return type(e), str(e), getattr(e, "row", None), getattr(e, "column", None)

        rng = random.Random(71)
        pool = "0123456789;:->e[],  \t\nx\x05\u0661\uff11"
        kinds = collections.Counter()
        for group in (t2, s2, t3, s3, trivial_group(10), trivial_group(12)):
            texts = ["id", " id\n"]
            for _ in range(12):
                g = random_element(group, rng, max_depth=KERNEL_DEPTH.get(group.alphabet.size, 2))
                texts += (format_element(g), *respellings(g, rng))
            for text in texts:
                assert outcome(parse_element, text, group) == outcome(walk_literal, text, group), text
                for _ in range(6):
                    i = rng.randrange(len(text) + 1)
                    op = rng.choice(("insert", "delete", "replace")) if i < len(text) else "insert"
                    new = "" if op == "delete" else rng.choice(pool)
                    mutant = text[:i] + new + text[i + (op != "insert") :]
                    want = outcome(walk_literal, mutant, group)
                    assert outcome(parse_element, mutant, group) == want, mutant
                    kinds[want[0] if isinstance(want, tuple) else CanonicalElement] += 1
        assert set(kinds) == {CanonicalElement, LiteralParseError, InvalidCodeError}, kinds

    def test_refused_comb_reads_only_the_refused_row(self, t2, monkeypatch):
        # the 2000-leaf identity comb with a stray last character: the scan
        # stops at the last row, and only that row's two words are parsed
        n = 2000
        comb = ["1" * i + "0" for i in range(n - 1)] + ["1" * (n - 1)]
        text = ";".join(f"{w}->{w}" for w in comb) + "x"
        calls = []
        parse_word = Alphabet.parse_word

        def counted(self, word):
            calls.append(len(word))
            return parse_word(self, word)

        monkeypatch.setattr(Alphabet, "parse_word", counted)
        with pytest.raises(LiteralParseError) as err:
            parse_element(text, t2)
        assert str(err.value) == f"bad word literal '{comb[-1]}x' (row 1999, column 4003998)"
        assert (err.value.row, err.value.column) == (1999, 4003998)
        assert calls == [n - 1, n]

    @pytest.mark.parametrize("group, text, error, message", [c[1:] for c in SCAN_TRAPS], ids=[c[0] for c in SCAN_TRAPS])
    def test_scan_traps_raise_as_the_row_walk(self, group, text, error, message):
        with pytest.raises(error) as err:
            parse_element(text, group)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("text, message", NOT_TEXT, ids=[type(c[0]).__name__ for c in NOT_TEXT])
    def test_literal_that_is_no_str_rejected(self, t2, text, message):
        with pytest.raises(LiteralParseError) as err:
            parse_element(text, t2)
        assert str(err.value) == message

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
        for text, issues in BROKEN_LITERALS:
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

    # (element, point, next draw) from random_element(group, Random(seed),
    # max_depth) then random_point(alphabet, rng), for seeds 1, 2, 3: the
    # elements as the implementation with tuple words drew them, the points
    # as it drew them with lengths below 4
    DRAWS = {
        "t2": [("0->1;1->0", "100(101)", 443), ("e->e", "(1)", 855), ("000->01;001->1;01->001;1->000", "0(1)", 759)],
        "s2": [("e->e:1", "100(101)", 443), ("e->e", "(1)", 855), ("000->01;001->1:1;01->001:1;1->000:1", "0(1)", 759)],
        "t3": [
            ("0->2;1->10;20->0;21->12;22->11", "202(01)", 31),
            ("e->e", "(1)", 855),
            ("00->00;01->01;02->1;1->2;2->02", "(2)", 43),
        ],
        "s3": [
            ("0->2:3;1->10;20->0:3;21->12:3;22->11:4", "(112)", 821),
            ("e->e", "(1)", 855),
            ("00->00:4;01->01:4;02->1:3;10->20:3;11->21:5;12->22:1;2->02:1", "1(202)", 795),
        ],
        "t12": [
            (
                "[0]->[2];[1]->[6];[2]->[11];[3]->[0];[4]->[10];[5]->[3];[6]->[5];[7]->[8];[8]->[9];[9]->[7];"
                "[10]->[1];[11]->[4]",
                "[3,6,11]([0,8,3])",
                782,
            ),
            ("e->e", "([5])", 855),
            (
                "[0]->[4];[1]->[11];[2]->[10];[3]->[8];[4]->[2];[5]->[3];[6]->[6];[7]->[0];[8]->[1];[9]->[7];"
                "[10]->[9];[11]->[5]",
                "[9]([11,6])",
                807,
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
                x = random_point(group.alphabet, rng)
                got.append((format_element(g), group.alphabet.format_point(x), rng.randrange(1000)))
            assert got == self.DRAWS[name], name
