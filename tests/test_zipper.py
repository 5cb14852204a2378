import collections
import itertools
import random
import tracemalloc

import pytest

from localsim import zipper
from localsim import (
    CanonicalElement,
    InvalidClassError,
    Row,
    SimTable,
    UnsupportedStructureError,
    act_on_eclass,
    canonical_eclass,
    cocycle_identity_defect,
    compose,
    format_element,
    gz_member,
    identity,
    incl_class,
    invert,
    max_partition,
    nowalls_demo,
    parse_element,
    properness_audit,
    random_element,
    reduce,
    separating_walls,
    symdiff,
    wall_separation,
    z_member,
    zipper_length,
)
from localsim.elements import _compose_rows, _reduce_rows
from oracles import (
    all_balls,
    as_word,
    brute_force_symdiff,
    complement_cover,
    slow_audit_counts,
    slow_compose_rows,
    slow_eclass,
    slow_gz_member,
)


def embed(group, rows):
    return SimTable(group, tuple(Row(s, t, g) for s, t, g in rows))


def random_class_rows(group, rng):
    """A random element h and the reduced rows of a class in hZ: h composed
    with a twisted inclusion of a ball of depth <= 2."""
    h = random_element(group, rng, max_depth=3)
    ball = as_word(tuple(rng.randrange(group.alphabet.size) for _ in range(rng.randrange(3))))
    return h, _reduce_rows(group, _compose_rows(h, (Row(as_word(()), ball, rng.randrange(group.size)),)))


def element_containing(e):
    """Some group element g with e in gZ, built by completing e's table."""
    group = e.group
    image = [r.target for r in e.rows]
    missing = complement_cover(group.alphabet, image)
    if not missing:
        return reduce(SimTable(group, e.rows))
    rows = [Row(as_word((0,)) + r.source, r.target, r.germ) for r in e.rows]
    srcs = [as_word((1,))]
    while len(srcs) < len(missing):
        w = min(srcs, key=len)
        srcs.remove(w)
        srcs.extend(w + as_word((a,)) for a in group.alphabet.letters)
    rows.extend(Row(s, t, 0) for s, t in zip(sorted(srcs), missing))
    return reduce(SimTable(group, tuple(rows)))


def element_missing(e):
    """Some group element g with e not in gZ.

    Non-inclusion classes already sit outside Z itself; an inclusion class
    of a ball B is pushed out by any element whose inverse partition has B
    as an internal node, such as the swap of B's two children.
    """
    group = e.group
    if not z_member(e):
        return identity(group)
    ball = e.rows[0].target
    rows = [Row(ball + as_word((0,)), ball + as_word((1,)), 0), Row(ball + as_word((1,)), ball + as_word((0,)), 0)]
    rows.extend(Row(w, w, 0) for w in complement_cover(group.alphabet, [ball]))
    return reduce(SimTable(group, tuple(rows)))


def restriction_class(g, ball, germ=0):
    """The class of g restricted to a ball above its maximal partition,
    right-twisted by the global similarity of `germ` before it is made
    canonical."""
    group = g.group
    rows = [r for r in g.rows if r.source[: len(ball)] == ball]
    stripped = [Row(r.source[len(ball):], r.target, r.germ) for r in rows]
    twisted = slow_compose_rows(group, stripped, [((), (), germ)])
    return canonical_eclass(SimTable(group, tuple(Row(ball + s, t, z) for s, t, z in twisted)), ball)


def partly_straddling_class(g, rng):
    """A class whose targets are the maximal balls of g's inverse with the
    ones under one internal node b merged into b, which straddles, and one
    other ball split into its children, which lie inside; None when the
    inverse has a single ball."""
    group = g.group
    d = group.alphabet.size
    internal = max_partition(invert(g)).proper_prefixes()
    if not internal:
        return None
    b = rng.choice(internal)
    targets = [t for t in sorted(r.target for r in g.rows) if t[: len(b)] != b]
    if targets:
        w = targets.pop(rng.randrange(len(targets)))
        targets.extend(w + as_word((a,)) for a in range(d))
    targets.append(b)
    rng.shuffle(targets)
    # a complete source code of as many balls: split the first shortest ball
    sources = [as_word(())]
    while len(sources) < len(targets):
        w = min(sources, key=len)
        sources.remove(w)
        sources.extend(w + as_word((a,)) for a in range(d))
    rows = tuple(Row(s, t, rng.randrange(group.size)) for s, t in zip(sorted(sources), targets))
    return canonical_eclass(SimTable(group, rows), ())


def straddles(g, t):
    """Whether the ball t properly contains a maximal ball of g's inverse."""
    return any(len(t) < len(r.target) and r.target[: len(t)] == t for r in g.rows)


class TestCanonicalClasses:
    def test_inclusion_classes(self, t2):
        root = incl_class(t2, ())
        assert z_member(root)
        assert canonical_eclass(embed(t2, [((), (), 0)]), ()) == root
        assert canonical_eclass(embed(t2, [((0,), (0,), 0)]), (0,)) == incl_class(t2, (0,))

    def test_twist_identifies_germ_variants(self, s2):
        plain = canonical_eclass(embed(s2, [((), (0,), 0)]), ())
        twisted = canonical_eclass(embed(s2, [((), (0,), 1)]), ())
        assert plain == twisted
        assert plain == incl_class(s2, (0,))

    def test_twist_does_not_overidentify(self, s2):
        # image ball 0 versus image ball 1 stay different classes
        assert canonical_eclass(embed(s2, [((), (0,), 0)]), ()) != incl_class(s2, (1,))

    def test_sources_must_sit_in_ball(self, t2):
        with pytest.raises(InvalidClassError):
            canonical_eclass(embed(t2, [((0,), (0,), 0)]), (1,))

    def test_sources_must_partition_ball(self, t2):
        with pytest.raises(InvalidClassError):
            canonical_eclass(embed(t2, [((0, 0), (0,), 0)]), (0,))

    def test_sources_must_not_overlap(self, t2):
        # 0, 00, 01 has the Kraft sum of a complete code but is no antichain
        with pytest.raises(InvalidClassError, match=r"sources 0 and 00 overlap"):
            canonical_eclass(embed(t2, [((0,), (1, 0, 0), 0), ((0, 0), (0,), 0), ((0, 1), (1, 1), 0)]), ())
        with pytest.raises(InvalidClassError, match=r"sources 10 and 101 overlap"):
            canonical_eclass(embed(t2, [((1, 0), (1, 0, 0), 0), ((1, 0, 1), (0,), 0), ((1, 1), (1, 1), 0)]), (1,))

    def test_targets_must_not_repeat(self, t2):
        with pytest.raises(InvalidClassError, match=r"targets 0 and 0 overlap"):
            canonical_eclass(embed(t2, [((0,), (0,), 0), ((1,), (0,), 0)]), ())

    def test_targets_must_not_nest(self, t2):
        with pytest.raises(InvalidClassError, match=r"targets 0 and 01 overlap"):
            canonical_eclass(embed(t2, [((0,), (0,), 0), ((1,), (0, 1), 0)]), ())

    def test_hash_agrees_with_equality_and_is_stable(self, s2):
        # the hash is cached on first use; equal classes built apart must
        # still hash alike, and using one as a dict key must not change it
        rows = [((0,), (1, 0), 1), ((1,), (0,), 0)]
        a = canonical_eclass(embed(s2, rows), ())
        b = canonical_eclass(embed(s2, rows), ())
        assert a is not b and a == b
        first = hash(a)
        support = {a: 1}
        assert support[b] == 1 and b in support
        assert hash(a) == hash(b) == first == hash((a.group, a.rows))
        assert canonical_eclass(embed(s2, rows[::-1]), ()) == a
        assert incl_class(s2, (0,)) not in support

    def test_twist_minimization_matches_composition(self, t2, s2, s3, klein, s3_conjugated):
        # each twist derived by really composing with the global similarity
        rng = random.Random(131)
        for group in (t2, s2, s3, klein, s3_conjugated):
            for _ in range(40):
                _, rows = random_class_rows(group, rng)
                assert zipper._eclass(group, rows).rows == slow_eclass(group, rows)


class TestMembership:
    def test_x0_restriction_not_in_z(self, x0):
        e = canonical_eclass(SimTable(x0.group, x0.rows), ())
        assert not z_member(e)
        assert gz_member(x0, e)

    def test_inclusion_of_x_not_in_x0z(self, x0):
        assert not gz_member(x0, incl_class(x0.group, ()))

    def test_identity_translate_is_z(self, t2, x0):
        for b in ((), (0,), (1, 1)):
            assert gz_member(identity(t2), incl_class(t2, b))
        e = act_on_eclass(x0, incl_class(t2, ()))
        assert gz_member(identity(t2), e) == z_member(e)

    def test_action_law_and_inverses(self, configurations):
        rng = random.Random(71)
        for group in configurations:
            for _ in range(15):
                g1 = random_element(group, rng, max_depth=3)
                g2 = random_element(group, rng, max_depth=3)
                b = tuple(rng.randrange(group.alphabet.size) for _ in range(rng.randrange(3)))
                e = incl_class(group, b)
                assert act_on_eclass(g1, act_on_eclass(g2, e)) == act_on_eclass(compose(g1, g2), e)
                assert act_on_eclass(invert(g1), act_on_eclass(g1, e)) == e

    def test_row_count_matches_translate(self, t2, s2, s3, klein, s3_conjugated):
        rng = random.Random(137)
        for group in (t2, s2, s3, klein, s3_conjugated):
            for _ in range(40):
                h, rows = random_class_rows(group, rng)
                e = zipper._eclass(group, rows)
                assert gz_member(h, e)
                for g in (h, random_element(group, rng, max_depth=3)):
                    assert gz_member(g, e) == z_member(act_on_eclass(invert(g), e))

    def test_matches_slow_membership(self, t2, s2, t3, s3, klein, s3_conjugated):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        # targets of the classes checked so far: all inside maximal balls of
        # the inverse, all straddling, or some of each
        kinds = collections.Counter()

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.sampled_from([t2, s2, t3, s3, klein, s3_conjugated]),
            st.randoms(use_true_random=True),
            st.integers(1, 3),
        )
        def check(group, rng, max_depth):
            g = random_element(group, rng, max_depth=max_depth)
            h = random_element(group, rng, max_depth=max_depth)
            depth = 1 + max(len(w) for r in g.rows for w in r[:2])
            classes = []
            for b in all_balls(group.alphabet, depth):
                e = incl_class(group, b)
                classes += [e, act_on_eclass(h, e), act_on_eclass(g, e)]
            for k in (g, h):
                for b in max_partition(k).proper_prefixes():
                    classes.append(restriction_class(k, b, rng.randrange(group.size)))
            classes.append(partly_straddling_class(g, rng))
            for e in filter(None, classes):
                assert gz_member(g, e) == slow_gz_member(g, e)
                split = [straddles(g, r.target) for r in e.rows]
                kinds["mixed" if 0 < sum(split) < len(split) else "straddle" if all(split) else "inside"] += 1

        check()
        assert kinds["mixed"] and kinds["straddle"] and kinds["inside"]

    def test_act_on_inclusion_is_restriction(self, x0):
        e = act_on_eclass(x0, incl_class(x0.group, (0,)))
        assert e.rows == (Row(as_word((0,)), as_word((0,)), 0), Row(as_word((1,)), as_word((1, 0)), 0))


class TestSymdiff:
    def test_identity_empty(self, t2):
        assert len(symdiff(identity(t2))) == 0

    def test_x0_frozen(self, x0, t2):
        want = {
            incl_class(t2, ()): -1,
            incl_class(t2, (1,)): -1,
            act_on_eclass(x0, incl_class(t2, ())): 1,
            act_on_eclass(x0, incl_class(t2, (0,))): 1,
        }
        assert symdiff(x0) == want

    def test_global_germ_empty(self, s2):
        root_swap = parse_element("e->e:1", s2)
        assert len(symdiff(root_swap)) == 0
        assert zipper_length(root_swap) == 0

    def test_matches_membership_oracle(self, configurations, t2):
        rng = random.Random(73)
        for group in configurations:
            for _ in range(8):
                g = random_element(group, rng, max_depth=2)
                assert symdiff(g) == brute_force_symdiff(g)
        # rotated combs: sources 1^i 0 and 1^(n-1), each sent one place on;
        # translating their classes back splits long targets over many rows
        for n in (8, 10):
            words = ["1" * i + "0" for i in range(n - 1)] + ["1" * (n - 1)]
            g = parse_element(";".join(f"{s}->{t}" for s, t in zip(words, words[1:] + words[:1])), t2)
            assert symdiff(g) == brute_force_symdiff(g)

    def test_varying_restrictions_match_membership_oracle(self, klein, s3_conjugated):
        rng = random.Random(139)
        for group in (klein, s3_conjugated):
            for _ in range(15):
                g = random_element(group, rng, max_depth=3)
                assert symdiff(g) == brute_force_symdiff(g)

    def test_random_elements_match_membership_oracle(self, t2, s2, t3):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # depth at most 5 over two letters and 3 over three: up to about 30 leaves
        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.sampled_from([t2, s2, t3]),
            st.randoms(use_true_random=True),
            st.integers(1, 5),
            st.sampled_from([0.55, 0.8]),
        )
        def check(group, rng, depth, split_prob):
            max_depth = min(depth, 5 if group.alphabet.size == 2 else 3)
            g = random_element(group, rng, max_depth=max_depth, split_prob=split_prob)
            assert symdiff(g) == brute_force_symdiff(g)

        check()

    def test_failed_membership_check_raises(self, x0, monkeypatch):
        # the checks are exceptions, not asserts, so they also run under -O
        monkeypatch.setattr(zipper, "z_member", lambda e: False)
        with pytest.raises(InvalidClassError, match="vacated inclusion class"):
            symdiff(x0)

    def test_support_signs_verified(self, configurations):
        rng = random.Random(79)
        for group in configurations:
            for _ in range(10):
                g = random_element(group, rng, max_depth=3)
                for e, sign in symdiff(g).items():
                    if sign == 1:
                        assert gz_member(g, e) and not z_member(e)
                    else:
                        assert z_member(e) and not gz_member(g, e)


class TestZipperLength:
    def test_identity(self, t2):
        assert zipper_length(identity(t2)) == 0

    def test_x0(self, x0):
        assert zipper_length(x0) == 4

    def test_closed_form_matches_symdiff_and_walls(self, configurations):
        rng = random.Random(113)
        for group in configurations:
            ident = identity(group)
            for _ in range(20):
                g = random_element(group, rng, max_depth=3)
                assert len(symdiff(g)) == zipper_length(g) == wall_separation(ident, g)

    def test_inverse_symmetry_and_closed_form(self, configurations):
        rng = random.Random(83)
        for group in configurations:
            d = group.alphabet.size
            for _ in range(20):
                g = random_element(group, rng, max_depth=3)
                n = len(max_partition(g))
                assert zipper_length(g) == 2 * (n - 1) // (d - 1)
                assert zipper_length(g) == zipper_length(invert(g))

    def test_subadditive(self, configurations):
        rng = random.Random(89)
        for group in configurations:
            for _ in range(20):
                g = random_element(group, rng, max_depth=3)
                h = random_element(group, rng, max_depth=3)
                assert zipper_length(compose(g, h)) <= zipper_length(g) + zipper_length(h)


class TestCocycle:
    def test_defect_with_identity(self, t2, x0):
        assert cocycle_identity_defect(identity(t2), x0) == 0
        assert cocycle_identity_defect(x0, identity(t2)) == 0

    def test_defect_with_inverse(self, x0):
        assert cocycle_identity_defect(x0, invert(x0)) == 0

    def test_defect_x0_x1(self, x0, x1):
        assert cocycle_identity_defect(x0, x1) == 0

    def test_defect_zero_on_random_pairs(self, configurations):
        rng = random.Random(97)
        for group in configurations:
            for _ in range(15):
                g1 = random_element(group, rng, max_depth=3)
                g2 = random_element(group, rng, max_depth=3)
                assert cocycle_identity_defect(g1, g2) == 0

    def test_translate_matches_pullback(self, x0, x1):
        # the translated support evaluates by pulling the class back
        values = symdiff(x1)
        moved = zipper._translate(values, x0)
        back = invert(x0)
        for e, v in moved.items():
            assert values[act_on_eclass(back, e)] == v


class TestWalls:
    def test_self_separation_zero(self, x0):
        assert wall_separation(x0, x0) == 0

    def test_identity_vs_x0(self, t2, x0):
        assert wall_separation(identity(t2), x0) == 4
        assert wall_separation(identity(t2), x0) == zipper_length(x0)

    def test_symmetric_and_left_invariant(self, configurations):
        rng = random.Random(101)
        for group in configurations:
            for _ in range(10):
                g1 = random_element(group, rng, max_depth=3)
                g2 = random_element(group, rng, max_depth=3)
                h = random_element(group, rng, max_depth=3)
                assert wall_separation(g1, g2) == wall_separation(g2, g1)
                assert wall_separation(compose(h, g1), compose(h, g2)) == wall_separation(g1, g2)

    def test_separating_walls_really_separate(self, configurations, t2, x0, x1):
        # each wall lies in exactly one of g1Z and g2Z, on the reported side
        rng = random.Random(127)
        pairs = [(identity(t2), x0), (x0, x1)]
        for group in configurations:
            for _ in range(6):
                pairs.append((random_element(group, rng, max_depth=3), random_element(group, rng, max_depth=3)))
        for g1, g2 in pairs:
            walls = separating_walls(g1, g2)
            assert len(walls) == wall_separation(g1, g2)
            for e, side in walls:
                in1, in2 = gz_member(g1, e), gz_member(g2, e)
                assert in1 != in2
                assert side == (1 if in1 else -1)

    def test_separating_walls_sorted_by_rows(self, configurations, x0, x1):
        rng = random.Random(137)
        pairs = [(x0, x1)]
        for group in configurations:
            for _ in range(6):
                pairs.append((random_element(group, rng, max_depth=3), random_element(group, rng, max_depth=3)))
        for g1, g2 in pairs:
            keys = [e.rows for e, _ in separating_walls(g1, g2)]
            assert keys == sorted(keys)

    def test_point_labels_classify_cosets(self, t2, s2, x0):
        # two elements give the same orbit point iff they differ by a global
        # ball similarity on the right, and then no wall separates them
        rng = random.Random(103)
        for group in (t2, s2):
            for _ in range(10):
                g = random_element(group, rng, max_depth=3)
                stab = parse_element("e->e:1", s2) if group is s2 else identity(t2)
                same = compose(g, stab)
                assert wall_separation(g, same) == 0
        other = compose(x0, x0)
        assert wall_separation(x0, other) == zipper_length(compose(invert(x0), other)) > 0

    def test_wall_system(self, t2, x0, x1):
        # orbit points are told apart by the walls between them; a class is a
        # wall for finitely many points when some translates contain it and
        # some do not
        elements = [identity(t2), x0, x1, compose(x0, identity(t2))]
        assert wall_separation(elements[3], elements[1]) == 0
        points = elements[:3]
        assert all(wall_separation(g, h) > 0 for g, h in itertools.combinations(points, 2))
        root = incl_class(t2, ())
        assert [gz_member(g, root) for g in points] == [True, False, False]
        deep = incl_class(t2, (0, 0, 0, 0))
        assert len({gz_member(g, deep) for g in points}) == 1
        assert wall_separation(points[0], points[1]) == zipper_length(x0)


class TestHalfSpaceNonemptiness:
    def test_every_class_is_somewhere_and_missing_somewhere(self, t2):
        # desk-scale version of the global-intersection emptiness checks:
        # every sampled class lies in some translate and misses some other
        rng = random.Random(107)
        samples = [incl_class(t2, b) for b in itertools.product((0, 1), repeat=2)]
        samples += [incl_class(t2, ()), incl_class(t2, (0,))]
        for _ in range(10):
            g = random_element(t2, rng, max_depth=3)
            b = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
            samples.append(act_on_eclass(g, incl_class(t2, b)))
        for e in samples:
            assert gz_member(element_containing(e), e)
            assert not gz_member(element_missing(e), e)


class TestPropernessAudit:
    def test_no_generators(self, t2):
        report = properness_audit(t2, [], radius=4, threshold=10)
        assert [r.ball_size for r in report.rows] == [1, 1, 1, 1, 1]
        assert report.counts() == [1, 1, 1, 1, 1]
        assert report.stabilized

    def test_negative_radius(self, t2):
        with pytest.raises(UnsupportedStructureError, match="radius must be >= 0"):
            properness_audit(t2, [], radius=-1, threshold=4)

    def test_threshold_zero_only_identity(self, t2, v_gens):
        report = properness_audit(t2, v_gens, radius=3, threshold=0)
        assert report.counts() == [1, 1, 1, 1]

    def test_v_generators_frozen_counts(self, t2, v_gens):
        report = properness_audit(t2, v_gens, radius=5, threshold=4)
        assert report.counts() == [1, 6, 13, 20, 22, 22]
        assert not report.stabilized
        longer = properness_audit(t2, v_gens, radius=6, threshold=4)
        assert longer.counts()[-3:] == [22, 22, 22]
        assert longer.stabilized

    def test_outermost_sphere_is_not_kept(self, t2, v_gens):
        # the radius-5 sphere holds 3,276 of the 4,209 elements; counted
        # without being kept, it leaves only its dedup keys, and the traced
        # peak is about 1.6 MB against 4.5 MB when it is kept
        tracemalloc.start()
        try:
            report = properness_audit(t2, v_gens, radius=5, threshold=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts() == [1, 6, 13, 20, 22, 22]
        assert peak < 3 * 2**20

    def test_skipped_inverse_keeps_counts(self, t2, s2, v_gens):
        # the audit skips the product that leads back to an element's parent;
        # the counts must match a search that tries every product
        x0, x1, c, pi0 = v_gens
        rng = random.Random(113)
        swap = parse_element("e->e:1", s2)
        over_s2 = [parse_element(format_element(g), s2) for g in v_gens]
        cases = [
            (t2, rng.sample(v_gens, len(v_gens))),
            (t2, rng.sample(v_gens, len(v_gens))),
            (t2, [x0, c, identity(t2), x0, pi0]),  # a duplicated generator, and the identity
            (t2, [c, x1, invert(c)]),  # a generator and its inverse
            (t2, [pi0, x1]),  # pi0 is its own inverse
            (s2, [swap] + rng.sample(over_s2, len(over_s2))),  # e->e:1 is its own inverse
        ]
        for group, gens in cases:
            for radius in (0, 1, 4):
                report = properness_audit(group, gens, radius=radius, threshold=4)
                got = [(row.ball_size, row.within_threshold) for row in report.rows]
                assert got == slow_audit_counts(group, gens, radius, 4)

    def test_counts_agree_with_lengths(self, t2, v_gens):
        # spot check the closed-form length the audit counts with against
        # the symmetric difference it measures
        rng = random.Random(109)
        for _ in range(20):
            g = random_element(t2, rng, max_depth=3)
            d = t2.alphabet.size
            assert len(symdiff(g)) == 2 * (len(g.rows) - 1) // (d - 1)


class TestNowalls:
    def test_single_witness_is_identity(self, t2):
        rep = nowalls_demo(t2, 1)
        assert rep.witnesses == (identity(t2),)
        assert rep.ok
        assert z_member(rep.first_class)
        assert not z_member(rep.second_class)
        assert rep.second_class.rows == (Row(as_word((0,)), as_word((1, 0)), 0), Row(as_word((1,)), as_word((1, 1, 1)), 0))

    def test_three_witnesses(self, t2):
        rep = nowalls_demo(t2, 3)
        assert rep.ok and len(rep.witnesses) == 3
        assert len(set(rep.witnesses)) == 3
        for g in rep.witnesses:
            assert gz_member(g, rep.first_class)
            assert not gz_member(g, rep.second_class)
        assert gz_member(rep.covering_element, rep.second_class)

    def test_wrong_structure(self, s2, t3):
        for group in (s2, t3):
            with pytest.raises(UnsupportedStructureError):
                nowalls_demo(group, 1)

    def test_bad_count(self, t2):
        with pytest.raises(UnsupportedStructureError, match="count must be >= 1"):
            nowalls_demo(t2, 0)
