"""Acceptance suite: ten exact, property-based criteria.

Every check is tolerance-zero.  Timed criteria assert their wall-clock
budget; the terminal summary (see conftest) prints one PASS/FAIL line per
criterion.  Randomness is seeded, so reruns are bit-identical.
"""

import random
import time

from oracles import (
    brute_force_gamma,
    brute_force_symdiff,
    coarsenings,
    enumerate_complete_codes,
    slow_expand_at,
    tables_over,
)
from test_structure import AXIOMS, mutated

from localsim import (
    PrefixCode,
    act_on_eclass,
    apply,
    cocycle_identity_defect,
    compose,
    enumerate_gamma,
    gz_member,
    identity,
    integer_line_instance,
    invert,
    max_partition,
    nowalls_demo,
    parse_automaton,
    properness_audit,
    random_element,
    random_point,
    reduce,
    symdiff,
    symmetric_group,
    walls_to_zipper,
    wall_separation,
    z_member,
    zipper_length,
)
from localsim.cli import _resolve_input

# per-alphabet depth caps keep the randomized suites inside their budgets
# without thinning the binary coverage
DEPTH = {2: 5, 3: 3}


def test_criterion_1_algebra_laws(configurations):
    start = time.perf_counter()
    for group in configurations:
        rng = random.Random(10_000 + group.alphabet.size * 10 + group.size)
        ident = identity(group)
        elems = [random_element(group, rng, max_depth=DEPTH[group.alphabet.size]) for _ in range(1000)]

        for g in elems:
            ginv = invert(g)
            assert compose(g, ident) == g
            assert compose(ident, g) == g
            assert compose(g, ginv) == ident
            assert compose(ginv, g) == ident

            rows = g.rows
            for _ in range(rng.randrange(1, 5)):
                rows = slow_expand_at(group, rows, rng.choice([r.source for r in rows]))
            assert reduce(group, rows) == g

        for a, b, c in zip(elems, elems[1:], elems[2:]):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

        for g, h in zip(elems, elems[1:] + elems[:1]):
            gh = compose(g, h)
            for _ in range(50):
                x = random_point(group.alphabet, rng)
                assert apply(gh, x) == apply(g, apply(h, x))
    assert time.perf_counter() - start < 60


def test_criterion_2_symdiff_oracle(configurations):
    start = time.perf_counter()
    counts = {2: 80, 3: 20}
    for group in configurations:
        rng = random.Random(20_000 + group.alphabet.size * 10 + group.size)
        for _ in range(counts[group.alphabet.size]):
            g = random_element(group, rng, max_depth=DEPTH[group.alphabet.size] - 1)
            assert symdiff(g) == brute_force_symdiff(g)
    assert time.perf_counter() - start < 120


def test_criterion_3_length_identities(configurations, x0):
    assert zipper_length(x0) == 4
    for group in configurations:
        d = group.alphabet.size
        rng = random.Random(30_000 + d * 10 + group.size)
        elems = [random_element(group, rng, max_depth=DEPTH[d]) for _ in range(100)]
        for g in elems:
            length = zipper_length(g)
            assert length == zipper_length(invert(g))
            assert length == 2 * (len(max_partition(g)) - 1) // (d - 1)
            assert (2 * (len(max_partition(g)) - 1)) % (d - 1) == 0
        for g, h in zip(elems, elems[1:]):
            assert zipper_length(compose(g, h)) <= zipper_length(g) + zipper_length(h)


def test_criterion_4_cocycle_identity(configurations):
    start = time.perf_counter()
    for group in configurations:
        rng = random.Random(40_000 + group.alphabet.size * 10 + group.size)
        for _ in range(500):
            g1 = random_element(group, rng, max_depth=DEPTH[group.alphabet.size] - 1)
            g2 = random_element(group, rng, max_depth=DEPTH[group.alphabet.size] - 1)
            assert cocycle_identity_defect(g1, g2) == 0
    assert time.perf_counter() - start < 120


def test_criterion_5_gamma_finiteness(configurations, t2, s2):
    # exact agreement with the exhaustive enumeration on every pair of
    # complete codes with at most three leaves
    for group in configurations:
        alphabet = group.alphabet
        codes = [c for c in enumerate_complete_codes(alphabet, 2) if len(c) <= 3]
        for src in codes:
            for dst in codes:
                plus, minus = PrefixCode(alphabet, src), PrefixCode(alphabet, dst)
                got = set(enumerate_gamma(group, plus, minus))
                want = brute_force_gamma(group, plus, minus, code_depth=2, max_leaves=3)
                assert got == want
                for g in got:
                    assert max_partition(g).words == src
                    assert max_partition(invert(g)).words == dst

    # refinement decomposition: the exact-partition families over all
    # coarsening pairs partition the full table set over the fixed codes
    alphabet = t2.alphabet
    plus = PrefixCode(alphabet, ((0,), (1, 0), (1, 1, 0), (1, 1, 1)))
    minus = PrefixCode(alphabet, ((0, 0), (0, 1), (1, 0), (1, 1)))
    for group in (t2, s2):
        union: set = set()
        for q_plus in coarsenings(plus):
            for q_minus in coarsenings(minus):
                if len(q_plus) != len(q_minus):
                    continue
                batch = enumerate_gamma(
                    group, PrefixCode(alphabet, q_plus), PrefixCode(alphabet, q_minus)
                )
                assert union.isdisjoint(batch)
                union |= set(batch)
        everything: set = set()
        for q_plus in coarsenings(plus):
            for q_minus in coarsenings(minus):
                if len(q_plus) == len(q_minus):
                    everything |= tables_over(group, q_plus, q_minus)
        assert union == everything


def test_criterion_6_properness_audit(t2, v_gens):
    start = time.perf_counter()
    report = properness_audit(t2, v_gens, radius=6, threshold=4)
    counts = [r.within_threshold for r in report.rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 1 and counts[1] == 6
    assert counts[-3:] == [counts[-1]] * 3
    assert report.stabilized

    # independent count of the whole group's short elements: length <= 4
    # means at most three maximal regions, and every such element is a
    # reduced table over codes with at most three leaves
    small_codes = [c for c in enumerate_complete_codes(t2.alphabet, 2) if len(c) <= 3]
    short = set()
    for src in small_codes:
        for dst in small_codes:
            if len(src) == len(dst):
                short |= {g for g in tables_over(t2, src, dst) if zipper_length(g) <= 4}
    assert counts[-1] == len(short)

    degenerate = properness_audit(t2, v_gens, radius=3, threshold=0)
    assert [r.within_threshold for r in degenerate.rows] == [1, 1, 1, 1]
    assert degenerate.stabilized
    assert time.perf_counter() - start < 600


def test_criterion_7_walls_round_trip(configurations):
    translated = walls_to_zipper(integer_line_instance(10))
    assert all(r.sizes_match and r.preserves_walls is not False for r in translated)
    shifts = 0
    for report in translated:
        assert report.sizes_match
        if report.name.startswith("shift+"):
            s = int(report.name.removeprefix("shift+"))
            assert 1 <= s <= 5
            assert report.separating == s
            assert report.symdiff_size == 2 * s
            shifts += 1
        else:
            assert report.separating == 0 and report.symdiff_size == 0
    assert shifts == 5

    for group in configurations:
        rng = random.Random(70_000 + group.alphabet.size * 10 + group.size)
        ident = identity(group)
        for _ in range(50):
            g = random_element(group, rng, max_depth=DEPTH[group.alphabet.size] - 1)
            assert wall_separation(ident, g) == zipper_length(g)


def test_criterion_8_nowalls_witnesses(t2):
    start = time.perf_counter()
    report = nowalls_demo(t2, 10)
    assert report.ok
    assert len(set(report.witnesses)) >= 10
    for w in report.witnesses:
        # recompute both memberships instead of trusting the report flags
        assert z_member(act_on_eclass(invert(w), report.first_class))
        assert not z_member(act_on_eclass(invert(w), report.second_class))
    assert report.first_in_translates == (True,) * len(report.witnesses)
    assert report.second_in_translates == (False,) * len(report.witnesses)
    assert gz_member(report.covering_element, report.second_class)
    assert time.perf_counter() - start < 30


def test_criterion_9_structure_validation(s2):
    for d in (2, 3, 4):
        assert symmetric_group(d).validate() == {}

    rng = random.Random(90_000)
    seen = 0
    while seen < 50:
        table = rng.choice(["act", "res"])
        i, a = rng.randrange(2), rng.randrange(2)
        old = (s2.act if table == "act" else s2.res)[i][a]
        violations = mutated(s2, table, i, a, 1 - old).validate()
        assert violations, f"mutation {table}[{i}][{a}] slipped through"
        assert all(axiom in AXIOMS for axiom in violations)
        seen += 1


def test_criterion_10_negative_type(configurations):
    # the zipper length counts the walls between gZ and hZ, so it has
    # negative type (Cherix-Martin-Valette): for integer weights c summing
    # to zero, sum c_i c_j |g_i^-1 g_j| is -2 times the sum over the classes
    # W of (sum c_i symdiff(g_i)[W])^2.  The left side needs only compose
    # and the closed-form length, the right side only symdiff.
    start = time.perf_counter()
    structures = configurations + [parse_automaton(_resolve_input("sigma2.aut"))]
    rng = random.Random(100_000)
    nonzero = 0
    for n in range(200):
        group = structures[n % len(structures)]
        k = rng.randrange(2, 8)
        while True:
            weights = [rng.randint(-5, 5) for _ in range(k - 1)]
            weights.append(-sum(weights))
            if abs(weights[-1]) <= 5 and any(weights):
                break
        # each element is a fresh one or the one before times a small one,
        # so that the symmetric differences share +1 classes too
        depth = DEPTH[group.alphabet.size] - 1
        elems = [random_element(group, rng, max_depth=depth)]
        while len(elems) < k:
            if rng.random() < 0.5:
                elems.append(compose(elems[-1], random_element(group, rng, max_depth=2)))
            else:
                elems.append(random_element(group, rng, max_depth=depth))
        inverses = [invert(g) for g in elems]
        left = sum(
            a * b * zipper_length(compose(g_inv, h))
            for a, g_inv in zip(weights, inverses)
            for b, h in zip(weights, elems)
        )
        diffs = [symdiff(g) for g in elems]
        walls = set().union(*diffs)
        right = -2 * sum(sum(c * s.get(w, 0) for c, s in zip(weights, diffs)) ** 2 for w in walls)
        assert left == right
        nonzero += left != 0
    assert nonzero > 150
    assert time.perf_counter() - start < 1
