import itertools
import random
import re

import pytest

from localsim import (
    CompositionDomainError,
    MalformedStructureError,
    Point,
    SelfSimilarGroup,
    UnsupportedStructureError,
    germ_apply,
    parse_automaton,
    symmetric_group,
    trivial_group,
)
from localsim.cli import _resolve_input
from oracles import as_word, letters, slow_associativity_witnesses, stepwise_act_word

AXIOMS = {
    "identity-element",
    "inverse-element",
    "associativity",
    "identity-action",
    "identity-restriction",
    "action-composition",
    "restriction-cocycle",
    "faithfulness",
}


def mutated(group, table_name, i, a, value):
    tables = {
        "mul": [list(r) for r in group.mul],
        "inv": list(group.inv),
        "act": [list(r) for r in group.act],
        "res": [list(r) for r in group.res],
    }
    tables[table_name][i][a] = value
    return SelfSimilarGroup(group.alphabet, tables["mul"], tables["inv"], tables["act"], tables["res"])


# every shape and range check in SelfSimilarGroup.__init__, over two
# letters: (mul, inv, act, res, message fragment)
BAD_TABLES = (
    ((), (), (), (), "at least the identity element"),
    (((0,),), (0, 0), ((0, 1),), ((0, 0),), "disagree about the element count"),
    (((0,),), (0,), ((0, 1),), ((0, 0), (0, 0)), "disagree about the element count"),
    (((0, 0),), (0,), ((0, 1),), ((0, 0),), "mul row has length 2, expected 1"),
    (((0,),), (0,), ((0,),), ((0, 0),), "act row has length 1, expected 2"),
    (((0,),), (0,), ((0, 1),), ((0, 0, 0),), "res row has length 3, expected 2"),
    (((1,),), (0,), ((0, 1),), ((0, 0),), "mul entry 1 out of range"),
    (((0,),), (0,), ((0, -1),), ((0, 0),), "act entry -1 out of range"),
    (((0,),), (0,), ((0, 1),), ((0, True),), "res entry True out of range"),
    (((0,),), (1,), ((0, 1),), ((0, 0),), "inv entry 1 out of range"),
    (((0,),), (0.0,), ((0, 1),), ((0, 0),), "inv entry 0.0 out of range"),
)


@pytest.mark.parametrize("mul, inv, act, res, fragment", BAD_TABLES, ids=[c[-1] for c in BAD_TABLES])
def test_constructor_rejects_bad_tables(t2, mul, inv, act, res, fragment):
    with pytest.raises(MalformedStructureError, match=re.escape(fragment)):
        SelfSimilarGroup(t2.alphabet, mul, inv, act, res)


class TestValidate:
    def test_builtins_are_clean(self):
        for d in (2, 3, 4):
            assert trivial_group(d).validate() == []
            assert symmetric_group(d).validate() == []

    def test_corrupted_restriction(self, s2):
        bad = mutated(s2, "res", 1, 0, 0)
        violations = bad.validate()
        assert len(violations) == 1
        v = violations[0]
        assert v.axiom == "restriction-cocycle"
        assert (1, 1, 0) in v.witnesses and (1, 1, 1) in v.witnesses

    def test_symmetric_six_is_clean(self):
        # 720 elements: associativity follows from Light's test on a few generators
        assert symmetric_group(6).validate() == []

    def test_associativity_witnesses_match_full_scan(self, s3):
        # every single corrupted mul cell of sigma2.aut and of symmetric(3)
        sigma2 = parse_automaton(_resolve_input("sigma2.aut"))
        broken = 0
        for group in (sigma2, s3):
            for i, j in itertools.product(range(group.size), repeat=2):
                for value in range(group.size):
                    if value == group.mul[i][j]:
                        continue
                    bad = mutated(group, "mul", i, j, value)
                    want = slow_associativity_witnesses(bad.mul)
                    got = {v.axiom: v.witnesses for v in bad.validate()}
                    assert got.get("associativity", ()) == want
                    broken += bool(want)
        assert broken > 0

    def test_corrupted_identity_action(self, s2):
        bad = mutated(s2, "act", 0, 0, 1)
        assert "identity-action" in {v.axiom for v in bad.validate()}

    def test_unfaithful_structure(self):
        # two states acting identically everywhere: Z/2 with trivial action
        group = SelfSimilarGroup(
            trivial_group(2).alphabet,
            [[0, 1], [1, 0]],
            [0, 1],
            [[0, 1], [0, 1]],
            [[0, 0], [1, 1]],
        )
        assert "faithfulness" in {v.axiom for v in group.validate()}

    def test_faithful_beyond_depth_eight(self):
        # (Z/2)^9: bit k of v swaps the letter at depth k, so element 256
        # first moves a word at its ninth letter
        m = 512
        group = SelfSimilarGroup(
            trivial_group(2).alphabet,
            [[i ^ j for j in range(m)] for i in range(m)],
            list(range(m)),
            [(1, 0) if v & 1 else (0, 1) for v in range(m)],
            [(v >> 1, v >> 1) for v in range(m)],
        )
        assert group.validate() == []

    def test_shape_errors(self, s2):
        with pytest.raises(MalformedStructureError):
            SelfSimilarGroup(s2.alphabet, s2.mul, s2.inv[:1], s2.act, s2.res)
        with pytest.raises(MalformedStructureError):
            SelfSimilarGroup(s2.alphabet, s2.mul, s2.inv, [[0, 3], [1, 0]], s2.res)

    def test_entries_are_ints_not_bools(self, s2):
        # a bool passes isinstance(v, int); as a table entry it would print as True/False
        cases = (
            (((0, 1), (True, 0)), s2.inv, s2.act, s2.res),
            (s2.mul, (0, True), s2.act, s2.res),
            (s2.mul, s2.inv, ((0, 1), (True, False)), s2.res),
            (s2.mul, s2.inv, s2.act, ((0, 0), (1, True))),
        )
        for mul, inv, act, res in cases:
            with pytest.raises(MalformedStructureError, match="True|False"):
                SelfSimilarGroup(s2.alphabet, mul, inv, act, res)


COMPLETE_AUT = "alphabet 2\nelements 1\nmul 0 0 0\ninv 0 0\nact 0 0 0\nact 0 1 1\nres 0 0 0\nres 0 1 0\n"
TRIVIAL_CELLS = COMPLETE_AUT.split("\n", 2)[2]

# every rejection in parse_automaton: (text, message fragment)
BAD_AUTOMATA = (
    (COMPLETE_AUT + "inv 0 x\n", "line 9: non-integer field in 'inv 0 x'"),
    ("alphabet " + "9" * 5000 + "\n", "line 1: field of 5000 digits is too long"),
    ("alphabet 2\nalphabet 2\n", "line 2: bad or repeated alphabet header"),
    ("alphabet 2 3\n", "line 1: bad or repeated alphabet header"),
    ("# sizes\nalphabet 1\nelements 1\n", "line 2: alphabet size must be >= 2, got 1"),
    ("elements 1\nalphabet 0\n" + TRIVIAL_CELLS, "line 2: alphabet size must be >= 2, got 0"),
    ("elements 1\nelements 1\n", "line 2: bad or repeated elements header"),
    ("elements\n", "line 1: bad or repeated elements header"),
    ("alphabet 2\nelements 1\nmul 0 0\n", "line 3: mul takes 3 integers"),
    ("alphabet 2\nelements 1\ninv 0 0\ninv 0 0\n", "line 4: duplicate record for ('inv', 0)"),
    ("alphabet 2\nelements 1\nsquare 0 0\n", "line 3: unknown record 'square'"),
    ("alphabet 2\n" + TRIVIAL_CELLS, "missing 'alphabet' or 'elements' header"),
    ("elements 1\n" + TRIVIAL_CELLS, "missing 'alphabet' or 'elements' header"),
    ("alphabet 2\nelements 0\n", "elements count must be >= 1"),
    (COMPLETE_AUT.replace("res 0 1 0\n", ""), "missing record for ('res', 0, 1)"),
    (COMPLETE_AUT + "act 0 2 0\n", "records out of range: [('act', 0, 2)]"),
    (COMPLETE_AUT.replace("act 0 1 1", "act 0 1 2"), "act entry 2 out of range"),
)


class TestAutomatonFile:
    @pytest.mark.parametrize("text, fragment", BAD_AUTOMATA, ids=[c[1][:40] for c in BAD_AUTOMATA])
    def test_rejected(self, text, fragment):
        with pytest.raises(MalformedStructureError) as err:
            parse_automaton(text)
        assert fragment in str(err.value)

    def test_packaged_file_matches_builtin(self, s2):
        parsed = parse_automaton(_resolve_input("sigma2.aut"), name="sigma2")
        assert parsed == s2
        assert parsed.validate() == []

    COMPLETE = COMPLETE_AUT

    def test_minimal_file_parses(self, t2):
        assert parse_automaton(self.COMPLETE) == t2

    def test_missing_cell(self):
        with pytest.raises(MalformedStructureError, match="missing record"):
            parse_automaton(self.COMPLETE.replace("act 0 1 1\n", ""))

    def test_duplicate_cell(self):
        with pytest.raises(MalformedStructureError, match="line 6: duplicate"):
            parse_automaton(self.COMPLETE.replace("act 0 0 0\n", "act 0 0 0\nact 0 0 0\n"))

    def test_fields_are_ascii_decimal(self):
        # int() alone reads these as 0, 1 and 10
        text = _resolve_input("sigma2.aut")
        lineno = text.splitlines().index("inv 1 1") + 1
        for field in ("٠", "+1", "1_0"):
            with pytest.raises(MalformedStructureError, match=f"line {lineno}: non-integer field"):
                parse_automaton(text.replace("inv 1 1", f"inv 1 {field}"))

    def test_out_of_range_entry(self):
        with pytest.raises(MalformedStructureError):
            parse_automaton(self.COMPLETE.replace("act 0 1 1", "act 0 1 2"))


class TestGermAction:
    def test_identity_fixes_points(self, s2):
        for text in ("(0)", "01(10)", "1(1)"):
            x = s2.alphabet.parse_point(text)
            assert germ_apply(s2, 0, x) == x

    def test_swap_on_constant(self, s2):
        assert germ_apply(s2, 1, Point(s2.alphabet, (), (0,))) == Point(s2.alphabet, (), (1,))

    def test_swap_on_mixed(self, s2):
        x = s2.alphabet.parse_point("01(10)")
        assert s2.alphabet.format_point(germ_apply(s2, 1, x)) == "10(01)"

    def test_rejects_foreign_point_and_unknown_element(self, s2, t3):
        x = s2.alphabet.parse_point("01(10)")
        with pytest.raises(CompositionDomainError):
            germ_apply(t3, 0, x)
        # a germ is a non-bool int, as in tables and structures
        for elem in (2, 1.0, "1", True):
            with pytest.raises(MalformedStructureError, match="no element"):
                germ_apply(s2, elem, x)

    def test_restrict_identity_and_empty(self, s3):
        for sigma in range(s3.size):
            assert s3.act_word(0, as_word((0, 1)))[1] == 0
            assert s3.act_word(sigma, as_word(())) == (as_word(()), sigma)

    def test_letterwise_structure_restricts_to_itself(self, s2):
        assert s2.act_word(1, as_word((0,)))[1] == 1

    def test_apply_respects_composition(self, s3):
        rng = random.Random(23)
        for _ in range(300):
            i, j = rng.randrange(s3.size), rng.randrange(s3.size)
            pre = tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
            per = tuple(rng.randrange(3) for _ in range(1, rng.randint(1, 3) + 1))
            x = Point(s3.alphabet, pre, per)
            combined = germ_apply(s3, s3.mul[i][j], x)
            chained = germ_apply(s3, i, germ_apply(s3, j, x))
            assert combined == chained

    def test_wreath_cocycle_on_words(self, s3):
        rng = random.Random(29)
        for _ in range(400):
            i, j = rng.randrange(s3.size), rng.randrange(s3.size)
            v = as_word(tuple(rng.randrange(3) for _ in range(rng.randrange(7))))
            _, lhs = s3.act_word(s3.mul[i][j], v)
            path, rest_j = s3.act_word(j, v)
            rhs = s3.mul[s3.act_word(i, path)[1]][rest_j]
            assert lhs == rhs

    def test_act_word_matches_stepping(self, t2, s2, s3, klein, s3_conjugated):
        # one translate for letterwise elements (all of s2, s3 and
        # sigma2.aut), a step per letter for the others (most of klein and
        # s3_conjugated); and letters past a byte over 300 letters
        rng = random.Random(31)
        sigma2 = parse_automaton(_resolve_input("sigma2.aut"))
        for group in (t2, s2, s3, klein, s3_conjugated, sigma2, trivial_group(300)):
            d = group.alphabet.size
            for _ in range(60):
                i = rng.randrange(group.size)
                v = tuple(rng.randrange(d) for _ in range(rng.randrange(12)))
                image, rest = group.act_word(i, as_word(v))
                assert (letters(image), rest) == stepwise_act_word(group, i, v)
        assert all(t is not None for t in s3._letterwise + sigma2._letterwise)
        assert [t is None for t in klein._letterwise] == [False, True, True, True]

    def test_inverse_restriction_identity(self, s3):
        for sigma in range(s3.size):
            for a in s3.alphabet.letters:
                lhs = s3.res[s3.inv[sigma]][s3.act[sigma][a]]
                assert lhs == s3.inv[s3.res[sigma][a]]


class TestEnumeratedSmallGroups:
    def test_symmetric_sizes(self):
        for d, size in ((2, 2), (3, 6), (4, 24)):
            group = symmetric_group(d)
            assert group.size == size

    def test_symmetric_size_limit(self):
        # refused before the 5040 x 5040 table is built
        with pytest.raises(UnsupportedStructureError, match="at most 6 letters"):
            symmetric_group(7)

    def test_letterwise_action_table(self, s3):
        # every element permutes letters; restriction is the element itself
        perms = sorted(itertools.permutations(range(3)))
        for i, perm in enumerate(perms):
            assert tuple(s3.act[i]) == perm
            assert all(r == i for r in s3.res[i])
