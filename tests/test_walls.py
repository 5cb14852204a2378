import re

import pytest

from localsim import (
    InvalidWallError,
    LiteralParseError,
    Move,
    UnsupportedStructureError,
    WallsInstance,
    integer_line_instance,
    parse_walls_file,
    walls_to_zipper,
)


def square_instance():
    pts = ("a", "b", "c", "d")
    walls = (
        (frozenset("ab"), frozenset("cd")),
        (frozenset("ad"), frozenset("bc")),
    )
    moves = (
        Move("across", "c"),
        Move("spin", "b", (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))),
    )
    return WallsInstance(pts, walls, "a", moves)


AB_WALL = ((frozenset("a"), frozenset("b")),)

# every check WallsInstance makes: (points, walls, basepoint, moves, message fragment)
BAD_INSTANCES = (
    ((), (), "a", (), "no points"),
    (("a", "a"), (), "a", (), "duplicate point names"),
    (("a", "b"), ((frozenset(), frozenset("ab")),), "a", (), "wall 0 has an empty side"),
    (("a", "b"), ((frozenset("ab"), frozenset("b")),), "a", (), "wall 0 has overlapping sides"),
    (("a", "b", "c"), AB_WALL, "a", (), "wall 0 does not cover the points"),
    (("a", "b"), AB_WALL, "z", (), "basepoint 'z' is not a point"),
    (("a", "b"), AB_WALL, "a", (Move("m", "z"),), "move 'm' lands outside the points"),
    (("a", "b"), AB_WALL, "a", (Move("m", "b", (("a", "b"), ("b", "b"))),), "not a bijection"),
    (("a", "b"), AB_WALL, "a", (Move("m", "b", (("a", "b"), ("a", "a"))),), "not a bijection"),
    (("a", "b"), AB_WALL, "a", (Move("m", "a", (("a", "b"), ("b", "a"))),), "disagrees with its image"),
)


class TestValidation:
    def test_good_instance(self):
        square_instance()

    @pytest.mark.parametrize("points, walls, base, moves, fragment", BAD_INSTANCES, ids=[c[-1] for c in BAD_INSTANCES])
    def test_rejected(self, points, walls, base, moves, fragment):
        with pytest.raises(InvalidWallError, match=fragment):
            WallsInstance(points, walls, base, moves)

    def test_non_points_rejected(self):
        inst = square_instance()
        with pytest.raises(InvalidWallError, match="'z' is not a point"):
            inst.half_space_set("z")
        with pytest.raises(InvalidWallError, match="separation asked for a non-point"):
            inst.separation("a", "z")

    def test_empty_side(self):
        with pytest.raises(InvalidWallError):
            WallsInstance(("a", "b"), ((frozenset(), frozenset("ab")),), "a")

    def test_overlap(self):
        with pytest.raises(InvalidWallError):
            WallsInstance(("a", "b"), ((frozenset("ab"), frozenset("b")),), "a")

    def test_not_covering(self):
        with pytest.raises(InvalidWallError):
            WallsInstance(("a", "b", "c"), ((frozenset("a"), frozenset("b")),), "a")

    def test_basepoint_exists(self):
        with pytest.raises(InvalidWallError):
            WallsInstance(("a", "b"), ((frozenset("a"), frozenset("b")),), "z")

    def test_mapping_must_be_bijection(self):
        with pytest.raises(InvalidWallError):
            WallsInstance(
                ("a", "b"),
                ((frozenset("a"), frozenset("b")),),
                "a",
                (Move("m", "b", (("a", "b"), ("b", "b"))),),
            )

    def test_mapping_image_consistent(self):
        with pytest.raises(InvalidWallError):
            WallsInstance(
                ("a", "b"),
                ((frozenset("a"), frozenset("b")),),
                "a",
                (Move("m", "a", (("a", "b"), ("b", "a"))),),
            )


class TestSeparation:
    def test_single_wall(self):
        inst = WallsInstance(("a", "b"), ((frozenset("a"), frozenset("b")),), "a")
        assert inst.separation("a", "b") == 1
        assert inst.separation("a", "a") == 0

    def test_duplicate_wall_counts_twice(self):
        wall = (frozenset("a"), frozenset("b"))
        inst = WallsInstance(("a", "b"), (wall, wall), "a")
        assert inst.separation("a", "b") == 2
        assert len(inst.half_space_set("a") ^ inst.half_space_set("b")) == 4

    def test_square(self):
        inst = square_instance()
        assert inst.separation("a", "c") == 2
        assert inst.separation("a", "b") == 1


class TestZipperTranslation:
    def test_trivial_move(self):
        inst = WallsInstance(
            ("a", "b"),
            ((frozenset("a"), frozenset("b")),),
            "a",
            (Move("stay", "a", (("a", "a"), ("b", "b"))),),
        )
        out = walls_to_zipper(inst)
        assert out.reports[0].symdiff_size == 0
        assert out.reports[0].sizes_match
        assert out.reports[0].preserves_walls
        assert out.ok()

    def test_factor_two_everywhere(self):
        out = walls_to_zipper(square_instance())
        for r in out.reports:
            assert r.symdiff_size == 2 * r.separating
        assert out.ok()

    def test_wall_breaking_move_flagged(self):
        inst = WallsInstance(
            ("a", "b", "c"),
            ((frozenset("a"), frozenset("bc")),),
            "a",
            (Move("bad", "b", (("a", "b"), ("b", "a"), ("c", "c"))),),
        )
        out = walls_to_zipper(inst)
        assert out.reports[0].preserves_walls is False
        assert not out.ok()

    def test_pair_moves_skip_the_check(self):
        out = walls_to_zipper(square_instance())
        assert out.reports[0].preserves_walls is None
        assert out.reports[1].preserves_walls is True


class TestIntegerLine:
    def test_shift_lengths(self):
        inst = integer_line_instance(10, max_shift=5)
        out = walls_to_zipper(inst)
        assert out.ok()
        by_name = {r.name: r for r in out.reports}
        for s in range(1, 6):
            r = by_name[f"shift+{s}"]
            assert r.separating == s
            assert r.symdiff_size == 2 * s

    def test_default_max_shift(self):
        inst = integer_line_instance(8)
        names = [m.name for m in inst.moves]
        assert names == ["stay", "shift+1", "shift+2", "shift+3", "shift+4"]

    def test_bad_parameters(self):
        with pytest.raises(UnsupportedStructureError, match="k must be >= 1"):
            integer_line_instance(0)
        with pytest.raises(UnsupportedStructureError, match="max_shift must be between 1 and k"):
            integer_line_instance(4, max_shift=9)


GOOD_WALLS = "points a b\nwall a | b\nbase a\n"

# every rejection in parse_walls_file: (text, message fragment, row or None)
BAD_WALLS_FILES = (
    ("points a b\npoints a b\nwall a | b\nbase a\n", "duplicate points line", 2),
    ("points\nbase a\n", "points line is empty", 1),
    ("points a b\nwall a b\nbase a\n", "wall line needs exactly one |", 2),
    ("points a b\nwall a | b | a\nbase a\n", "wall line needs exactly one |", 2),
    ("points a b\nwall | a b\nbase a\n", "wall side is empty", 2),
    (GOOD_WALLS + "base b\n", "duplicate base line", 4),
    ("points a b\nbase a b\n", "base line needs one point", 2),
    (GOOD_WALLS + "move\n", "move line needs a name", 4),
    (GOOD_WALLS + "pair\n", "pair line needs a name", 4),
    ("points a b\nblah\n", "unknown directive 'blah'", 2),
    ("wall a | b\nbase a\n", "missing points line", None),
    ("points a b\nwall a | b\n", "missing base line", None),
    (GOOD_WALLS + "pair hop a\n", "pair line needs: name, start, image", 4),
    (GOOD_WALLS + "pair hop b a\n", "pair 'hop' does not start at the basepoint", 4),
    (GOOD_WALLS + "move m a-b b->a\n", "bad mapping token 'a-b'", 4),
    (GOOD_WALLS + "move m a->b a->a\n", "point 'a' mapped twice", 4),
    (GOOD_WALLS + "move m b->a\n", "move 'm' does not map the basepoint", 4),
    ("points a b\nwall a | z\nbase a\n", "wall 0 does not cover the points", None),
)


class TestParser:
    @pytest.mark.parametrize("text, fragment, row", BAD_WALLS_FILES, ids=[c[1] for c in BAD_WALLS_FILES])
    def test_rejected(self, text, fragment, row):
        with pytest.raises(LiteralParseError, match=re.escape(fragment)) as err:
            parse_walls_file(text)
        assert err.value.row == row

    TEXT = """
# a tiny instance
points a b c d
wall a b | c d
wall a d | b c
base a
move spin a->b b->c c->d d->a
pair across a c
"""

    def test_round_trip(self):
        inst = parse_walls_file(self.TEXT)
        assert inst.points == ("a", "b", "c", "d")
        assert inst.basepoint == "a"
        assert len(inst.walls) == 2
        assert inst.moves[0].name == "spin"
        assert inst.moves[0].mapping is not None
        assert inst.moves[1] == Move("across", "c")

    def test_missing_base(self):
        with pytest.raises(LiteralParseError):
            parse_walls_file("points a b\nwall a | b\n")

    def test_duplicate_points_line(self):
        with pytest.raises(LiteralParseError):
            parse_walls_file("points a b\npoints a b\nwall a | b\nbase a\n")

    def test_wall_needs_separator(self):
        with pytest.raises(LiteralParseError) as err:
            parse_walls_file("points a b\nwall a b\nbase a\n")
        assert err.value.row == 2

    def test_pair_must_start_at_base(self):
        text = "points a b\nwall a | b\nbase a\npair m b a\n"
        with pytest.raises(LiteralParseError):
            parse_walls_file(text)

    def test_unknown_directive(self):
        with pytest.raises(LiteralParseError):
            parse_walls_file("points a b\nblah\n")

    def test_semantic_errors_surface_as_parse_errors(self):
        text = "points a b\nwall a | z\nbase a\n"
        with pytest.raises(LiteralParseError):
            parse_walls_file(text)
