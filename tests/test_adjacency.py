import random

import pytest

from polycontact import adjacency as adj
from polycontact.cylinder import lift
from polycontact.intervals import parse_intervals

TRIANGLE = adj.mk_space("abc", [("a", "b"), ("b", "c"), ("c", "a")])
PATH3 = adj.mk_space("abc", [("a", "b"), ("b", "c")])
STAR = adj.mk_space(["s", "x", "y", "z"], [("s", "x"), ("s", "y"), ("s", "z")])
K4 = adj.mk_space("abcd", [(x, y) for x in "abcd" for y in "abcd" if x < y])


def random_sparse_space(rng: random.Random, max_cells: int = 12,
                        extra_edges: int = 3) -> adj.AdjacencySpace:
    n = rng.randint(2, max_cells)
    cells = [f"c{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((cells[i], cells[rng.randrange(i)]))
    for _ in range(rng.randint(0, extra_edges)):
        a, b = rng.sample(cells, 2)
        edges.append((a, b))
    return adj.mk_space(cells, edges)


class TestMkSpace:
    def test_singleton(self):
        s = adj.mk_space(["a"], [])
        assert s.adjacent("a", "a") and s.cells == ("a",)

    def test_edge(self):
        s = adj.mk_space("ab", [("a", "b")])
        assert s.adjacent("a", "b") and s.adjacent("b", "a")

    def test_triangle(self):
        assert len(TRIANGLE.edges) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            adj.mk_space([], [])

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            adj.mk_space("ab", [("a", "z")])

    def test_loops_dropped(self):
        s = adj.mk_space("ab", [("a", "a"), ("a", "b")])
        assert len(s.edges) == 1 and s.adjacent("a", "a")


class TestCyclesAndConnectivity:
    def test_triangle(self):
        assert adj.is_connected(TRIANGLE)
        assert adj.simple_cycles(TRIANGLE) == [("a", "b", "c")]

    def test_path_acyclic(self):
        assert adj.is_connected(PATH3)
        assert adj.simple_cycles(PATH3) == []
        assert adj.is_acyclic(PATH3)

    def test_disconnected(self):
        s = adj.mk_space("ab", [])
        assert not adj.is_connected(s)

    def test_k4_cycle_count(self):
        # four triangles plus three 4-cycles
        assert len(adj.simple_cycles(K4)) == 7

    def test_cycle_canonical_form_unique(self):
        rng = random.Random(3)
        for _ in range(30):
            s = random_sparse_space(rng, max_cells=8)
            cycles = adj.simple_cycles(s)
            assert len(cycles) == len(set(cycles))
            for cyc in cycles:
                assert cyc[0] == min(cyc)
                assert cyc[1] < cyc[-1]
                for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                    assert s.adjacent(u, v) and u != v


class TestBreakCycle:
    def test_triangle_break(self):
        broken = adj.break_cycle(TRIANGLE, ("a", "b", "c"), "a", "b")
        assert set(broken.cells) == {"a", "a'", "b", "c"}
        assert adj.is_acyclic(broken) and adj.is_connected(broken)
        assert broken.adjacent("a'", "b") and not broken.adjacent("a", "b")
        assert broken.neighbours("a'") == ("b",)

    def test_cycle_count_strictly_decreases(self):
        rng = random.Random(4)
        for _ in range(25):
            s = random_sparse_space(rng, max_cells=9, extra_edges=3)
            count = len(adj.simple_cycles(s))
            while count:
                cycles = adj.simple_cycles(s)
                cyc = cycles[0]
                a = min(cyc)
                i = cyc.index(a)
                b = min(cyc[i - 1], cyc[(i + 1) % len(cyc)])
                s = adj.break_cycle(s, cyc, a, b)
                new_count = len(adj.simple_cycles(s))
                assert new_count < count
                assert adj.is_connected(s)
                count = new_count

    def test_invalid_choices(self):
        with pytest.raises(ValueError):
            adj.break_cycle(TRIANGLE, ("a", "b", "c"), "z", "b")
        with pytest.raises(ValueError):
            adj.break_cycle(K4, ("a", "b", "c", "d"), "a", "c")


class TestPMorphism:
    def test_identity(self):
        ident = adj.PMorphism.of({x: x for x in TRIANGLE.cells})
        assert adj.check_pmorphism(ident, TRIANGLE, TRIANGLE)

    def test_collapse_to_point(self):
        single = adj.mk_space(["o"], [])
        const = adj.PMorphism.of({x: "o" for x in TRIANGLE.cells})
        assert adj.check_pmorphism(const, TRIANGLE, single)

    def test_edge_lifting_fails(self):
        # map a path onto an edge so that one target edge has no preimage edge
        path = adj.mk_space(["a", "b", "c"], [("a", "b")])  # c isolated
        target = adj.mk_space("xy", [("x", "y")])
        f = adj.PMorphism.of({"a": "x", "b": "x", "c": "y"})
        assert not adj.check_pmorphism(f, path, target)

    def test_not_surjective(self):
        target = adj.mk_space("xy", [("x", "y")])
        f = adj.PMorphism.of({x: "x" for x in TRIANGLE.cells})
        assert not adj.check_pmorphism(f, TRIANGLE, target)


class TestUntie:
    def test_acyclic_fixpoint(self):
        untied, collapse = adj.untie(PATH3)
        assert untied == PATH3
        assert collapse.mapping == {x: x for x in PATH3.cells}

    def test_triangle(self):
        untied, collapse = adj.untie(TRIANGLE)
        assert len(untied.cells) == 4 and adj.is_acyclic(untied)
        assert adj.is_connected(untied)
        assert collapse.mapping["a'"] == "a"
        assert adj.check_pmorphism(collapse, untied, TRIANGLE)

    def test_k4(self):
        untied, collapse = adj.untie(K4)
        assert adj.is_acyclic(untied) and adj.is_connected(untied)
        assert adj.check_pmorphism(collapse, untied, K4)

    def test_shortest_cycle_broken_first(self, monkeypatch):
        # the triangle b-e-f goes before the lexicographically smaller
        # square a-b-c-d: shortest cycle first, then the least
        space = adj.mk_space("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                                        ("b", "e"), ("e", "f"), ("f", "b")])
        assert adj.simple_cycles(space) == [("b", "e", "f"), ("a", "b", "c", "d")]
        broken, break_cycle = [], adj.break_cycle

        def logged(current, cycle, a, b):
            broken.append((cycle, a, b))
            return break_cycle(current, cycle, a, b)

        monkeypatch.setattr(adj, "break_cycle", logged)
        untied, collapse = adj.untie(space)
        assert broken == [(("b", "e", "f"), "b", "e"), (("a", "b", "c", "d"), "a", "b")]
        assert adj.is_acyclic(untied) and adj.check_pmorphism(collapse, untied, space)
        assert collapse.mapping["b'"] == "b" and collapse.mapping["a'"] == "a"

    def test_random(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_sparse_space(rng)
            untied, collapse = adj.untie(s)
            assert adj.is_acyclic(untied) and adj.is_connected(untied)
            assert adj.check_pmorphism(collapse, untied, s)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            adj.untie(adj.mk_space("ab", []))


class TestLevelsAndNumeration:
    def test_path_levels(self):
        assert adj.alpha_levels(PATH3, "a") == [("a",), ("b",), ("c",)]
        num = adj.numeration(PATH3, "a")
        assert num.order == ("a", "b", "c")

    def test_star_levels(self):
        assert adj.alpha_levels(STAR, "s") == [("s",), ("x", "y", "z")]

    def test_levels_partition(self):
        rng = random.Random(6)
        for _ in range(20):
            s = random_sparse_space(rng, extra_edges=0)
            root = min(s.cells)
            levels = adj.alpha_levels(s, root)
            flat = [x for level in levels for x in level]
            assert sorted(flat) == list(s.cells)

    def test_unique_parent(self):
        rng = random.Random(7)
        for _ in range(30):
            s = random_sparse_space(rng, max_cells=10, extra_edges=0)
            root = min(s.cells)
            num = adj.numeration(s, root)
            numbering = num.numbering()
            for cell in s.cells:
                if cell == root:
                    continue
                below = [y for y in s.neighbours(cell)
                         if numbering[y] < numbering[cell]]
                assert len(below) == 1
                assert adj.unique_parent(s, num, cell) == below[0]

    def test_cyclic_rejected(self):
        with pytest.raises(ValueError):
            adj.alpha_levels(TRIANGLE, "a")
        with pytest.raises(ValueError):
            adj.numeration(TRIANGLE, "a")


class TestArrangement:
    def test_two_cells(self):
        s = adj.mk_space("ab", [("a", "b")])
        assert adj.arrangement(s, adj.numeration(s, "a")) == ("a", "b", "a")

    def test_path(self):
        walk = adj.arrangement(PATH3, adj.numeration(PATH3, "a"))
        assert walk == ("a", "b", "c", "b", "a")

    def test_star(self):
        walk = adj.arrangement(STAR, adj.numeration(STAR, "s"))
        assert walk == ("s", "z", "s", "y", "s", "x", "s")

    def test_characterises_adjacency(self):
        rng = random.Random(8)
        for _ in range(30):
            s = random_sparse_space(rng, max_cells=9, extra_edges=0)
            root = min(s.cells)
            walk = adj.arrangement(s, adj.numeration(s, root))
            assert len(walk) == 2 * len(s.cells) - 1
            assert walk[0] == walk[-1] == root
            assert set(walk) == set(s.cells)
            consecutive = {frozenset(p) for p in zip(walk, walk[1:])}
            for x in s.cells:
                for y in s.cells:
                    if x != y:
                        assert s.adjacent(x, y) == (frozenset((x, y)) in consecutive)


class TestProjection:
    def test_two_cells(self):
        s = adj.mk_space("ab", [("a", "b")])
        images = adj.project(s, ("a", "b", "a"), 1)
        assert images["a"].base == parse_intervals("(-inf,1]; [2,inf)")
        assert images["b"].base == parse_intervals("[1,2]")
        assert images["a"].contact_sc(images["b"])

    def test_singleton(self):
        s = adj.mk_space(["a"], [])
        images = adj.project(s, ("a",), 1)
        assert images["a"].is_all()

    def test_path_non_adjacent_not_in_contact(self):
        walk = adj.arrangement(PATH3, adj.numeration(PATH3, "a"))
        images = adj.project(PATH3, walk, 1)
        assert not images["a"].contact_sc(images["c"])
        assert images["a"].contact_sc(images["b"])

    def test_images_partition_line(self):
        rng = random.Random(9)
        for _ in range(20):
            s = random_sparse_space(rng, max_cells=8, extra_edges=0)
            root = min(s.cells)
            walk = adj.arrangement(s, adj.numeration(s, root))
            images = adj.project(s, walk, 1)
            total = None
            for img in images.values():
                total = img if total is None else total.union(img)
                # boundaries are integers only
                for lo, hi in img.base.pieces:
                    assert lo is None or lo.denominator == 1
                    assert hi is None or hi.denominator == 1
            assert total.is_all()

    @pytest.mark.parametrize("edits,message", [
        ({"c": "empty"}, "projection images do not cover the line"),
        ({"b": "[1,4]"}, "projection images of 'b' and 'c' overlap"),
        ({"b": "[1,2]", "c": "[2,4]"},
         "adjacency of ('a', 'c') disagrees with image contact"),
    ], ids=["cover", "overlap", "contact"])
    def test_self_check_failures(self, edits, message):
        # the walk a b c b a gives a (-inf,1]; [4,inf), b [1,2]; [3,4] and
        # c [2,3]; each edit breaks one property of the images, and no
        # pair before the one named breaks another
        images = adj.project(PATH3, ("a", "b", "c", "b", "a"), 1)
        images.update({x: lift(parse_intervals(text), 1) for x, text in edits.items()})
        with pytest.raises(adj.ProjectionError) as raised:
            adj._check_projection(PATH3, images)
        assert str(raised.value) == message

    def test_bad_walk_rejected(self):
        s = adj.mk_space("ab", [("a", "b")])
        with pytest.raises(ValueError):
            adj.project(s, ("a", "b"), 1)  # wrong length
        with pytest.raises(ValueError):
            adj.project(s, ("a", "b", "b"), 1)  # does not return to the root
        with pytest.raises(ValueError):
            adj.project(s, ("a", "b", "a"), 0)  # bad dimension

    def test_other_root_accepted(self):
        s = adj.mk_space("ab", [("a", "b")])
        images = adj.project(s, ("b", "a", "b"), 2)
        assert images["b"].base == parse_intervals("(-inf,1]; [2,inf)")


class TestTextAndDot:
    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(30):
            s = random_sparse_space(rng)
            assert adj.parse_space(adj.format_space(s)) == s

    def test_parse_example(self):
        s = adj.parse_space("space { cells a b c; edges a-b b-c; }")
        assert s == PATH3

    def test_primes_in_names(self):
        untied, _ = adj.untie(TRIANGLE)
        assert adj.parse_space(adj.format_space(untied)) == untied

    def test_errors(self):
        with pytest.raises(adj.SpaceFormatError):
            adj.parse_space("graph { }")
        with pytest.raises(adj.SpaceFormatError):
            adj.parse_space("space { cells a; edges ab; }")

    def test_dot(self):
        dot = adj.to_dot(PATH3)
        assert dot.startswith("graph") and '"a" -- "b";' in dot
