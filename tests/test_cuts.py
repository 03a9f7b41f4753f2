import ast
import copy
import inspect
import pickle
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycontact import cuts as cu
from polycontact import plane as pl
from polycontact.algebra import FiniteContactAlgebra, PlaneAlgebra, audit_axioms
from polycontact.numeric import HalfSpace, Hyperplane
from helpers import (
    cut_system, demorgan_equals, eager_sheet, exhaustive_faces, face_constraints, face_point,
    flank_faces, polytope_faces, reference_boundary_representation, reference_sheet_points,
    reference_walk_boundary_representation, vertices)

X_AXIS = Hyperplane((F(0), F(1)), F(0))
Y_AXIS = Hyperplane((F(1), F(0)), F(0))
X_ONE = Hyperplane((F(1), F(0)), F(1))

Q1 = pl.PlanePolytope.from_constraint_sets(
    [[HalfSpace((F(-1), F(0)), F(0)), HalfSpace((F(0), F(-1)), F(0))]])


class TestBricks:
    """The bricks of a cut system are the open faces of its arrangement,
    named by their sign vectors (``plane.faces``)."""

    def test_axes_give_four_quadrants(self):
        assert len(pl.faces(cut_system([X_AXIS, Y_AXIS]))) == 4

    def test_parallel_cuts_give_three_slabs(self):
        assert len(pl.faces(cut_system([Y_AXIS, X_ONE]))) == 3

    def test_cores_pairwise_disjoint(self):
        rng = random.Random(14)
        for _ in range(20):
            lines = []
            for _ in range(rng.randint(1, 4)):
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                if not (a or b):
                    a = 1
                lines.append(Hyperplane((F(a), F(b)), F(rng.randint(-3, 3))))
            cuts = cut_system(lines)
            for f1, f2 in combinations(sorted(pl.faces(cuts)), 2):
                combined = [(*h.integer_form, True)
                            for h in face_constraints(cuts, f1) + face_constraints(cuts, f2)]
                assert pl.feasible_ints(combined) is None

    def test_no_cuts_leave_one_face(self):
        assert pl.faces(()) == exhaustive_faces(()) == {0}

    def test_parabola_tangents_give_211_faces(self):
        # tangents y = a*x - a^2 of a parabola: no two parallel, no three
        # concurrent, so 20 lines cut the plane into 1 + 20 + 190 faces
        cuts = cut_system(Hyperplane((F(-a), F(1)), F(-a * a)) for a in range(20))
        faces = pl.faces(cuts)
        assert len(faces) == 211
        assert all(face_point(cuts, face) is not None for face in faces)

    def test_pencil_crossed_by_parallels_gives_18_faces(self):
        # a pencil of three lines through the origin (6 faces), crossed at
        # three points each by three parallel lines (4 more faces each)
        parallel = [Hyperplane((F(1), F(0)), F(c)) for c in (-1, 1, 2)]
        pencil = [X_AXIS, Hyperplane((F(1), F(1)), F(0)), Hyperplane((F(1), F(-1)), F(0))]
        cuts = cut_system(parallel + pencil)
        assert len(pl.faces(cuts)) == 18
        assert pl.faces(cuts) == exhaustive_faces(cuts)


def test_equals_and_boundary_make_no_fourier_motzkin_call(monkeypatch):
    rng = random.Random(41)
    polys = [pl.random_plane_polytope(rng, max_parts=3, bounded=b) for b in (False, True) * 4]
    polys += [p.complement().complement() for p in polys[:4]] + [pl.EMPTY, pl.R2, Q1]
    expected = [demorgan_equals(p, q) for p in polys for q in polys]
    calls = []

    def counted(cons):
        calls.append(cons)
        return kernel(cons)

    # every Fourier-Motzkin test runs through the integer kernel
    kernel = pl.feasible_ints
    monkeypatch.setattr(pl, "feasible_ints", counted)
    assert [p.equals(q) for p in polys for q in polys] == expected
    for p in polys:
        cu.boundary_representation(p, extra_cuts=[X_AXIS, Y_AXIS])
    assert calls == []
    # the counter is live: the overlap search still runs Fourier-Motzkin
    Q1.overlap(Q1)
    assert calls


def test_cuts_imports_no_private_plane_name():
    tree = ast.parse(inspect.getsource(cu))
    assert not [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "plane" for a in node.names if a.name.startswith("_")]


class TestSheets:
    def test_axes_sheets(self):
        sheets = cu.sheets(cut_system([X_AXIS, Y_AXIS]))
        # each axis splits at the origin into two open rays
        assert len(sheets) == 4
        assert all((s.lo is None) != (s.hi is None) for s in sheets)

    def test_uncrossed_cut_is_one_sheet(self):
        sheets = cu.sheets(cut_system([X_AXIS]))
        assert len(sheets) == 1 and sheets[0].lo is None and sheets[0].hi is None

    def test_sheet_in_boundary_of_both_flanks(self):
        cuts = cut_system([X_AXIS, Y_AXIS, X_ONE])
        faces = pl.faces(cuts)
        for sheet in cu.sheets(cuts):
            flanks = flank_faces(sheet, cuts)
            assert set(flanks) <= faces
            for face in flanks:
                constraints = face_constraints(cuts, face)
                for point in cu.sheet_points(sheet):
                    assert all(h.value_at(point) <= 0 for h in constraints)
                    assert not all(h.value_at(point) < 0 for h in constraints)

    def test_sheets_avoid_vertices(self):
        cuts = cut_system([X_AXIS, Y_AXIS, X_ONE])
        crossings = set(vertices(cuts))
        for sheet in cu.sheets(cuts):
            for point in cu.sheet_points(sheet):
                assert point not in crossings


class TestBoundaryRepresentation:
    def test_quadrant(self):
        rep = cu.boundary_representation(Q1, extra_cuts=[X_AXIS, Y_AXIS])
        # boundary sheets: the two positive half-axes
        assert len(rep.boundary_sheets) == 2
        for sheet in rep.boundary_sheets:
            for point in cu.sheet_points(sheet):
                assert point[0] > 0 or point[1] > 0
                assert point[0] >= 0 and point[1] >= 0
        assert rep.corner_points == ((F(0), F(0)),)

    def test_negative_axis_sheet_disjoint_from_quadrant(self):
        rep = cu.boundary_representation(Q1)
        for sheet in cu.sheets(rep.cuts):
            on_boundary = sheet in rep.boundary_sheets
            for point in cu.sheet_points(sheet):
                assert pl.point_on_boundary(Q1, point) == on_boundary
                if not on_boundary:
                    assert not Q1.contains(point)

    def test_half_plane_with_extra_cut(self):
        upper = pl.PlanePolytope.from_constraint_sets(
            [[HalfSpace((F(0), F(-1)), F(0))]])
        rep = cu.boundary_representation(upper, extra_cuts=[Y_AXIS])
        # both x-axis sheets are boundary (flanking faces on opposite sides)
        on_x_axis = [s for s in rep.boundary_sheets if s.carrier == X_AXIS]
        assert len(on_x_axis) == 2
        assert all(s.carrier == X_AXIS for s in rep.boundary_sheets)

    def test_degenerate_inputs(self):
        assert cu.boundary_representation(pl.EMPTY).boundary_sheets == ()
        assert cu.boundary_representation(pl.R2).corner_points == ()

    def test_entirety_dichotomy_random(self):
        # a sheet is never split: it lies wholly in the boundary, wholly in
        # the interior, or misses the polytope, according to how many of
        # its flanking faces the polytope fills (2, 1, or 0)
        rng = random.Random(25)
        for _ in range(10):
            poly = pl.random_plane_polytope(rng, max_parts=2, max_cons=3,
                                            span=3, max_den=2)
            if poly.is_empty() or poly.equals(pl.R2):
                continue
            cuts = tuple(poly.constraint_lines())
            filled = polytope_faces(poly, cuts)
            for sheet in cu.sheets(cuts):
                inside = sum(face in filled for face in flank_faces(sheet, cuts))
                expected = {2: "interior", 1: "boundary", 0: "outside"}[inside]
                for pt in cu.sheet_points(sheet):
                    if pl.point_in_interior(poly, pt):
                        kind = "interior"
                    elif poly.contains(pt):
                        kind = "boundary"
                    else:
                        kind = "outside"
                    assert kind == expected

    def test_boundary_equals_sheets_plus_corners(self):
        rng = random.Random(33)
        for _ in range(8):
            poly = pl.random_plane_polytope(rng, max_parts=2, max_cons=3,
                                            span=3, max_den=2)
            if poly.is_empty() or poly.equals(pl.R2):
                continue
            rep = cu.boundary_representation(poly)
            in_s = set(rep.boundary_sheets)
            for sheet in cu.sheets(rep.cuts):
                for pt in cu.sheet_points(sheet):
                    assert pl.point_on_boundary(poly, pt) == (sheet in in_s)
            corners = set(rep.corner_points)
            for v in vertices(rep.cuts):
                assert pl.point_on_boundary(poly, v) == (v in corners)


def random_line(rng):
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return Hyperplane((F(a), F(b)), F(rng.randint(-6, 6), rng.randint(1, 3)))


def polytope_with_cuts(rng):
    """A union of 1-3 parts over 3-8 distinct random lines, with 3 or more
    of them as constraint lines, and the lines it leaves out."""
    while True:
        lines = list(dict.fromkeys(random_line(rng) for _ in range(rng.randint(3, 8))))
        sets = []
        for _ in range(rng.randint(1, 3)):
            chosen = rng.sample(lines, min(len(lines), rng.randint(2, 4)))
            sets.append([rng.choice(line.sides()) for line in chosen])
        poly = pl.PlanePolytope.from_constraint_sets(sets)
        used = poly.constraint_lines()
        if len(used) >= 3:
            return poly, [line for line in lines if line not in used]


def test_boundary_path_matches_fraction_references():
    # the integer boundary path against the Fraction one it replaced, on
    # seeded polytopes whose cut systems have 3-8 cuts
    rng = random.Random(17)
    compared = 0
    for _ in range(60):
        poly, unused = polytope_with_cuts(rng)
        for extra in ([], unused, unused[::-1] + poly.constraint_lines()[:2]):
            rep = cu.boundary_representation(poly, extra)
            assert 3 <= len(rep.cuts) <= 8
            assert rep.cuts == cut_system(list(poly.constraint_lines()) + extra)
            assert rep == reference_walk_boundary_representation(poly, extra)
            assert rep == reference_boundary_representation(poly, extra)
            assert all(type(v) is F for corner in rep.corner_points for v in corner)
            for sheet in rep.boundary_sheets + cu.sheets(rep.cuts):
                for count in (1, 3, 4):
                    points = cu.sheet_points(sheet, count)
                    assert points == reference_sheet_points(sheet, count)
                    assert all(type(v) is F for point in points for v in point)
            compared += len(rep.corner_points)
    assert compared > 500


def assert_sheets_are_eager_records(cuts, sheets, edges):
    """Each sheet compares, hashes and prints as the eager record of its
    edge, and two sheets are equal exactly when their records are."""
    records = [eager_sheet(cuts, *edge) for edge in edges]
    for sheet, record in zip(sheets, records, strict=True):
        assert repr(sheet) == "Sheet" + repr(record)[len("EagerSheet"):]
        assert hash(sheet) == hash(record)
        assert (sheet.carrier, sheet.lo, sheet.hi, sheet.rep, sheet.other_signs) == (
            record.carrier, record.lo, record.hi, record.rep, record.other_signs)
    return records


def test_sheets_compare_hash_and_repr_as_eager_records():
    # the sheets of one system, of an equal system built apart, of the
    # system with one more cut, of its cuts with the first moved last
    # (whose sheets on that cut equal the first system's), and a
    # polytope's boundary sheets
    rng = random.Random(23)
    for _ in range(25):
        poly, unused = polytope_with_cuts(rng)
        cuts = tuple(poly.constraint_lines())
        same = cut_system(cuts)
        wider = cut_system(cuts + tuple(unused[:1]))
        moved = cuts[1:] + cuts[:1]
        assert same is not cuts
        sheets, records = [], []
        for system in (cuts, same, wider, moved):
            got = cu.sheets(system)
            sheets += got
            records += assert_sheets_are_eager_records(
                system, got, pl.arrangement_edges(system))
        rep = cu.boundary_representation(poly)
        index = {cut: j for j, cut in enumerate(cuts)}
        masks = pl.sign_masks(poly, index)
        boundary = [(mu, *ends, above) for mu, *ends, above in pl.arrangement_edges(cuts)
                    if pl.fills(masks, above | 1 << index[mu]) != pl.fills(masks, above)]
        sheets += rep.boundary_sheets
        records += assert_sheets_are_eager_records(cuts, rep.boundary_sheets, boundary)
        for s, r in zip(sheets, records):
            assert [s == t for t in sheets] == [r == u for u in records]
        assert len(set(sheets)) == len(set(records))


def test_boundary_representation_builds_no_edge_point(monkeypatch):
    # a sheet's rep is derived on first read, and nothing on the boundary
    # path reads it; the comparison reads it, after edge_point is restored
    def refuse(*edge):
        raise AssertionError("edge_point called")

    rng = random.Random(19)
    cases = [polytope_with_cuts(rng) for _ in range(30)]
    with monkeypatch.context() as patched:
        patched.setattr(pl, "edge_point", refuse)
        patched.setattr(cu, "edge_point", refuse)
        reps = [cu.boundary_representation(poly, extra)
                for poly, unused in cases for extra in ([], unused)]
    expected = [(poly, extra) for poly, unused in cases for extra in ([], unused)]
    for rep, (poly, extra) in zip(reps, expected, strict=True):
        assert rep == reference_walk_boundary_representation(poly, extra)
        assert rep == reference_boundary_representation(poly, extra)


def test_unread_sheets_copy_and_pickle_with_their_fields():
    # a copy of a sheet none of whose lazy fields was read derives them
    # as the original does
    rng = random.Random(29)
    for _ in range(10):
        poly, _ = polytope_with_cuts(rng)
        cuts = tuple(poly.constraint_lines())
        for make in (copy.copy, copy.deepcopy,
                     lambda s: pickle.loads(pickle.dumps(s))):
            unread = cu.sheets(cuts)
            copies = [make(sheet) for sheet in unread]
            for sheet, twin in zip(cu.sheets(cuts), copies, strict=True):
                assert (twin.carrier, twin.lo, twin.hi, twin.rep, twin.other_signs) == (
                    sheet.carrier, sheet.lo, sheet.hi, sheet.rep, sheet.other_signs)
                assert twin == sheet and hash(twin) == hash(sheet)
                assert repr(twin) == repr(sheet)


triples = st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                    st.integers(-12, 12).filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.lists(triples, max_size=12))
def test_sorted_corners_equal_fraction_sort(points):
    got = cu.sorted_corners(points)
    assert got == tuple(sorted((F(x, d), F(y, d)) for x, y, d in points))
    assert all(type(v) is F for point in got for v in point)


def sheet_graph(cuts):
    """The bricks of a cut system, as the half-planes of each face, and the
    contact algebra of its sheet graph: one cell per brick, two bricks in
    contact when they are equal or flank a common sheet.  The faces are in
    ``itertools.product((1, -1), ...)`` order of their signs, the order
    of the Fourier-Motzkin enumeration of the alternatives."""
    faces = sorted(pl.faces(cuts), key=lambda face: [face >> j & 1 for j in range(len(cuts))])
    index = {face: i for i, face in enumerate(faces)}
    succ = [1 << i for i in range(len(faces))]
    for sheet in cu.sheets(cuts):
        i, j = (index[face] for face in flank_faces(sheet, cuts))
        succ[i] |= 1 << j
        succ[j] |= 1 << i
    bricks = [face_constraints(cuts, face) for face in faces]
    return bricks, FiniteContactAlgebra([str(face) for face in faces], succ)


def brick_union(bricks, mask):
    """The union of the bricks whose bits are set in the mask."""
    return pl.PlanePolytope.from_constraint_sets(
        brick for i, brick in enumerate(bricks) if mask >> i & 1)


def brick_unions(bricks):
    """The union of the bricks of each bitmask, indexed by the mask."""
    return [brick_union(bricks, mask) for mask in range(1 << len(bricks))]


class TestSheetGraph:
    """On the unions of the bricks of a cut system, strong contact is the
    contact of the sheet graph: exhaustively, on every pair of unions."""

    # name -> (cuts, number of bricks)
    SYSTEMS = {
        "two-cuts": ([X_AXIS, Y_AXIS], 4),
        "three-parallel": ([Hyperplane((F(1), F(0)), F(c)) for c in (-1, 0, 1)], 4),
        "three-concurrent": ([X_AXIS, Y_AXIS, Hyperplane((F(1), F(-1)), F(0))], 6),
    }

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_contact_sc_is_sheet_graph_contact(self, name):
        cuts, count = self.SYSTEMS[name]
        bricks, graph = sheet_graph(cut_system(cuts))
        assert len(bricks) == count
        unions = brick_unions(bricks)
        mismatches = [(a, b) for a in range(len(unions)) for b in range(len(unions))
                      if pl.contact_sc(unions[a], unions[b]) != graph.contact(a, b)]
        assert mismatches == []

    def test_two_cut_subalgebra_passes_exhaustive_audit(self):
        cuts, _ = self.SYSTEMS["two-cuts"]
        algebra = PlaneAlgebra()
        unions = brick_unions(sheet_graph(cut_system(cuts))[0])
        algebra.elements = lambda: unions
        report = audit_axioms(algebra)
        assert len(unions) == 16 and report.passed, report.text()


small_lines = st.builds(
    lambda n, c: Hyperplane((F(n[0]), F(n[1])), F(c)),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda n: n != (0, 0)),
    st.integers(-3, 3))

# sampled pairs per cut system; with 60 systems about 3 s in all
PAIRS_PER_SYSTEM = 40


@settings(max_examples=60, deadline=None)
@given(st.lists(small_lines, min_size=3, max_size=5, unique=True),
       st.randoms(use_true_random=False))
def test_contact_sc_is_sheet_graph_contact_on_random_systems(cuts, rng):
    # strong contact on sampled pairs of brick unions of a random 3-5-cut
    # system; half the pairs are disjoint, so their verdict is a facet or none
    bricks, graph = sheet_graph(cut_system(cuts))
    full = (1 << len(bricks)) - 1
    for i in range(PAIRS_PER_SYSTEM):
        a = rng.randint(0, full)
        b = rng.randint(0, full) & (~a if i % 2 else full)
        p, q = brick_union(bricks, a), brick_union(bricks, b)
        assert pl.contact_sc(p, q) == graph.contact(a, b), (a, b)
