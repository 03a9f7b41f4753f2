import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycontact import plane as pl
from polycontact.numeric import HalfSpace
from helpers import (
    SC_PAIR_KINDS, facet_pair_sc, mirrored, reference_feasible_point, reference_fm_mk_basic,
    reference_mk_basic, reference_sc_witness, reference_sign_masks, reference_solve_1d, sc_pair,
    witness_point)
from sc_oracle import OracleInfeasible, plane_sc_oracle

P = pl.parse_plane
UNIT_SQUARE = P("poly { basic { 1 0 <= 1; -1 0 <= 0; 0 1 <= 1; 0 -1 <= 0 } }")
RIGHT_SQUARE = P("poly { basic { 1 0 <= 2; -1 0 <= -1; 0 1 <= 1; 0 -1 <= 0 } }")
Q1 = P("poly { basic { -1 0 <= 0; 0 -1 <= 0 } }")
Q3 = P("poly { basic { 1 0 <= 0; 0 1 <= 0 } }")


def hs(a, b, c):
    return HalfSpace((F(a), F(b)), F(c))


class TestMkBasic:
    def test_unit_square(self):
        basic = pl.mk_basic([hs(1, 0, 1), hs(-1, 0, 0), hs(0, 1, 1), hs(0, -1, 0)])
        assert basic is not None and len(basic.constraints) == 4

    def test_infeasible(self):
        assert pl.mk_basic([hs(1, 0, 0), hs(-1, 0, -1)]) is None

    def test_line_has_empty_interior(self):
        assert pl.mk_basic([hs(1, 0, 0), hs(-1, 0, 0)]) is None

    def test_redundant_constraints_dropped(self):
        basic = pl.mk_basic([hs(1, 0, 1), hs(-1, 0, 0), hs(0, 1, 1), hs(0, -1, 0),
                             hs(1, 0, 5), hs(1, 1, 10)])
        assert basic is not None and len(basic.constraints) == 4

    def test_no_constraints_is_whole_plane(self):
        basic = pl.mk_basic([])
        assert basic is not None and basic.constraints == ()


class TestBooleanOps:
    def test_complement_partition(self):
        comp = UNIT_SQUARE.complement()
        assert UNIT_SQUARE.union(comp).equals(pl.R2)
        assert UNIT_SQUARE.reg_meet(comp).is_empty()

    def test_complement_empty(self):
        assert pl.EMPTY.complement().equals(pl.R2)
        assert pl.R2.complement().is_empty()

    def test_complement_halfplane_is_flip(self):
        half = pl.PlanePolytope.from_constraint_sets([[hs(1, 2, 3)]])
        comp = half.complement()
        assert len(comp.parts) == 1
        assert comp.parts[0].constraints == (pl.flip(hs(1, 2, 3)),)

    def test_double_complement_is_identity(self):
        rng = random.Random(8)
        for _ in range(25):
            p = pl.random_plane_polytope(rng, max_parts=2, max_cons=3)
            assert p.complement().complement().equals(p)

    def test_reg_meet_vertical_angles_empty(self):
        assert Q1.reg_meet(Q3).is_empty()

    def test_reg_meet_shifted_squares(self):
        # overlap of the unit square and its (1/2, 0) translate
        shifted = P("poly { basic { 1 0 <= 3/2; -1 0 <= -1/2; 0 1 <= 1; 0 -1 <= 0 } }")
        meet = UNIT_SQUARE.reg_meet(shifted)
        expected = P("poly { basic { 1 0 <= 1; -1 0 <= -1/2; 0 1 <= 1; 0 -1 <= 0 } }")
        assert meet.equals(expected)
        # membership spot checks on a coarse grid
        for x in (F(1, 4), F(3, 4), F(9, 8)):
            for y in (F(1, 4), F(3, 4)):
                inside = F(1, 2) <= x <= 1 and 0 <= y <= 1
                assert meet.contains((x, y)) == inside

    def test_union_part_order_irrelevant(self):
        u1, u2 = Q1.union(Q3), Q3.union(Q1)
        assert len(u1.parts) == 2 and u1.equals(u2)

    def test_equals_ignores_redundancy(self):
        redundant = P("poly { basic { 1 0 <= 1; -1 0 <= 0; 0 1 <= 1; 0 -1 <= 0; "
                      "1 1 <= 9; 0 1 <= 2 } }")
        assert UNIT_SQUARE.equals(redundant)

    def test_is_empty(self):
        assert pl.EMPTY.is_empty()
        assert Q1.reg_meet(Q3).is_empty()
        assert not Q1.is_empty()


class TestContact:
    def test_vertical_angles(self):
        assert pl.contact_c(Q1, Q3)
        assert not pl.contact_sc(Q1, Q3)
        assert not pl.overlap(Q1, Q3)
        assert pl.sc_witness(Q1, Q3) is None

    def test_shared_edge_squares(self):
        # brute-force membership of the shared point
        assert UNIT_SQUARE.contains((F(1), F(1, 2)))
        assert RIGHT_SQUARE.contains((F(1), F(1, 2)))
        assert pl.contact_c(UNIT_SQUARE, RIGHT_SQUARE)
        assert pl.contact_sc(UNIT_SQUARE, RIGHT_SQUARE)
        assert not pl.overlap(UNIT_SQUARE, RIGHT_SQUARE)

    def test_disjoint_squares(self):
        far = P("poly { basic { 1 0 <= 5; -1 0 <= -4; 0 1 <= 1; 0 -1 <= 0 } }")
        assert not pl.contact_c(UNIT_SQUARE, far)
        assert not pl.contact_sc(UNIT_SQUARE, far)

    def test_overlapping_squares(self):
        shifted = P("poly { basic { 1 0 <= 3/2; -1 0 <= -1/2; 0 1 <= 1; 0 -1 <= 0 } }")
        assert pl.overlap(UNIT_SQUARE, shifted)
        assert pl.contact_sc(UNIT_SQUARE, shifted)

    def test_empty_never_in_contact(self):
        assert not pl.contact_sc(pl.EMPTY, Q1)
        assert not pl.contact_c(pl.EMPTY, Q1)


class TestScWitness:
    def test_shared_edge_witness_valid(self):
        w = pl.sc_witness(UNIT_SQUARE, RIGHT_SQUARE)
        assert w is not None
        centre, radius = w
        assert pl.sc_witness_valid(UNIT_SQUARE, RIGHT_SQUARE, centre, radius)
        # the witness disk sits on the shared edge x=1
        assert centre[0] == 1

    def test_overlap_witness_inside_meet(self):
        shifted = P("poly { basic { 1 0 <= 3/2; -1 0 <= -1/2; 0 1 <= 1; 0 -1 <= 0 } }")
        centre, radius = pl.sc_witness(UNIT_SQUARE, shifted)
        meet = UNIT_SQUARE.reg_meet(shifted)
        assert meet.contains(centre)
        assert pl.sc_witness_valid(UNIT_SQUARE, shifted, centre, radius)

    def test_random_witnesses_validate(self):
        rng = random.Random(21)
        produced = 0
        while produced < 30:
            a = pl.random_plane_polytope(rng, max_parts=2, max_cons=3)
            b = pl.random_plane_polytope(rng, max_parts=2, max_cons=3)
            w = pl.sc_witness(a, b)
            assert (w is not None) == pl.contact_sc(a, b)
            if w is not None:
                assert pl.sc_witness_valid(a, b, *w)
                produced += 1


class TestStrengthAndConnectedness:
    def test_downward_and_upward_strength(self):
        rng = random.Random(4)
        for _ in range(40):
            a = pl.random_plane_polytope(rng, max_parts=2, max_cons=3)
            b = pl.random_plane_polytope(rng, max_parts=2, max_cons=3)
            if pl.overlap(a, b):
                assert pl.contact_sc(a, b)
            if pl.contact_sc(a, b):
                assert pl.contact_c(a, b)

    def test_connected(self):
        rng = random.Random(6)
        for _ in range(25):
            p = pl.random_plane_polytope(rng, max_parts=2, max_cons=3)
            if p.is_empty() or p.equals(pl.R2):
                continue
            assert pl.contact_sc(p, p.complement())

    def test_distributivity_smoke(self):
        rng = random.Random(12)
        for _ in range(30):
            a = pl.random_plane_polytope(rng, max_parts=1, max_cons=3)
            b = pl.random_plane_polytope(rng, max_parts=1, max_cons=3)
            d = pl.random_plane_polytope(rng, max_parts=1, max_cons=3)
            if pl.contact_sc(a, b.union(d)):
                assert pl.contact_sc(a, b) or pl.contact_sc(a, d)


def _box(x0, x1, y0, y1):
    return f"basic {{ 1 0 <= {x1}; -1 0 <= {-x0}; 0 1 <= {y1}; 0 -1 <= {-y0} }}"


@pytest.mark.parametrize("name,a_text,b_text,expected", [
    ("interrupted-facet",
     "poly { " + _box(0, 1, 0, 1) + " " + _box(2, 3, 0, 1) + " }",
     "poly { " + _box(0, 3, -1, 0) + " }", True),
    ("alternating-sides",
     "poly { " + _box(0, 1, 0, 1) + " " + _box(1, 2, -1, 0) + " }",
     "poly { " + _box(0, 1, -1, 0) + " " + _box(1, 2, 0, 1) + " }", True),
    ("corner-touch",
     "poly { " + _box(0, 1, 0, 1) + " }",
     "poly { " + _box(1, 2, 1, 2) + " }", False),
    ("l-shape-shared-edges",
     "poly { " + _box(0, 1, 0, 1) + " " + _box(1, 2, 1, 2) + " }",
     "poly { " + _box(1, 2, 0, 1) + " }", True),
    ("sliver-overlap",
     "poly { basic { 0 -1 <= 0; 0 1 <= 1; 1 0 <= 4; -1 0 <= 0 } }",
     "poly { basic { -1 -8 <= 0; 1 8 <= 1; 1 0 <= 4; -1 0 <= 0 } }", True),
])
def test_sc_hard_cases(name, a_text, b_text, expected):
    a, b = P(a_text), P(b_text)
    assert pl.contact_sc(a, b) == expected
    assert plane_sc_oracle(a, b) == expected
    if expected:
        w = pl.sc_witness(a, b)
        assert w is not None and pl.sc_witness_valid(a, b, *w)


def test_oracle_agreement_smoke():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        a = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=3,
                                     max_den=2, bounded=True, box=4)
        b = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=3,
                                     max_den=2, bounded=True, box=4)
        try:
            expected = plane_sc_oracle(a, b)
        except OracleInfeasible:
            continue
        assert pl.contact_sc(a, b) == expected
        checked += 1


class TestInterior:
    def test_pinch_point_not_interior(self):
        union = Q1.union(Q3)
        assert union.contains((F(0), F(0)))
        assert not pl.point_in_interior(union, (F(0), F(0)))
        assert pl.point_on_boundary(union, (F(0), F(0)))

    def test_interior_point(self):
        assert pl.point_in_interior(UNIT_SQUARE, (F(1, 2), F(1, 2)))

    def test_edge_point_between_join(self):
        # interior of the union of two squares sharing the edge x=1
        union = UNIT_SQUARE.union(RIGHT_SQUARE)
        assert pl.point_in_interior(union, (F(1), F(1, 2)))
        assert not pl.point_in_interior(union, (F(1), F(0)))


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(15)
        for _ in range(25):
            p = pl.random_plane_polytope(rng, max_parts=2, max_cons=3)
            assert P(pl.format_plane(p)).equals(p)

    def test_empty_and_plane(self):
        assert P("poly { }").is_empty()
        assert P("poly { basic { } }").equals(pl.R2)

    def test_errors(self):
        with pytest.raises(pl.PlaneFormatError):
            P("poly { basic { 1 0 < 1 } }")
        with pytest.raises(pl.PlaneFormatError):
            P("poly { basic { 1 0 <= } }")
        with pytest.raises(pl.PlaneFormatError):
            P("nope { }")


def test_feasible_verdict_invariant_under_reformulation():
    # shuffling constraints, swapping axes, or positively rescaling any
    # constraint must never change feasibility
    rng = random.Random(27)
    for _ in range(200):
        cons = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if not (a or b):
                b = 1
            cons.append((F(a), F(b), F(rng.randint(-5, 5), rng.randint(1, 3)),
                         rng.random() < 0.5))
        verdict = pl.feasible_ints(cons) is not None
        shuffled = cons[:]
        rng.shuffle(shuffled)
        assert (pl.feasible_ints(shuffled) is not None) == verdict
        swapped = [(b, a, c, s) for a, b, c, s in cons]
        assert (pl.feasible_ints(swapped) is not None) == verdict
        scale = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = [(a * scale, b * scale, c * scale, s) for a, b, c, s in cons]
        assert (pl.feasible_ints(scaled) is not None) == verdict


def test_feasible_point_satisfies_system():
    rng = random.Random(9)
    for _ in range(300):
        cons = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if not (a or b):
                a = 1
            cons.append((F(a), F(b), F(rng.randint(-6, 6), rng.randint(1, 3)),
                         rng.random() < 0.5))
        point = witness_point(cons)
        if point is not None:
            x, y = point
            for a, b, c, strict in cons:
                v = a * x + b * y
                assert v < c if strict else v <= c
        else:
            # infeasibility cross-check on a coarse grid
            for gx in range(-14, 15):
                for gy in range(-14, 15):
                    x, y = F(gx, 2), F(gy, 2)
                    ok = all((a * x + b * y < c) if strict else (a * x + b * y <= c)
                             for a, b, c, strict in cons)
                    assert not ok


# ---------------------------------------------------------------------------
# the integer Fourier-Motzkin kernel against the Fraction reference
# ---------------------------------------------------------------------------

BIG_DEN = 10**6
# a coefficient is an int or a Fraction, drawn independently, so one
# constraint mixes both; denominators go up to 10^6
values = st.one_of(st.integers(-5, 5), st.fractions(-8, 8, max_denominator=4),
                   st.fractions(-8, 8, max_denominator=BIG_DEN))
scales = st.one_of(st.integers(1, 7), st.fractions(F(1, BIG_DEN), 9, max_denominator=BIG_DEN))
small_normals = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def constraint(draw):
    return (draw(values), draw(values), draw(values), draw(st.booleans()))


@st.composite
def systems(draw):
    """1-8 constraints ``a*x + b*y (<|<=) c``: a parallel family (one normal,
    either orientation, one or two offsets, so equal bounds of either
    strictness are common), a pencil (lines through one point, some nudged
    off it), or neither, plus free constraints, shuffled."""
    cons = []
    shape = draw(st.sampled_from(["free", "parallel", "pencil"]))
    if shape == "parallel":
        a, b = draw(small_normals.filter(lambda n: n != (0, 0)))
        offsets = draw(st.lists(values, min_size=1, max_size=2))
        for _ in range(draw(st.integers(2, 5))):
            k = draw(scales) * draw(st.sampled_from([1, -1]))
            cons.append((a * k, b * k, draw(st.sampled_from(offsets)) * k, draw(st.booleans())))
    elif shape == "pencil":
        x0, y0 = draw(values), draw(values)
        for _ in range(draw(st.integers(2, 4))):
            a, b = draw(small_normals)
            k = draw(scales)
            nudge = draw(st.sampled_from([0, 0, F(1, BIG_DEN), -F(1, BIG_DEN)]))
            cons.append((a * k, b * k, (a * x0 + b * y0 + nudge) * k, draw(st.booleans())))
    cons += draw(st.lists(constraint(), min_size=0 if cons else 1, max_size=8 - len(cons)))
    return draw(st.permutations(cons))


@settings(max_examples=300, deadline=None)
@given(systems())
@example([(1, 0, 0, False), (-1, 0, 0, False)])  # a line: x = 0
@example([(1, 0, 0, True), (-1, 0, 0, False)])   # strict tie: empty
# a strict bound after an equal non-strict one, on either side: empty
@example([(1, 0, 0, False), (2, 0, 0, True), (-1, 0, 0, False)])
@example([(-1, 0, 0, False), (-2, 0, 0, True), (1, 0, 0, False)])
@example([(0, 1, 1, False), (0, 3, 3, True), (0, -1, -1, False)])
@example([(0, 1, F(1, 3), False), (0, -1, F(-1, 3), False), (1, 1, 1, True)])
@example([(0, 0, 0, False), (0, 0, -1, False)])
@example([(F(1, 999983), F(-2, 3), F(5, 1000000), True), (-2, F(1, 7), 1, False)])
@example([(F(1, 3), 0, F(1, 7), False), (0, F(-2, 5), 1, True)])
def test_feasible_point_equals_fraction_reference(cons):
    # the kernel's verdict, and its witness as ints and read as Fractions
    witness = pl.feasible_ints(cons)
    point = witness_point(cons)
    assert point == reference_feasible_point(cons)
    assert (witness is None) == (point is None)
    if witness is not None:
        (p, q), (r, s) = witness
        assert all(type(v) is int for v in (p, q, r, s)) and q > 0 and s > 0
        assert (F(p, q), F(r, s)) == point


@settings(max_examples=500, deadline=None)
@given(systems())
@example([])                                                  # the plane
@example([(1, 0, 0, False)])                                  # one half-plane
@example([(1, 0, 0, False), (-2, 0, 0, True)])                # opposite, one line
# a strip of zero width: 1 <= x <= 1, 0 <= y <= 1
@example([(1, 0, 1, False), (-1, 0, -1, False), (0, 1, 1, False), (0, -1, 0, False)])
# a triangle, and a line through one corner that misses the rest: on the
# triangle's side it is redundant, on the far side the interior is empty
@example([(-1, 0, 0, False), (0, -1, 0, False), (1, 1, 1, False), (1, 0, 1, False)])
@example([(-1, 0, 0, False), (0, -1, 0, False), (1, 1, 1, False), (-1, 0, -1, False)])
@example([(1, 0, 0, False), (1, 0, 1, False), (0, 1, 0, False)])  # parallel copy
@example([(1, 0, 0, False), (0, 1, 0, False), (1, 1, 0, False), (1, -1, 0, False),
          (-1, -2, 0, False)])                                # a pencil at 0
def test_mk_basic_equals_fraction_reference(cons):
    halfplanes = [HalfSpace((a, b), c) for a, b, c, _ in cons if a or b]
    got = pl.mk_basic(halfplanes)
    assert got == reference_mk_basic(halfplanes) == reference_fm_mk_basic(halfplanes)
    if got is not None:
        # a point of the interior, which mk_basic keeps nonempty
        interior = [(*h.integer_form, True) for h in got.constraints]
        assert witness_point(interior) == reference_feasible_point(
            [(*h.normal, h.offset, True) for h in got.constraints]) is not None


def _one_variable_system(rng):
    """0-9 int constraints ``a*t (<|<=) c`` with small a and c, so that
    bounds often tie, and a = 0 now and then."""
    return [(rng.randint(-3, 3), rng.randint(-6, 6), rng.random() < 0.5)
            for _ in range(rng.randint(0, 9))]


def test_solve_1d_equals_full_scan():
    # the same verdict and witness as the scan that reads every bound
    rng = random.Random(28)
    empty = 0
    for _ in range(20000):
        cons = _one_variable_system(rng)
        got = pl._solve_1d(cons)
        assert got == reference_solve_1d(cons), cons
        empty += got is None
    assert 5000 < empty < 15000


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-10 ** 6, 10 ** 6), st.booleans()),
                max_size=12))
@example([(1, 0, False), (-1, 0, False)])                    # a point, t = 0
@example([(1, 0, True), (-1, 0, False)])                     # t < 0 and t >= 0
@example([(2, 1, False), (-4, -2, False), (3, 1, True)])     # t = 1/2, then t < 1/3
@example([(0, 0, False), (0, 0, True)])                      # 0 <= 0, then 0 < 0
def test_solve_1d_equals_full_scan_on_drawn_systems(cons):
    assert pl._solve_1d(cons) == reference_solve_1d(cons)


def test_solve_1d_stops_at_first_crossing():
    # t < 0 and t > 1 cross at the second bound: the rest is not read
    rest = iter([(1, 5, False)] * 3)
    assert pl._solve_1d(itertools.chain([(1, 0, True), (-1, -1, True)], rest)) is None
    assert len(list(rest)) == 3
    # meeting bounds with a strict side stop it too; non-strict ones do not
    rest = iter([(1, 5, False)] * 3)
    assert pl._solve_1d(itertools.chain([(1, 1, False), (-1, -1, True)], rest)) is None
    assert len(list(rest)) == 3
    rest = iter([(1, 5, False)] * 3)
    assert pl._solve_1d(itertools.chain([(1, 1, False), (-1, -1, False)], rest)) == (1, 1)
    assert list(rest) == []


def test_mk_basic_equals_fourier_motzkin_on_small_sets():
    rng = random.Random(25)
    empty = 0
    for _ in range(5000):
        halfplanes = []
        for _ in range(rng.randint(0, 9)):
            a, b = 0, 0
            while not (a or b):
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            q = rng.randint(1, 3)
            halfplanes.append(HalfSpace((a, b), F(rng.randint(-3 * q, 3 * q), q)))
        got, want = pl.mk_basic(halfplanes), reference_fm_mk_basic(halfplanes)
        assert (got and [h.integer_form for h in got.constraints]) == (
            want and [h.integer_form for h in want.constraints])
        empty += got is None
    # both verdicts are common
    assert 1000 < empty < 4000


@settings(max_examples=200, deadline=None)
@given(systems())
def test_mk_basic_makes_no_fourier_motzkin_call(cons):
    halfplanes = [HalfSpace((a, b), c) for a, b, c, _ in cons if a or b]

    def refuse(cons):
        raise AssertionError("feasible_ints called")

    with mock.patch.object(pl, "feasible_ints", refuse):
        got = pl.mk_basic(halfplanes)
    assert got == reference_fm_mk_basic(halfplanes)


@settings(max_examples=200, deadline=None)
@given(st.lists(systems(), min_size=1, max_size=3))
def test_sign_masks_equal_fraction_reference(parts):
    # parts straight from the systems, mk_basic skipped: every orientation
    # of every line of a parallel family or pencil comes up
    poly = pl.PlanePolytope(tuple(
        pl.BasicPolytope(tuple(HalfSpace((a, b), c) for a, b, c, _ in cons if a or b))
        for cons in parts))
    lines = poly.constraint_lines()
    index = {line: j for j, line in enumerate(lines)}
    # sign_masks gives (care, need), the reference (need_pos, need_neg)
    assert pl.sign_masks(poly, index) == [
        (need_pos | need_neg, need_pos) for need_pos, need_neg in reference_sign_masks(poly, index)]


def test_sc_explanation_matches_the_verdicts():
    # a polytope and its complement share a facet; random pairs mostly
    # overlap or miss each other
    rng = random.Random(17)
    reasons = set()
    for i in range(120):
        a = pl.random_plane_polytope(rng)
        b = a.complement() if i % 3 == 0 else pl.random_plane_polytope(rng)
        reason, line, point, walked = pl.sc_explanation(a, b)
        reasons.add(reason)
        assert (reason != "none") == pl.contact_sc(a, b)
        assert (reason == "overlap") == pl.overlap(a, b)
        lines = sorted(set(a.constraint_lines()) | set(b.constraint_lines()))
        total = sum(1 for _ in pl.arrangement_edges(lines))
        if reason == "overlap":
            assert line is None and walked == 0
            assert pl.point_in_interior(a, point) and pl.point_in_interior(b, point)
        elif reason == "facet":
            assert line in lines and line.contains(point) and 1 <= walked <= total
            assert pl.sc_witness(a, b)[0] == point
        else:
            assert line is None and point is None and walked == total
    assert reasons == {"overlap", "facet", "none"}


# ---------------------------------------------------------------------------
# witness radii on integer forms against the Fraction reference
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SC_PAIR_KINDS), st.integers(0, 2**32))
def test_sc_witness_equals_fraction_reference(kind, seed):
    a, b = sc_pair(random.Random(seed), kind)
    got = pl.sc_witness(a, b)
    assert got == reference_sc_witness(a, b)
    if got is not None:
        assert all(type(v) is F for v in (*got[0], got[1])) and got[1] > 0


def test_sc_witness_on_axis_walls_and_fractional_centres():
    cases = [
        # a shared vertical facet at x = 1/3, and a horizontal one at y = 2/7
        ("poly { basic { 3 0 <= 1; -1 0 <= 0; 0 1 <= 1; 0 -1 <= 0 } }",
         "poly { basic { -3 0 <= -1; 1 0 <= 1; 0 1 <= 1; 0 -1 <= 0 } }"),
        ("poly { basic { 0 7 <= 2; 0 -1 <= 0; 1 0 <= 1; -1 0 <= 0 } }",
         "poly { basic { 0 -7 <= -2; 0 1 <= 5/3; 1 0 <= 1; -1 0 <= 0 } }"),
        # boxes overlapping in [1/7, 1/3] x [1/9, 1/5]
        ("poly { basic { 3 0 <= 1; -1 0 <= 0; 0 5 <= 1; 0 -1 <= 0 } }",
         "poly { basic { -7 0 <= -1; 1 0 <= 1; 0 -9 <= -1; 0 1 <= 1 } }"),
        # slanted walls with non-unit integer forms, overlapping and touching
        ("poly { basic { 2 3 <= 1; -1 0 <= 1/2; 0 -1 <= 3/4 } }",
         "poly { basic { -2 -3 <= 1/5; 1 -4 <= 2 } }"),
        ("poly { basic { 2 3 <= 1; -1 0 <= 1/2; 0 -1 <= 3/4 } }",
         "poly { basic { -2 -3 <= -1; 5 -1 <= 9/2 } }"),
        # a lone half-plane against the plane: an overlap with one wall;
        # the plane against itself: no wall, radius 1
        ("poly { basic { 0 2 <= 1/3 } }", "poly { basic { } }"),
        ("poly { basic { } }", "poly { basic { } }"),
    ]
    denominators = set()
    for text_a, text_b in cases:
        a, b = P(text_a), P(text_b)
        got = pl.sc_witness(a, b)
        assert got is not None and got == reference_sc_witness(a, b)
        assert pl.sc_witness_valid(a, b, *got)
        denominators.update(v.denominator for v in got[0])
    assert max(denominators) > 1


# ---------------------------------------------------------------------------
# strong contact against the facet criterion on pairs of parts
# ---------------------------------------------------------------------------

def assert_sc_is_facet_pair_criterion(pairs):
    """``contact_sc`` equals ``facet_pair_sc`` on every pair; returns how
    many verdicts were shared facets, SC without overlap."""
    facets = 0
    for a, b in pairs:
        sc = pl.contact_sc(a, b)
        assert sc == facet_pair_sc(a, b), (pl.format_plane(a), pl.format_plane(b))
        facets += sc and not pl.overlap(a, b)
    return facets


@pytest.mark.parametrize("kind", SC_PAIR_KINDS)
def test_contact_sc_is_facet_pair_criterion_on_sc_pairs(kind):
    pairs = [sc_pair(random.Random(seed), kind) for seed in range(400)]
    facets = assert_sc_is_facet_pair_criterion(pairs)
    # corner and mirrored copies share facets; far copies never touch
    assert facets == 0 if kind == "far" else facets > 0
    if kind != "random":
        # a bounded polytope shares its facets with its complement, and
        # overlaps itself
        bounded = [a for a, _ in pairs]
        assert assert_sc_is_facet_pair_criterion(
            (a, b) for a in bounded for b in (a.complement(), a)) == len(bounded)


def test_contact_sc_is_facet_pair_criterion_on_random_pairs():
    rng = random.Random(29)
    pairs = []
    for i in range(1500):
        bounded = i % 2 == 1
        pairs.append((pl.random_plane_polytope(rng, bounded=bounded),
                      pl.random_plane_polytope(rng, bounded=bounded)))
    assert assert_sc_is_facet_pair_criterion(pairs) > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.sampled_from(("random", "mirrored", "complement")))
def test_contact_sc_is_facet_pair_criterion_on_drawn_pairs(seed, bounded, kind):
    rng = random.Random(seed)
    a = pl.random_plane_polytope(rng, bounded=bounded)
    if kind == "random":
        b = pl.random_plane_polytope(rng, bounded=bounded)
    elif kind == "mirrored":
        b = mirrored(a, rng)
    else:
        b = pl.random_plane_polytope(rng, bounded=bounded).complement()
    assert_sc_is_facet_pair_criterion([(a, b), (b, a)])
