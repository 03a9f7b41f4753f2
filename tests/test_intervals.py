import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycontact import intervals as iv
from helpers import (reference_contact_c, reference_parse_intervals, reference_reg_meet,
                     reference_union)
from sc_oracle import interval_sc_oracle

P = iv.parse_intervals


def test_touching_pieces_merge():
    assert iv.canonicalize([(F(0), F(1)), (F(1), F(2))]) == P("[0,2]")


def test_single_point_dropped():
    assert iv.canonicalize([(F(3), F(3))]).is_empty()


def test_overlap_merge_and_sort():
    got = iv.canonicalize([(F(0), F(2)), (F(1), F(5)), (None, F(-1))])
    assert got == P("(-inf,-1]; [0,5]")


def test_reversed_piece_rejected():
    with pytest.raises(ValueError):
        iv.canonicalize([(F(2), F(1))])


def test_complement_examples():
    assert P("[0,1]").complement() == P("(-inf,0]; [1,inf)")
    assert iv.EMPTY.complement() == iv.ALL
    assert P("(-inf,1]; [2,inf)").complement() == P("[1,2]")


def test_reg_meet_examples():
    assert P("[0,1]").reg_meet(P("[1,2]")).is_empty()
    assert P("[0,2]").reg_meet(P("[1,3]")) == P("[1,2]")
    assert P("[0,1]").union(P("[2,3]")) == P("[0,1]; [2,3]")


def test_contact_triples():
    a, b = P("[0,1]"), P("[1,2]")
    assert a.contact_c(b) and a.contact_sc(b) and not a.overlap(b)
    c = P("[2,3]")
    a2 = P("[0,1]")
    assert not a2.contact_c(c) and not a2.contact_sc(c) and not a2.overlap(c)
    assert a.contact_c(a) and a.contact_sc(a) and a.overlap(a)


@pytest.mark.parametrize("pieces", [
    ((F(1), F(2)), (F(0), F(1))),          # unsorted: [0, 2] in two pieces
    ((F(0), F(2)), (F(1), F(3))),          # overlapping
    ((F(0), F(1)), (F(1), F(2))),          # touching, a gap of length 0
    ((F(1), F(1)),),                       # a single point
    ((F(2), F(1)),),                       # reversed
    ((F(0), None), (F(2), F(3))),          # an unbounded end inside
    ((F(0), F(1)), (None, F(3))),
    ((None, None), (None, None)),
    ((None, F(0)), (None, F(0))),
])
def test_non_canonical_value_rejected(pieces):
    with pytest.raises(ValueError, match="not canonical"):
        iv.IntervalPolytope(pieces)


def test_canonical_values_accepted():
    for pieces in [(), ((None, None),), ((None, F(0)),), ((F(0), None),),
                   ((None, F(0)), (F(1, 2), F(1)), (F(3), None))]:
        assert iv.IntervalPolytope(pieces).pieces == pieces


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)


@st.composite
def interval_polytopes(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted([draw(rationals), draw(rationals)])
        pieces.append((a, b))
    if draw(st.booleans()):
        pieces.append((None, draw(rationals)))
    if draw(st.booleans()):
        pieces.append((draw(rationals), None))
    return iv.canonicalize(pieces)


@settings(max_examples=200, deadline=None)
@given(interval_polytopes(), interval_polytopes(), interval_polytopes())
def test_contact_axioms(x, y, z):
    # C1..C4 for strong contact on the line
    assert not iv.EMPTY.contact_sc(x)
    assert x.contact_sc(y.union(z)) == (x.contact_sc(y) or x.contact_sc(z))
    assert x.contact_sc(y) == y.contact_sc(x)
    if not x.is_empty():
        assert x.contact_sc(x)


@settings(max_examples=200, deadline=None)
@given(interval_polytopes(), interval_polytopes(), interval_polytopes())
def test_boolean_laws(x, y, z):
    assert x.union(y) == y.union(x)
    assert x.reg_meet(y) == y.reg_meet(x)
    assert x.union(x.reg_meet(y)) == x
    assert x.reg_meet(x.union(y)) == x
    assert x.reg_meet(y.union(z)) == x.reg_meet(y).union(x.reg_meet(z))
    assert x.union(y.reg_meet(z)) == x.union(y).reg_meet(x.union(z))
    assert x.union(x.complement()) == iv.ALL
    assert x.reg_meet(x.complement()) == iv.EMPTY
    assert x.complement().complement() == x


@settings(max_examples=200, deadline=None)
@given(interval_polytopes(), interval_polytopes())
def test_overlap_implies_contact(x, y):
    if x.overlap(y):
        assert x.contact_sc(y)


@settings(max_examples=200, deadline=None)
@given(interval_polytopes())
def test_connectedness(x):
    if not x.is_empty() and not x.is_all():
        assert x.contact_sc(x.complement())


# endpoints on a grid of halves, so pieces often share an endpoint or touch
# end to end
grid = st.builds(F, st.integers(-6, 6), st.just(2))


@st.composite
def grid_polytopes(draw):
    ends = sorted(draw(st.lists(grid, max_size=6)))
    pieces = list(zip(ends[::2], ends[1::2]))
    if draw(st.booleans()):
        pieces.append((None, draw(grid)))
    if draw(st.booleans()):
        pieces.append((draw(grid), None))
    return iv.canonicalize(pieces)


line_polytopes = st.one_of(st.just(iv.EMPTY), st.just(iv.ALL), grid_polytopes())


@settings(max_examples=300, deadline=None)
@given(line_polytopes, line_polytopes)
@example(P("[0,1]"), P("[1,2]"))
@example(P("(-inf,0]"), P("[0,inf)"))
@example(P("(-inf,0]; [1,2]"), P("[0,1]; [2,3]"))
@example(P("[0,1]; [2,3]"), P("[1,2]"))
@example(iv.EMPTY, iv.ALL)
def test_sweeps_match_references(x, y):
    for a, b in ((x, y), (y, x)):
        assert a.union(b) == reference_union(a, b)
        assert a.reg_meet(b) == reference_reg_meet(a, b)
        assert a.contact_c(b) == a.contact_sc(b) == reference_contact_c(a, b)
        assert a.overlap(b) == (not reference_reg_meet(a, b).is_empty())


def _from_segments(mask, ends):
    """The closure of the elementary segments in ``mask``, by ``canonicalize``."""
    bounds = (None, *ends, None)
    return iv.canonicalize((bounds[k], bounds[k + 1])
                           for k in range(len(ends) + 1) if mask >> k & 1)


@settings(max_examples=300, deadline=None)
@given(line_polytopes, line_polytopes)
@example(P("[0,1]"), P("[1,2]"))
@example(P("(-inf,0]"), P("[0,inf)"))
@example(P("[0,1]; [2,3]"), P("[1,2]"))
@example(P("[0,1]"), P("[3/2,2]"))
@example(iv.EMPTY, iv.ALL)
@example(iv.EMPTY, iv.EMPTY)
def test_segment_masks_match_sweeps(x, y):
    # union, meet and complement add no breakpoint, so one pool serves all
    ends, masks = iv.segment_masks([x, y, x.union(y), x.reg_meet(y), x.complement()])
    mx, my, m_union, m_meet, m_complement = masks
    assert iv.segment_masks([x, y]) == (ends, [mx, my])
    assert list(ends) == sorted(set(ends))
    all_segs = (2 << len(ends)) - 1
    assert m_union == mx | my
    assert m_meet == mx & my
    assert m_complement == all_segs ^ mx
    assert (mx == my) == x.equals(y)
    assert bool(mx & (my | my << 1 | my >> 1)) == x.contact_c(y) == y.contact_c(x)
    assert bool(mx & my) == x.overlap(y)
    for p, m in ((x, mx), (y, my)):
        assert _from_segments(m, ends) == p
    # the inverse, on the table's own endpoints: every input, and an OR
    assert ([iv.from_segments(ends, m) for m in (*masks, mx | my)]
            == [x, y, x.union(y), x.reg_meet(y), x.complement(), x.union(y)])


def _exact_ends(ends):
    """Each finite end is an int, or a Fraction that is not integral."""
    for x in ends:
        if x is not None:
            assert type(x) is int or (type(x) is F and x.denominator > 1), repr(x)


def _assert_exact(p):
    _exact_ends(x for piece in p.pieces for x in piece)


@settings(max_examples=300, deadline=None)
@given(grid_polytopes(), grid_polytopes())
def test_endpoints_int_when_integral(x, y):
    # the halves grid mixes integral and non-integral ends; floats and
    # bools never appear
    for p in (x, y, P(iv.format_intervals(x)), x.union(y), x.reg_meet(y),
              x.complement(), y.complement()):
        _assert_exact(p)
    w = iv.contact_witness(x, y)
    if w is not None:
        _exact_ends(w)


def test_canonicalize_stores_integral_ends_as_int():
    got = iv.canonicalize([(F(4, 2), F(3)), (1, F(1, 2) + F(1, 2)), (None, F(-1, 3))])
    assert got.pieces == ((None, F(-1, 3)), (2, 3))
    _assert_exact(got)
    _assert_exact(P("(-inf,-4/2]; [1/2,6/3]; [10/5,inf)"))
    _assert_exact(iv.canonicalize([(False, True)]))
    with pytest.raises(TypeError):
        iv.canonicalize([(0.5, 1)])


@st.composite
def end_tokens(draw):
    """A finite end as text: signed or not, zero-padded or not, an integer,
    ``n/1`` or ``p/q``."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    pad = "0" * draw(st.integers(0, 2))
    num = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["n", "n/1", "p/q"]))
    if kind == "n":
        return f"{sign}{pad}{num}"
    den = 1 if kind == "n/1" else draw(st.integers(1, 12))
    return f"{sign}{pad}{num}/{'0' * draw(st.integers(0, 1))}{den}"


@st.composite
def interval_texts(draw):
    """``;``-separated pieces, each with its ends in order, or ``empty``
    or ``all``."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["empty", " all "]))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.one_of(end_tokens(), st.just("-inf")))
        hi = draw(st.one_of(end_tokens(), st.just("inf")))
        if lo != "-inf" and hi != "inf" and F(lo) > F(hi):
            lo, hi = hi, lo
        space = " " * draw(st.integers(0, 1))
        pieces.append(f"{'(' if lo == '-inf' else '['}{space}{lo},{space}{hi}"
                      f"{')' if hi == 'inf' else ']'}")
    return draw(st.sampled_from([";", "; "])).join(pieces)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(interval_texts())
@example("[-007,+3]; [4/1,9/2]; [010/02,0012]")
@example("(-inf,-0]; [+0/5,1/01]")
def test_parse_intervals_matches_rational_reference(text):
    got = P(text)
    assert got == reference_parse_intervals(text)
    for piece in got.pieces:
        for x in piece:
            assert x is None or type(x) is (int if F(x).denominator == 1 else F), repr(x)


@pytest.mark.parametrize("text", [
    "[1/0,2]", "[0,3/0]", "[-1/00,inf)",
    "[0," + "7" * 5000 + "]", "[-" + "0" * 10 + "1" * 4295 + ",0]",
    "[1/" + "3" * 5000 + ",1]",
    "[1e3,2]", "[0,1E2]", "[0,1.5]",
    "[0;1]", "[0,1)", "(0,1]", "[-inf,1]", "[0,inf]", "[0,1]; ", "[2,1]", "[0,1/2/3]",
])
def test_parse_intervals_errors_match_rational_reference(text):
    want = _parse_outcome(reference_parse_intervals, text)
    assert isinstance(want, tuple)
    assert _parse_outcome(P, text) == want


def test_sc_is_c_and_matches_definition_oracle():
    rng = random.Random(99)
    for _ in range(400):
        a = iv.random_interval_polytope(rng)
        b = iv.random_interval_polytope(rng)
        assert a.contact_sc(b) == a.contact_c(b) == interval_sc_oracle(a, b)


def test_contact_witness_is_inside_union():
    rng = random.Random(31)
    for _ in range(300):
        a = iv.random_interval_polytope(rng)
        b = iv.random_interval_polytope(rng)
        w = iv.contact_witness(a, b)
        assert (w is not None) == a.contact_c(b)
        if w is not None:
            lo, hi = w
            assert lo < hi
            union = a.union(b)
            # the open interval sits inside one maximal piece and meets both
            assert union.contains(lo) and union.contains(hi)
            assert any((plo is None or plo <= lo) and (phi is None or hi <= phi)
                       for plo, phi in union.pieces)
            mid = F(lo + hi, 2)
            assert a.contains(lo) or a.contains(hi) or a.contains(mid)
            assert b.contains(lo) or b.contains(hi) or b.contains(mid)


class TestTextFormat:
    def test_round_trip(self):
        text = "(-inf,0]; [1/2,3]; [5,inf)"
        assert iv.format_intervals(P(text)) == text
        assert iv.format_intervals(iv.EMPTY) == "empty"
        assert iv.format_intervals(iv.ALL) == "all"

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(200):
            p = iv.random_interval_polytope(rng)
            assert P(iv.format_intervals(p)) == p

    def test_bad_syntax(self):
        with pytest.raises(iv.IntervalFormatError):
            P("[1,2); [3,4]")
        with pytest.raises(iv.IntervalFormatError):
            P("(0,1]")
        with pytest.raises(iv.IntervalFormatError):
            P("[a,b]")
