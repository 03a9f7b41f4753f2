import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_boundary, reference_canonical, reference_key, reference_rational
from polycontact.numeric import (
    DimensionMismatch,
    HalfSpace,
    Hyperplane,
    LineRelation,
    Side,
        flip,
    intersect_lines,
    rational,
    side_of,
    sqrt_lower,
    sqrt_lower_ints,
)


def hs(a, b, c):
    return HalfSpace((F(a), F(b)), F(c))


class TestSideOf:
    def test_interior(self):
        assert side_of(hs(1, 0, 0), (F(-1), F(0))) is Side.INTERIOR

    def test_boundary(self):
        assert side_of(hs(1, 0, 0), (F(0), F(7))) is Side.BOUNDARY

    def test_exterior(self):
        assert side_of(hs(1, 1, 1), (F(1), F(1))) is Side.EXTERIOR

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            side_of(hs(1, 0, 0), (F(1),))

    def test_agrees_with_flip(self):
        rng = random.Random(5)
        for _ in range(200):
            h = hs(rng.randint(-3, 3) or 1, rng.randint(-3, 3), rng.randint(-4, 4))
            p = (F(rng.randint(-8, 8), rng.randint(1, 4)),
                 F(rng.randint(-8, 8), rng.randint(1, 4)))
            s, sf = side_of(h, p), side_of(flip(h), p)
            if s is Side.BOUNDARY:
                assert sf is Side.BOUNDARY
            else:
                assert {s, sf} == {Side.INTERIOR, Side.EXTERIOR}


class TestFlip:
    def test_axis(self):
        assert flip(hs(1, 0, 0)) == hs(-1, 0, 0)

    def test_diagonal(self):
        assert flip(hs(1, 1, 1)) == hs(-1, -1, -1)

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(100):
            h = hs(rng.randint(-5, 5) or 2, rng.randint(-5, 5),
                   F(rng.randint(-9, 9), rng.randint(1, 3)))
            assert flip(flip(h)) == h


class TestCanonicalization:
    def test_scaling_invariance(self):
        rng = random.Random(2)
        for _ in range(100):
            a, b = rng.randint(-5, 5) or 3, rng.randint(-5, 5)
            c = F(rng.randint(-9, 9), rng.randint(1, 5))
            q = F(rng.randint(1, 9), rng.randint(1, 9))
            assert HalfSpace((F(a), F(b)), c) == HalfSpace((a * q, b * q), c * q)

    def test_idempotent(self):
        h = hs(-4, 2, 6)
        assert HalfSpace(h.normal, h.offset) == h
        assert abs(next(c for c in h.normal if c)) == 1

    def test_hyperplane_orientation_free(self):
        assert Hyperplane((F(2), F(0)), F(0)) == Hyperplane((F(-1), F(0)), F(0))
        assert Hyperplane((F(0), F(3)), F(6)) == Hyperplane((F(0), F(-1)), F(-2))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace((F(0), F(0)), F(1))

    def test_integer_form(self):
        # canonical coefficients times the lcm of their denominators
        assert HalfSpace((F(1, 2), F(-3, 4)), F(5, 6)).integer_form == (6, -9, 10)
        assert HalfSpace((F(-2), F(4)), F(3)).integer_form == (-2, 4, 3)
        assert Hyperplane((F(-2), F(4)), F(3)).integer_form == (2, -4, -3)
        assert Hyperplane((F(0), F(-3, 7)), F(1, 5)).integer_form == (0, 15, -7)
        h = hs(3, -6, 1)
        assert all(type(v) is int for v in h.integer_form)
        assert h.integer_form is h.integer_form

    def test_boundary_is_built_once(self):
        h = hs(-4, 2, 6)
        assert h.boundary() is h.boundary()
        assert h.boundary() == Hyperplane(h.normal, h.offset)


class TestIntersectLines:
    def test_point(self):
        kind, p = intersect_lines(Hyperplane((F(1), F(0)), F(0)),
                                  Hyperplane((F(0), F(1)), F(0)))
        assert kind is LineRelation.POINT and p == (F(0), F(0))

    def test_parallel(self):
        kind, p = intersect_lines(Hyperplane((F(1), F(0)), F(0)),
                                  Hyperplane((F(1), F(0)), F(1)))
        assert kind is LineRelation.EMPTY and p is None

    def test_coincident(self):
        kind, _ = intersect_lines(Hyperplane((F(1), F(0)), F(0)),
                                  Hyperplane((F(-2), F(0)), F(0)))
        assert kind is LineRelation.COINCIDENT

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            intersect_lines(Hyperplane((F(1),), F(0)), Hyperplane((F(1),), F(1)))

    def test_solution_lies_on_both(self):
        rng = random.Random(3)
        for _ in range(200):
            l1 = Hyperplane((rng.randint(-4, 4) or 1, rng.randint(-4, 4)),
                            F(rng.randint(-6, 6), rng.randint(1, 3)))
            l2 = Hyperplane((rng.randint(-4, 4) or 2, rng.randint(-4, 4)),
                            F(rng.randint(-6, 6), rng.randint(1, 3)))
            kind, p = intersect_lines(l1, l2)
            if kind is LineRelation.POINT:
                assert l1.contains(p) and l2.contains(p)


class TestRationalExactness:
    def test_sum_against_integer_arithmetic(self):
        # (a/b + c/d) must equal (a*d + c*b)/(b*d) exactly, 1000 pairs
        rng = random.Random(17)
        for _ in range(1000):
            a, b = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
            c, d = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
            s = F(a, b) + F(c, d)
            assert s.numerator * (b * d) == (a * d + c * b) * s.denominator

    def test_parse(self):
        assert rational("-3/4") == F(-3, 4)
        assert rational(5) == F(5)
        with pytest.raises(TypeError):
            rational(0.5)

    @pytest.mark.parametrize("text", ["1e10000000", "2E3", "-1.5e-2", " 3e0 "])
    def test_exponent_notation_rejected(self, text):
        with pytest.raises(ValueError, match="exponent notation"):
            rational(text)


def _reading(read, value):
    """The value read, or the type and message of the error raised."""
    try:
        x = read(value)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), x


# strings of each kind that ``rational`` leaves to ``Fraction``, and exact
# tokens at the edges of the int reading
_LONG = "1" * 5000
RATIONAL_CORPUS = [
    "1_000", "1__0", "_1", "\u0663/\u0664", "\u0663", "+3/4", "-3/4", " 7 ", "7 /8", "7/ 8", "\t-2\n",
    "1.5", ".5", "5.", "1e5", "3/0", "0/0", "-0/0", "3/-4", "3/+4", "+-3", "--3", "", " ", "/",
    "3/", "/4", "3//4", "3/4/5", "0", "-0", "+0", "007", "0/7", "12/18", "-12/18",
    "-5/1", "3\n", "\n3", "1/2 ", "\uff13", _LONG, "-" + _LONG, _LONG + "/7", "7/" + _LONG,
    _LONG + "/" + _LONG, "0" * 5000 + "/0", "3/" + "0" * 5000, "1" * 4300 + "/" + "3" * 4300,
]


class TestRationalMatchesReference:
    """``rational``, which reads exact ASCII tokens with ``int()``, against
    the body that read every string with ``Fraction``: the same value, or
    an error of the same type with the same message."""

    @pytest.mark.parametrize("text", RATIONAL_CORPUS, ids=range(len(RATIONAL_CORPUS)))
    def test_corpus(self, text):
        assert _reading(rational, text) == _reading(reference_rational, text)

    @pytest.mark.parametrize("value", [5, -7, True, F(3, 4), 0.5, None, b"3", [1]])
    def test_other_types(self, value):
        assert _reading(rational, value) == _reading(reference_rational, value)

    def test_exact_tokens_read_as_ints(self):
        # no exact token reaches Fraction's string parser
        real = F.__new__

        def refuse_strings(cls, numerator=0, denominator=None, **kwargs):
            assert not isinstance(numerator, str), numerator
            return real(cls, numerator, denominator, **kwargs)

        with mock.patch.object(F, "__new__", refuse_strings):
            assert [rational(t) for t in ("12/18", "-3", "+0/5", "007")] == [
                F(2, 3), F(-3), F(0), F(7)]

    def test_seeded_token_sweep(self):
        rng = random.Random(28)
        alphabet = "0123456789+-/_. e"
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert _reading(rational, text) == _reading(reference_rational, text), text

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="0123456789+-/_. e", max_size=12))
    def test_text(self, text):
        assert _reading(rational, text) == _reading(reference_rational, text)


class TestSqrtLower:
    def test_bounds(self):
        rng = random.Random(23)
        for _ in range(300):
            q = F(rng.randint(0, 10**6), rng.randint(1, 10**4))
            r = sqrt_lower(q)
            assert r >= 0 and r * r <= q
            if q > 0:
                # tight within one part in 2**19
                assert (r + r / (1 << 19)) ** 2 > q or r == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_lower(F(-1))
        with pytest.raises(ValueError):
            sqrt_lower_ints(-1, 3)

    def test_int_core(self):
        assert sqrt_lower_ints(0, 7) == (0, 7 << 20)
        assert sqrt_lower_ints(9, 4) == (6 << 20, 4 << 20)
        assert sqrt_lower(F(0)) == 0 and sqrt_lower(F(9, 4)) == F(3, 2)


# coefficients with denominators up to 10^6, zeros and small values often,
# so vertical and horizontal lines, negative leads and equal objects written
# differently all come up
_coefficients = st.one_of(
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))


@st.composite
def _canonical_objects(draw, cls, dims=(1, 2, 3)):
    """A ``HalfSpace`` or ``Hyperplane`` of dimension 1-3, sometimes a
    rescaled copy of an earlier draw, so equal objects recur."""
    dim = draw(st.sampled_from(dims))
    normal = draw(st.lists(_coefficients, min_size=dim, max_size=dim)
                  .filter(lambda n: any(n)))
    offset = draw(_coefficients)
    scale = draw(st.sampled_from([F(1), F(-1), F(3, 7), F(-10**6, 999_983)]))
    if cls is HalfSpace and scale < 0:
        scale = -scale  # a negative scale flips a half-space
    return cls(tuple(c * scale for c in normal), offset * scale)


def _pools(cls):
    return st.lists(_canonical_objects(cls), min_size=1, max_size=12).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=16)
        .map(lambda picks: pool + picks))


class TestIntegerIdentity:
    """Equality, hash and order on integer forms against the ``Fraction``
    fields' tuple identity and order they replace (``helpers.reference_key``),
    and ``boundary()`` built from a half-space's own fields against
    ``Fraction`` division (``helpers.reference_boundary``)."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([HalfSpace, Hyperplane]).flatmap(_pools))
    def test_comparisons_match_fraction_fields(self, objects):
        for x in objects:
            for y in objects:
                kx, ky = reference_key(x), reference_key(y)
                assert (x == y) == (kx == ky) and (x != y) == (kx != ky)
                assert (x < y) == (kx < ky) and (x <= y) == (kx <= ky)
                assert (x > y) == (kx > ky) and (x >= y) == (kx >= ky)
                if x == y:
                    assert hash(x) == hash(y)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([HalfSpace, Hyperplane]).flatmap(_pools))
    def test_sorting_and_deduplication_match_fraction_fields(self, objects):
        assert [reference_key(x) for x in sorted(objects)] == sorted(map(reference_key, objects))
        assert ([reference_key(x) for x in sorted(set(objects))]
                == sorted(set(map(reference_key, objects))))

    @settings(max_examples=300, deadline=None)
    @given(_canonical_objects(HalfSpace))
    def test_boundary_matches_fraction_division(self, h):
        line = h.boundary()
        assert type(line) is Hyperplane
        assert reference_key(line) == reference_boundary(h)
        assert all(type(c) is F for c in (*line.normal, line.offset))
        fresh = Hyperplane(h.normal, h.offset)
        assert line == fresh and hash(line) == hash(fresh)
        assert line.integer_form == fresh.integer_form
        assert flip(h).boundary() == line

    def test_vertical_horizontal_and_negative_leads(self):
        lines = [HalfSpace((F(-2), F(0)), F(3)), HalfSpace((F(0), F(-5, 3)), F(1, 7)),
                 HalfSpace((F(0), F(4)), F(-1)), HalfSpace((F(-1, 10**6), F(3)), F(0))]
        for h in lines:
            assert reference_key(h.boundary()) == reference_boundary(h)
        assert lines[0].boundary().integer_form == (2, 0, -3)
        assert lines[1].boundary().integer_form == (0, 35, -3)

    def test_classes_and_dimensions(self):
        h, line = HalfSpace((F(1), F(0)), F(0)), Hyperplane((F(1), F(0)), F(0))
        assert h != line and line != h
        with pytest.raises(TypeError):
            h < line
        # tuple order: a normal sorts below its extensions, whatever the offsets
        short, long = HalfSpace((F(1),), F(5)), HalfSpace((F(1), F(0)), F(-5))
        assert short < long and long > short and short != long
        assert sorted([long, short]) == [short, long]


@st.composite
def _raw_coefficients(draw):
    """``(normal, offset)`` of dimension 1-3 as given to a constructor, ints
    or Fractions, the lead 1, -1 or anything else after 0-2 zeros, so the
    unit-lead shortcut and the division both come up, for either class."""
    dim = draw(st.integers(1, 3))
    zeros = draw(st.integers(0, dim - 1))
    lead = draw(st.one_of(st.sampled_from([1, -1, F(1), F(-1)]),
                          _coefficients.filter(bool)))
    rest = draw(st.lists(st.one_of(st.integers(-4, 4), _coefficients),
                         min_size=dim - zeros - 1, max_size=dim - zeros - 1))
    offset = draw(st.one_of(st.integers(-9, 9), _coefficients))
    return (0,) * zeros + (lead, *rest), offset


def _reference_integer_form(normal, offset):
    scale = math.lcm(*(c.denominator for c in (*normal, offset)))
    return tuple(int(c * scale) for c in (*normal, offset))


class TestDivisionFreeScaling:
    """Canonical scaling with no division at a unit lead, and ``flip`` by
    negation, against the dividing construction they replace
    (``helpers.reference_canonical``)."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([HalfSpace, Hyperplane]), _raw_coefficients())
    def test_fields_match_division(self, cls, raw):
        obj = cls(*raw)
        want = reference_canonical(*raw, signed=cls is Hyperplane)
        assert reference_key(obj) == want
        assert all(type(c) is F for c in (*obj.normal, obj.offset))
        assert obj.integer_form == _reference_integer_form(*want)
        fresh = cls(tuple(c * 3 for c in raw[0]), raw[1] * 3)
        assert obj == fresh and hash(obj) == hash(fresh)

    def test_unit_and_non_unit_leads(self):
        for normal, offset, signed, want in [
                ((1, -2), F(1, 3), False, ((1, -2), F(1, 3))),
                ((-1, 0), 5, False, ((-1, 0), 5)),
                ((-1, 3), 2, True, ((1, -3), -2)),
                ((0, F(-1)), F(-7, 2), True, ((0, 1), F(7, 2))),
                ((F(2), F(1, 2)), 4, False, ((1, F(1, 4)), 2)),
                ((F(-2, 3), 1), 1, True, ((1, F(-3, 2)), F(-3, 2)))]:
            cls = Hyperplane if signed else HalfSpace
            assert reference_key(cls(normal, offset)) == reference_canonical(
                normal, offset, signed) == (tuple(map(F, want[0])), F(want[1]))

    @settings(max_examples=300, deadline=None)
    @given(_canonical_objects(HalfSpace))
    def test_flip_matches_negated_construction(self, h):
        f = flip(h)
        fresh = HalfSpace(tuple(-c for c in h.normal), -h.offset)
        assert type(f) is HalfSpace
        assert reference_key(f) == reference_key(fresh)
        assert all(type(c) is F for c in (*f.normal, f.offset))
        assert f.integer_form == fresh.integer_form == tuple(-c for c in h.integer_form)
        assert f == fresh and hash(f) == hash(fresh)
        assert not f < fresh and not fresh < f
        assert flip(f) == h and f.boundary() == h.boundary()
