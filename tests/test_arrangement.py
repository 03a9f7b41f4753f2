"""Differential tests of the sign-vector arrangement walk.

``plane.arrangement_edges`` runs on the lines' integer forms and yields
each edge's ends as ints over one denominator per line, with no point;
its edges, resolved to ``(line, lo, hi, rep, above)`` by ``Fraction`` ends
and ``plane.edge_point``, are compared whole with the ``Fraction`` walk it
replaced, on the random cut systems below, on lines whose coefficients
have denominators up to 10^6, and on 12 lines with pairwise coprime
denominators near 10^6.  ``plane.line_point``, which builds every such
point from a line's integer form, is compared with ``point_on`` at the
``Fraction`` parameter on vertical, horizontal and general lines.

``plane.arrangement_edges`` carries each edge's sign vector as a bitmask,
and ``plane.flanks`` tests both flanks of an edge with one compare per
part, checked equal to ``plane.fills`` on each flank.  The facet search,
``PlanePolytope.equals``, ``cuts.sheets``, ``cuts.brick_decomposition``
and ``cuts.boundary_representation`` read their answers off them.  Each is checked against the point-probing or
Fourier-Motzkin reference it replaced (``tests/helpers.py``) on random cut
systems of 1-9 lines with parallel families (normals in {-2..2}^2) and
pencils of concurrent lines, and on random polytopes with translated,
mirrored and split copies.
"""

import math
import random
import time
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycontact import cuts as cu
from polycontact import plane as pl
from polycontact.numeric import HalfSpace, Hyperplane
from helpers import (
    demorgan_equals, evaluated_other_signs, exhaustive_brick_decomposition, mirrored,
    probe_sc_analysis, reference_arrangement_edges, reference_boundary_representation,
    translated)

MAX_LINES = 9
# pairwise non-parallel directions, so a pencil keeps all its lines
PENCIL_NORMALS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)]

coefficients = st.integers(-2, 2)
normals = st.tuples(coefficients, coefficients).filter(lambda n: n != (0, 0))
small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


def mk_line(normal, offset) -> Hyperplane:
    return Hyperplane((F(normal[0]), F(normal[1])), offset)


def line_through(normal, point) -> Hyperplane:
    return mk_line(normal, normal[0] * point[0] + normal[1] * point[1])


@st.composite
def line_lists(draw):
    """1-9 distinct lines, in drawn (not sorted) order, with a pencil of
    three or more concurrent lines about half the time."""
    lines = []
    if draw(st.booleans()):
        centre = (draw(small_fractions), draw(small_fractions))
        pencil = draw(st.lists(st.sampled_from(PENCIL_NORMALS), min_size=3,
                               max_size=5, unique=True))
        lines += [line_through(n, centre) for n in pencil]
    lines += draw(st.lists(st.builds(mk_line, normals, small_fractions),
                           min_size=0 if lines else 1,
                           max_size=MAX_LINES - len(lines)))
    return draw(st.permutations(list(dict.fromkeys(lines))))


SINGLE_LINE = [mk_line((1, 0), F(0))]
PARALLEL_FAMILY = [mk_line((1, 1), F(c)) for c in (-2, 0, 1, 3)] + [mk_line((0, 1), F(0))]
PENCIL = [line_through(n, (F(1), F(1))) for n in PENCIL_NORMALS[:4]]
# only vertical and horizontal lines, whose integer forms have a zero
AXIS_GRID = ([mk_line((2, 0), F(c, 3)) for c in (-4, 1, 5)]
             + [mk_line((0, -1), F(c, 2)) for c in (-3, 0, 7)])


@st.composite
def polytope_over(draw, lines):
    """The empty or full polytope, or a union of 1-3 parts each cut out by
    sides of some of the given lines."""
    kind = draw(st.sampled_from(["empty", "full", "parts", "parts", "parts"]))
    if kind == "empty":
        return pl.EMPTY
    if kind == "full":
        return pl.R2
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(lines), min_size=1, max_size=4, unique=True))
        sets.append([cut.sides()[draw(st.integers(0, 1))] for cut in chosen])
    return pl.PlanePolytope.from_constraint_sets(sets)


BIG_DEN = 10**6
wide_fractions = st.fractions(-9, 9, max_denominator=BIG_DEN)


@st.composite
def wide_line_lists(draw):
    """1-9 distinct lines with coefficients of denominators up to 10^6:
    free lines, a parallel family (one normal, rescaled) and a pencil
    through one point, in drawn order."""
    normal = st.tuples(wide_fractions, wide_fractions).filter(lambda n: n != (0, 0))
    lines = []
    if draw(st.booleans()):
        n = draw(normal)
        for _ in range(draw(st.integers(2, 4))):
            k = draw(st.fractions(F(1, BIG_DEN), 5, max_denominator=BIG_DEN))
            lines.append(Hyperplane((n[0] * k, n[1] * k), draw(wide_fractions)))
    if draw(st.booleans()):
        x0, y0 = draw(wide_fractions), draw(wide_fractions)
        for n in draw(st.lists(st.sampled_from(PENCIL_NORMALS), min_size=2, max_size=4,
                               unique=True)):
            k = draw(wide_fractions.filter(bool))
            lines.append(line_through((n[0] * k, n[1] * k), (x0, y0)))
    lines += draw(st.lists(st.builds(Hyperplane, normal, wide_fractions),
                           min_size=0 if lines else 1, max_size=MAX_LINES - len(lines)))
    return draw(st.permutations(list(dict.fromkeys(lines))[:MAX_LINES]))


def resolved_edges(lines):
    """The edges of ``plane.arrangement_edges`` as the reference yields
    them: ``Fraction`` ends and the point ``plane.edge_point`` builds."""
    out = []
    for mu, lo, hi, den, above in pl.arrangement_edges(lines):
        assert type(den) is int and den > 0
        assert all(t is None or type(t) is int for t in (lo, hi))
        ends = tuple(None if t is None else F(t, den) for t in (lo, hi))
        out.append((mu, *ends, pl.edge_point(mu, lo, hi, den), above))
    return out


def assert_edges_match_reference(lines):
    edges = resolved_edges(lines)
    assert edges == list(reference_arrangement_edges(lines))
    for _, _, _, rep, _ in edges:
        assert all(type(v) is F for v in rep)


@settings(max_examples=300, deadline=None)
@given(line_lists())
@example(SINGLE_LINE)
@example(PARALLEL_FAMILY)
@example(PENCIL)
@example(AXIS_GRID)
def test_edges_equal_fraction_reference(lines):
    assert_edges_match_reference(lines)


nonzero_wide = wide_fractions.filter(bool)
any_line = st.one_of(
    st.builds(lambda a, c: Hyperplane((a, F(0)), c), nonzero_wide, wide_fractions),
    st.builds(lambda b, c: Hyperplane((F(0), b), c), nonzero_wide, wide_fractions),
    st.builds(lambda a, b, c: Hyperplane((a, b), c), nonzero_wide, nonzero_wide,
              wide_fractions))


@settings(max_examples=300, deadline=None)
@given(any_line, st.integers(-10**12, 10**12), st.integers(1, 10**9), st.integers(1, 50))
@example(mk_line((1, 0), F(0)), 0, 1, 1)
@example(mk_line((0, 1), F(-5, 2)), -7, 3, 4)
def test_line_point_equals_point_on(mu, p, q, k):
    point = pl.line_point(mu, p, q)
    assert point == pl.point_on(*pl.line_param(mu), F(p, q))
    assert all(type(v) is F for v in point) and mu.contains(point)
    # the integer form: reduced over a positive denominator, the same for
    # every way of writing the parameter, and the same point
    x, y, d = pl.line_point_ints(mu, p, q)
    assert d > 0 and math.gcd(x, y, d) == 1
    assert pl.line_point_ints(mu, p * k, q * k) == (x, y, d)
    assert pl.line_point_ints(mu, -p, -q) == (x, y, d)
    assert (F(x, d), F(y, d)) == point


@settings(max_examples=200, deadline=None)
@given(wide_line_lists())
def test_edges_equal_fraction_reference_on_wide_denominators(lines):
    assert_edges_match_reference(lines)


def primes_below(n, count):
    """The ``count`` largest primes below ``n``, by trial division."""
    out, k = [], n
    while len(out) < count:
        k -= 1
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            out.append(k)
    return out


# the walk on 12 lines takes about 1 ms on a 2-core VM (Python 3.11)
WIDE_WALK_BUDGET_S = 1.0


def test_edges_equal_fraction_reference_on_coprime_denominators():
    # every coefficient of the 12 lines has its own prime denominator near
    # 10^6, so each line's common crossing denominator is the lcm of 11
    # large determinants and runs to hundreds of digits
    primes = primes_below(10**6, 36)
    rng = random.Random(16)
    lines = []
    for i in range(12):
        p, q, r = primes[3 * i:3 * i + 3]
        normal = (F(rng.randrange(1, p), p), F(rng.choice((-1, 1)) * rng.randrange(1, q), q))
        lines.append(Hyperplane(normal, F(rng.randint(-5 * r, 5 * r), r)))
    start = time.perf_counter()
    edges = list(pl.arrangement_edges(lines))
    elapsed = time.perf_counter() - start
    assert len(edges) == 12 * 12
    assert max(den for *_, den, _ in edges).bit_length() > 1000
    assert elapsed < WIDE_WALK_BUDGET_S
    assert_edges_match_reference(lines)


def test_points_built_only_for_a_facet_verdict(monkeypatch):
    # faces, equals and a negative contact_sc read sign vectors only; a
    # facet verdict builds the one point of its edge
    rng = random.Random(41)
    polys = [pl.random_plane_polytope(rng, max_parts=3, bounded=b) for b in (False, True) * 4]
    bounded = polys[1::2]  # inside [-5, 5]^2, so far from these copies
    far = [translated(p, 20, 0) for p in bounded]
    quadrants = [pl.PlanePolytope.from_constraint_sets([[HalfSpace((F(sx), F(0)), F(0)),
                                                         HalfSpace((F(0), F(sy)), F(0))]])
                 for sx, sy in ((-1, -1), (1, -1), (1, 1))]
    q1, q2, q3 = quadrants
    built = []
    edge_point = pl.edge_point

    def counted(*edge):
        built.append(edge)
        return edge_point(*edge)

    monkeypatch.setattr(pl, "edge_point", counted)
    for p in polys:
        pl.faces(p.constraint_lines())
        for q in polys:
            p.equals(q)
    assert all(not pl.contact_sc(p, q) for p in bounded for q in far)
    assert not pl.contact_sc(q1, q3)  # they touch at the origin only
    assert built == []
    assert pl.contact_sc(q1, q2)  # a shared facet on the y-axis
    assert len(built) == 1
    built.clear()
    assert pl.sc_witness(q2, q1) is not None
    assert len(built) == 1


@settings(max_examples=150, deadline=None)
@given(line_lists())
@example(SINGLE_LINE)
@example(PARALLEL_FAMILY)
@example(PENCIL)
def test_above_is_the_sign_vector_at_rep(lines):
    for mu, _, _, rep, above in resolved_edges(lines):
        for j, nu in enumerate(lines):
            if nu is mu:
                assert not above >> j & 1
            else:
                assert bool(above >> j & 1) == (nu.value_at(rep) > 0)


@settings(max_examples=100, deadline=None)
@given(line_lists())
@example(SINGLE_LINE)
@example(PARALLEL_FAMILY)
@example(PENCIL)
def test_bricks_and_sheets_match_references(lines):
    cs = cu.CutSystem.of(lines)
    assert cu.brick_decomposition(cs) == exhaustive_brick_decomposition(cs)
    for sheet in cu.sheets(cs):
        assert sheet.other_signs == evaluated_other_signs(cs, sheet)


@settings(max_examples=150, deadline=None)
@given(st.data(), line_lists())
def test_flanks_equal_fills_on_every_edge(data, lines):
    # masks of one polytope over the lines, and of two pooled (their union)
    index = {line: j for j, line in enumerate(lines)}
    p, q = data.draw(polytope_over(lines)), data.draw(polytope_over(lines))
    p_masks, q_masks = pl.sign_masks(p, index), pl.sign_masks(q, index)
    for masks in (p_masks, q_masks, p_masks + q_masks):
        for mu, _, _, _, above in pl.arrangement_edges(lines):
            bit = 1 << index[mu]
            assert pl.flanks(masks, above, bit) == (pl.fills(masks, above | bit),
                                                    pl.fills(masks, above))


@settings(max_examples=200, deadline=None)
@given(st.data(), line_lists())
def test_sc_analysis_matches_probes_on_shared_lines(data, lines):
    p = data.draw(polytope_over(lines))
    if data.draw(st.booleans()):
        q = mirrored(p, data.draw(st.randoms(use_true_random=False)))
    else:
        q = data.draw(polytope_over(lines))
    assert pl._sc_analysis(p, q) == probe_sc_analysis(p, q)
    assert pl._sc_analysis(q, p) == probe_sc_analysis(q, p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), small_fractions, small_fractions)
def test_sc_analysis_matches_probes_on_random_polytopes(seed, bounded, dx, dy):
    rng = random.Random(seed)
    p = pl.random_plane_polytope(rng, bounded=bounded)
    others = [pl.random_plane_polytope(rng, bounded=bounded), translated(p, dx, dy),
              mirrored(p, rng), mirrored(translated(p, dx, 0), rng), pl.EMPTY, pl.R2]
    for q in others:
        assert pl._sc_analysis(p, q) == probe_sc_analysis(p, q)


def halves(poly, line):
    """The constraint sets of every part of a polytope cut in two along a
    line: the same region, or less when one set is left out."""
    return [list(part.constraints) + [side] for part in poly.parts for side in line.sides()]


@settings(max_examples=150, deadline=None)
@given(st.data(), line_lists())
def test_equals_and_boundary_match_references_on_shared_lines(data, lines):
    p = data.draw(polytope_over(lines))
    kind = data.draw(st.sampled_from(["other", "mirrored", "split", "chipped", "union"]))
    if kind == "other":
        q = data.draw(polytope_over(lines))
    elif kind == "mirrored":
        q = mirrored(p, data.draw(st.randoms(use_true_random=False)))
    elif kind in ("split", "chipped"):
        sets = halves(p, data.draw(st.sampled_from(lines)))
        q = pl.PlanePolytope.from_constraint_sets(sets[1:] if kind == "chipped" else sets)
    else:
        q = p.union(data.draw(polytope_over(lines)))
    assert p.equals(q) == demorgan_equals(p, q)
    assert q.equals(p) == demorgan_equals(q, p)
    extra = data.draw(st.lists(st.sampled_from(lines), max_size=3))
    assert cu.boundary_representation(p, extra) == reference_boundary_representation(p, extra)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), small_fractions, small_fractions)
def test_equals_and_boundary_match_references_on_random_polytopes(seed, bounded, dx, dy):
    rng = random.Random(seed)
    p = pl.random_plane_polytope(rng, bounded=bounded)
    line = mk_line((rng.randint(-2, 2), rng.randint(1, 2)), F(rng.randint(-4, 4)))
    sets = halves(p, line)
    others = [pl.random_plane_polytope(rng, bounded=bounded), translated(p, dx, dy),
              mirrored(p, rng), pl.PlanePolytope.from_constraint_sets(sets),
              pl.PlanePolytope.from_constraint_sets(sets[1:]),
              pl.PlanePolytope.from_constraint_sets(halves(translated(p, dx, 0), line)),
              pl.EMPTY, pl.R2]
    for q in others:
        assert p.equals(q) == demorgan_equals(p, q)
    for q in others[:3]:
        extra = q.constraint_lines()
        assert (cu.boundary_representation(p, extra)
                == reference_boundary_representation(p, extra))
    assert cu.boundary_representation(p) == reference_boundary_representation(p)
