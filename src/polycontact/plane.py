"""Plane polytopes: unions of half-plane intersections, exact contact predicates.

The carrier is the Boolean algebra of regular closed sets generated by closed
half-planes: a basic polytope is a regularised intersection of half-planes
(stored only when its interior is nonempty, with redundant constraints
dropped), and a polytope is a finite union of basics.  ``mk_basic``
decides emptiness and redundancy one line at a time: a half-plane is kept
when its line carries a facet, a system of strict bounds on one variable
over the half-planes' integer forms (``HalfSpace.integer_form``), whose
bounds are compared by cross-multiplying.  Whether two polytopes share a
point reduces to feasibility of a small linear system with strict or
non-strict inequalities, decided exactly by Fourier-Motzkin elimination
over the same integer forms.  The kernel, ``feasible_ints``, returns its
witness as ints.  The contact predicates' overlap search
(``_common_point``) calls it and builds no point.  Equality of polytopes
makes no such test: it compares the faces each one fills (below).

Contact relations, strongest to weakest:

* ``overlap``    - the regularised meet is nonempty;
* ``contact_sc`` - strong contact: a connected open subset of the union
  meets both regions.  Decided as overlap, or a shared crossing facet: a
  positive-length segment on some constraint line with the interior of one
  region on one open side and the interior of the other region opposite;
* ``contact_c``  - the closed point sets intersect.

Face membership has one kernel.  When every constraint line of a polytope
is a line of an arrangement, each open face of the arrangement lies inside
the polytope or misses it, and which is read off the face's sign vector
with one compare per part: ``sign_masks`` gives each part the bits of its
lines (``care``) and the sides it needs (``need``), and the part fills the
face with sign vector ``f`` exactly when ``f & care == need`` (``fills``).
``arrangement_edges`` walks the edges of the arrangement carrying their
sign vectors as bitmasks, so the open faces (``faces``) and the two flanks
of each edge are known with no point probe and no Fourier-Motzkin call.
``flanks`` tests both flanks of an edge in one pass over the parts; it is
the one test of the facet search of strong contact and of the boundary of
``cuts``, and ``equals`` compares ``fills`` on each face.  The walk is on integers: each line's crossings
are ints over one common denominator, and an edge's ends are two of them.
It builds no point; ``edge_point`` builds the exact point inside an edge
for the callers that need one, the facet edge of
``contact_sc``/``sc_witness`` and a sheet's ``rep`` in ``cuts``.  Such
points come from ``line_point``: the point at an int parameter ``p/q`` of a
line, computed on the line's integer form with one ``Fraction`` per
coordinate; ``line_point_ints`` gives it as reduced ints, on which ``cuts``
deduplicates the corners of a boundary.  Half-planes and lines are
compared, hashed and sorted on their integer forms (``numeric``), so
``mk_basic``, ``constraint_lines`` and the pooling of two polytopes' lines
sort and deduplicate on ints, and ``sign_masks`` reads a half-plane's side
off the sign of its integer form's lead.  ``point_in_interior`` and
``point_on_boundary`` stay as an independent pointwise predicate that
samples the sectors around a point.

Strong contact is one analysis (``_sc_analysis``) that returns one record,
``(point, walls, line)``, or None: the witness centre as ``Fraction``s
(built once), the integer forms of the lines that bound its disk, and the
shared facet's line, None for an overlap.  ``contact_sc`` and
``sc_verdict`` read it; ``sc_verdict`` gives from one analysis both the
witness disk (``sc_witness``) and the reason for the verdict, its point and
the number of edges the facet search walked (``sc_explanation``).

Every half-disk/ball construction used by ``sc_witness`` is returned with a
rational radius small enough to be checked by exact containment tests
(``sc_witness_valid``).  The radii come from the record's walls and the
centre over one common denominator: each distance is a ratio of ints, and
the one ``Fraction`` built is the radius.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Iterator, Optional, Sequence

from .numeric import (
    DimensionMismatch,
    HalfSpace,
    Hyperplane,
    LineRelation,
    Point,
    dot,
    flip,
    intersect_lines,
    rational,
    sqrt_lower_ints,
)

# linear constraint a*x + b*y (< | <=) c, coefficients int or Fraction
LinCon = tuple[int | Fraction, int | Fraction, int | Fraction, bool]


# ---------------------------------------------------------------------------
# exact feasibility of strict/non-strict systems (Fourier-Motzkin)
# ---------------------------------------------------------------------------

def _solve_1d(cons: Iterable[tuple[int, int, bool]]) -> Optional[tuple[int, int]]:
    """Witness ``(p, q)``, q > 0, for the value ``t = p/q`` satisfying every
    integer constraint ``a*t (<|<=) c``, or None.

    Each bound ``c/a`` is kept as a numerator and a positive denominator,
    and bounds are compared by cross-multiplying.  The witness is the
    midpoint of the tightest bounds, one past the only one, or 0.  Bounds
    only tighten, so the scan stops with None at the first bound that
    makes the tightest lower and upper bounds cross, or meet with a strict
    side: no later bound can reopen the interval.
    """
    lo_p = lo_q = hi_p = hi_q = None  # t > / >= lo_p/lo_q, t < / <= hi_p/hi_q
    lo_strict = hi_strict = False
    for a, c, strict in cons:
        if a > 0:
            if not (hi_q is None or c * hi_q < hi_p * a
                    or (strict and c * hi_q == hi_p * a)):
                continue
            hi_p, hi_q, hi_strict = c, a, strict
        elif a < 0:
            if not (lo_q is None or c * lo_q < lo_p * a
                    or (strict and c * lo_q == lo_p * a)):
                continue
            lo_p, lo_q, lo_strict = -c, -a, strict
        elif c < 0 or (c == 0 and strict):
            return None
        else:
            continue
        if lo_q is not None and hi_q is not None:
            lo, hi = lo_p * hi_q, hi_p * lo_q
            if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                return None
    if lo_q is None:
        return (0, 1) if hi_q is None else (hi_p - hi_q, hi_q)
    if hi_q is None:
        return lo_p + lo_q, lo_q
    lo, hi = lo_p * hi_q, hi_p * lo_q
    if lo < hi:
        return lo + hi, 2 * lo_q * hi_q
    return lo_p, lo_q               # lo == hi, both sides non-strict


def feasible_ints(cons: Iterable[LinCon]
                  ) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """A point satisfying every constraint as ints ``((p, q), (r, s))``, the
    point ``(p/q, r/s)`` with q, s > 0, or None: the Fourier-Motzkin kernel,
    which builds no ``Fraction``.

    Coefficients may be ints or Fractions; each constraint with a Fraction
    is first scaled to integers by the lcm of its denominators, which
    changes neither its solutions nor the witness.  Eliminates y first:
    each (lower, upper) pair of y-bounds yields an x-constraint, strict
    when either side is strict; the resulting one-variable system is
    solved directly, and y is back-substituted at ``x = p/q`` by scaling
    its constraints by q.
    """
    x_cons: list[tuple[int, int, bool]] = []
    uppers: list[tuple[int, int, int, bool]] = []
    lowers: list[tuple[int, int, int, bool]] = []
    for a, b, c, strict in cons:
        if not type(a) is type(b) is type(c) is int:
            scale = math.lcm(a.denominator, b.denominator, c.denominator)
            a, b, c = (int(v * scale) for v in (a, b, c))
        if b > 0:
            uppers.append((a, b, c, strict))
        elif b < 0:
            lowers.append((a, b, c, strict))
        elif a:
            x_cons.append((a, c, strict))
        elif c < 0 or (c == 0 and strict):
            return None
    for al, bl, cl, sl in lowers:
        for au, bu, cu, su in uppers:
            # (cl - al*x)/bl <= (cu - au*x)/bu with bl<0<bu
            x_cons.append((bu * al - bl * au, bu * cl - bl * cu, sl or su))
    x = _solve_1d(x_cons)
    if x is None:
        return None
    p, q = x
    y = _solve_1d([(b * q, c * q - a * p, strict) for a, b, c, strict in lowers + uppers])
    if y is None:
        return None
    return x, y


def _as_con(h: HalfSpace, strict: bool) -> LinCon:
    return (*h.integer_form, strict)


# ---------------------------------------------------------------------------
# basic polytopes and polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class BasicPolytope:
    """Irredundant closed half-plane intersection with nonempty interior.

    An irredundant inequality description of a full-dimensional region is
    unique once half-spaces are canonically scaled, so equality of basics
    is plain tuple equality.
    """

    constraints: tuple[HalfSpace, ...]

    def contains(self, p: Point) -> bool:
        return all(h.value_at(p) <= 0 for h in self.constraints)

    def __repr__(self) -> str:
        return f"BasicPolytope({len(self.constraints)} constraints)"


def mk_basic(halfspaces: Iterable[HalfSpace]) -> Optional[BasicPolytope]:
    """Canonical basic polytope of the given half-planes, or None.

    None exactly when the interior of the intersection is empty (so the
    regularised intersection is empty).  A half-plane h is kept exactly
    when it carries a facet: its line meets the open half-planes of all
    the others in an open interval.  Then the points of that interval are
    boundary points with interior on h's side, so a kept h proves the
    interior nonempty; and an intersection with nonempty interior that is
    not the plane has a facet.  Distinct canonical half-planes share no
    line with one orientation, and two on one line with opposite
    orientations leave no interior, so each facet is carried by exactly
    one half-plane and the kept set is the unique irredundant description,
    in sorted order.

    Each test is one ``_solve_1d`` on ints.  For h = (a, b, c), its integer
    form, and s = a**2 + b**2, the point ``((a*c - u*b)/s, (b*c + u*a)/s)``
    runs along h's line, and each other g = (a2, b2, c2) is the strict
    constraint ``(a*b2 - b*a2)*u < s*c2 - c*(a*a2 + b*b2)``.  So the pass
    is O(m**2) for m half-planes and makes no Fourier-Motzkin call.  A
    line's bounds are built as its solve reads them, and the solve stops at
    the first one that empties the interval; but every line is tested: one
    line without a facet does not show the intersection empty.
    """
    current = sorted(set(halfspaces))
    for h in current:
        if h.dim != 2:
            raise DimensionMismatch("mk_basic expects half-planes")
    forms = [h.integer_form for h in current]
    kept = []
    for i, (a, b, c) in enumerate(forms):
        s = a * a + b * b
        if _solve_1d((a * b2 - b * a2, s * c2 - c * (a * a2 + b * b2), True)
                     for j, (a2, b2, c2) in enumerate(forms) if j != i) is not None:
            kept.append(current[i])
    if current and not kept:
        return None
    return BasicPolytope(tuple(kept))


R2_BASIC = BasicPolytope(())


@dataclass(frozen=True)
class PlanePolytope:
    """Finite union of basic polytopes; equality is semantic, not syntactic."""

    parts: tuple[BasicPolytope, ...]

    @staticmethod
    def from_basics(basics: Iterable[Optional[BasicPolytope]]) -> "PlanePolytope":
        kept = sorted({b for b in basics if b is not None})
        return PlanePolytope(tuple(kept))

    @staticmethod
    def from_constraint_sets(sets: Iterable[Iterable[HalfSpace]]) -> "PlanePolytope":
        return PlanePolytope.from_basics(mk_basic(s) for s in sets)

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, p: Point) -> bool:
        return any(part.contains(p) for part in self.parts)

    def union(self, other: "PlanePolytope") -> "PlanePolytope":
        return PlanePolytope.from_basics(self.parts + other.parts)

    def reg_meet(self, other: "PlanePolytope") -> "PlanePolytope":
        basics = [mk_basic(a.constraints + b.constraints)
                  for a in self.parts for b in other.parts]
        return PlanePolytope.from_basics(basics)

    def complement(self) -> "PlanePolytope":
        """De Morgan expansion: flip every constraint, distribute the
        regularised intersections over the unions, drop empty basics."""
        result = R2
        for part in self.parts:
            flipped = PlanePolytope.from_basics(
                mk_basic([flip(h)]) for h in part.constraints)
            result = result.reg_meet(flipped)
        return result

    def equals(self, other: "PlanePolytope") -> bool:
        """Whether both fill the same open faces of the arrangement of their
        pooled constraint lines.

        Each polytope is the closure of the faces it fills, and regular
        closed sets are equal exactly when they agree on a dense open set,
        so the test is exact; it makes no Fourier-Motzkin call.
        """
        lines, p_masks, q_masks = _pooled(self, other)
        return all(fills(p_masks, f) == fills(q_masks, f) for f in faces(lines))

    def contact_c(self, other: "PlanePolytope") -> bool:
        return contact_c(self, other)

    def contact_sc(self, other: "PlanePolytope") -> bool:
        return contact_sc(self, other)

    def overlap(self, other: "PlanePolytope") -> bool:
        return overlap(self, other)

    def sc_witness(self, other: "PlanePolytope"):
        return sc_witness(self, other)

    def constraint_lines(self) -> list[Hyperplane]:
        return sorted({h.boundary() for part in self.parts
                       for h in part.constraints})

    def __repr__(self) -> str:
        return f"PlanePolytope({len(self.parts)} parts)"


EMPTY = PlanePolytope(())
R2 = PlanePolytope((R2_BASIC,))


# ---------------------------------------------------------------------------
# contact predicates
# ---------------------------------------------------------------------------

def _common_point(p: PlanePolytope, q: PlanePolytope, strict: bool):
    """The first pair of parts of ``p`` and ``q`` that share a point (an
    interior point, when ``strict``) as ``(witness, part, part)``, the
    witness the ints of ``feasible_ints``, or None."""
    for a in p.parts:
        for b in q.parts:
            z = feasible_ints([_as_con(h, strict) for h in a.constraints + b.constraints])
            if z is not None:
                return z, a, b
    return None


def contact_c(p: PlanePolytope, q: PlanePolytope) -> bool:
    """Topological contact: the closed sets share a point."""
    return _common_point(p, q, False) is not None


def overlap(p: PlanePolytope, q: PlanePolytope) -> bool:
    return _common_point(p, q, True) is not None


def line_param(mu: Hyperplane) -> tuple[Point, tuple[Fraction, Fraction]]:
    """A rational base point on the line and a direction vector along it."""
    (a, b), c = mu.normal, mu.offset
    base = (Fraction(0), c / b) if b != 0 else (c / a, Fraction(0))
    return base, (-b, a)


def point_on(base: Point, direction, t: Fraction) -> Point:
    """The point at parameter ``t`` of a line given by ``line_param``."""
    return (base[0] + t * direction[0], base[1] + t * direction[1])


def _line_coords(mu: Hyperplane, p: int, q: int) -> tuple[int, int, int]:
    """``(x, y, d)``, ints with d nonzero, such that ``(x/d, y/d)`` is the
    point at parameter ``p/q`` of ``line_param(mu)``."""
    # mu is (A*x + B*y = C) / m with m its lead coefficient; line_param's
    # base is (0, C/B), or (C/A, 0) when B = 0 (then A = m), and its
    # direction is (-B, A) / m
    A, B, C = mu.integer_form
    if B:
        qm = q * (A or B)
        return -p * B * B, C * qm + p * A * B, B * qm
    return C * q, p * A, A * q


def line_point(mu: Hyperplane, p: int, q: int) -> Point:
    """The exact point at parameter ``p/q`` (ints, q nonzero) of
    ``line_param(mu)``, equal to ``point_on(*line_param(mu), Fraction(p, q))``:
    computed on the line's integer form, one ``Fraction`` per coordinate."""
    x, y, d = _line_coords(mu, p, q)
    return Fraction(x, d), Fraction(y, d)


def line_point_ints(mu: Hyperplane, p: int, q: int) -> tuple[int, int, int]:
    """``line_point(mu, p, q)`` as ``(x, y, d)``, the coordinates over
    their least common positive denominator d: equal points give equal
    triples, and no ``Fraction`` is built."""
    x, y, d = _line_coords(mu, p, q)
    g = math.gcd(x, y, d)
    if d < 0:
        g = -g
    return x // g, y // g, d // g


def arrangement_edges(lines: Sequence[Hyperplane]
                      ) -> Iterator[tuple[Hyperplane, Optional[int], Optional[int],
                                          int, int]]:
    """The open edges of the arrangement of distinct lines, lazily.

    Each line in turn is cut at its crossings with the others, and each
    relatively open piece is yielded in order along ``line_param``'s
    direction as ``(line, lo, hi, den, above)``.  The parameters of its
    ends are ``lo/den`` and ``hi/den``: ``lo`` and ``hi`` are ints (None
    for an unbounded end) over one positive int ``den`` shared by all the
    line's edges.  ``above`` is the edge's sign vector, an int with bit j
    set when ``lines[j]`` is positive (``value_at > 0``) on the edge.  The
    line's own bit is clear; the open faces flanking the edge have sign
    vectors ``above | bit`` (the side its normal points to) and ``above``.
    No point is built: ``edge_point`` gives one inside an edge.

    The sign vector of the first piece comes from the slope of each
    crossing line along the direction (or, for a parallel line, its sign at
    the base point); crossing a breakpoint flips the bits of the lines
    through it.  Slopes, gaps and crossings come from the lines' integer
    forms: a slope's sign is an integer determinant's, a crossing's
    parameter is a quotient of integers, and the crossings of one line are
    put over the lcm of their denominators, so they are grouped and sorted
    as plain ints.
    """
    for mu in lines:
        # mu is (A*x + B*y = C) / m with m its lead coefficient, so
        # line_param's base is (0, C/k) or (C/k, 0) for k = B or A, and its
        # direction is (-B, A) / m
        A, B, C = mu.integer_form
        m = A or B
        k = B or A
        above = 0
        # per crossing line: its bit, its determinant and its gap
        bits: list[int] = []
        dets: list[int] = []
        gaps: list[int] = []
        for j, nu in enumerate(lines):
            if nu is mu:
                continue
            a, b, c = nu.integer_form
            # nu's value at base + t*direction is (det*t/m - gap/k) times
            # a positive factor, so it crosses mu at t = gap*m / (det*k)
            det = b * A - a * B
            gap = c * k - (b if B else a) * C
            bit = 1 << j
            if det == 0:  # parallel lines never cross
                if gap * k < 0:
                    above |= bit
                continue
            if det < 0:  # positive before the crossing
                above |= bit
            bits.append(bit)
            dets.append(det)
            gaps.append(gap)
        # t = num / den for den = lcm(dets) * |k| and num below
        lcm = math.lcm(*dets)
        scale = m if k > 0 else -m
        flips: dict[int, int] = {}
        for bit, det, gap in zip(bits, dets, gaps):
            num = gap * scale * (lcm // det)
            flips[num] = flips.get(num, 0) | bit
        den = lcm * abs(k)
        lo = None
        for hi in sorted(flips):
            yield mu, lo, hi, den, above
            above ^= flips[hi]
            lo = hi
        yield mu, lo, None, den, above


def edge_point(mu: Hyperplane, lo: Optional[int], hi: Optional[int],
               den: int) -> Point:
    """The point inside an edge ``(mu, lo, hi, den, _)`` of
    ``arrangement_edges``: at parameter ``hi/den - 1``, the midpoint or
    ``lo/den + 1``, or 0 on a line no other line crosses.  It lies on no
    other line of the arrangement."""
    if lo is None:
        return line_point(mu, 0, 1) if hi is None else line_point(mu, hi - den, den)
    if hi is None:
        return line_point(mu, lo + den, den)
    return line_point(mu, lo + hi, 2 * den)


def faces(lines: Sequence[Hyperplane]) -> set[int]:
    """The sign vectors of the open 2-faces of the arrangement of distinct
    lines, as ints with bit j set on the positive side of ``lines[j]``.

    With at least one line every face borders an edge, so the faces are
    the flanks ``above`` and ``above | bit`` of the edges; with no line the
    one face is the plane, ``0``.
    """
    if not lines:
        return {0}
    own_bit = {id(line): 1 << j for j, line in enumerate(lines)}
    out = set()
    for mu, _, _, _, above in arrangement_edges(lines):
        out.add(above)
        out.add(above | own_bit[id(mu)])
    return out


def sign_masks(poly: PlanePolytope, index: dict[Hyperplane, int]
               ) -> list[tuple[int, int]]:
    """Per part, ``(care, need)``: ``care`` has the bits of the indexed lines
    that carry one of the part's half-planes, and ``need`` those of them the
    part's interior lies on the positive side of.  So the part fills the open
    face with sign vector ``f`` exactly when ``f & care == need``.

    A half-plane whose lead coefficient is 1, as its boundary's is, is the
    negative side of that line; one whose lead is -1 is the positive side.
    The lead's sign is read off the integer form.
    """
    masks = []
    for part in poly.parts:
        care = need = 0
        for h in part.constraints:
            bit = 1 << index[h.boundary()]
            care |= bit
            a, b, _ = h.integer_form
            if (a or b) < 0:
                need |= bit
        masks.append((care, need))
    return masks


def fills(masks: list[tuple[int, int]], face: int) -> bool:
    """Whether the polytope with these part masks contains the open face
    with sign vector ``face`` (bit set: positive side)."""
    return any(face & care == need for care, need in masks)


def flanks(masks: list[tuple[int, int]], above: int, bit: int) -> tuple[bool, bool]:
    """``(fills(masks, above | bit), fills(masks, above))``: whether the
    polytope fills each flank of an edge of ``arrangement_edges``, ``above``
    its sign vector and ``bit`` its own line's bit.

    One compare per part: with ``r = above & care ^ need``, the part fills
    the flank ``above`` when r is 0, and the flank ``above | bit`` when r is
    ``bit & care``, so a part that does not care about the edge's line
    fills both flanks or neither.
    """
    plus = minus = False
    for care, need in masks:
        r = above & care ^ need
        if not r:
            minus = True
            if not bit & care:
                plus = True
        elif r == bit:
            plus = True
        else:
            continue
        if plus and minus:
            break
    return plus, minus


def _pooled(p: PlanePolytope, q: PlanePolytope):
    """The sorted pooled constraint lines of both polytopes, and each one's
    ``sign_masks`` over them."""
    lines = sorted(set(p.constraint_lines()) | set(q.constraint_lines()))
    index = {line: j for j, line in enumerate(lines)}
    return lines, sign_masks(p, index), sign_masks(q, index)


def _counted(edges: Iterable, stats: dict[str, int]) -> Iterator:
    """``edges``, adding one to ``stats["edges_walked"]`` for each taken."""
    for edge in edges:
        stats["edges_walked"] += 1
        yield edge


def _sc_analysis(p: PlanePolytope, q: PlanePolytope,
                 stats: Optional[dict[str, int]] = None):
    """The strong-contact record ``(point, walls, line)`` (module
    docstring), or None when strong contact fails.  With ``stats``,
    ``stats["edges_walked"]`` counts the edges the facet search takes;
    without it, the walk counts nothing.

    An overlap's point is the first common interior point of two parts
    (``_common_point``), its walls the parts' half-planes.  Otherwise the
    facet search walks the edges of the arrangement of the pooled
    constraint lines (``arrangement_edges``) and reads which polytope fills
    each flank off its sign vector (``flanks``).  An edge on ``mu`` is a
    shared crossing facet when one polytope fills its flank
    ``above | bit(mu)`` and the other its flank ``above``; the point is
    that of the first such edge in walk order (``edge_point``, the one
    point the search builds), and the walls are the other pooled lines.
    """
    if p.is_empty() or q.is_empty():
        return None
    common = _common_point(p, q, True)
    if common is not None:
        (x, y), a, b = common
        # a half-plane's integer form is its line's, up to sign
        return ((Fraction(*x), Fraction(*y)),
                [h.integer_form for h in a.constraints + b.constraints], None)
    lines, p_masks, q_masks = _pooled(p, q)
    own_bit = {id(line): 1 << j for j, line in enumerate(lines)}
    edges = arrangement_edges(lines)
    if stats is not None:
        edges = _counted(edges, stats)
    for mu, lo, hi, den, above in edges:
        bit = own_bit[id(mu)]
        p_plus, p_minus = flanks(p_masks, above, bit)
        if not (p_plus or p_minus):
            continue
        q_plus, q_minus = flanks(q_masks, above, bit)
        if (p_plus and q_minus) or (p_minus and q_plus):
            return (edge_point(mu, lo, hi, den),
                    [nu.integer_form for nu in lines if nu is not mu], mu)
    return None


def contact_sc(p: PlanePolytope, q: PlanePolytope) -> bool:
    """Strong contact: overlap or a shared crossing facet."""
    return _sc_analysis(p, q) is not None


def sc_explanation(p: PlanePolytope, q: PlanePolytope
                   ) -> tuple[str, Optional[Hyperplane], Optional[Point], int]:
    """Why strong contact holds or fails, as ``(reason, line, point,
    edges_walked)``: reason "overlap" with a point interior to both, "facet"
    with the shared facet's line and the point inside its edge, or "none"
    with neither.  ``edges_walked`` counts the arrangement edges the facet
    search took, the facet edge included; an overlap walks none."""
    return sc_verdict(p, q, count_edges=True)[1]


def sc_witness(p: PlanePolytope, q: PlanePolytope
               ) -> Optional[tuple[Point, Fraction]]:
    """An open disk inside ``p | q`` meeting both, when SC holds.

    Overlap case: a ball around an interior point of the regularised meet,
    with radius half the least ``sqrt_lower`` distance to the constraint
    lines of the two parts.  Facet case: the half-disk construction at the
    facet edge's point, with radius half the least such distance to the
    other pooled constraint lines.  Both are read off the strong-contact
    record, whose walls are those lines.
    """
    return sc_verdict(p, q)[0]


def sc_verdict(p: PlanePolytope, q: PlanePolytope, count_edges: bool = False):
    """``(sc_witness(p, q), sc_explanation(p, q))`` from one strong-contact
    analysis.  Unless ``count_edges``, the walk is not wrapped in a counter
    and the explanation's ``edges_walked`` is None.

    The witness radius is computed on ints: with the centre over one common
    denominator as ``(X/D, Y/D)``, the squared distance to the line of
    integer form ``(A, B, C)`` is ``(A*X + B*Y - C*D)**2 / (D**2 *
    (A**2 + B**2))``, reduced and passed to ``sqrt_lower_ints``; the least
    root is found by cross-multiplying, and the radius is its one
    ``Fraction``.
    """
    stats = {"edges_walked": 0} if count_edges else None
    analysis = _sc_analysis(p, q, stats)
    walked = None if stats is None else stats["edges_walked"]
    if analysis is None:
        return None, ("none", None, None, walked)
    z, walls, line = analysis
    explanation = ("overlap" if line is None else "facet", line, z, walked)
    if not walls:
        return (z, Fraction(1)), explanation
    x, y = z
    D = math.lcm(x.denominator, y.denominator)
    X, Y = x.numerator * (D // x.denominator), y.numerator * (D // y.denominator)
    best_r, best_s = None, 1
    for A, B, C in walls:
        v = A * X + B * Y - C * D
        num, den = v * v, D * D * (A * A + B * B)
        g = math.gcd(num, den)
        r, s = sqrt_lower_ints(num // g, den // g)
        if best_r is None or r * best_s < best_r * s:
            best_r, best_s = r, s
    return (z, Fraction(best_r, 2 * best_s)), explanation


# ---------------------------------------------------------------------------
# exact ball containment (witness validation)
# ---------------------------------------------------------------------------

def point_basic_dist_sq(z: Point, basic: BasicPolytope) -> Fraction:
    """Exact squared distance from a point to a closed basic polytope.

    The closest point is z itself, the foot of a perpendicular on a facet,
    or a vertex; all candidates are rational.
    """
    if basic.contains(z):
        return Fraction(0)
    best: Fraction | None = None
    cons = basic.constraints
    for h in cons:
        n, val = h.normal, h.value_at(z)
        nn = dot(n, n)
        foot = (z[0] - val * n[0] / nn, z[1] - val * n[1] / nn)
        if basic.contains(foot):
            d = val * val / nn
            best = d if best is None else min(best, d)
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            kind, v = intersect_lines(cons[i].boundary(), cons[j].boundary())
            if kind is LineRelation.POINT and basic.contains(v):
                d = (z[0] - v[0]) ** 2 + (z[1] - v[1]) ** 2
                best = d if best is None else min(best, d)
    if best is None:
        raise ValueError("unreachable: nonempty basic with no boundary candidate")
    return best


def ball_meets(center: Point, radius: Fraction, poly: PlanePolytope) -> bool:
    return any(point_basic_dist_sq(center, part) < radius * radius
               for part in poly.parts)


def ball_within(center: Point, radius: Fraction, poly: PlanePolytope) -> bool:
    """Whether the open disk is contained in the (regular closed) polytope."""
    comp = poly.complement()
    return all(point_basic_dist_sq(center, part) >= radius * radius
               for part in comp.parts)


def sc_witness_valid(p: PlanePolytope, q: PlanePolytope,
                     center: Point, radius: Fraction) -> bool:
    return (radius > 0
            and ball_within(center, radius, p.union(q))
            and ball_meets(center, radius, p)
            and ball_meets(center, radius, q))


# ---------------------------------------------------------------------------
# interior membership at a point (pointwise, independent of the face kernel)
# ---------------------------------------------------------------------------

def _angle_cmp(d1, d2) -> int:
    def half(d):
        x, y = d
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _sector_step(v: Point, direction, lines: Sequence[Hyperplane]) -> Fraction:
    """An eps such that v + t*direction, for 0 < |t| <= eps, meets none of
    the lines that miss v."""
    bounds = []
    for lam in lines:
        shift = dot(lam.normal, direction)
        if shift == 0:
            continue
        val = lam.value_at(v)
        if val != 0:
            bounds.append(abs(val) / abs(shift))
    return min(bounds) / 2 if bounds else Fraction(1)


def point_in_interior(poly: PlanePolytope, v: Point) -> bool:
    """Exact interior test, correct even when v lies on constraint lines.

    Samples one point per angular sector around v between consecutive
    constraint-line directions; v is interior iff v is a member and every
    sector sample is.
    """
    if not poly.contains(v):
        return False
    lines = poly.constraint_lines()
    thru = [l for l in lines if l.contains(v)]
    if not thru:
        return True
    if len(thru) == 1:
        n = thru[0].normal
        mids = [n, (-n[0], -n[1])]
    else:
        dirs = set()
        for l in thru:
            _, d = line_param(l)
            dirs.add(d)
            dirs.add((-d[0], -d[1]))
        ordered = sorted(dirs, key=cmp_to_key(_angle_cmp))
        mids = []
        for d1, d2 in zip(ordered, ordered[1:] + ordered[:1]):
            mids.append((d1[0] + d2[0], d1[1] + d2[1]))
    for m in mids:
        eps = _sector_step(v, m, lines)
        sample = (v[0] + eps * m[0], v[1] + eps * m[1])
        if not poly.contains(sample):
            return False
    return True


def point_on_boundary(poly: PlanePolytope, v: Point) -> bool:
    return poly.contains(v) and not point_in_interior(poly, v)


# ---------------------------------------------------------------------------
# text form and random generation
# ---------------------------------------------------------------------------
#
#   poly { basic { 1 0 <= 1; -1 0 <= 0; 0 1 <= 1; 0 -1 <= 0 } basic { ... } }

class PlaneFormatError(ValueError):
    pass


def _tokenize_poly(text: str) -> list[str]:
    out = []
    for raw in text.replace("{", " { ").replace("}", " } ").replace(";", " ; ").split():
        out.append(raw)
    return out


def parse_plane(text: str) -> PlanePolytope:
    toks = _tokenize_poly(text)
    pos = 0

    def expect(tok):
        nonlocal pos
        if pos >= len(toks) or toks[pos] != tok:
            got = toks[pos] if pos < len(toks) else "<end>"
            raise PlaneFormatError(f"expected {tok!r}, got {got!r}")
        pos += 1

    def at(tok):
        return pos < len(toks) and toks[pos] == tok

    expect("poly")
    expect("{")
    sets: list[list[HalfSpace]] = []
    while at("basic"):
        expect("basic")
        expect("{")
        cons: list[HalfSpace] = []
        while not at("}"):
            try:
                a = rational(toks[pos])
                b = rational(toks[pos + 1])
                if toks[pos + 2] != "<=":
                    raise PlaneFormatError("expected '<='")
                c = rational(toks[pos + 3])
            except (IndexError, ValueError, TypeError) as exc:
                raise PlaneFormatError(f"bad constraint near token {pos}: {exc}") from exc
            pos += 4
            cons.append(HalfSpace((a, b), c))
            if at(";"):
                pos += 1
        expect("}")
        sets.append(cons)
    expect("}")
    if pos != len(toks):
        raise PlaneFormatError(f"trailing input: {toks[pos]!r}")
    return PlanePolytope.from_constraint_sets(sets)


def format_plane(p: PlanePolytope) -> str:
    blocks = []
    for part in p.parts:
        cons = "; ".join(f"{h.normal[0]} {h.normal[1]} <= {h.offset}"
                         for h in part.constraints)
        blocks.append("basic { " + cons + " }" if cons else "basic { }")
    inner = " ".join(blocks)
    return "poly { " + inner + " }" if blocks else "poly { }"


def random_plane_polytope(rng: random.Random, *, max_parts: int = 2,
                          max_cons: int = 4, span: int = 4, max_den: int = 4,
                          bounded: bool = False, box: int = 5) -> PlanePolytope:
    """Seeded generator with coordinates in [-span, span], denominators
    bounded by max_den.  With bounded=True every part carries box
    constraints, so the polytope fits in [-box, box]^2."""
    def halfplane() -> HalfSpace:
        while True:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            if a or b:
                break
        den = rng.randint(1, max_den)
        c = Fraction(rng.randint(-span * den, span * den), den)
        return HalfSpace((Fraction(a), Fraction(b)), c)

    box_cons = [HalfSpace((Fraction(1), Fraction(0)), Fraction(box)),
                HalfSpace((Fraction(-1), Fraction(0)), Fraction(box)),
                HalfSpace((Fraction(0), Fraction(1)), Fraction(box)),
                HalfSpace((Fraction(0), Fraction(-1)), Fraction(box))]

    for _ in range(200):
        sets = []
        for _ in range(rng.randint(1, max_parts)):
            cons = [halfplane() for _ in range(rng.randint(2, max_cons))]
            if bounded:
                cons += box_cons
            sets.append(cons)
        poly = PlanePolytope.from_constraint_sets(sets)
        if not poly.is_empty():
            return poly
    raise RuntimeError("generator failed to produce a nonempty polytope")
