"""Cut systems in the plane: bricks, cores, sheets, boundary representation.

A cut system is a finite set of lines.  Choosing one closed side per cut
gives an alternative; the intersection of an alternative with nonempty
interior is a brick, and its interior is the brick's core.  Cores of
distinct bricks are disjoint and jointly cover the plane minus the cuts.

On each cut, the intersection points with the other cuts (the vertices of
the system) split the line into relatively open pieces called sheets.  Each
sheet has two flanking bricks: the bricks obtained by keeping the sheet's side
choices on every other cut and adjoining either side of its own carrier.
A polytope whose constraint lines all belong to the system is a union of
bricks, and its boundary decomposes as a union of sheets plus a subset of
the vertices.

Everything here is read off one walk over the edges of the cut arrangement
(``plane.arrangement_edges``): an edge is a sheet, its sign vector gives
the sheet's side on every other cut, and its two flanks are bricks.  The
bricks are the open faces of the arrangement (``plane.faces``), found with
one Fourier-Motzkin core point each, O(k^2) for k cuts, and no search over
the 2^k alternatives.  Which bricks a polytope fills is read off their
sign vectors with one compare per part (``plane.flanks`` tests both flanks
of an edge at once), so its boundary representation needs no
Fourier-Motzkin call and no point test at all.

The walk yields an edge's ends as ints over a common denominator, and no
point.  A ``Sheet`` is built from the edge's ints and keeps them; its
``Fraction`` ends, its inner point ``rep`` and its ``other_signs`` are
derived on first read, so ``boundary_representation`` builds none of them.
Every point is built by ``plane.line_point`` from the carrier's integer
form and an int parameter ``p/q``, one ``Fraction`` per coordinate: a
sheet's ``rep`` (``plane.edge_point``) and its ``sheet_points``, whose
parameters are read off its int ends and denominator.
``boundary_representation`` collects the corners from the edges' int ends
as reduced int triples (``plane.line_point_ints``), sorts them on ints over
one common denominator (``sorted_corners``), and builds each distinct
corner's ``Fraction``s once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .numeric import HalfSpace, Hyperplane, LineRelation, Point, intersect_lines
from .plane import (
    PlanePolytope,
    arrangement_edges,
    core_point,
    edge_point,
    faces,
    flanks,
    line_point,
    line_point_ints,
    sign_masks,
)


@dataclass(frozen=True)
class CutSystem:
    cuts: tuple[Hyperplane, ...]

    @staticmethod
    def of(cuts: Iterable[Hyperplane]) -> "CutSystem":
        return CutSystem(tuple(sorted(set(cuts))))

    @staticmethod
    def for_polytope(poly: PlanePolytope,
                     extra: Iterable[Hyperplane] = ()) -> "CutSystem":
        lines, extra = poly.constraint_lines(), list(extra)
        # constraint_lines is already sorted and distinct
        return CutSystem.of(lines + extra) if extra else CutSystem(tuple(lines))

    def vertices(self) -> tuple[Point, ...]:
        pts = set()
        for i in range(len(self.cuts)):
            for j in range(i + 1, len(self.cuts)):
                kind, v = intersect_lines(self.cuts[i], self.cuts[j])
                if kind is LineRelation.POINT:
                    pts.add(v)
        return tuple(sorted(pts))


@dataclass(frozen=True)
class Brick:
    """An alternative with nonempty core, as one sign per cut."""

    signs: tuple[int, ...]
    constraints: tuple[HalfSpace, ...]
    core_point: Point

    def contains(self, p: Point) -> bool:
        return all(h.value_at(p) <= 0 for h in self.constraints)


def brick_decomposition(cs: CutSystem) -> tuple[Brick, ...]:
    """All alternatives whose strict system is feasible; cores are disjoint.

    Every brick's core is an open face of the cut arrangement
    (``plane.faces``); the bricks are sorted into
    ``itertools.product((1, -1), ...)`` order.  A core point is found by
    Fourier-Motzkin once per brick, O(k^2) calls for k cuts instead of one
    per each of the 2^k alternatives.
    """
    if not cs.cuts:
        raise ValueError("brick decomposition needs at least one cut")
    # a set bit is the positive side of its cut, sign -1
    alternatives = {tuple(-1 if face >> j & 1 else 1 for j in range(len(cs.cuts)))
                    for face in faces(cs.cuts)}
    sides = [cut.sides() for cut in cs.cuts]
    bricks = []
    for signs in sorted(alternatives, reverse=True):
        cons = tuple(pair[0 if s > 0 else 1] for pair, s in zip(sides, signs))
        bricks.append(Brick(signs, cons, core_point(cons)))
    return tuple(bricks)


_UNSET = object()


class Sheet:
    """Maximal open piece of a cut between consecutive system vertices.

    ``lo``/``hi`` are parameters along the carrier's direction vector (None
    for an unbounded end); ``rep`` is an interior point of the piece;
    ``other_signs`` records, for each other cut, the side the whole sheet
    lies in (strictly, since sheets avoid all vertices).

    A sheet is built from an edge ``(mu, lo, hi, den, above)`` of
    ``arrangement_edges(cuts)``, ints, and keeps them: ``lo``, ``hi``,
    ``rep`` and ``other_signs`` are derived on first read, so a sheet that
    is only collected, or whose points are read by ``sheet_points``, builds
    no ``Fraction`` and no tuple of signs.  Equality, hash and ``repr`` are
    those of the record of the five fields, and a copy or a pickle is
    rebuilt from the ints.
    """

    __slots__ = ("_mu", "_cuts", "_lo", "_hi", "_den", "_above",
                 "_lo_param", "_hi_param", "_rep", "_other_signs")

    def __init__(self, cuts: tuple[Hyperplane, ...], mu: Hyperplane,
                 lo: Optional[int], hi: Optional[int], den: int, above: int):
        self._mu = mu
        self._cuts = cuts
        self._lo = lo
        self._hi = hi
        self._den = den
        self._above = above
        self._lo_param = self._hi_param = self._rep = self._other_signs = _UNSET

    @property
    def carrier(self) -> Hyperplane:
        return self._mu

    @property
    def lo(self) -> Optional[Fraction]:
        if self._lo_param is _UNSET:
            self._lo_param = None if self._lo is None else Fraction(self._lo, self._den)
        return self._lo_param

    @property
    def hi(self) -> Optional[Fraction]:
        if self._hi_param is _UNSET:
            self._hi_param = None if self._hi is None else Fraction(self._hi, self._den)
        return self._hi_param

    @property
    def rep(self) -> Point:
        if self._rep is _UNSET:
            self._rep = edge_point(self._mu, self._lo, self._hi, self._den)
        return self._rep

    @property
    def other_signs(self) -> tuple[tuple[Hyperplane, int], ...]:
        if self._other_signs is _UNSET:
            above, mu = self._above, self._mu
            self._other_signs = tuple((nu, -1 if above >> j & 1 else 1)
                                      for j, nu in enumerate(self._cuts) if nu is not mu)
        return self._other_signs

    def _fields(self) -> tuple:
        return self.carrier, self.lo, self.hi, self.rep, self.other_signs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Sheet:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # the lazy fields' sentinel is not kept by a copy
        return Sheet, (self._cuts, self._mu, self._lo, self._hi, self._den, self._above)

    def __repr__(self) -> str:
        carrier, lo, hi, rep, other_signs = self._fields()
        return (f"Sheet(carrier={carrier!r}, lo={lo!r}, hi={hi!r}, rep={rep!r}, "
                f"other_signs={other_signs!r})")


def sheets(cs: CutSystem) -> tuple[Sheet, ...]:
    return tuple(Sheet(cs.cuts, *edge) for edge in arrangement_edges(cs.cuts))


def sheet_points(sheet: Sheet, count: int = 3) -> tuple[Point, ...]:
    """A few interior points of the sheet (for uniformity checks): at
    parameters 0, 1, ... on an uncrossed cut, 1, 2, ... past a single end,
    and spaced evenly between two ends.  The parameters are read off the
    sheet's int ends over its denominator; no end ``Fraction`` is built."""
    lo, hi, den = sheet._lo, sheet._hi, sheet._den
    if lo is None and hi is None:
        ts = [(k, 1) for k in range(count)]
    elif lo is None:
        ts = [(hi - (k + 1) * den, den) for k in range(count)]
    elif hi is None:
        ts = [(lo + (k + 1) * den, den) for k in range(count)]
    else:
        # lo + (hi - lo) * (k + 1) / (count + 1), over one denominator
        q = den * (count + 1)
        ts = [(lo * (count + 1) + (hi - lo) * (k + 1), q) for k in range(count)]
    return tuple(line_point(sheet.carrier, p, q) for p, q in ts)


def sorted_corners(triples: Iterable[tuple[int, int, int]]) -> tuple[Point, ...]:
    """The points ``(x/d, y/d)`` of int triples (d nonzero), sorted as
    ``Fraction`` pairs: the sort is on ints, every coordinate put over the
    lcm of the denominators, and each point's ``Fraction``s are built once,
    in order."""
    triples = list(triples)
    lcm = math.lcm(*(d for _, _, d in triples))
    keyed = sorted((x * (lcm // d), y * (lcm // d), x, y, d) for x, y, d in triples)
    return tuple((Fraction(x, d), Fraction(y, d)) for _, _, x, y, d in keyed)


@dataclass(frozen=True)
class BoundaryRepresentation:
    cut_system: CutSystem
    boundary_sheets: tuple[Sheet, ...]
    corner_points: tuple[Point, ...]


def boundary_representation(poly: PlanePolytope,
                            extra_cuts: Iterable[Hyperplane] = ()
                            ) -> BoundaryRepresentation:
    """Decompose the boundary of a polytope as sheets plus corner points.

    One walk over the edges of the cut arrangement: a sheet belongs to the
    boundary iff the polytope fills exactly one of its two flanking faces
    (``plane.flanks`` on their sign vectors).  The corner points are the
    system vertices on the boundary, and they are the finite ends of the
    boundary sheets, sorted: a vertex is on the boundary exactly when its
    incident faces are mixed, some filled and some not; the faces around
    it follow one another across its incident edges, so the fill changes
    across one of them, which is then a boundary sheet ending at the
    vertex, and conversely a boundary sheet's two flanks are incident faces
    of each of its ends.  Degenerate inputs (empty, whole plane) have empty
    boundary and yield empty parts.
    """
    cs = CutSystem.for_polytope(poly, extra_cuts)
    cuts = cs.cuts
    masks = sign_masks(poly, {cut: j for j, cut in enumerate(cuts)})
    own_bit = {id(cut): 1 << j for j, cut in enumerate(cuts)}
    boundary, corners = [], set()
    for edge in arrangement_edges(cuts):
        mu, lo, hi, den, above = edge
        plus, minus = flanks(masks, above, own_bit[id(mu)])
        if plus != minus:
            boundary.append(Sheet(cuts, *edge))
            # each corner once, as reduced ints, before any Fraction
            for end in (lo, hi):
                if end is not None:
                    corners.add(line_point_ints(mu, end, den))
    return BoundaryRepresentation(cs, tuple(boundary), sorted_corners(corners))
