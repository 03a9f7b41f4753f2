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

Sheets and bricks are both read off one walk over the edges of the cut
arrangement (``plane.arrangement_edges``): an edge is a sheet, its sign
vector gives the sheet's side on every other cut, and its two flanks are
bricks.  Every brick flanks some sheet, so the decomposition needs one
Fourier-Motzkin call per brick, O(k^2) for k cuts, and no search over the
2^k alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .numeric import HalfSpace, Hyperplane, LineRelation, Point, flip, intersect_lines
from .plane import (
    PlanePolytope,
    arrangement_edges,
    core_point,
    line_param,
    point_on,
    point_on_boundary,
)


def _side(cut: Hyperplane, sign: int) -> HalfSpace:
    h = HalfSpace(cut.normal, cut.offset)
    return h if sign > 0 else flip(h)


@dataclass(frozen=True)
class CutSystem:
    cuts: tuple[Hyperplane, ...]

    @staticmethod
    def of(cuts: Iterable[Hyperplane]) -> "CutSystem":
        return CutSystem(tuple(sorted(set(cuts))))

    @staticmethod
    def for_polytope(poly: PlanePolytope,
                     extra: Iterable[Hyperplane] = ()) -> "CutSystem":
        return CutSystem.of(list(poly.constraint_lines()) + list(extra))

    def sides(self) -> tuple[HalfSpace, ...]:
        out = []
        for cut in self.cuts:
            out.append(_side(cut, +1))
            out.append(_side(cut, -1))
        return tuple(out)

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

    With at least one cut every brick's core is an open face of the cut
    arrangement that borders an edge, and both faces flanking an edge are
    cores, so the bricks are read off the flanks of ``arrangement_edges``
    and sorted into ``itertools.product((1, -1), ...)`` order.  A core
    point is found by Fourier-Motzkin once per brick, O(k^2) calls for k
    cuts instead of one per each of the 2^k alternatives.
    """
    if not cs.cuts:
        raise ValueError("brick decomposition needs at least one cut")
    own_bit = {id(cut): 1 << j for j, cut in enumerate(cs.cuts)}
    faces = set()
    for mu, _, _, _, above in arrangement_edges(cs.cuts):
        faces.add(above)
        faces.add(above | own_bit[id(mu)])
    # a set bit is the positive side of its cut, sign -1
    alternatives = {tuple(-1 if face >> j & 1 else 1 for j in range(len(cs.cuts)))
                    for face in faces}
    bricks = []
    for signs in sorted(alternatives, reverse=True):
        cons = tuple(_side(cut, s) for cut, s in zip(cs.cuts, signs))
        bricks.append(Brick(signs, cons, core_point(cons)))
    return tuple(bricks)


def block_bricks(cs: CutSystem, partial: dict[Hyperplane, int],
                 decomposition: Optional[Sequence[Brick]] = None) -> tuple[Brick, ...]:
    """Bricks whose alternatives extend the given partial side choice."""
    decomposition = brick_decomposition(cs) if decomposition is None else decomposition
    idx = {cut: i for i, cut in enumerate(cs.cuts)}
    out = []
    for brick in decomposition:
        if all(brick.signs[idx[cut]] == s for cut, s in partial.items()):
            out.append(brick)
    return tuple(out)


@dataclass(frozen=True)
class Sheet:
    """Maximal open piece of a cut between consecutive system vertices.

    ``lo``/``hi`` are parameters along the carrier's direction vector (None
    for an unbounded end); ``rep`` is an interior point of the piece;
    ``other_signs`` records, for each other cut, the side the whole sheet
    lies in (strictly, since sheets avoid all vertices).
    """

    carrier: Hyperplane
    lo: Fraction | None
    hi: Fraction | None
    rep: Point
    other_signs: tuple[tuple[Hyperplane, int], ...]

    def flank_signs(self, cs: CutSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Sign vectors of the two flanking bricks, aligned with cs.cuts order."""
        chosen = dict(self.other_signs)
        plus, minus = [], []
        for cut in cs.cuts:
            if cut == self.carrier:
                plus.append(1)
                minus.append(-1)
            else:
                plus.append(chosen[cut])
                minus.append(chosen[cut])
        return tuple(plus), tuple(minus)


def sheets(cs: CutSystem) -> tuple[Sheet, ...]:
    out = []
    for mu, lo, hi, rep, above in arrangement_edges(cs.cuts):
        signs = tuple((nu, -1 if above >> j & 1 else 1)
                      for j, nu in enumerate(cs.cuts) if nu is not mu)
        out.append(Sheet(mu, lo, hi, rep, signs))
    return tuple(out)


def sheet_points(sheet: Sheet, count: int = 3) -> tuple[Point, ...]:
    """A few interior points of the sheet (for uniformity checks)."""
    base, direction = line_param(sheet.carrier)
    lo, hi = sheet.lo, sheet.hi
    if lo is None and hi is None:
        ts = [Fraction(k) for k in range(count)]
    elif lo is None:
        ts = [hi - k - 1 for k in range(count)]
    elif hi is None:
        ts = [lo + k + 1 for k in range(count)]
    else:
        ts = [lo + (hi - lo) * Fraction(k + 1, count + 1) for k in range(count)]
    return tuple(point_on(base, direction, t) for t in ts)


@dataclass(frozen=True)
class BoundaryRepresentation:
    cut_system: CutSystem
    boundary_sheets: tuple[Sheet, ...]
    corner_points: tuple[Point, ...]


def polytope_brick_signs(poly: PlanePolytope, cs: CutSystem,
                         decomposition: Sequence[Brick]) -> frozenset[tuple[int, ...]]:
    """The unique set of bricks whose union is the polytope.

    Requires every constraint line of the polytope to be a cut of the
    system; then each core lies wholly inside or outside the polytope and
    membership of the core point decides the brick.
    """
    poly_lines = set(poly.constraint_lines())
    if not poly_lines <= set(cs.cuts):
        raise ValueError("polytope constraint lines must be cuts of the system")
    return frozenset(b.signs for b in decomposition if poly.contains(b.core_point))


def boundary_representation(poly: PlanePolytope,
                            extra_cuts: Iterable[Hyperplane] = ()
                            ) -> BoundaryRepresentation:
    """Decompose the boundary of a polytope as sheets plus corner points.

    A sheet belongs to the boundary iff exactly one of its two flanking bricks is a
    brick of the polytope; the corner points are the system vertices lying
    on the boundary.  Degenerate inputs (empty, whole plane) have empty
    boundary and yield empty parts.
    """
    cs = CutSystem.for_polytope(poly, extra_cuts)
    if not cs.cuts:
        return BoundaryRepresentation(cs, (), ())
    decomposition = brick_decomposition(cs)
    brickset = polytope_brick_signs(poly, cs, decomposition)
    in_boundary = []
    for sheet in sheets(cs):
        plus, minus = sheet.flank_signs(cs)
        if (plus in brickset) != (minus in brickset):
            in_boundary.append(sheet)
    corners = tuple(v for v in cs.vertices() if point_on_boundary(poly, v))
    return BoundaryRepresentation(cs, tuple(in_boundary), corners)
