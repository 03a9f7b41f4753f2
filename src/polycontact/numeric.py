"""Exact rational scalars, points, half-spaces and hyperplanes.

Everything downstream decides boundary coincidences (shared facets, touching
endpoints) by exact comparison, so every value is exact and every predicate
in this module is tolerance-free.  Points, coefficients and offsets here are
`fractions.Fraction` values; kernels downstream also work on plain ints: the
integer forms below, the crossing parameters of the plane's arrangement walk
(ints over one common denominator per line), and the integral endpoints of
line polytopes.

Half-spaces and hyperplanes are kept in a canonical scaling so that
syntactic equality coincides with geometric equality:

* a half-space ``{x : n.x <= c}`` is scaled so the first nonzero normal
  coordinate has absolute value 1 (positive scaling preserves the
  inequality's orientation);
* a hyperplane ``{x : n.x = c}`` is scaled so the first nonzero normal
  coordinate equals 1 (sign is free for an equation, which identifies the
  two oriented descriptions of the same line).

Each half-space and hyperplane also carries its integer form
(``integer_form``): the canonical coefficients times the lcm of their
denominators, a positive scaling, so the same set.  It is computed once per
object, and the plane kernel decides feasibility and walks arrangements on
it, building ``Fraction`` values only for the points it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence

Rational = Fraction
Point = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class Side(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def rational(value) -> Fraction:
    """Coerce ints, strings like ``-3/4`` and Fractions to Fraction.

    A malformed string, zero denominators included, raises ``ValueError``,
    and so does exponent notation: ``Fraction('1e10000000')`` would spend
    seconds building a ten-million-digit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "e" in text or "E" in text:
            raise ValueError(f"exponent notation in {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def point(*coords) -> Point:
    return tuple(rational(c) for c in coords)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of {len(u)}-vector with {len(v)}-vector")
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def sqrt_lower(q: Fraction) -> Fraction:
    """A nonnegative rational r with r**2 <= q, tight to ~1 part in 2**20.

    Used to turn exact squared distances into usable rational radii and
    grid resolutions without ever rounding up.
    """
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return Fraction(0)
    # sqrt(a/b) = sqrt(a*b)/b; scale first so isqrt keeps ~20 bits.
    scale = 1 << 20
    a, b = q.numerator, q.denominator
    return Fraction(math.isqrt(a * b * scale * scale), b * scale)


def _canonical_scale(normal: tuple[Fraction, ...], offset: Fraction,
                     signed: bool) -> tuple[tuple[Fraction, ...], Fraction]:
    lead = next((c for c in normal if c != 0), None)
    if lead is None:
        raise ValueError("normal vector must be nonzero")
    factor = lead if signed else abs(lead)
    return tuple(c / factor for c in normal), offset / factor


def _integer_form(normal: tuple[Fraction, ...], offset: Fraction) -> tuple[int, ...]:
    """``(*normal, offset)`` times the lcm of their denominators."""
    coefficients = (*normal, offset)
    scale = math.lcm(*(c.denominator for c in coefficients))
    return tuple(c.numerator * (scale // c.denominator) for c in coefficients)


@dataclass(frozen=True, order=True)
class HalfSpace:
    """Closed half-space ``{x : normal.x <= offset}`` in canonical scaling."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        normal, offset = _canonical_scale(
            tuple(rational(c) for c in self.normal), rational(self.offset),
            signed=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self) -> int:
        return len(self.normal)

    @cached_property
    def integer_form(self) -> tuple[int, ...]:
        """``(*normal, offset)`` scaled to integers by the lcm of their
        denominators: the same half-space with integer coefficients."""
        return _integer_form(self.normal, self.offset)

    def value_at(self, p: Point) -> Fraction:
        """normal.p - offset; negative inside, zero on the boundary."""
        return dot(self.normal, p) - self.offset

    @cached_property
    def _boundary(self) -> "Hyperplane":
        return Hyperplane(self.normal, self.offset)

    def boundary(self) -> "Hyperplane":
        return self._boundary

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*x{i}" for i, c in enumerate(self.normal) if c)
        return f"HalfSpace({terms} <= {self.offset})"


@dataclass(frozen=True, order=True)
class Hyperplane:
    """Hyperplane ``{x : normal.x = offset}`` in canonical (signed) scaling."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        normal, offset = _canonical_scale(
            tuple(rational(c) for c in self.normal), rational(self.offset),
            signed=True)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self) -> int:
        return len(self.normal)

    @cached_property
    def integer_form(self) -> tuple[int, ...]:
        """``(*normal, offset)`` scaled to integers by the lcm of their
        denominators; its first nonzero coordinate is that lcm."""
        return _integer_form(self.normal, self.offset)

    def value_at(self, p: Point) -> Fraction:
        return dot(self.normal, p) - self.offset

    def contains(self, p: Point) -> bool:
        return self.value_at(p) == 0

    def sides(self) -> tuple[HalfSpace, HalfSpace]:
        """The two closed half-spaces whose shared boundary is this line."""
        h = HalfSpace(self.normal, self.offset)
        return h, flip(h)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*x{i}" for i, c in enumerate(self.normal) if c)
        return f"Hyperplane({terms} = {self.offset})"


def side_of(h: HalfSpace, p: Point) -> Side:
    """Classify a point against a closed half-space."""
    if len(p) != h.dim:
        raise DimensionMismatch(f"point of dim {len(p)} vs half-space of dim {h.dim}")
    v = h.value_at(p)
    if v < 0:
        return Side.INTERIOR
    if v == 0:
        return Side.BOUNDARY
    return Side.EXTERIOR


def flip(h: HalfSpace) -> HalfSpace:
    """The complementary closed half-space ``{x : normal.x >= offset}``."""
    return HalfSpace(tuple(-c for c in h.normal), -h.offset)


class LineRelation(Enum):
    EMPTY = "empty"
    POINT = "point"
    COINCIDENT = "coincident"


def intersect_lines(l1: Hyperplane, l2: Hyperplane) -> tuple[LineRelation, Point | None]:
    """Intersect two lines in the plane.

    Returns ``(POINT, p)`` when the normals are independent, ``(COINCIDENT,
    None)`` for equal lines and ``(EMPTY, None)`` for distinct parallels.
    """
    if l1.dim != 2 or l2.dim != 2:
        raise DimensionMismatch("intersect_lines is defined for the plane only")
    (a1, b1), c1 = l1.normal, l1.offset
    (a2, b2), c2 = l2.normal, l2.offset
    det = a1 * b2 - a2 * b1
    if det == 0:
        return (LineRelation.COINCIDENT, None) if l1 == l2 else (LineRelation.EMPTY, None)
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return LineRelation.POINT, (x, y)
