"""Exact rational scalars, points, half-spaces and hyperplanes.

Everything downstream decides boundary coincidences (shared facets, touching
endpoints) by exact comparison, so every value is exact and every predicate
in this module is tolerance-free.  Points, coefficients and offsets here are
`fractions.Fraction` values; kernels downstream also work on plain ints: the
integer forms below, the crossing parameters of the plane's arrangement walk
(ints over one common denominator per line), and the integral endpoints of
line polytopes.

Text becomes a ``Fraction`` through ``rational`` only.  A token that is
exactly an ASCII integer or ``p/q`` with a nonzero ``q`` is read with
``int()``, one ``Fraction(p, q)`` built from the ints; every other string
(underscores, non-ASCII digits, decimals, surrounding spaces, zero
denominators, exponents) goes through ``Fraction``'s own parser, so the
language accepted and every error are ``Fraction``'s.

Half-spaces and hyperplanes have one body, the base ``_IntegerIdentity``:
construction, canonical scaling, integer form, ``dim``, ``value_at``,
identity, order and ``repr``.  Its class attribute ``_signed`` is the one
difference in scaling, and ``_relation`` the one in printing.  Both are
kept in a canonical scaling so that syntactic equality coincides with
geometric equality:

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

Identity and order are on the integer form too: it is unique for each
canonical object, so ``==`` and ``hash`` compare and hash its ints, and
``<`` orders two objects as their ``(normal, offset)`` tuples would, by
cross-multiplying each coordinate with the other form's lead scale (the
absolute value of its first nonzero entry).  A half-space's boundary line
is built from its own coefficients and integer form, negated when its lead
is -1, with no ``Fraction`` division.  Nothing is divided at a unit lead
either: coefficients whose scale factor is already 1 are kept as they are,
and ``flip`` negates a half-space's coefficients and integer form, which
are canonical again.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Sequence

Rational = Fraction
Point = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


# the strings ``rational`` reads with int(): an ASCII integer or p/q
_EXACT_TOKEN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class Side(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def rational(value) -> Fraction:
    """Coerce ints, strings like ``-3/4`` and Fractions to Fraction.

    A string that is exactly an ASCII integer or ``p/q`` with a nonzero
    ``q`` (``[+-]?[0-9]+(/[0-9]+)?``, nothing around it) is read with
    ``int()``; every other string goes through ``Fraction``, so the strings
    accepted, the values and the errors are ``Fraction``'s.  A malformed
    string, zero denominators included, raises ``ValueError``, and so does
    exponent notation: ``Fraction('1e10000000')`` would spend seconds
    building a ten-million-digit integer.
    """
    if isinstance(value, str):
        m = _EXACT_TOKEN.fullmatch(value)
        if m is not None:
            # int() the numerator first: Fraction's digit-limit error order
            p, q = m.groups()
            p = int(p)
            if q is None:
                return Fraction(p)
            q = int(q)
            if q:
                return Fraction(p, q)
        text = value.strip()
        if "e" in text or "E" in text:
            raise ValueError(f"exponent notation in {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def point(*coords) -> Point:
    return tuple(rational(c) for c in coords)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of {len(u)}-vector with {len(v)}-vector")
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def sqrt_lower_ints(a: int, b: int) -> tuple[int, int]:
    """The core of ``sqrt_lower`` on ints: for a reduced ratio ``a/b`` with
    b > 0, ints ``(r, s)`` with ``(r/s)**2 <= a/b``, r/s the value
    ``sqrt_lower(Fraction(a, b))`` returns."""
    if a < 0:
        raise ValueError("sqrt of negative rational")
    # sqrt(a/b) = sqrt(a*b)/b; scale first so isqrt keeps ~20 bits.
    scale = 1 << 20
    return math.isqrt(a * b * scale * scale), b * scale


def sqrt_lower(q: Fraction) -> Fraction:
    """A nonnegative rational r with r**2 <= q, tight to ~1 part in 2**20.

    Used to turn exact squared distances into usable rational radii and
    grid resolutions without ever rounding up.
    """
    return Fraction(*sqrt_lower_ints(q.numerator, q.denominator))


def _canonical_scale(normal: tuple[Fraction, ...], offset: Fraction,
                     signed: bool) -> tuple[tuple[Fraction, ...], Fraction]:
    lead = next((c for c in normal if c != 0), None)
    if lead is None:
        raise ValueError("normal vector must be nonzero")
    factor = lead if signed else abs(lead)
    if factor == 1:
        return normal, offset
    return tuple(c / factor for c in normal), offset / factor


def _integer_form(normal: tuple[Fraction, ...], offset: Fraction) -> tuple[int, ...]:
    """``(*normal, offset)`` times the lcm of their denominators."""
    coefficients = (*normal, offset)
    scale = math.lcm(*(c.denominator for c in coefficients))
    return tuple(c.numerator * (scale // c.denominator) for c in coefficients)


def _lead(form: tuple[int, ...]) -> int:
    """The first nonzero entry of an integer form, its lead: the canonical
    lead (1 or -1) times the positive factor the form is of the canonical
    coefficients."""
    return next(c for c in form if c)


def _below(f: tuple[int, ...], s: int, g: tuple[int, ...], t: int) -> bool:
    """Whether ``(normal, offset)`` of the integer form ``f`` with lead scale
    ``s`` is below that of ``g`` with scale ``t`` in tuple order: normals
    first, a shorter one below its extensions, then offsets.  Each
    coordinate pair is compared cross-multiplied by the other form's
    scale."""
    d, e = len(f) - 1, len(g) - 1
    for i in range(d if d < e else e):
        x, y = f[i] * t, g[i] * s
        if x != y:
            return x < y
    if d != e:
        return d < e
    return f[d] * t < g[e] * s


@total_ordering
@dataclass(frozen=True, eq=False)
class _IntegerIdentity:
    """The body of ``HalfSpace`` and ``Hyperplane``, which differ only in
    ``_signed`` (whether the scaling fixes the lead's sign) and
    ``_relation`` (printed by ``repr``).

    Equality, hash and order are on ``integer_form``: a function of the
    canonical ``(normal, offset)`` that divides back to it by its lead
    scale, so equal forms mean equal objects; the order is that of the
    ``(normal, offset)`` tuples, decided on the forms by cross-multiplying.
    Objects of different classes are never equal and are not ordered."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    _signed = False
    _relation = "<="

    def __post_init__(self):
        normal, offset = _canonical_scale(
            tuple(rational(c) for c in self.normal), rational(self.offset),
            signed=self._signed)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)

    @cached_property
    def integer_form(self) -> tuple[int, ...]:
        """``(*normal, offset)`` scaled to integers by the lcm of their
        denominators: the same set with integer coefficients, whose first
        nonzero coordinate is that lcm up to sign."""
        return _integer_form(self.normal, self.offset)

    @classmethod
    def _canonical(cls, normal: tuple[Fraction, ...], offset: Fraction,
                   form: tuple[int, ...]):
        """The object with these canonical coefficients and integer form,
        built without rescaling."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "normal", normal)
        object.__setattr__(obj, "offset", offset)
        obj.__dict__["integer_form"] = form
        return obj

    @property
    def dim(self) -> int:
        return len(self.normal)

    def value_at(self, p: Point) -> Fraction:
        """normal.p - offset; negative inside a half-space, zero on the
        boundary."""
        return dot(self.normal, p) - self.offset

    @cached_property
    def _scale(self) -> int:
        return abs(_lead(self.integer_form))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.integer_form == other.integer_form

    def __hash__(self):
        return hash(self.integer_form)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _below(self.integer_form, self._scale, other.integer_form, other._scale)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*x{i}" for i, c in enumerate(self.normal) if c)
        return f"{type(self).__name__}({terms} {self._relation} {self.offset})"


class HalfSpace(_IntegerIdentity):
    """Closed half-space ``{x : normal.x <= offset}`` in canonical scaling."""

    @cached_property
    def _boundary(self) -> "Hyperplane":
        # the canonical lead is 1 or -1, and the line's is 1: the line is
        # this half-space's own coefficients, or their negation
        form = self.integer_form
        if _lead(form) > 0:
            return Hyperplane._canonical(self.normal, self.offset, form)
        return Hyperplane._canonical(tuple(-c for c in self.normal), -self.offset,
                                     tuple(-c for c in form))

    def boundary(self) -> "Hyperplane":
        return self._boundary


class Hyperplane(_IntegerIdentity):
    """Hyperplane ``{x : normal.x = offset}`` in canonical (signed) scaling."""

    _signed = True
    _relation = "="

    def contains(self, p: Point) -> bool:
        return self.value_at(p) == 0

    def sides(self) -> tuple[HalfSpace, HalfSpace]:
        """The two closed half-spaces whose shared boundary is this line:
        ``normal.x <= offset``, then ``normal.x >= offset``."""
        h = HalfSpace(self.normal, self.offset)
        return h, flip(h)


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
    """The complementary closed half-space ``{x : normal.x >= offset}``:
    the negated canonical coefficients and integer form, which are
    canonical again, so nothing is rescaled."""
    return HalfSpace._canonical(tuple(-c for c in h.normal), -h.offset,
                                tuple(-c for c in h.integer_form))


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
