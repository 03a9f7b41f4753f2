"""Canonical polytopes on the line: finite unions of closed intervals and rays.

A value is a sorted tuple of maximal closed pieces ``(lo, hi)`` where ``None``
stands for an unbounded end.  Canonical form means pieces are pairwise
separated by gaps of positive length and no piece is a single point, so two
values denote the same regular closed set iff they are equal tuples.  Every
``IntervalPolytope`` is canonical: construction rejects any other tuple.

``canonicalize`` stores a finite endpoint as an ``int`` when it is integral
and as a ``Fraction`` (denominator above 1) otherwise.  The operations reuse
endpoint objects, or add and subtract them, and never divide them, so the
sweeps over projected images and certificates compare plain integers.  No
decision depends on the type: ``3 == Fraction(3)``, and the two hash alike.

The operations (``union``, ``reg_meet``, ``contact_c`` and what is built on
them) are linear sweeps over two canonical piece tuples, with no sort and no
re-validation of endpoints.  ``canonicalize`` is for raw input only: parsed
text, projected pieces and the random generator.  ``segment_masks`` turns
polytopes over shared breakpoints into bitmasks of elementary segments, on
which Boolean operations and contact are integer operations; its inverse
``from_segments`` reuses the table's endpoints, with no sort or ``canonicalize``.

Only finite unions are representable.  Regular closed sets built from
infinitely many segments (for instance the closure of an infinite union of
shrinking intervals accumulating at a point) fall outside this class, and
the algebra here makes no attempt to simulate them.

On the line the topological contact C and the strong contact SC coincide for
these sets, so ``contact_sc`` is the same predicate as ``contact_c``; the
test suite checks the coincidence against an independent witness-interval
decision rather than trusting the aliasing.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .numeric import rational

# an endpoint is an int when integral, else a Fraction with denominator > 1
End = int | Fraction
# a piece is (lo, hi); None means -inf / +inf respectively
Piece = tuple[End | None, End | None]


def _lo_key(lo: End | None) -> tuple[int, End]:
    return (0, 0) if lo is None else (1, lo)


@dataclass(frozen=True)
class IntervalPolytope:
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        # canonical iff the endpoints, read left to right, strictly increase
        # and only the first and the last of them are unbounded
        ends = [x for piece in self.pieces for x in piece]
        if ends and ends[0] is None:
            del ends[0]
        if ends and ends[-1] is None:
            del ends[-1]
        for a, b in zip(ends, ends[1:]):
            if a is None or b is None or a >= b:
                raise ValueError(f"pieces not canonical: {self.pieces}")

    # -- predicates ----------------------------------------------------

    def is_empty(self) -> bool:
        return not self.pieces

    def is_all(self) -> bool:
        return self.pieces == ((None, None),)

    def contains(self, x: End) -> bool:
        return any((lo is None or lo <= x) and (hi is None or x <= hi)
                   for lo, hi in self.pieces)

    # -- Boolean algebra -----------------------------------------------

    def complement(self) -> "IntervalPolytope":
        """Closure of the set complement; rays make this class closed."""
        if self.is_empty():
            return ALL
        out: list[Piece] = []
        lo0 = self.pieces[0][0]
        if lo0 is not None:
            out.append((None, lo0))
        for (_, hi), (lo, _) in zip(self.pieces, self.pieces[1:]):
            out.append((hi, lo))
        hi_last = self.pieces[-1][1]
        if hi_last is not None:
            out.append((hi_last, None))
        return IntervalPolytope(tuple(out))

    def union(self, other: "IntervalPolytope") -> "IntervalPolytope":
        """Both piece tuples in order of left end, coalesced: no sort."""
        if not other.pieces:
            return self
        if not self.pieces:
            return other
        return IntervalPolytope(tuple(_coalesce(_by_left_end(self.pieces, other.pieces))))

    def reg_meet(self, other: "IntervalPolytope") -> "IntervalPolytope":
        """Regularised intersection; touching-point intersections vanish."""
        a, b = self.pieces, other.pieces
        out: list[Piece] = []
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            lo, hi = _max_lo(alo, blo), _min_hi(ahi, bhi)
            if _positive_length(lo, hi):
                out.append((lo, hi))
            # the piece that ends first meets no later piece of the other list
            if ahi is None or (bhi is not None and bhi < ahi):
                j += 1
            else:
                i += 1
        return IntervalPolytope(tuple(out))

    def equals(self, other: "IntervalPolytope") -> bool:
        return self.pieces == other.pieces

    # -- contact -------------------------------------------------------

    def contact_c(self, other: "IntervalPolytope") -> bool:
        """Topological contact: the closed sets share a point."""
        a, b = self.pieces, other.pieces
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            if ahi is not None and blo is not None and ahi < blo:
                i += 1  # a[i] ends before b[j] and every later piece of b
            elif bhi is not None and alo is not None and bhi < alo:
                j += 1
            else:
                return True
        return False

    def overlap(self, other: "IntervalPolytope") -> bool:
        return not self.reg_meet(other).is_empty()

    def contact_sc(self, other: "IntervalPolytope") -> bool:
        """Strong contact; on the line it coincides with contact_c."""
        return self.contact_c(other)

    def sc_witness(self, other: "IntervalPolytope") -> tuple[End, End] | None:
        """An open interval inside the union meeting both (``contact_witness``)."""
        return contact_witness(self, other)

    def __repr__(self) -> str:
        return f"IntervalPolytope({format_intervals(self)})"


EMPTY = IntervalPolytope(())
ALL = IntervalPolytope(((None, None),))


def _max_lo(a: End | None, b: End | None) -> End | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_hi(a: End | None, b: End | None) -> End | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _positive_length(lo: End | None, hi: End | None) -> bool:
    return lo is None or hi is None or lo < hi


def canonicalize(raw: Iterable[Piece]) -> IntervalPolytope:
    """Merge overlapping or touching pieces, drop single points, sort.

    Accepts pieces with ``lo == hi`` (they disappear: a point is not
    regular closed); rejects ``lo > hi``.
    """
    pieces = []
    for lo, hi in raw:
        lo = None if lo is None else _end(lo)
        hi = None if hi is None else _end(hi)
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"piece with lo > hi: [{lo}, {hi}]")
        pieces.append((lo, hi))
    pieces.sort(key=lambda p: _lo_key(p[0]))
    kept = tuple(p for p in _coalesce(pieces) if _positive_length(*p))
    return IntervalPolytope(kept)


def _end(value) -> End:
    """An exact endpoint: the ``int`` itself when integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    x = rational(value)
    return x.numerator if x.denominator == 1 else x


def _coalesce(pieces: Iterable[Piece]) -> list[Piece]:
    """Merge the pieces of a list sorted by left end where they overlap or
    merely touch (closed pieces)."""
    merged: list[Piece] = []
    for lo, hi in pieces:
        if merged:
            plo, phi = merged[-1]
            if phi is None or lo is None or lo <= phi:
                merged[-1] = (plo, _max_hi_merge(phi, hi))
                continue
        merged.append((lo, hi))
    return merged


def _by_left_end(a: tuple[Piece, ...], b: tuple[Piece, ...]) -> Iterator[Piece]:
    """The pieces of two canonical tuples, in order of left end."""
    i = j = 0
    while i < len(a) and j < len(b):
        alo, blo = a[i][0], b[j][0]
        if alo is None or (blo is not None and alo <= blo):
            yield a[i]
            i += 1
        else:
            yield b[j]
            j += 1
    yield from a[i:]
    yield from b[j:]


def _max_hi_merge(a: End | None, b: End | None) -> End | None:
    if a is None or b is None:
        return None
    return max(a, b)


def segment_masks(polytopes: Sequence[IntervalPolytope]) -> tuple[tuple[End, ...], list[int]]:
    """The pooled breakpoints of the polytopes, and per polytope the bitmask
    of the elementary segments it fills.

    The sorted distinct finite endpoints ``b[0] < ... < b[m-1]`` split the
    line into the open segments ``(b[k-1], b[k])`` for k = 0..m, with
    ``b[-1] = -inf`` and ``b[m] = +inf``; bit k stands for segment k.  A
    canonical polytope is the closure of the segments it fills, and distinct
    segment sets have distinct closures, so for polytopes over these
    breakpoints ``union`` is ``|``, ``complement`` is ``^`` with all m + 1
    bits, ``equals`` is ``==``, and two polytopes are in contact exactly
    when a segment of one is, or neighbours, a segment of the other.
    """
    ends = tuple(sorted({x for p in polytopes for piece in p.pieces
                         for x in piece if x is not None}))
    index = {x: k for k, x in enumerate(ends)}
    masks = []
    for p in polytopes:
        mask = 0
        for lo, hi in p.pieces:
            first = 0 if lo is None else index[lo] + 1
            last = len(ends) if hi is None else index[hi]
            mask |= (2 << last) - (1 << first)  # bits first..last
        masks.append(mask)
    return ends, masks


def from_segments(ends: Sequence[End], mask: int) -> IntervalPolytope:
    """The polytope filling the segments of ``mask`` over the breakpoints
    ``ends``: the inverse of ``segment_masks``, each run of set bits one
    piece between the table's own endpoint objects."""
    bounds = (None, *ends, None)
    pieces = []
    while mask:
        low = mask & -mask
        above = (mask + low) & ~mask  # the clear bit just above the lowest run
        pieces.append((bounds[low.bit_length() - 1], bounds[above.bit_length() - 1]))
        mask ^= above - low
    return IntervalPolytope(tuple(pieces))


def contact_witness(p: IntervalPolytope, q: IntervalPolytope) -> tuple[End, End] | None:
    """An open interval inside ``p | q`` meeting both, when they touch.

    Mirrors the construction behind the line coincidence of C and SC: at a
    shared point either the pieces properly overlap, or they meet end to
    end and a short open interval straddling the junction works.
    """
    for a in p.pieces:
        for b in q.pieces:
            lo = _max_lo(a[0], b[0])
            hi = _min_hi(a[1], b[1])
            if lo is None or hi is None or lo < hi:
                if lo is None and hi is None:
                    return (0, 1)
                if lo is None:
                    lo = hi - 1
                elif hi is None:
                    hi = lo + 1
                return (lo, hi)
            if lo == hi:
                x = lo
                delta = min(_reach_below(a, b, x), _reach_above(a, b, x))
                return (_end(x - delta), _end(x + delta))
    return None


def _reach_below(a: Piece, b: Piece, x: End) -> End:
    best = 0
    for lo, hi in (a, b):
        if (hi is None or hi >= x) and (lo is None or lo < x):
            best = max(best, 1 if lo is None else x - lo)
    return best if best else Fraction(1, 2)


def _reach_above(a: Piece, b: Piece, x: End) -> End:
    best = 0
    for lo, hi in (a, b):
        if (lo is None or lo <= x) and (hi is None or hi > x):
            best = max(best, 1 if hi is None else hi - x)
    return best if best else Fraction(1, 2)


# -- text form ---------------------------------------------------------
#
#   (-inf,0]; [1/2,3]; [5,inf)        empty        all

_PIECE_RE = re.compile(
    r"^\s*([(\[])\s*(-inf|[-+]?\d+(?:/\d+)?)\s*,\s*(inf|[-+]?\d+(?:/\d+)?)\s*([)\]])\s*$")


class IntervalFormatError(ValueError):
    pass


def _token_end(token: str) -> End:
    # an integer token is read as the int it names; only p/q goes through
    # ``rational`` (which rejects a zero denominator)
    return rational(token) if "/" in token else int(token)


def parse_intervals(text: str) -> IntervalPolytope:
    """The polytope named by ``empty``, ``all`` or ``;``-separated pieces
    such as ``(-inf,-1]; [0,3/2]; [2,inf)``.

    An integer end is read as an ``int``; a ``p/q`` end is a ``Fraction``,
    stored as an ``int`` by ``canonicalize`` when ``q`` divides ``p``.  A
    malformed piece raises ``IntervalFormatError``; a zero denominator, or
    a token over Python's integer-string digit limit, raises ``ValueError``.
    """
    body = text.strip()
    if body == "empty":
        return EMPTY
    if body == "all":
        return ALL
    pieces: list[Piece] = []
    for chunk in body.split(";"):
        m = _PIECE_RE.match(chunk)
        if not m:
            raise IntervalFormatError(f"bad interval piece: {chunk.strip()!r}")
        open_b, lo_s, hi_s, close_b = m.groups()
        lo = None if lo_s == "-inf" else _token_end(lo_s)
        hi = None if hi_s == "inf" else _token_end(hi_s)
        if (lo is None) != (open_b == "("):
            raise IntervalFormatError(f"finite ends must use '[': {chunk.strip()!r}")
        if (hi is None) != (close_b == ")"):
            raise IntervalFormatError(f"finite ends must use ']': {chunk.strip()!r}")
        pieces.append((lo, hi))
    return canonicalize(pieces)


def format_intervals(p: IntervalPolytope) -> str:
    if p.is_empty():
        return "empty"
    if p.is_all():
        return "all"
    parts = []
    for lo, hi in p.pieces:
        left = "(-inf" if lo is None else f"[{lo}"
        right = "inf)" if hi is None else f"{hi}]"
        parts.append(f"{left},{right}")
    return "; ".join(parts)


_RANDOM_MAX_PIECES = 3
_RANDOM_SPAN = 8
_RANDOM_MAX_DEN = 8


def random_interval_polytope(rng: random.Random) -> IntervalPolytope:
    """Seeded generator for audits and property tests."""
    def coord() -> Fraction:
        top = _RANDOM_SPAN * _RANDOM_MAX_DEN
        return Fraction(rng.randint(-top, top), rng.randint(1, _RANDOM_MAX_DEN))

    raw: list[Piece] = []
    for _ in range(rng.randint(0, _RANDOM_MAX_PIECES)):
        a, b = coord(), coord()
        if a > b:
            a, b = b, a
        raw.append((a, b))
    if rng.random() < 0.2:
        raw.append((None, coord()))
    if rng.random() < 0.2:
        raw.append((coord(), None))
    return canonicalize(raw)
