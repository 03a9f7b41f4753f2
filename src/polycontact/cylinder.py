"""Cylinders over line polytopes: products ``base x R^(n-1)``.

These are exactly the images of projections onto higher-dimensional spaces.
They form a subalgebra closed under all Boolean operations, and every
predicate transfers to the one-dimensional base, so no general n-dimensional
half-space kernel is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .intervals import End, IntervalPolytope, contact_witness, format_intervals, parse_intervals
from .numeric import DimensionMismatch


@dataclass(frozen=True)
class CylinderPolytope:
    base: IntervalPolytope
    ambient_dim: int

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")

    def _check(self, other: "CylinderPolytope") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"cylinders in dimensions {self.ambient_dim} and {other.ambient_dim}")

    def is_empty(self) -> bool:
        return self.base.is_empty()

    def is_all(self) -> bool:
        return self.base.is_all()

    def complement(self) -> "CylinderPolytope":
        return CylinderPolytope(self.base.complement(), self.ambient_dim)

    def union(self, other: "CylinderPolytope") -> "CylinderPolytope":
        self._check(other)
        return CylinderPolytope(self.base.union(other.base), self.ambient_dim)

    def reg_meet(self, other: "CylinderPolytope") -> "CylinderPolytope":
        self._check(other)
        return CylinderPolytope(self.base.reg_meet(other.base), self.ambient_dim)

    def equals(self, other: "CylinderPolytope") -> bool:
        self._check(other)
        return self.base.equals(other.base)

    def contact_c(self, other: "CylinderPolytope") -> bool:
        self._check(other)
        return self.base.contact_c(other.base)

    def contact_sc(self, other: "CylinderPolytope") -> bool:
        self._check(other)
        return self.base.contact_sc(other.base)

    def overlap(self, other: "CylinderPolytope") -> bool:
        self._check(other)
        return self.base.overlap(other.base)

    def sc_witness(self, other: "CylinderPolytope"
                   ) -> tuple[End, End] | None:
        """Witness as a base interval; the cylinder over it meets both."""
        self._check(other)
        return contact_witness(self.base, other.base)

    def __repr__(self) -> str:
        return f"CylinderPolytope(n={self.ambient_dim}, {format_intervals(self.base)})"


def lift(p: IntervalPolytope, n: int) -> CylinderPolytope:
    return CylinderPolytope(p, n)


_CYL_RE = re.compile(r"^\s*cyl\s+n\s*=\s*(\d+)\s*\{(.*)\}\s*$", re.DOTALL)


class CylinderFormatError(ValueError):
    pass


def parse_cylinder(text: str) -> CylinderPolytope:
    m = _CYL_RE.match(text)
    if not m:
        raise CylinderFormatError(f"bad cylinder syntax: {text.strip()!r}")
    n = int(m.group(1))
    if n < 1:
        raise CylinderFormatError("ambient dimension must be >= 1")
    return CylinderPolytope(parse_intervals(m.group(2)), n)


def format_cylinder(c: CylinderPolytope) -> str:
    return f"cyl n={c.ambient_dim} {{ {format_intervals(c.base)} }}"
