"""Contact algebras over three carriers, axiom audits, and merging.

A contact algebra pairs a Boolean algebra with a binary relation satisfying

    (C1)  not C(0, x)
    (C2)  C(x, y + z)  iff  C(x, y) or C(x, z)
    (C3)  C(x, y)  implies  C(y, x)
    (C4)  x != 0  implies  C(x, x)

The carriers here are: subsets of a finite cell set under the relation
induced by an adjacency relation (``FiniteContactAlgebra``, elements are
bitmasks), and polytopes on the line, in the plane and in cylinders under
strong contact (``PolytopeAlgebra``, built by ``IntervalAlgebra``,
``PlaneAlgebra`` and ``CylinderAlgebra``), whose operations are the
polytopes' own methods.

``audit_axioms`` checks the four conditions plus monotonicity and the
overlap-extension property, exhaustively for finite carriers and on seeded
random samples otherwise, and reports one PASS/FAIL line per axiom with a
witness on failure.

``merge`` turns the image map of a projection into the embedding of a
finite power-set algebra into the polytope algebra (subset goes to union of
images) and verifies the embedding laws: injectivity, complement and join
homomorphism, and contact preservation in both directions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import intervals as iv
from . import plane as pl
from .adjacency import AdjacencySpace
from .cylinder import CylinderPolytope, format_cylinder, lift


class ContactAlgebra:
    """Interface: Boolean operations, distinguished 0 and 1, predicate C.

    ``equal`` is semantic equality of elements (syntactic forms may differ
    for plane polytopes).
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def complement(self, x):
        raise NotImplementedError

    def join(self, x, y):
        raise NotImplementedError

    def meet(self, x, y):
        raise NotImplementedError

    def equal(self, x, y) -> bool:
        raise NotImplementedError

    def contact(self, x, y) -> bool:
        raise NotImplementedError

    def is_zero(self, x) -> bool:
        return self.equal(x, self.zero())

    def describe(self, x) -> str:
        return repr(x)

    # finite carriers enumerate; infinite carriers sample
    def elements(self) -> Optional[Sequence]:
        return None

    def sample(self, rng: random.Random):
        raise NotImplementedError("no sampler for this carrier")


class UnknownCell(ValueError):
    """A cell name that is not a cell of the finite carrier."""


class FiniteContactAlgebra(ContactAlgebra):
    """Power set of a finite cell set; elements are int bitmasks.

    The contact relation comes from a (not necessarily closed) binary
    relation given as per-cell successor masks, so deliberately broken
    relations can be audited too.
    """

    def __init__(self, cells: Sequence[str], succ_masks: Sequence[int]):
        self.cells = tuple(cells)
        self.succ = tuple(succ_masks)
        self.full = (1 << len(self.cells)) - 1

    @staticmethod
    def from_relation(cells: Sequence[str], pairs: Iterable[tuple[str, str]],
                      reflexive_symmetric_closure: bool = False
                      ) -> "FiniteContactAlgebra":
        cells = tuple(sorted(cells))
        index = {c: i for i, c in enumerate(cells)}
        succ = [0] * len(cells)
        for a, b in pairs:
            succ[index[a]] |= 1 << index[b]
            if reflexive_symmetric_closure:
                succ[index[b]] |= 1 << index[a]
        if reflexive_symmetric_closure:
            for i in range(len(cells)):
                succ[i] |= 1 << i
        return FiniteContactAlgebra(cells, succ)

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return self.full

    def complement(self, x: int) -> int:
        return self.full ^ x

    def join(self, x: int, y: int) -> int:
        return x | y

    def meet(self, x: int, y: int) -> int:
        return x & y

    def equal(self, x: int, y: int) -> bool:
        return x == y

    def contact(self, x: int, y: int) -> bool:
        acc = 0
        rest = x
        while rest:
            low = rest & -rest
            acc |= self.succ[low.bit_length() - 1]
            rest ^= low
        return bool(acc & y)

    def element_of(self, names: Iterable[str]) -> int:
        index = {c: i for i, c in enumerate(self.cells)}
        out = 0
        for name in names:
            if name not in index:
                raise UnknownCell(f"unknown cell {name!r}")
            out |= 1 << index[name]
        return out

    def cells_of(self, x: int) -> tuple[str, ...]:
        return tuple(c for i, c in enumerate(self.cells) if x >> i & 1)

    def describe(self, x: int) -> str:
        return "{" + ",".join(self.cells_of(x)) + "}"

    def elements(self) -> Sequence[int]:
        return range(1 << len(self.cells))


def induced_algebra(space: AdjacencySpace) -> FiniteContactAlgebra:
    """The set-theoretic contact algebra of an adjacency space."""
    index = {c: i for i, c in enumerate(space.cells)}
    succ = [0] * len(space.cells)
    for i, x in enumerate(space.cells):
        succ[i] |= 1 << i
        for y in space.neighbours(x):
            succ[i] |= 1 << index[y]
    return FiniteContactAlgebra(space.cells, succ)


class PolytopeAlgebra(ContactAlgebra):
    """Polytopes of one carrier under strong contact.

    Every operation is the polytope's own method, so ``IntervalPolytope``,
    ``PlanePolytope`` and ``CylinderPolytope`` alone decide what a carrier
    offers.  ``is_zero`` is exact without a complement because canonical
    forms keep only nonempty parts.
    """

    def __init__(self, zero, one, describe: Callable[[object], str],
                 sample: Callable[[random.Random], object]):
        self._zero, self._one = zero, one
        self._describe, self._sample = describe, sample

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def complement(self, x):
        return x.complement()

    def join(self, x, y):
        return x.union(y)

    def meet(self, x, y):
        return x.reg_meet(y)

    def equal(self, x, y) -> bool:
        return x.equals(y)

    def contact(self, x, y) -> bool:
        return x.contact_sc(y)

    def is_zero(self, x) -> bool:
        return x.is_empty()

    def describe(self, x) -> str:
        return self._describe(x)

    def sample(self, rng: random.Random):
        return self._sample(rng)


def IntervalAlgebra() -> PolytopeAlgebra:
    """Line polytopes under strong contact."""
    return PolytopeAlgebra(iv.EMPTY, iv.ALL, iv.format_intervals,
                           iv.random_interval_polytope)


def PlaneAlgebra() -> PolytopeAlgebra:
    """Plane polytopes under strong contact."""
    return PolytopeAlgebra(pl.EMPTY, pl.R2, pl.format_plane, pl.random_plane_polytope)


def CylinderAlgebra(ambient_dim: int) -> PolytopeAlgebra:
    """Cylinders over line polytopes in ``ambient_dim`` dimensions."""
    return PolytopeAlgebra(
        lift(iv.EMPTY, ambient_dim), lift(iv.ALL, ambient_dim), format_cylinder,
        lambda rng: lift(iv.random_interval_polytope(rng), ambient_dim))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

@dataclass
class AuditEntry:
    name: str
    passed: bool
    witness: str = ""

    def line(self) -> str:
        return f"{self.name} PASS" if self.passed else f"{self.name} FAIL {self.witness}"


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]

    def text(self) -> str:
        return "\n".join(self.lines())


_EXHAUSTIVE_LIMIT = 64  # elements; triples grow cubically


def _audit_pool(algebra: ContactAlgebra, samples: int, seed: int):
    elements = algebra.elements()
    if elements is not None and len(elements) <= _EXHAUSTIVE_LIMIT:
        return list(elements), True
    if elements is not None:
        rng = random.Random(seed)
        return [rng.choice(elements) for _ in range(samples)], False
    rng = random.Random(seed)
    return [algebra.sample(rng) for _ in range(samples)], False


def audit_axioms(algebra: ContactAlgebra, samples: int = 50, seed: int = 0) -> AuditReport:
    """Check C1-C4, monotonicity, and overlap-extension.

    Finite small carriers are checked exhaustively over all pairs/triples;
    otherwise a seeded pool of sampled elements is used (pairs and triples
    are drawn from the pool).
    """
    pool, exhaustive = _audit_pool(algebra, samples, seed)
    report = AuditReport()
    el = algebra.describe

    def pairs():
        if exhaustive:
            for x in pool:
                for y in pool:
                    yield x, y
        else:
            rng = random.Random(seed + 1)
            for _ in range(len(pool)):
                yield rng.choice(pool), rng.choice(pool)

    def triples():
        if exhaustive:
            for x in pool:
                for y in pool:
                    for z in pool:
                        yield x, y, z
        else:
            rng = random.Random(seed + 2)
            for _ in range(len(pool)):
                yield rng.choice(pool), rng.choice(pool), rng.choice(pool)

    zero = algebra.zero()

    witness = next((x for x in pool if algebra.contact(zero, x)), None)
    report.entries.append(AuditEntry(
        "C1", witness is None,
        "" if witness is None else f"C(0,{el(witness)})"))

    c2_witness = None
    for x, y, z in triples():
        lhs = algebra.contact(x, algebra.join(y, z))
        rhs = algebra.contact(x, y) or algebra.contact(x, z)
        if lhs != rhs:
            c2_witness = f"x={el(x)} y={el(y)} z={el(z)}"
            break
    report.entries.append(AuditEntry("C2", c2_witness is None, c2_witness or ""))

    c3_witness = None
    for x, y in pairs():
        if algebra.contact(x, y) and not algebra.contact(y, x):
            c3_witness = f"x={el(x)} y={el(y)}"
            break
    report.entries.append(AuditEntry("C3", c3_witness is None, c3_witness or ""))

    c4_witness = next(
        (x for x in pool
         if not algebra.is_zero(x) and not algebra.contact(x, x)), None)
    report.entries.append(AuditEntry(
        "C4", c4_witness is None,
        "" if c4_witness is None else f"x={el(c4_witness)}"))

    # monotone in both arguments: C(x,y) with x <= x+z and y <= y+z
    mono_witness = None
    for x, y, z in triples():
        if not algebra.contact(x, y):
            continue
        if not (algebra.contact(algebra.join(x, z), y)
                and algebra.contact(x, algebra.join(y, z))):
            mono_witness = f"x={el(x)} y={el(y)} z={el(z)}"
            break
    report.entries.append(AuditEntry(
        "monotonicity", mono_witness is None, mono_witness or ""))

    ov_witness = None
    for x, y in pairs():
        if not algebra.is_zero(algebra.meet(x, y)) and not algebra.contact(x, y):
            ov_witness = f"x={el(x)} y={el(y)}"
            break
    report.entries.append(AuditEntry(
        "overlap-extension", ov_witness is None, ov_witness or ""))

    return report


def is_connected_algebra(algebra: ContactAlgebra, samples: int = 50, seed: int = 0) -> bool:
    """Every element other than 0 and 1 is in contact with its complement."""
    pool, _ = _audit_pool(algebra, samples, seed)
    for x in pool:
        if algebra.is_zero(x) or algebra.equal(x, algebra.one()):
            continue
        if not algebra.contact(x, algebra.complement(x)):
            return False
    return True


# ---------------------------------------------------------------------------
# merging: power set of projected cells -> polytope algebra
# ---------------------------------------------------------------------------

@dataclass
class MergeResult:
    cells: tuple[str, ...]
    images: dict[str, CylinderPolytope]
    union_of: Callable[[int], CylinderPolytope]
    report: AuditReport


def merge(images: Mapping[str, CylinderPolytope],
          space: Optional[AdjacencySpace] = None,
          exhaustive_limit: int = 6,
          samples: int = 200, seed: int = 0) -> MergeResult:
    """Embed subsets of projected cells into the polytope algebra by union.

    Verifies, exhaustively when the cell count is at most
    ``exhaustive_limit`` and on seeded samples otherwise:

    * bijectivity  - distinct subsets have distinct unions;
    * complement   - union of the complement subset is the complement;
    * join         - union distributes over subset union;
    * contact      - the induced relation matches strong contact of unions,
      in both directions (and likewise for plain topological contact,
      which coincides with strong contact on projection images).

    When ``space`` is given its adjacency must agree with strong contact of
    the images; otherwise the relation is derived from the images.
    """
    cells = tuple(sorted(images))
    n = len(cells)
    dim = images[cells[0]].ambient_dim
    empty = lift(iv.EMPTY, dim)

    unions: dict[int, CylinderPolytope] = {0: empty}

    def union_of(mask: int) -> CylinderPolytope:
        if mask not in unions:
            low = mask & -mask
            rest = mask ^ low
            unions[mask] = union_of(rest).union(images[cells[low.bit_length() - 1]])
        return unions[mask]

    # the relation the images induce on cells, as one neighbour mask per cell
    discrete = FiniteContactAlgebra(cells, [
        sum(1 << j for j, y in enumerate(cells) if images[x].contact_sc(images[y]))
        for x in cells])
    contact_masks = discrete.contact

    report = AuditReport()
    if space is not None:
        mismatch = next(
            ((x, y) for i, x in enumerate(cells) for j, y in enumerate(cells)
             if space.adjacent(x, y) != bool(discrete.succ[i] >> j & 1)), None)
        report.entries.append(AuditEntry(
            "adjacency-vs-image-contact", mismatch is None,
            "" if mismatch is None else f"pair={mismatch}"))

    full = (1 << n) - 1
    if n <= exhaustive_limit:
        masks = list(range(1 << n))
        mask_pairs = [(a, b) for a in masks for b in masks]
    else:
        rng = random.Random(seed)
        masks = sorted({rng.randrange(1 << n) for _ in range(samples)} | {0, full})
        mask_pairs = [(rng.choice(masks), rng.choice(masks)) for _ in range(samples)]

    def describe(mask: int) -> str:
        return "{" + ",".join(c for i, c in enumerate(cells) if mask >> i & 1) + "}"

    inj_witness = None
    seen: dict[tuple, int] = {}
    for a in masks:
        key = (union_of(a).base.pieces,)
        if key in seen and seen[key] != a:
            inj_witness = f"{describe(seen[key])} and {describe(a)} share an image"
            break
        seen[key] = a
    report.entries.append(AuditEntry("bijectivity", inj_witness is None, inj_witness or ""))

    comp_witness = next(
        (describe(a) for a in masks
         if not union_of(full ^ a).equals(union_of(a).complement())), None)
    report.entries.append(AuditEntry(
        "complement", comp_witness is None,
        "" if comp_witness is None else f"a={comp_witness}"))

    join_witness = next(
        (f"a={describe(a)} b={describe(b)}" for a, b in mask_pairs
         if not union_of(a | b).equals(union_of(a).union(union_of(b)))), None)
    report.entries.append(AuditEntry("join", join_witness is None, join_witness or ""))

    contact_witness = next(
        (f"a={describe(a)} b={describe(b)}" for a, b in mask_pairs
         if contact_masks(a, b) != union_of(a).contact_sc(union_of(b))), None)
    report.entries.append(AuditEntry(
        "contact", contact_witness is None, contact_witness or ""))

    c_variant_witness = next(
        (f"a={describe(a)} b={describe(b)}" for a, b in mask_pairs
         if contact_masks(a, b) != union_of(a).contact_c(union_of(b))), None)
    report.entries.append(AuditEntry(
        "contact-C-variant", c_variant_witness is None, c_variant_witness or ""))

    return MergeResult(cells, dict(images), union_of, report)
