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
witness on failure.  ``audit_pool`` draws the elements it checks, so one
pool can also serve ``is_connected_algebra``.

``merge`` turns the image map of a projection into the embedding of a
finite power-set algebra into the polytope algebra (subset goes to union of
images) and verifies the embedding laws: injectivity, complement and join
homomorphism, and contact preservation in both directions, over every
subset at every size.  It decides each law on one table of the n images'
elementary segments (``intervals.segment_masks``), a subset's mask the OR
of its images' masks, so no subset is enumerated and no two images go
through a contact sweep; on those masks the line is ``path_algebra``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, product
from operator import or_
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


# successor mask -> its set bits as cell indices, ascending: one tuple per
# mask, shared by every algebra with a cell of that successor mask
_SUCCESSOR_TUPLES: dict[int, tuple[int, ...]] = {}


def _successor_tuple(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, ascending."""
    out = _SUCCESSOR_TUPLES.get(mask)
    if out is None:
        out = _SUCCESSOR_TUPLES[mask] = tuple(
            i for i in range(mask.bit_length()) if mask >> i & 1)
    return out


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
        self._near: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def near(self) -> tuple[tuple[int, ...], ...]:
        """``near[i]`` lists the successors of cell i as cell indices,
        ascending.  Built on first use and kept; the tuples are shared
        between algebras (``_successor_tuple``)."""
        if self._near is None:
            self._near = tuple(_successor_tuple(succ & self.full) for succ in self.succ)
        return self._near

    @staticmethod
    def from_relation(cells: Sequence[str], pairs: Iterable[tuple[str, str]]
                      ) -> "FiniteContactAlgebra":
        cells = tuple(sorted(cells))
        index = {c: i for i, c in enumerate(cells)}
        succ = [0] * len(cells)
        for a, b in pairs:
            succ[index[a]] |= 1 << index[b]
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


def path_algebra(segments: int) -> FiniteContactAlgebra:
    """The line's ``segments`` segments (``intervals.segment_masks``): k touches k - 1 to k + 1."""
    return FiniteContactAlgebra(map(str, range(segments)), [7 << k >> 1 for k in range(segments)])


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

    def check(self, name: str, witness: Optional[str]) -> None:
        """Record PASS when ``witness`` is None, else FAIL with the witness."""
        self.entries.append(AuditEntry(name, witness is None, witness or ""))

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]

    def text(self) -> str:
        return "\n".join(self.lines())


def first_witness(cases: Iterable[tuple], fails: Callable[..., bool],
                  describe: Callable[..., str]) -> Optional[str]:
    """``describe(*case)`` for the first case that ``fails``, or None."""
    return next((describe(*case) for case in cases if fails(*case)), None)


_EXHAUSTIVE_LIMIT = 64  # elements; triples grow cubically


def _exhaustive(algebra: ContactAlgebra) -> bool:
    elements = algebra.elements()
    return elements is not None and len(elements) <= _EXHAUSTIVE_LIMIT


def audit_pool(algebra: ContactAlgebra, samples: int, seed: int) -> list:
    """The elements the audits check: all of a finite carrier with at most
    ``_EXHAUSTIVE_LIMIT`` elements, else ``samples`` drawn from
    ``Random(seed)``.  ``samples`` below 1 raises ``ValueError``."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    elements = algebra.elements()
    if _exhaustive(algebra):
        return list(elements)
    rng = random.Random(seed)
    if elements is not None:
        return [rng.choice(elements) for _ in range(samples)]
    return [algebra.sample(rng) for _ in range(samples)]


def audit_axioms(algebra: ContactAlgebra, samples: int = 50, seed: int = 0, *,
                 pool: Optional[list] = None) -> AuditReport:
    """Check C1-C4, monotonicity, and overlap-extension.

    Finite small carriers are checked exhaustively over all pairs/triples;
    otherwise a seeded pool of sampled elements is used, and each check
    draws its pairs from ``Random(seed + 1)`` and its triples from
    ``Random(seed + 2)``.  ``samples`` below 1 raises ``ValueError``.
    ``pool``, when given, is ``audit_pool(algebra, samples, seed)`` built
    once by the caller.
    """
    if pool is None:
        pool = audit_pool(algebra, samples, seed)
    exhaustive = _exhaustive(algebra)
    report = AuditReport()
    el, c, join = algebra.describe, algebra.contact, algebra.join
    zero = algebra.zero()

    def cases(arity: int):
        if exhaustive or arity == 1:
            return product(pool, repeat=arity)
        rng = random.Random(seed + arity - 1)
        return (tuple(rng.choice(pool) for _ in range(arity)) for _ in range(len(pool)))

    def named(*case) -> str:
        return " ".join(f"{v}={el(x)}" for v, x in zip("xyz", case))

    # (name, arity, fails, describe); monotone in both arguments means
    # C(x,y) with x <= x+z and y <= y+z
    checks = (
        ("C1", 1, lambda x: c(zero, x), lambda x: f"C(0,{el(x)})"),
        ("C2", 3, lambda x, y, z: c(x, join(y, z)) != (c(x, y) or c(x, z)), named),
        ("C3", 2, lambda x, y: c(x, y) and not c(y, x), named),
        ("C4", 1, lambda x: not algebra.is_zero(x) and not c(x, x), named),
        ("monotonicity", 3,
         lambda x, y, z: c(x, y) and not (c(join(x, z), y) and c(x, join(y, z))), named),
        ("overlap-extension", 2,
         lambda x, y: not algebra.is_zero(algebra.meet(x, y)) and not c(x, y), named),
    )
    for name, arity, fails, describe in checks:
        report.check(name, first_witness(cases(arity), fails, describe))
    return report


def is_connected_algebra(algebra: ContactAlgebra, samples: int = 50, seed: int = 0, *,
                         pool: Optional[list] = None) -> bool:
    """Every element other than 0 and 1 is in contact with its complement,
    checked on ``pool``, by default ``audit_pool(algebra, samples, seed)``."""
    if pool is None:
        pool = audit_pool(algebra, samples, seed)
    one = algebra.one()
    return all(algebra.is_zero(x) or algebra.equal(x, one)
               or algebra.contact(x, algebra.complement(x)) for x in pool)


# ---------------------------------------------------------------------------
# merging: power set of projected cells -> polytope algebra
# ---------------------------------------------------------------------------

@dataclass
class MergeResult:
    cells: tuple[str, ...]
    ends: tuple[iv.End, ...]
    masks: tuple[int, ...]  # the segments of each cell's image, over ends
    union_of: Callable[[int], CylinderPolytope]
    report: AuditReport


def merge(images: Mapping[str, CylinderPolytope],
          space: Optional[AdjacencySpace] = None) -> MergeResult:
    """Embed subsets of projected cells into the polytope algebra by union.

    Verifies, over all 2^n subsets of the n cells:

    * bijectivity  - distinct subsets have distinct unions;
    * complement   - union of the complement subset is the complement;
    * join         - union distributes over subset union;
    * contact      - the induced relation matches strong contact of unions,
      in both directions (and likewise for plain topological contact,
      which coincides with strong contact on projection images).

    When ``space`` is given its adjacency must agree with strong contact of
    the images; otherwise the relation is derived from the images.

    Each law is decided on one table of the n images' elementary segments
    (``intervals.segment_masks``), a subset's union being the OR of its
    images' masks:

    * the induced relation is read off the masks: two images touch when a
      segment of one is, or neighbours, a segment of the other;
    * bijectivity fails exactly when some image's mask lies inside the OR
      of the others; for the first such cell x, every cell but x and every
      cell share an image;
    * complement holds of every subset exactly when it holds of {} (the
      masks cover every segment) and of each single cell (its mask meets no
      other), and the first of these to fail is the least failing subset;
    * both contact relations hold by construction, as join does: a
      subset's mask is the OR of its cells' masks, and the relation is
      read off those masks.

    ``union_of`` reads a subset's ``CylinderPolytope`` off that OR by
    ``intervals.from_segments``, on the table's own endpoints.
    """
    cells = tuple(sorted(images))
    n = len(cells)
    dim = images[cells[0]].ambient_dim
    ends, segs = iv.segment_masks([images[x].base for x in cells])

    # the relation the images induce on cells, as one neighbour mask per
    # cell: segments at or next to an image's share a point with it
    near = [m | m << 1 | m >> 1 for m in segs]
    discrete = FiniteContactAlgebra(cells, [
        sum(1 << j for j, m in enumerate(segs) if m & near[i]) for i in range(n)])
    name = discrete.describe

    report = AuditReport()
    if space is not None:
        report.check("adjacency-vs-image-contact", first_witness(
            product(range(n), repeat=2),
            lambda i, j: space.adjacent(cells[i], cells[j]) != bool(discrete.succ[i] >> j & 1),
            lambda i, j: f"pair={(cells[i], cells[j])}"))

    full = (1 << n) - 1
    all_segs = (2 << len(ends)) - 1

    def union_of(subset: int) -> CylinderPolytope:
        picked = (m for i, m in enumerate(segs) if subset >> i & 1)
        return lift(iv.from_segments(ends, reduce(or_, picked, 0)), dim)

    # the segments of all images, and of every image but cell i's, from
    # prefix and suffix ORs
    before = list(accumulate(segs, or_, initial=0))
    after = list(accumulate(reversed(segs), or_, initial=0))[::-1]
    others = [before[i] | after[i + 1] for i in range(n)]

    report.check("bijectivity", first_witness(
        enumerate(segs), lambda i, m: m | others[i] == others[i],
        lambda i, m: f"{name(full ^ 1 << i)} and {name(full)} share an image"))
    report.check("complement", first_witness(
        [(0, before[n], 0), *((1 << i, others[i], m) for i, m in enumerate(segs))],
        lambda a, rest, m: rest != all_segs ^ m, lambda a, rest, m: f"a={name(a)}"))
    # a subset's mask is the OR of its images' masks, and the relation is
    # read off those masks: join and contact (C and SC alike) hold by
    # construction
    for law in ("join", "contact", "contact-C-variant"):
        report.check(law, None)
    return MergeResult(cells, ends, tuple(segs), union_of, report)
