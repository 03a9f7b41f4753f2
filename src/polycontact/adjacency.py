"""Finite adjacency spaces: cycles, untying, numerations, projections.

An adjacency space is a finite set of cells with a reflexive symmetric
relation.  Loops are implicit (every cell is adjacent to itself); only the
non-loop edges are stored, as unordered pairs.

The three stages used by countermodel synthesis live here:

* ``untie``       - repeatedly break simple cycles by duplicating a cell
  until the space is acyclic, returning the acyclic space together with the
  collapsing map back to the original, which is a p-morphism;
* ``numeration``  - number the cells of an acyclic connected space so that
  breadth-first levels from a root are respected; every non-root cell then
  has a unique lower-numbered neighbour;
* ``arrangement`` / ``project`` - list the cells as a walk of length
  2|W| - 1 in which consecutive entries are adjacent, then hand each cell
  the unit intervals of its occurrences (the root also takes the two
  unbounded rays).  Adjacency of cells coincides with strong contact of the
  images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .cylinder import CylinderPolytope
from .intervals import canonicalize, segment_masks

Edge = tuple[str, str]


def _edge(a: str, b: str) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class AdjacencySpace:
    cells: tuple[str, ...]
    edges: frozenset[Edge]  # non-loop edges as sorted pairs

    def adjacent(self, x: str, y: str) -> bool:
        return x == y or _edge(x, y) in self.edges

    def neighbours(self, x: str) -> tuple[str, ...]:
        return tuple(sorted(b if a == x else a
                            for a, b in self.edges if x in (a, b)))

    def __repr__(self) -> str:
        return f"AdjacencySpace({len(self.cells)} cells, {len(self.edges)} edges)"


def mk_space(cells: Iterable[str], edges: Iterable[tuple[str, str]]) -> AdjacencySpace:
    """Build a space; the reflexive-symmetric closure is implicit.

    Loops in the input are accepted and dropped (they are always present);
    edge endpoints must be declared cells.
    """
    cell_tuple = tuple(sorted(set(cells)))
    if not cell_tuple:
        raise ValueError("adjacency space needs at least one cell")
    known = set(cell_tuple)
    normalized = set()
    for a, b in edges:
        if a not in known or b not in known:
            raise ValueError(f"edge ({a}, {b}) mentions an unknown cell")
        if a != b:
            normalized.add(_edge(a, b))
    return AdjacencySpace(cell_tuple, frozenset(normalized))


def is_connected(space: AdjacencySpace) -> bool:
    seen = {space.cells[0]}
    frontier = [space.cells[0]]
    while frontier:
        x = frontier.pop()
        for y in space.neighbours(x):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(space.cells)


def is_acyclic(space: AdjacencySpace) -> bool:
    """No simple cycle; for connected spaces this means a tree."""
    # cycle detection by DFS with parent tracking over non-loop edges
    seen: dict[str, Optional[str]] = {}
    for start in space.cells:
        if start in seen:
            continue
        seen[start] = None
        stack = [(start, None)]
        while stack:
            x, parent = stack.pop()
            for y in space.neighbours(x):
                if y == parent:
                    continue
                if y in seen:
                    return False
                seen[y] = x
                stack.append((y, x))
    return True


def simple_cycles(space: AdjacencySpace) -> list[tuple[str, ...]]:
    """All simple cycles, one canonical tuple per rotation/reflection class.

    Canonical form: the cycle starts at its least cell and its second entry
    is smaller than its last, so each undirected cycle appears exactly once.
    The cycles come in ``(len, cycle)`` order: shortest first, and
    lexicographically among cycles of one length.
    """
    cycles = []
    cells = space.cells
    neighbours = {x: space.neighbours(x) for x in cells}

    def extend(start: str, path: list[str], on_path: set[str]):
        x = path[-1]
        for y in neighbours[x]:
            if y == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif y > start and y not in on_path:
                path.append(y)
                on_path.add(y)
                extend(start, path, on_path)
                on_path.remove(y)
                path.pop()

    for start in cells:
        extend(start, [start], {start})
    return sorted(cycles, key=lambda c: (len(c), c))


def _cycle_neighbours(cycle: Sequence[str], a: str) -> tuple[str, str]:
    i = cycle.index(a)
    return cycle[i - 1], cycle[(i + 1) % len(cycle)]


def break_cycle(space: AdjacencySpace, cycle: Sequence[str], a: str, b: str) -> AdjacencySpace:
    """Break a simple cycle at ``a`` next to ``b``.

    A fresh cell a' replaces a on b's side: the edge {a, b} is removed and
    {a', b} added, so a' is adjacent only to b (and itself).
    """
    if a not in cycle:
        raise ValueError(f"cell {a!r} is not on the cycle")
    if b not in _cycle_neighbours(cycle, a):
        raise ValueError(f"cell {b!r} is not adjacent to {a!r} on the cycle")
    fresh = a + "'"
    while fresh in space.cells:
        fresh += "'"
    cells = space.cells + (fresh,)
    edges = set(space.edges)
    edges.discard(_edge(a, b))
    edges.add(_edge(fresh, b))
    return AdjacencySpace(tuple(sorted(cells)), frozenset(edges))


@dataclass(frozen=True)
class PMorphism:
    """A cell map presented as sorted (source, target) pairs."""

    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def of(mapping: Mapping[str, str]) -> "PMorphism":
        return PMorphism(tuple(sorted(mapping.items())))

    @cached_property
    def mapping(self) -> Mapping[str, str]:
        """The map as a read-only dict, built once."""
        return MappingProxyType(dict(self.pairs))

    def __call__(self, cell: str) -> str:
        return self.mapping[cell]


def check_pmorphism(f: PMorphism | Mapping[str, str],
                    source: AdjacencySpace, target: AdjacencySpace) -> bool:
    """Exhaustive check: total, surjective, edge-preserving, edge-lifting."""
    mapping = f.mapping if isinstance(f, PMorphism) else dict(f)
    if set(mapping) != set(source.cells):
        return False
    if set(mapping.values()) != set(target.cells):
        return False
    for a, b in source.edges:
        if not target.adjacent(mapping[a], mapping[b]):
            return False
    preimage: dict[str, list[str]] = {}
    for x, fx in mapping.items():
        preimage.setdefault(fx, []).append(x)
    for a, b in target.edges:
        if not any(source.adjacent(x, y)
                   for x in preimage[a] for y in preimage[b]):
            return False
    return True


def untie(space: AdjacencySpace) -> tuple[AdjacencySpace, PMorphism]:
    """Untied (acyclic) version of a connected space plus the collapsing map.

    Deterministic choices: the shortest simple cycle, the lexicographically
    least of those (the first in ``simple_cycles``' ``(len, cycle)``
    order), its least cell, and that cell's least neighbour on the cycle.
    The returned map composes the per-step collapses a' -> a and is a
    p-morphism onto the input.
    """
    if not is_connected(space):
        raise ValueError("untying is defined for connected spaces")
    current = space
    to_original = {x: x for x in space.cells}
    while True:
        cycles = simple_cycles(current)
        if not cycles:
            break
        cycle = cycles[0]
        a = min(cycle)
        b = min(_cycle_neighbours(cycle, a))
        broken = break_cycle(current, cycle, a, b)
        fresh = next(iter(set(broken.cells) - set(current.cells)))
        to_original[fresh] = to_original[a]
        current = broken
    return current, PMorphism.of(to_original)


# ---------------------------------------------------------------------------
# levels, numerations, arrangements
# ---------------------------------------------------------------------------

def _require_tree(space: AdjacencySpace) -> None:
    if not is_connected(space):
        raise ValueError("space must be connected")
    if len(space.edges) != len(space.cells) - 1:
        raise ValueError("space must be acyclic")


def alpha_levels(space: AdjacencySpace, root: str) -> list[tuple[str, ...]]:
    """Breadth-first levels from the root; they partition the cells."""
    _require_tree(space)
    if root not in space.cells:
        raise ValueError(f"unknown root cell {root!r}")
    levels = [(root,)]
    placed = {root}
    while True:
        last = levels[-1]
        nxt = sorted({y for x in last for y in space.neighbours(x)} - placed)
        if not nxt:
            return levels
        levels.append(tuple(nxt))
        placed.update(nxt)


@dataclass(frozen=True)
class Numeration:
    """Level-monotone bijection cells -> 0..|W|-1, held as the listing."""

    order: tuple[str, ...]

    @property
    def root(self) -> str:
        return self.order[0]

    def numbering(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.order)}


def numeration(space: AdjacencySpace, root: str) -> Numeration:
    """The canonical numeration: levels in order, cells sorted within each."""
    levels = alpha_levels(space, root)
    order = tuple(x for level in levels for x in level)
    return Numeration(order)


def unique_parent(space: AdjacencySpace, num: Numeration, cell: str) -> str:
    """The unique lower-numbered neighbour of a non-root cell."""
    numbering = num.numbering()
    below = [y for y in space.neighbours(cell) if numbering[y] < numbering[cell]]
    if len(below) != 1:
        raise ValueError(f"cell {cell!r} has {len(below)} lower-numbered neighbours")
    return below[0]


def arrangement(space: AdjacencySpace, num: Numeration) -> tuple[str, ...]:
    """Walk of length 2|W|-1 visiting every cell, consecutive entries adjacent.

    Cells are inserted in numeration order: each new cell replaces the
    leftmost occurrence of its unique lower-numbered neighbour ``a`` with
    ``a, b, a``.
    """
    _require_tree(space)
    if sorted(num.order) != list(space.cells):
        raise ValueError("numeration does not list the cells of the space")
    walk = [num.root]
    for cell in num.order[1:]:
        parent = unique_parent(space, num, cell)
        i = walk.index(parent)
        walk[i:i + 1] = [parent, cell, parent]
    return tuple(walk)


def project(space: AdjacencySpace, walk: Sequence[str], n: int = 1
            ) -> dict[str, CylinderPolytope]:
    """Images of the cells on the line (cylindrified to dimension n).

    Position k of the walk contributes the unit interval [k, k+1] to the
    cell occurring there; the root also receives the two closed rays, so
    the images are regular closed, pairwise non-overlapping, and cover
    everything.  Adjacency coincides with strong contact of the images;
    this is re-checked on their segment masks before returning.
    """
    _require_tree(space)
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    length = 2 * len(space.cells) - 1
    if len(walk) != length or set(walk) != set(space.cells):
        raise ValueError("walk is not an arrangement of the space")
    root = walk[0]
    if walk[-1] != root:
        raise ValueError("arrangement must start and end at the root")
    pieces: dict[str, list] = {x: [] for x in space.cells}
    for k, cell in enumerate(walk):
        pieces[cell].append((k, k + 1))
    pieces[root].append((None, 0))
    pieces[root].append((length, None))
    images = {x: CylinderPolytope(canonicalize(ps), n) for x, ps in pieces.items()}
    _check_projection(space, images)
    return images


class ProjectionError(RuntimeError):
    """The projected images fail the self-check of ``project``."""


def _check_projection(space: AdjacencySpace, images: dict[str, CylinderPolytope]) -> None:
    cells = space.cells
    ends, masks = segment_masks([images[x].base for x in cells])
    if reduce(or_, masks) != (2 << len(ends)) - 1:
        raise ProjectionError("projection images do not cover the line")
    for i, (x, m) in enumerate(zip(cells, masks)):
        for y, other in zip(cells[i + 1:], masks[i + 1:]):
            if m & other:
                raise ProjectionError(f"projection images of {x!r} and {y!r} overlap")
            if space.adjacent(x, y) != bool((m | m << 1 | m >> 1) & other):
                raise ProjectionError(
                    f"adjacency of ({x!r}, {y!r}) disagrees with image contact")


# ---------------------------------------------------------------------------
# text form:  space { cells a b c; edges a-b b-c; }
# ---------------------------------------------------------------------------

class SpaceFormatError(ValueError):
    pass


def parse_space(text: str) -> AdjacencySpace:
    body = text.strip()
    if not (body.startswith("space") and body.endswith("}")):
        raise SpaceFormatError("expected 'space { ... }'")
    inner = body[len("space"):].strip()
    if not inner.startswith("{"):
        raise SpaceFormatError("expected '{' after 'space'")
    inner = inner[1:-1]
    cells: list[str] = []
    edges: list[tuple[str, str]] = []
    for stmt in inner.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        head, *rest = stmt.split()
        if head == "cells":
            cells.extend(rest)
        elif head == "edges":
            for item in rest:
                if "-" not in item:
                    raise SpaceFormatError(f"bad edge {item!r}")
                a, b = item.split("-", 1)
                edges.append((a, b))
        else:
            raise SpaceFormatError(f"unknown section {head!r}")
    try:
        return mk_space(cells, edges)
    except ValueError as exc:
        raise SpaceFormatError(str(exc)) from exc


def format_space(space: AdjacencySpace) -> str:
    cells = " ".join(space.cells)
    if space.edges:
        edges = " ".join(f"{a}-{b}" for a, b in sorted(space.edges))
        return f"space {{ cells {cells}; edges {edges}; }}"
    return f"space {{ cells {cells}; }}"


def to_dot(space: AdjacencySpace) -> str:
    lines = ["graph adjacency {"]
    for cell in space.cells:
        lines.append(f'  "{cell}";')
    for a, b in sorted(space.edges):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines)
