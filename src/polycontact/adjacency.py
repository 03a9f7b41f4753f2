"""Finite adjacency spaces: cycles, untying, numerations, projections.

An adjacency space is a finite set of cells with a reflexive symmetric
relation.  Loops are implicit (every cell is adjacent to itself); only the
non-loop edges are stored, as unordered pairs.  Each space builds its
sorted neighbour lists once, on first use, and every walk over a space
reads them.

The three stages used by countermodel synthesis live here:

* ``untie``       - repeatedly break the shortest simple cycle, the least
  of those, by duplicating a cell until the space is acyclic, returning the
  acyclic space together with the collapsing map back to the original,
  which is a p-morphism.  Each break finds its cycle with a breadth-first
  search from every start (Itai & Rodeh) and one depth-first search bounded
  by the distances it found, so a break costs O(V(V + E)) plus the bounded
  search, and no break lists all cycles;
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
from .intervals import IntervalPolytope, segment_masks

Edge = tuple[str, str]


def _edge(a: str, b: str) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class AdjacencySpace:
    cells: tuple[str, ...]
    edges: frozenset[Edge]  # non-loop edges as sorted pairs

    def adjacent(self, x: str, y: str) -> bool:
        return x == y or _edge(x, y) in self.edges

    @cached_property
    def _neighbour_lists(self) -> Mapping[str, tuple[str, ...]]:
        lists: dict[str, list[str]] = {}
        for a, b in self.edges:
            lists.setdefault(a, []).append(b)
            lists.setdefault(b, []).append(a)
        return {x: tuple(sorted(ys)) for x, ys in lists.items()}

    def neighbours(self, x: str) -> tuple[str, ...]:
        """The cells adjacent to ``x`` other than ``x``, ascending; the
        lists of all cells are built on the first call and kept."""
        return self._neighbour_lists.get(x, ())

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

    def extend(start: str, path: list[str], on_path: set[str]):
        x = path[-1]
        for y in space.neighbours(x):
            if y == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif y > start and y not in on_path:
                path.append(y)
                on_path.add(y)
                extend(start, path, on_path)
                on_path.remove(y)
                path.pop()

    for start in space.cells:
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


def _least_shortest_cycle(space: AdjacencySpace) -> Optional[tuple[str, ...]]:
    """The first cycle of ``simple_cycles(space)``, or None when there is none.

    A breadth-first search from each start s over the cells >= s (Itai &
    Rodeh, "Finding a minimum circuit in a graph", 1978) reads a closed walk
    of length d(x) + d(y) + 1 off each edge {x, y} outside its tree; every
    such walk holds a cycle, and a cycle through s is no shorter than the
    least walk, so the least walk over all starts is the girth g.  Then, from
    each start whose least walk is g, in order, a depth-first search in
    sorted order over the cells > s steps only to a cell y within g - k of
    s when y would take position k, so every path it extends to g cells
    closes a cycle, and the first is the least g-cycle through s.  It is
    canonical (its second cell is below its last): the reversal of a g-cycle
    is one too, and the search meets the orientation with the smaller
    second cell first.
    """
    nbrs = space.neighbours
    girth, searched = None, []
    for s in space.cells:
        if len(nbrs(s)) < 2:  # a leaf is on no cycle
            continue
        dist, frontier, shortest = {s: 0}, [s], None
        while frontier:
            nxt = []
            for x in frontier:
                for y in nbrs(x):
                    if y < s:
                        continue
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
                    elif dist[y] >= dist[x]:  # not the edge to a cell a level up
                        walk = dist[x] + dist[y] + 1
                        if shortest is None or walk < shortest:
                            shortest = walk
            frontier = nxt
        if shortest is not None:
            searched.append((s, dist, shortest))
            if girth is None or shortest < girth:
                girth = shortest
    for s, dist, shortest in searched:
        if shortest != girth:
            continue
        path, on_path, stack = [s], {s}, [iter(nbrs(s))]
        while stack:
            for y in stack[-1]:
                if y <= s or y in on_path or dist[y] > girth - len(path):
                    continue
                if len(path) + 1 == girth:  # dist[y] <= 1: y closes the cycle
                    return (*path, y)
                path.append(y)
                on_path.add(y)
                stack.append(iter(nbrs(y)))
                break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return None


def untie(space: AdjacencySpace) -> tuple[AdjacencySpace, PMorphism]:
    """Untied (acyclic) version of a connected space plus the collapsing map.

    Deterministic choices: the shortest simple cycle, the lexicographically
    least of those (the first in ``simple_cycles``' ``(len, cycle)``
    order), its least cell, and that cell's least neighbour on the cycle.
    Each break finds that cycle without listing cycles: a breadth-first
    search from every start over the cells above it gives the girth, and a
    depth-first search bounded by those distances finds the least cycle of
    that length (``_least_shortest_cycle``).  A break costs O(V(V + E))
    plus the bounded search on the current space, and there are E - V + 1
    breaks.  The returned map composes the per-step collapses a' -> a and
    is a p-morphism onto the input.
    """
    if not is_connected(space):
        raise ValueError("untying is defined for connected spaces")
    current = space
    to_original = {x: x for x in space.cells}
    while (cycle := _least_shortest_cycle(current)) is not None:
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
    return _parent(space, num.numbering(), cell)


def _parent(space: AdjacencySpace, numbering: Mapping[str, int], cell: str) -> str:
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
    numbering = num.numbering()
    walk = [num.root]
    for cell in num.order[1:]:
        parent = _parent(space, numbering, cell)
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

    The pieces are written canonical: no cell occurs twice in a row, so a
    cell's unit intervals never touch, and the walk starts and ends at the
    root, so the rays join the root's first and last pieces.
    """
    _require_tree(space)
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    length = 2 * len(space.cells) - 1
    if (len(walk) != length or set(walk) != set(space.cells)
            or any(x == y for x, y in zip(walk, walk[1:]))):
        raise ValueError("walk is not an arrangement of the space")
    root = walk[0]
    if walk[-1] != root:
        raise ValueError("arrangement must start and end at the root")
    pieces: dict[str, list] = {x: [] for x in space.cells}
    for k, cell in enumerate(walk):
        pieces[cell].append((k, k + 1))
    rooted = pieces[root]
    rooted[0] = (None, rooted[0][1])
    rooted[-1] = (rooted[-1][0], None)
    images = {x: CylinderPolytope(IntervalPolytope.from_canonical(tuple(ps)), n)
              for x, ps in pieces.items()}
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
