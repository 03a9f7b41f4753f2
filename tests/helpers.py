"""Shared test machinery: tree enumeration, batched Kripke evaluation, the
scalar countermodel search kept as the reference for the bit-sliced one,
the labelled-graph scan kept as the reference for the augmentation
enumeration, the canonical form over every block relabelling kept for the
branch and bound, the point-probing plane references kept for the sign-vector
walk, the Fourier-Motzkin ``equals`` and brick-based boundary
representation kept for the face kernel, the ``canonicalize``-based and
all-pairs line operations kept for the linear sweeps, the ``Fraction``
Fourier-Motzkin elimination and arrangement walk kept for the integer
plane kernel, the integer Fourier-Motzkin ``mk_basic`` kept for the facet
test, the ``Fraction``-field identity, order, boundary line and side masks
kept for those on integer forms, the canonical scaling by
division kept for the unit-lead and negation shortcuts, the ``Fraction``
witness radii kept for those on integer forms, the subset-by-subset
``merge`` on geometric unions kept for the laws decided on the image
masks, the recursive-descent formula parser
kept for the precedence-climbing one, the precedence climbing over
``(kind, text, offset)`` tokens kept for the one over token strings and
indices, the ``match``-based evaluator and
tree-height walk kept for the type-dispatched evaluator and the height the
parser carries, the compiler that pops each node twice kept for the one
that keeps nodes on its stack, structural equality kept for the identity
of interned nodes, the forward decode of a ``Program`` kept for
the backward one, the ``rational``-built interval ends kept
for the integer tokens of ``parse_intervals``, ``rational`` through
``Fraction`` alone kept for its int reading of exact tokens, the
one-variable solve that reads every bound kept for the one that stops at
the first crossing, the seeded plane polytope
pairs of the strong-contact tests, and random formula text in the concrete
syntax."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Optional

import numpy as np
from hypothesis import strategies as st

from polycontact import algebra as alg
from polycontact import bitslice as bs
from polycontact import cuts as cu
from polycontact import intervals as iv
from polycontact import plane as pl
from polycontact import logic as lg
from polycontact.adjacency import AdjacencySpace, is_connected, mk_space
from polycontact.algebra import FiniteContactAlgebra, induced_algebra
from polycontact.cylinder import lift
from polycontact.numeric import (HalfSpace, Hyperplane, flip, intersect_lines, rational,
                                 sqrt_lower)
from polycontact.logic import (
    MAX_NESTING, Complement, Contact, Eq, FormulaSyntaxError, Join, Not, Or, UnboundVariable,
    Variable, conj, evaluate, free_variables, iff, implies, meet, one_term, zero_term)

CELLS = "abcdefghijklmnopqrstuvwxyz"


def prufer_tree(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence into tree edges on 0..n-1."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = leaves[0], leaves[1]
    edges.append((u, w))
    return edges


def _ahu_encode(adj: dict[int, list[int]], root: int, parent: int) -> str:
    subs = sorted(_ahu_encode(adj, c, root)
                  for c in adj[root] if c != parent)
    return "(" + "".join(subs) + ")"


def _tree_canonical(edges: list[tuple[int, int]], n: int) -> str:
    if n == 1:
        return "()"
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # peel leaves to find the centre(s)
    degree = {v: len(adj[v]) for v in range(n)}
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            remaining -= 1
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return min(_ahu_encode(adj, c, -1) for c in layer)


def all_trees(max_cells: int) -> list[AdjacencySpace]:
    """One representative per isomorphism class of trees up to max_cells."""
    out = []
    for n in range(1, max_cells + 1):
        cells = list(CELLS[:n])
        if n == 1:
            out.append(mk_space(cells, []))
            continue
        if n == 2:
            out.append(mk_space(cells, [("a", "b")]))
            continue
        seen = set()
        for seq in product(range(n), repeat=n - 2):
            edges = prufer_tree(seq, n)
            key = _tree_canonical(edges, n)
            if key in seen:
                continue
            seen.add(key)
            out.append(mk_space(cells, [(cells[a], cells[b]) for a, b in edges]))
    return out


def _degree_profiles(mask: int, n: int, pairs: list[tuple[int, int]]) -> list:
    adj = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        if mask >> k & 1:
            adj[i].append(j)
            adj[j].append(i)
    degs = [len(a) for a in adj]
    return [(degs[v], tuple(sorted(degs[u] for u in adj[v]))) for v in range(n)]


def reference_canonical_mask(mask: int, n: int, pairs: list[tuple[int, int]]) -> int:
    """The canonical representative of the mask's isomorphism class.

    Canonical form: the minimum relabelling among those that place each
    cell into the position block of its degree profile (profiles sorted).
    The candidate set is the same for isomorphic graphs, so the minimum is
    one mask per isomorphism class.  The identity need not respect the
    blocks, so ``mask`` itself need not be a candidate.
    """
    index = {pair: k for k, pair in enumerate(pairs)}
    profiles = _degree_profiles(mask, n, pairs)
    classes: dict[object, list[int]] = {}
    for v, prof in enumerate(profiles):
        classes.setdefault(prof, []).append(v)
    groups = [classes[key] for key in sorted(classes)]
    # position blocks in sorted-profile order
    blocks = []
    start = 0
    for g in groups:
        blocks.append(range(start, start + len(g)))
        start += len(g)
    bits = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    perm = [0] * n
    best = None
    for assignment in product(*(permutations(block) for block in blocks)):
        for group, targets in zip(groups, assignment):
            for src, dst in zip(group, targets):
                perm[src] = dst
        out = 0
        for i, j in bits:
            pi, pj = perm[i], perm[j]
            out |= 1 << index[(pi, pj) if pi < pj else (pj, pi)]
        if best is None or out < best:
            best = out
    return best


def scan_connected_spaces(n: int) -> list[AdjacencySpace]:
    """``logic.enumerate_connected_spaces`` at exactly n cells by scanning
    all 2^(n choose 2) labelled graphs: connected ones whose adjacency
    bitmask is its own canonical form (``reference_canonical_mask``), in
    bitmask order."""
    cells = list(CELLS[:n])
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        space = mk_space(cells, [(cells[i], cells[j])
                                 for k, (i, j) in enumerate(pairs) if mask >> k & 1])
        if is_connected(space) and reference_canonical_mask(mask, n, pairs) == mask:
            out.append(space)
    return out


def batch_true_in_algebra(formula, algebra: FiniteContactAlgebra) -> bool:
    """Truth of the formula under every valuation, vectorised over masks.

    Mirrors the scalar evaluator structurally; elements are bitmasks, so a
    valuation ensemble is a numpy array per variable and the Boolean
    operations act elementwise.
    """
    names = sorted(free_variables(formula))
    n_cells = len(algebra.cells)
    size = 1 << n_cells
    full = algebra.full
    grids = np.meshgrid(*[np.arange(size, dtype=np.int64)] * len(names),
                        indexing="ij") if names else []
    env = {name: grid.ravel() for name, grid in zip(names, grids)}
    count = size ** len(names) if names else 1

    succ = np.array(algebra.succ, dtype=np.int64)

    def contact(xs, ys):
        acc = np.zeros_like(xs)
        for i in range(n_cells):
            acc |= np.where(xs >> i & 1 == 1, succ[i], 0)
        return (acc & ys) != 0

    def term(t):
        match t:
            case Variable(name):
                return env[name]
            case Complement(inner):
                return full ^ term(inner)
            case Join(left, right):
                return term(left) | term(right)
        raise TypeError(t)

    def form(f):
        match f:
            case Eq(left, right):
                return term(left) == term(right)
            case Contact(left, right):
                return contact(term(left), term(right))
            case Not(body):
                return ~form(body)
            case Or(left, right):
                return form(left) | form(right)
        raise TypeError(f)

    if not names:
        return evaluate(formula, algebra, {})
    return bool(form(formula).all())


def random_formula_text(rng: random.Random, names, depth: int = 3) -> str:
    """A formula in the concrete syntax, abbreviations included."""
    def term(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice(names) if rng.random() < 0.8 else rng.choice("01")
        op = rng.choice(["-", "+", "."])
        if op == "-":
            return f"-({term(d - 1)})"
        return f"({term(d - 1)} {op} {term(d - 1)})"

    def formula(d):
        if d == 0 or rng.random() < 0.3:
            rel = rng.choice(["==", "!=", "<=", "C"])
            a, b = term(2), term(2)
            return f"C({a}, {b})" if rel == "C" else f"{a} {rel} {b}"
        op = rng.choice(["~", "|", "&", "=>", "<=>"])
        if op == "~":
            return f"~({formula(d - 1)})"
        return f"({formula(d - 1)} {op} {formula(d - 1)})"

    return formula(depth)


_FORMULA_TOKENS = ["p", "q", "r", "0", "1", "-", "+", ".", "==", "!=", "<=", "C(", "(", ")",
                   ",", "~", "|", "&", "=>", "<=>"]
_FORMULA_TOKEN_RE = re.compile(r"<=>|=>|==|!=|<=|C\(|[a-z][a-z0-9]*|\S")


def mutate_formula_text(draw, text: str) -> str:
    """``text`` with up to three tokens deleted, inserted or replaced."""
    toks = _FORMULA_TOKEN_RE.findall(text)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        i = draw(st.integers(0, len(toks)))
        if kind == "insert":
            toks.insert(i, draw(st.sampled_from(_FORMULA_TOKENS)))
        elif toks:
            i = min(i, len(toks) - 1)
            toks[i:i + 1] = [] if kind == "delete" else [draw(st.sampled_from(_FORMULA_TOKENS))]
    return " ".join(toks)


@st.composite
def formula_texts(draw) -> str:
    """``random_formula_text`` outputs over p, q, r, some of them mutated."""
    text = random_formula_text(draw(st.randoms()), ["p", "q", "r"], draw(st.integers(0, 3)))
    return mutate_formula_text(draw, text)


def scalar_find_countermodel(formula, spaces):
    """``logic.find_countermodel`` one valuation at a time over the given
    spaces: valuations in ``itertools.product`` order over the sorted
    variables, each checked with ``logic.evaluate``."""
    names = sorted(free_variables(formula))
    for space in spaces:
        algebra = induced_algebra(space)
        for masks in product(range(1 << len(space.cells)), repeat=len(names)):
            valuation = dict(zip(names, masks))
            if not evaluate(formula, algebra, valuation):
                return space, {name: frozenset(algebra.cells_of(mask))
                               for name, mask in valuation.items()}
    return None


def probe_facet(p, q, mu, x, lines) -> bool:
    """True when, locally at x on mu, Int(p) fills one open side and Int(q)
    the other, decided by membership of two points just off mu at a
    distance no other line comes closer than.  x must avoid every line
    except mu."""
    eps = pl._sector_step(x, mu.normal, [nu for nu in lines if nu is not mu])
    n = mu.normal
    plus = (x[0] + eps * n[0], x[1] + eps * n[1])
    minus = (x[0] - eps * n[0], x[1] - eps * n[1])
    p_plus, p_minus = p.contains(plus), p.contains(minus)
    q_plus, q_minus = q.contains(plus), q.contains(minus)
    return (p_plus and q_minus) or (p_minus and q_plus)


def probe_sc_analysis(p, q):
    """``plane._sc_analysis``'s record ``(point, walls, line)`` with each
    edge classified by ``probe_facet`` instead of by sign vectors."""
    if p.is_empty() or q.is_empty():
        return None
    common = pl._common_point(p, q, True)
    if common is not None:
        (x, y), a, b = common
        return ((Fraction(*x), Fraction(*y)),
                [h.integer_form for h in a.constraints + b.constraints], None)
    lines = sorted(set(p.constraint_lines()) | set(q.constraint_lines()))
    for mu, lo, hi, den, _ in pl.arrangement_edges(lines):
        x = pl.edge_point(mu, lo, hi, den)
        if probe_facet(p, q, mu, x, lines):
            return x, [nu.integer_form for nu in lines if nu is not mu], mu
    return None


def exhaustive_brick_decomposition(cs):
    """``cuts.brick_decomposition`` by one Fourier-Motzkin call for each of
    the 2^k alternatives, in ``itertools.product`` order."""
    bricks = []
    for signs in product((1, -1), repeat=len(cs.cuts)):
        cons = tuple(cut.sides()[0 if s > 0 else 1] for cut, s in zip(cs.cuts, signs))
        core = pl.core_point(cons)
        if core is not None:
            bricks.append(cu.Brick(signs, cons, core))
    return tuple(bricks)


def evaluated_other_signs(cs, sheet):
    """A sheet's ``other_signs`` from the sign of every other cut at its
    representative point."""
    return tuple((nu, 1 if nu.value_at(sheet.rep) < 0 else -1)
                 for nu in cs.cuts if nu != sheet.carrier)


def demorgan_equals(p, q):
    """``PlanePolytope.equals`` by two De Morgan complements and two
    regularised meets, all decided by Fourier-Motzkin."""
    return (p.reg_meet(q.complement()).is_empty()
            and q.reg_meet(p.complement()).is_empty())


def flank_signs(sheet, cs):
    """Sign vectors of the two bricks flanking a sheet, aligned with the
    order of ``cs.cuts``: the carrier's positive-sign side, then its other."""
    chosen = dict(sheet.other_signs)
    plus = tuple(1 if cut == sheet.carrier else chosen[cut] for cut in cs.cuts)
    minus = tuple(-1 if cut == sheet.carrier else chosen[cut] for cut in cs.cuts)
    return plus, minus


def polytope_brick_signs(poly, cs, decomposition):
    """The unique set of bricks whose union is the polytope.

    Every constraint line of the polytope must be a cut of the system; then
    each core lies wholly inside or outside the polytope, and membership of
    the core point decides the brick."""
    assert set(poly.constraint_lines()) <= set(cs.cuts)
    return frozenset(b.signs for b in decomposition if poly.contains(b.core_point))


def reference_boundary_representation(poly, extra_cuts=()):
    """``cuts.boundary_representation`` from the bricks: a sheet is in the
    boundary when exactly one of its flanking bricks has its core point in
    the polytope, and a corner is a system vertex that passes
    ``plane.point_on_boundary``."""
    cs = cu.CutSystem.for_polytope(poly, extra_cuts)
    if not cs.cuts:
        return cu.BoundaryRepresentation(cs, (), ())
    brickset = polytope_brick_signs(poly, cs, cu.brick_decomposition(cs))
    in_boundary = []
    for sheet in cu.sheets(cs):
        plus, minus = flank_signs(sheet, cs)
        if (plus in brickset) != (minus in brickset):
            in_boundary.append(sheet)
    corners = tuple(v for v in cs.vertices() if pl.point_on_boundary(poly, v))
    return cu.BoundaryRepresentation(cs, tuple(in_boundary), corners)


def reference_sheet_points(sheet, count=3):
    """``cuts.sheet_points`` by ``Fraction`` parameters and ``point_on``."""
    base, direction = pl.line_param(sheet.carrier)
    lo, hi = sheet.lo, sheet.hi
    if lo is None and hi is None:
        ts = [Fraction(k) for k in range(count)]
    elif lo is None:
        ts = [hi - k - 1 for k in range(count)]
    elif hi is None:
        ts = [lo + k + 1 for k in range(count)]
    else:
        ts = [lo + (hi - lo) * Fraction(k + 1, count + 1) for k in range(count)]
    return tuple(pl.point_on(base, direction, t) for t in ts)


@dataclass(frozen=True)
class EagerSheet:
    """``cuts.Sheet`` as a plain frozen record: every field built from the
    edge at once."""

    carrier: Hyperplane
    lo: Optional[Fraction]
    hi: Optional[Fraction]
    rep: tuple[Fraction, Fraction]
    other_signs: tuple[tuple[Hyperplane, int], ...]


def eager_sheet(cuts, mu, lo, hi, den, above):
    """The ``EagerSheet`` of an edge of ``plane.arrangement_edges(cuts)``."""
    signs = tuple((nu, -1 if above >> j & 1 else 1)
                  for j, nu in enumerate(cuts) if nu is not mu)
    ends = (None if end is None else Fraction(end, den) for end in (lo, hi))
    return EagerSheet(mu, *ends, pl.edge_point(mu, lo, hi, den), signs)


def reference_walk_boundary_representation(poly, extra_cuts=()):
    """``cuts.boundary_representation`` with the own bits keyed by line and
    each corner built by ``point_on`` at a sheet's ``Fraction`` end."""
    cs = cu.CutSystem.of(list(poly.constraint_lines()) + list(extra_cuts))
    index = {cut: j for j, cut in enumerate(cs.cuts)}
    masks = pl.sign_masks(poly, index)
    boundary, corners = [], set()
    for edge in pl.arrangement_edges(cs.cuts):
        mu, _, _, _, above = edge
        if pl.fills(masks, above | 1 << index[mu]) != pl.fills(masks, above):
            sheet = cu.Sheet(cs.cuts, *edge)
            boundary.append(sheet)
            base, direction = pl.line_param(mu)
            corners.update(pl.point_on(base, direction, t)
                           for t in (sheet.lo, sheet.hi) if t is not None)
    return cu.BoundaryRepresentation(cs, tuple(boundary), tuple(sorted(corners)))


def reference_union(p, q):
    """``IntervalPolytope.union`` by re-sorting and re-merging all pieces."""
    return iv.canonicalize(p.pieces + q.pieces)


def reference_reg_meet(p, q):
    """``IntervalPolytope.reg_meet`` from every pair of pieces."""
    out = []
    for a in p.pieces:
        for b in q.pieces:
            lo, hi = iv._max_lo(a[0], b[0]), iv._min_hi(a[1], b[1])
            if lo is None or hi is None or lo < hi:
                out.append((lo, hi))
    return iv.canonicalize(out)


def reference_contact_c(p, q):
    """``IntervalPolytope.contact_c``: some pair of pieces shares a point."""
    for a in p.pieces:
        for b in q.pieces:
            lo, hi = iv._max_lo(a[0], b[0]), iv._min_hi(a[1], b[1])
            if lo is None or hi is None or lo <= hi:
                return True
    return False


def reference_parse_intervals(text: str):
    """``parse_intervals`` with every finite end built by ``rational``, so
    an integer token passes through a ``Fraction`` on its way to
    ``canonicalize``."""
    body = text.strip()
    if body == "empty":
        return iv.EMPTY
    if body == "all":
        return iv.ALL
    pieces = []
    for chunk in body.split(";"):
        m = iv._PIECE_RE.match(chunk)
        if not m:
            raise iv.IntervalFormatError(f"bad interval piece: {chunk.strip()!r}")
        open_b, lo_s, hi_s, close_b = m.groups()
        lo = None if lo_s == "-inf" else rational(lo_s)
        hi = None if hi_s == "inf" else rational(hi_s)
        if (lo is None) != (open_b == "("):
            raise iv.IntervalFormatError(f"finite ends must use '[': {chunk.strip()!r}")
        if (hi is None) != (close_b == ")"):
            raise iv.IntervalFormatError(f"finite ends must use ']': {chunk.strip()!r}")
        pieces.append((lo, hi))
    return iv.canonicalize(pieces)


def reference_rational(value) -> Fraction:
    """``numeric.rational`` with every string through ``Fraction``."""
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


def reference_solve_1d(cons):
    """``plane._solve_1d`` reading every bound before deciding."""
    lo_p = lo_q = hi_p = hi_q = None  # t > / >= lo_p/lo_q, t < / <= hi_p/hi_q
    lo_strict = hi_strict = False
    for a, c, strict in cons:
        if a > 0:
            if (hi_q is None or c * hi_q < hi_p * a
                    or (strict and c * hi_q == hi_p * a)):
                hi_p, hi_q, hi_strict = c, a, strict
        elif a < 0:
            if (lo_q is None or c * lo_q < lo_p * a
                    or (strict and c * lo_q == lo_p * a)):
                lo_p, lo_q, lo_strict = -c, -a, strict
        elif c < 0 or (c == 0 and strict):
            return None
    if lo_q is None:
        return (0, 1) if hi_q is None else (hi_p - hi_q, hi_q)
    if hi_q is None:
        return lo_p + lo_q, lo_q
    lo, hi = lo_p * hi_q, hi_p * lo_q
    if lo < hi:
        return lo + hi, 2 * lo_q * hi_q
    if lo == hi and not lo_strict and not hi_strict:
        return lo_p, lo_q
    return None


def _reference_solve_1d(cons):
    """Witness for a system of constraints ``a*t (<|<=) c``, or None."""
    lo = None  # t > / >= value
    hi = None  # t < / <= value
    for a, c, strict in cons:
        if a == 0:
            if c < 0 or (c == 0 and strict):
                return None
            continue
        bound = c / a
        if a > 0:
            if hi is None or bound < hi[0] or (bound == hi[0] and strict):
                hi = (bound, strict)
        else:
            if lo is None or bound > lo[0] or (bound == lo[0] and strict):
                lo = (bound, strict)
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi[0] - 1
    if hi is None:
        return lo[0] + 1
    if lo[0] < hi[0]:
        return (lo[0] + hi[0]) / 2
    if lo[0] == hi[0] and not lo[1] and not hi[1]:
        return lo[0]
    return None


def reference_feasible_point(cons):
    """``plane.feasible_point`` by Fourier-Motzkin over ``Fraction``: y is
    eliminated pairwise, the x-system solved by dividing out each bound,
    and y back-substituted."""
    cons = [tuple(Fraction(v) for v in con[:3]) + (con[3],) for con in cons]
    x_cons, uppers, lowers = [], [], []
    for a, b, c, strict in cons:
        if b == 0:
            if a == 0:
                if c < 0 or (c == 0 and strict):
                    return None
            else:
                x_cons.append((a, c, strict))
        elif b > 0:
            uppers.append((a, b, c, strict))
        else:
            lowers.append((a, b, c, strict))
    for al, bl, cl, sl in lowers:
        for au, bu, cu, su in uppers:
            x_cons.append((bu * al - bl * au, bu * cl - bl * cu, sl or su))
    x = _reference_solve_1d(x_cons)
    if x is None:
        return None
    y = _reference_solve_1d([(b, c - a * x, strict) for a, b, c, strict in cons if b != 0])
    if y is None:
        return None
    return (x, y)


def reference_mk_basic(halfspaces):
    """``plane.mk_basic`` with every feasibility test by
    ``reference_feasible_point`` on the ``Fraction`` coefficients."""
    current = sorted(set(halfspaces))
    if reference_feasible_point([(*h.normal, h.offset, True) for h in current]) is None:
        return None
    for h in list(current):
        rest = [g for g in current if g != h]
        system = [(*g.normal, g.offset, False) for g in rest]
        system.append((-h.normal[0], -h.normal[1], -h.offset, True))
        if reference_feasible_point(system) is None:
            current = rest
    return pl.BasicPolytope(tuple(current))


def reference_fm_mk_basic(halfspaces):
    """``plane.mk_basic`` by m + 1 Fourier-Motzkin eliminations on the
    integer forms: None when the strict system is infeasible, then each h
    in turn dropped when the kept others force it, i.e. when they and the
    open complement of h have no common point."""
    current = sorted(set(halfspaces))
    if pl.feasible_ints([(*h.integer_form, True) for h in current]) is None:
        return None
    for h in list(current):
        rest = [g for g in current if g != h]
        system = [(*g.integer_form, False) for g in rest]
        system.append((*(-v for v in h.integer_form), True))
        if pl.feasible_ints(system) is None:
            current = rest
    return pl.BasicPolytope(tuple(current))


def reference_key(h):
    """The identity and order ``HalfSpace`` and ``Hyperplane`` had as
    ``order=True`` dataclasses: the tuple of their ``Fraction`` fields."""
    return h.normal, h.offset


def reference_boundary(h):
    """``HalfSpace.boundary`` as ``(normal, offset)`` by ``Fraction``
    division: the half-space's coefficients over its lead."""
    lead = next(c for c in h.normal if c)
    return tuple(c / lead for c in h.normal), h.offset / lead


def reference_canonical(normal, offset, signed):
    """The canonical ``(normal, offset)`` of a ``Hyperplane`` (``signed``)
    or ``HalfSpace`` by ``Fraction`` division by the lead, or its absolute
    value, whatever the lead."""
    normal, offset = tuple(Fraction(c) for c in normal), Fraction(offset)
    lead = next(c for c in normal if c)
    factor = lead if signed else abs(lead)
    return tuple(c / factor for c in normal), offset / factor


def point_line_dist_sq(z, line):
    """The exact squared distance from a point to a line, over ``Fraction``."""
    v = line.value_at(z)
    return v * v / (line.normal[0] ** 2 + line.normal[1] ** 2)


def _reference_overlap(p, q):
    """The first pair of parts of ``p`` and ``q`` with a common interior
    point by ``reference_feasible_point``, as ``(point, the pair's
    half-planes)``, or None."""
    for a in p.parts:
        for b in q.parts:
            cons = a.constraints + b.constraints
            z = reference_feasible_point([(*h.normal, h.offset, True) for h in cons])
            if z is not None:
                return z, cons
    return None


def reference_sc_witness(p, q):
    """``plane.sc_witness`` over ``Fraction``: each wall's squared distance
    by ``point_line_dist_sq`` on its boundary line, ``sqrt_lower`` of it,
    and half the least root.  Only the verdict and the facet's line and
    point are read off ``plane._sc_analysis``: an overlap's centre and
    walls come from ``_reference_overlap``, a facet's walls are the other
    pooled lines."""
    analysis = pl._sc_analysis(p, q)
    if analysis is None:
        return None
    overlap = _reference_overlap(p, q)
    if overlap is not None:
        z, cons = overlap
        walls = [h.boundary() for h in cons]
    else:
        z, _, mu = analysis
        lines = sorted(set(p.constraint_lines()) | set(q.constraint_lines()))
        walls = [nu for nu in lines if nu != mu]
    dists = [sqrt_lower(point_line_dist_sq(z, nu)) for nu in walls]
    return z, min(dists) / 2 if dists else Fraction(1)


def corners(poly):
    """The sorted vertices of the parts of a plane polytope."""
    pts = set()
    for part in poly.parts:
        lines = [h.boundary() for h in part.constraints]
        for i, l1 in enumerate(lines):
            for l2 in lines[i + 1:]:
                _, v = intersect_lines(l1, l2)
                if v is not None and part.contains(v):
                    pts.add(v)
    return sorted(pts)


def translated(poly, dx, dy):
    return pl.PlanePolytope.from_constraint_sets(
        [[HalfSpace(h.normal, h.offset + h.normal[0] * dx + h.normal[1] * dy)
          for h in part.constraints] for part in poly.parts])


def mirrored(poly, rng):
    """The parts of a polytope, each with one constraint flipped: mirror
    pieces across their facets, which touch the parts without overlapping."""
    sets = []
    for part in poly.parts:
        cons = list(part.constraints)
        if cons:
            i = rng.randrange(len(cons))
            cons[i] = flip(cons[i])
        sets.append(cons)
    return pl.PlanePolytope.from_constraint_sets(sets)


SC_PAIR_KINDS = ("random", "corner", "mirrored", "far")


def sc_pair(rng, kind):
    """A seeded pair of plane polytopes of one of ``SC_PAIR_KINDS``: random
    unbounded polytopes (overlapping or apart), corner copies of a bounded
    one (a shared facet, or one corner only), mirrored copies (a shared
    facet) and far copies (apart)."""
    a = pl.random_plane_polytope(rng, bounded=kind != "random")
    if kind == "random":
        b = pl.random_plane_polytope(rng)
    elif kind == "corner":
        u, w = rng.sample(corners(a), 2)
        b = translated(a, u[0] - w[0], u[1] - w[1])
    elif kind == "mirrored":
        b = mirrored(a, rng)
    else:
        b = translated(a, Fraction(rng.choice((-11, 11))), Fraction(rng.randint(-11, 11)))
    return a, b


def facet_pair_sc(p, q):
    """Strong contact by pairs of parts: overlap (a common interior point),
    or a part a of p with a half-plane h and a part b of q with ``flip(h)``
    whose other constraints leave an open interval of h's line, found by
    one ``_solve_1d`` on the line as in ``plane.mk_basic``.  Then a and b
    lie on opposite sides of that segment, a shared crossing facet."""
    if pl._common_point(p, q, True) is not None:
        return True
    for a in p.parts:
        for b in q.parts:
            for h in a.constraints:
                opposite = flip(h)
                if opposite not in b.constraints:
                    continue
                A, B, C = h.integer_form
                s = A * A + B * B
                others = [g.integer_form for g in a.constraints + b.constraints
                          if g != h and g != opposite]
                if pl._solve_1d((A * b2 - B * a2, s * c2 - C * (A * a2 + B * b2), True)
                                for a2, b2, c2 in others) is not None:
                    return True
    return False


def reference_sign_masks(poly, index):
    """``plane.sign_masks`` reading each half-plane's side off a comparison
    of its ``Fraction`` normal with its boundary's."""
    masks = []
    for part in poly.parts:
        need_pos = need_neg = 0
        for h in part.constraints:
            line = Hyperplane(h.normal, h.offset)
            if h.normal == line.normal:
                need_neg |= 1 << index[line]
            else:
                need_pos |= 1 << index[line]
        masks.append((need_pos, need_neg))
    return masks


def reference_arrangement_edges(lines):
    """``plane.arrangement_edges`` in ``Fraction`` arithmetic: each slope,
    gap and crossing parameter along ``line_param``'s direction, and each
    representative point by ``point_on``."""
    for mu in lines:
        base, direction = pl.line_param(mu)
        (bx, by), (dx, dy) = base, direction
        above = 0
        flips = {}
        for j, nu in enumerate(lines):
            if nu is mu:
                continue
            a, b = nu.normal
            slope = a * dx + b * dy
            gap = nu.offset - a * bx - b * by
            bit = 1 << j
            if slope == 0:
                if gap < 0:
                    above |= bit
                continue
            if slope < 0:
                above |= bit
            t = gap / slope
            flips[t] = flips.get(t, 0) | bit
        ts = sorted(flips)
        if ts:
            pieces = [(None, ts[0], ts[0] - 1)]
            pieces += [(a, b, (a + b) / 2) for a, b in zip(ts, ts[1:])]
            pieces.append((ts[-1], None, ts[-1] + 1))
        else:
            pieces = [(None, None, Fraction(0))]
        for lo, hi, t in pieces:
            if lo is not None:
                above ^= flips[lo]
            yield mu, lo, hi, pl.point_on(base, direction, t), above


# above _REFERENCE_EXHAUSTIVE_LIMIT subsets, reference_merge draws this many
# subsets and subset pairs from this seed
_REFERENCE_EXHAUSTIVE_LIMIT = 64
_REFERENCE_MERGE_SAMPLES = 200
_REFERENCE_MERGE_SEED = 0


def reference_merge(images, space=None):
    """The embedding laws of ``algebra.merge`` checked on geometric unions:
    every checked subset's ``CylinderPolytope`` is built by ``union``
    sweeps and compared by ``equals``, ``complement``, ``contact_sc`` and
    ``contact_c``, and the discrete contact of two subsets is
    ``FiniteContactAlgebra.contact``.  Up to 6 cells every subset and
    subset pair is checked, in ascending order; above that 200 subsets and
    200 pairs of them drawn from seed 0."""
    cells = tuple(sorted(images))
    n = len(cells)
    unions = {0: lift(iv.EMPTY, images[cells[0]].ambient_dim)}

    def union_of(mask):
        if mask not in unions:
            low = mask & -mask
            unions[mask] = union_of(mask ^ low).union(images[cells[low.bit_length() - 1]])
        return unions[mask]

    discrete = FiniteContactAlgebra(cells, [
        sum(1 << j for j, y in enumerate(cells) if images[x].contact_sc(images[y]))
        for x in cells])
    contact_masks, name = discrete.contact, discrete.describe

    report = alg.AuditReport()
    if space is not None:
        report.check("adjacency-vs-image-contact", alg.first_witness(
            product(range(n), repeat=2),
            lambda i, j: space.adjacent(cells[i], cells[j]) != bool(discrete.succ[i] >> j & 1),
            lambda i, j: f"pair={(cells[i], cells[j])}"))

    full = (1 << n) - 1
    if 1 << n <= _REFERENCE_EXHAUSTIVE_LIMIT:
        masks = range(1 << n)
        mask_pairs = list(product(masks, repeat=2))
    else:
        rng = random.Random(_REFERENCE_MERGE_SEED)
        masks = sorted({rng.randrange(1 << n) for _ in range(_REFERENCE_MERGE_SAMPLES)}
                       | {0, full})
        mask_pairs = [(rng.choice(masks), rng.choice(masks))
                      for _ in range(_REFERENCE_MERGE_SAMPLES)]
    singles = [(a,) for a in masks]

    first_with = {}  # union pieces -> first mask with them

    def shares_image(a):
        return first_with.setdefault(union_of(a).base.pieces, a) != a

    def ab(a, b):
        return f"a={name(a)} b={name(b)}"

    report.check("bijectivity", alg.first_witness(
        singles, shares_image,
        lambda a: f"{name(first_with[union_of(a).base.pieces])} and {name(a)} share an image"))
    report.check("complement", alg.first_witness(
        singles, lambda a: not union_of(full ^ a).equals(union_of(a).complement()),
        lambda a: f"a={name(a)}"))
    report.check("join", alg.first_witness(
        mask_pairs, lambda a, b: not union_of(a | b).equals(union_of(a).union(union_of(b))),
        ab))
    report.check("contact", alg.first_witness(
        mask_pairs, lambda a, b: contact_masks(a, b) != union_of(a).contact_sc(union_of(b)),
        ab))
    report.check("contact-C-variant", alg.first_witness(
        mask_pairs, lambda a, b: contact_masks(a, b) != union_of(a).contact_c(union_of(b)),
        ab))
    return report


# ---------------------------------------------------------------------------
# the recursive-descent formula parser, kept as the reference for the
# precedence-climbing one in ``logic``: nine methods, one per precedence
# level, and a backtrack from the term grammar to the formula grammar
# ---------------------------------------------------------------------------

class _ReferenceNestedTooDeeply(FormulaSyntaxError):
    """Raised past ``MAX_NESTING``; never backtracked over."""


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op><=>|=>|==|!=|<=|[-+.~|&(),01])|(?P<cname>C)(?=\()|(?P<var>[a-z][a-z0-9]*))")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("op"):
            tokens.append(("op", m.group("op"), m.start("op")))
        elif m.group("cname"):
            tokens.append(("C", "C", m.start("cname")))
        else:
            tokens.append(("var", m.group("var"), m.start("var")))
        pos = m.end()
    return tokens


class _ReferenceParser:
    """Recursive descent with backtracking between term and formula parens."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.depth = 0
        # 0 and 1 expand over the first variable of the text: the
        # abbreviations keep operands in textual order, so it is also the
        # first variable of the parse tree
        first = next((t[1] for t in self.tokens if t[0] == "var"), "a")
        self.carrier = Variable(first)

    def _peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _at_op(self, *ops: str) -> bool:
        t = self._peek()
        return t is not None and t[0] == "op" and t[1] in ops

    def _take_op(self, *ops: str) -> bool:
        if self._at_op(*ops):
            self.pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._take_op(op):
            t = self._peek()
            where = t[2] if t else len(self.text)
            got = t[1] if t else "end of input"
            raise FormulaSyntaxError(f"expected {op!r}, got {got!r}", where)

    def _here(self) -> int:
        t = self._peek()
        return t[2] if t else len(self.text)

    def _nested(self, parse):
        """``parse()`` one level down, after a prefix operator or '('."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _ReferenceNestedTooDeeply("nested too deeply", self._here())
        out = parse()
        self.depth -= 1
        return out

    # formulas ---------------------------------------------------------

    def formula(self):
        left = self.imp()
        while self._take_op("<=>"):
            left = iff(left, self.imp())
        return left

    def imp(self):
        left = self.disj()
        if self._take_op("=>"):
            return implies(left, self._nested(self.imp))
        return left

    def disj(self):
        left = self.conj_()
        while self._take_op("|"):
            left = Or(left, self.conj_())
        return left

    def conj_(self):
        left = self.unary()
        while self._take_op("&"):
            left = conj(left, self.unary())
        return left

    def unary(self):
        if self._take_op("~"):
            return Not(self._nested(self.unary))
        return self.atom()

    def atom(self):
        t = self._peek()
        if t is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        if t[0] == "C":
            self.pos += 1
            self._expect_op("(")
            left = self.term()
            self._expect_op(",")
            right = self.term()
            self._expect_op(")")
            return Contact(left, right)
        # either a relational atom over terms or a parenthesised formula
        saved = self.pos, self.depth
        try:
            left = self.term()
            if self._take_op("=="):
                return Eq(left, self.term())
            if self._take_op("!="):
                return Not(Eq(left, self.term()))
            if self._take_op("<="):
                right = self.term()
                return Eq(Join(left, right), right)
            raise FormulaSyntaxError("expected relation after term", self._here())
        except _ReferenceNestedTooDeeply:
            raise
        except FormulaSyntaxError:
            self.pos, self.depth = saved
        if self._take_op("("):
            inner = self._nested(self.formula)
            self._expect_op(")")
            return inner
        raise FormulaSyntaxError(f"cannot parse formula at {t[1]!r}", t[2])

    # terms --------------------------------------------------------------

    def term(self):
        left = self.term_prod()
        while self._take_op("+"):
            left = Join(left, self.term_prod())
        return left

    def term_prod(self):
        left = self.term_unary()
        while self._take_op("."):
            left = meet(left, self.term_unary())
        return left

    def term_unary(self):
        if self._take_op("-"):
            return Complement(self._nested(self.term_unary))
        t = self._peek()
        if t is None:
            raise FormulaSyntaxError("unexpected end of term", len(self.text))
        if t[0] == "var":
            self.pos += 1
            return Variable(t[1])
        if t[0] == "op" and t[1] == "0":
            self.pos += 1
            return zero_term(self.carrier)
        if t[0] == "op" and t[1] == "1":
            self.pos += 1
            return one_term(self.carrier)
        if self._take_op("("):
            inner = self._nested(self.term)
            self._expect_op(")")
            return inner
        raise FormulaSyntaxError(f"cannot parse term at {t[1]!r}", t[2])


def _reference_finish(parser: _ReferenceParser, tree):
    if parser.pos != len(parser.tokens):
        tok = parser.tokens[parser.pos]
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    reference_check_height(tree)
    return tree


def reference_parse(text: str) :
    """Parse a formula; 0 and 1 expand over the first variable occurring
    in the formula (or the variable ``a`` when there is none).  Input nested
    deeper than ``MAX_NESTING`` levels is a ``FormulaSyntaxError``."""
    parser = _ReferenceParser(text)
    return _reference_finish(parser, parser.formula())


def reference_parse_term(text: str) :
    parser = _ReferenceParser(text)
    return _reference_finish(parser, parser.term())


# ---------------------------------------------------------------------------
# the ``match``-based walkers, kept as the references for the type-dispatched
# ones in ``logic``, the separate tree-height walk, kept as the reference
# for the height the parser carries, the compiler that pops each node
# twice, kept as the reference for ``compile_formula``, and structural
# equality, kept as the reference for the identity of interned nodes
# ---------------------------------------------------------------------------

def reference_node_equal(a, b) -> bool:
    """Whether two terms or formulas are equal as trees.  Iterative, and
    each pair of nodes is compared once, because the abbreviations
    (``<=>`` above all) share subtrees: a chain of n ``<=>`` links is a DAG
    of O(n) nodes but a tree of 2^n."""
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if not isinstance(a, lg._Node):
            if a != b:
                return False
            continue
        key = (id(a), id(b))
        if key not in seen:
            seen.add(key)
            for name in a.__match_args__:
                stack.append((getattr(a, name), getattr(b, name)))
    return True


def _reference_children(node) -> tuple:
    match node:
        case Variable(_):
            return ()
        case Complement(t) | Not(t):
            return (t,)
        case Join(a, b) | Eq(a, b) | Contact(a, b) | Or(a, b):
            return (a, b)
    raise TypeError(f"not a term or formula: {node!r}")


def reference_check_height(root) -> None:
    """Reject a parse tree more than ``MAX_NESTING`` nodes high: operator
    chains such as ``a | b | ...`` nest the tree without nesting the
    parser, and every recursive walk over a formula must stay far inside
    Python's recursion limit.  Heights are memoised by node identity,
    because the abbreviations (``<=>`` above all) share subtrees; the walk
    stops as soon as it is too deep."""
    heights: dict[int, int] = {}

    def height(node, depth: int) -> int:
        h = heights.get(id(node))
        if h is None:
            if depth > MAX_NESTING:
                raise FormulaSyntaxError("nested too deeply", 0)
            h = 0
            for kid in _reference_children(node):
                h = max(h, height(kid, depth + 1))
            h = heights[id(node)] = h + 1
        return h

    if height(root, 1) > MAX_NESTING:
        raise FormulaSyntaxError("nested too deeply", 0)


def reference_term_value(t, algebra, valuation):
    match t:
        case Variable(name):
            try:
                return valuation[name]
            except KeyError:
                raise UnboundVariable(name) from None
        case Complement(inner):
            return algebra.complement(reference_term_value(inner, algebra, valuation))
        case Join(left, right):
            return algebra.join(reference_term_value(left, algebra, valuation),
                                reference_term_value(right, algebra, valuation))
    raise TypeError(f"not a term: {t!r}")


def reference_evaluate(f, algebra, valuation) -> bool:
    match f:
        case Eq(left, right):
            return algebra.equal(reference_term_value(left, algebra, valuation),
                                 reference_term_value(right, algebra, valuation))
        case Contact(left, right):
            return algebra.contact(reference_term_value(left, algebra, valuation),
                                   reference_term_value(right, algebra, valuation))
        case Not(body):
            return not reference_evaluate(body, algebra, valuation)
        case Or(left, right):
            return (reference_evaluate(left, algebra, valuation)
                    or reference_evaluate(right, algebra, valuation))
    raise TypeError(f"not a formula: {f!r}")


def reference_compile_formula(f) -> bs.Program:
    """``logic.compile_formula`` by popping each node twice: first to push
    it back as ready behind its children, then, once they have slots, to
    give it its own."""
    slots: dict[tuple, int] = {}
    done: dict[int, int] = {}          # id(node) -> slot
    code: list[tuple] = []
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        kids = _reference_children(node)
        if kids and not ready:
            stack.append((node, True))
            stack.extend((kid, False) for kid in kids)
            continue
        if type(node) is Variable:
            key = (bs.VAR, node.name)
        else:
            key = (lg._OPCODES[type(node)], *(done[id(kid)] for kid in kids))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(code)
            code.append(key)
        done[id(node)] = slot
    return bs.Program(code)


# ---------------------------------------------------------------------------
# the precedence-climbing parser over ``(kind, text, offset)`` tokens from a
# ``finditer`` scan, kept as the reference for the one over the token
# strings of one ``findall`` that finds an offset only for an error, and
# the decode that finds last uses in a forward pass, kept as the reference
# for the backward one
# ---------------------------------------------------------------------------

_OFFSET_TOKEN_RE = re.compile(
    r"(?P<op><=>|=>|==|!=|<=|[-+.~|&(),01])|(?P<C>C)(?=\()|(?P<var>[a-z][a-z0-9]*)"
    r"|(?P<space>\s+)|(?P<bad>.)", re.DOTALL)


def reference_offset_tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` of every token, in one scan, then an
    end-of-input sentinel."""
    tokens = []
    for m in _OFFSET_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "end of input", len(text)))
    return tokens


def _reference_sorted(node, terms: bool, where: int):
    """``node``, if it is a term exactly when ``terms``."""
    if (type(node) in lg._TERM_TYPES) != terms:
        raise FormulaSyntaxError("expected a term" if terms else "expected a formula", where)
    return node


class _ReferencePrattParser:
    """Precedence climbing over ``logic._INFIX`` and ``logic._PREFIX``;
    ``expr`` and ``operand`` return each node with its tree height."""

    def __init__(self, text: str):
        self.tokens = reference_offset_tokenize(text)
        self.pos = 0
        self.depth = 0
        first = next((t[1] for t in self.tokens if t[0] == "var"), "a")
        self.carrier = Variable(first)

    def _here(self) -> int:
        return self.tokens[self.pos][2]

    def _expect(self, op: str) -> None:
        _, value, where = self.tokens[self.pos]
        if value != op:
            raise FormulaSyntaxError(f"expected {op!r}, got {value!r}", where)
        self.pos += 1

    def _nested(self, prec: int) -> tuple:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError("nested too deeply", self._here())
        out = self.expr(prec)
        self.depth -= 1
        return out

    def expr(self, min_prec: int) -> tuple:
        start = self._here()
        left, height = self.operand(min_prec)
        while True:
            op = lg._INFIX.get(self.tokens[self.pos][1])
            if op is None or op.prec < min_prec:
                break
            _reference_sorted(left, op.terms, start)
            self.pos += 1
            at = self._here()
            right, right_height = self._nested(op.prec) if op.right else self.expr(op.prec + 1)
            left = op.build(left, _reference_sorted(right, op.terms, at))
            height = op.height(height, right_height)
        return left, height

    def operand(self, min_prec: int) -> tuple:
        kind, value, where = self.tokens[self.pos]
        term_only = min_prec >= lg._TERM
        if term_only and value in ("~", "C"):
            raise FormulaSyntaxError("expected a term", where)
        if kind == "end":
            raise FormulaSyntaxError("unexpected end of input", where)
        self.pos += 1
        if kind == "var":
            return Variable(value), lg._VARIABLE_HEIGHT
        if value == "0":
            return zero_term(self.carrier), lg._ZERO_HEIGHT
        if value == "1":
            return one_term(self.carrier), lg._ONE_HEIGHT
        if value in lg._PREFIX:
            op, at = lg._PREFIX[value], self._here()
            inner, height = self._nested(op.prec)
            return op.build(_reference_sorted(inner, op.terms, at)), op.height(height)
        if value == "(":
            inner = self._nested(lg._TERM if term_only else 0)
            self._expect(")")
            return inner
        if kind == "C":
            self._expect("(")
            left, left_height = self.expr(lg._TERM)
            self._expect(",")
            right, right_height = self.expr(lg._TERM)
            self._expect(")")
            return Contact(left, right), 1 + max(left_height, right_height)
        raise FormulaSyntaxError(f"unexpected {value!r}", where)


def _reference_pratt(text: str, min_prec: int):
    parser = _ReferencePrattParser(text)
    tree, height = parser.expr(min_prec)
    kind, value, where = parser.tokens[parser.pos]
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {value!r}", where)
    _reference_sorted(tree, min_prec >= lg._TERM, 0)
    if height > MAX_NESTING:
        raise FormulaSyntaxError("nested too deeply", 0)
    return tree


def reference_pratt_parse(text: str):
    return _reference_pratt(text, 0)


def reference_pratt_parse_term(text: str):
    return _reference_pratt(text, lg._TERM)


def reference_decode(code: list[tuple]) -> tuple[list[tuple], list[str]]:
    """``(steps, names)`` of ``bitslice.Program(code)``, each slot's last
    use found in a forward pass."""
    last = {}
    for i, (op, *args) in enumerate(code):
        if op != bs.VAR:
            for a in args:
                last[a] = i
    dead: list[list[int]] = [[] for _ in code]
    for slot, i in last.items():
        dead[i].append(slot)
    names = sorted(args[0] for op, *args in code if op == bs.VAR)
    position = {name: j for j, name in enumerate(names)}
    steps = [
        (op, position[args[0]], None, ()) if op == bs.VAR
        else (op, args[0], args[1] if len(args) > 1 else None, tuple(dead[i]))
        for i, (op, *args) in enumerate(code)]
    return steps, names
