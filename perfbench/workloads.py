"""The four workloads: seeded inputs, one query each, output checks.

Every query makes the same public calls, in the same order, as the CLI
subcommand it mirrors (parse the input text, compute, format the output
text), but without ``cli.run``: that rebuilds the argparse parser on every
call, a cost no real process pays more than once.  ``cli_argv`` gives the
command line whose stdout must equal the query's output.

Inputs come from ``make_inputs(pc, seed)`` as JSON-ready dicts, so the
workload process receives only the generated text.  A workload's query
stream cycles through a fixed schedule of input classes; the seed picks the
concrete inputs inside each class, never the mix.  Outputs are checked
outside the timed region.

``pc`` is a namespace holding the imported ``polycontact`` modules.  Every
library call goes through a module attribute at call time, so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Optional


def interleave(weights: list[tuple[str, int]]) -> list[str]:
    """One cycle with each class spread evenly: ``w`` slots for weight ``w``."""
    slots = [((j + 0.5) / w, k, label)
             for k, (label, w) in enumerate(weights) for j in range(w)]
    return [label for _, _, label in sorted(slots)]


class Workload:
    name = ""
    warm_bound: Optional[int] = None   # enumerate_connected_spaces warm-up
    trace_cycles = 1                   # schedule cycles of a traced run
    weights: list[tuple[str, int]] = []

    def make_inputs(self, pc, seed: int) -> dict[str, list[dict]]:
        """Input pools by class label."""
        raise NotImplementedError

    def cycles(self, pools: dict[str, list[dict]]) -> Iterator[list[tuple[str, dict]]]:
        """Endless schedule cycles, each a list of (query id, query); the id
        names a distinct input.  A cycle holds ``w`` queries of each class of
        weight ``w``, spread evenly and taken in turn from the class's pool,
        so every whole cycle has the same mix."""
        order = interleave(self.weights)
        used = Counter()
        while True:
            cycle = []
            for label in order:
                pool = pools[label]
                k = used[label] % len(pool)
                used[label] += 1
                cycle.append((f"{label}#{k}", pool[k]))
            yield cycle

    def run(self, pc, q: dict) -> str:
        raise NotImplementedError

    def check(self, pc, q: dict, out: str) -> Optional[str]:
        """None when the output is correct, else what is wrong."""
        raise NotImplementedError

    def cli_argv(self, q: dict, write) -> Optional[list[str]]:
        """argv for ``cli.run`` reproducing the query; ``write(text)`` stores
        an input file and returns its path.  None when no subcommand does."""
        raise NotImplementedError

    def properties(self, pc, queries: dict[str, dict], outputs: dict[str, str]) -> dict:
        raise NotImplementedError


def ast_nodes(node) -> int:
    """Nodes of an expanded formula or term (frozen dataclasses)."""
    fields = getattr(node, "__dataclass_fields__", None)
    if not fields:
        return 0
    return 1 + sum(ast_nodes(getattr(node, f)) for f in fields)


def _summary(values) -> dict:
    values = list(values)
    if not values:
        return {}
    return {"n": len(values), "min": min(values), "max": max(values),
            "mean": round(sum(values) / len(values), 3)}


# ---------------------------------------------------------------------------
# prove: exhaustive countermodel search on axiom instances (answer: none)
# ---------------------------------------------------------------------------

class Prove(Workload):
    """Exhaustive search: time goes to evaluation per valuation and to space
    enumeration; geometry is never touched."""
    name = "prove"
    warm_bound = 6
    # label -> (variables, cell bound); slots per cycle in ``weights``.  The
    # two heavy classes stay under a tenth of the queries so that p90 falls
    # inside the 1-variable class and p50 inside the cheap 2-variable one.
    classes = {"2v-b4": (("p", "q"), 4), "1v-b6": (("p",), 6),
               "2v-b5": (("p", "q"), 5), "3v-b4": (("p", "q", "r"), 4)}
    weights = [("2v-b4", 30), ("1v-b6", 10), ("2v-b5", 1), ("3v-b4", 1)]
    per_scheme = {"2v-b4": 6, "1v-b6": 1, "2v-b5": 1, "3v-b4": 1}

    def make_inputs(self, pc, seed):
        lg = pc.logic
        pools = {}
        for label, (names, bound) in self.classes.items():
            rng = random.Random(f"{seed}/prove/{label}")
            by_scheme: dict[str, list] = {}
            for scheme, f in lg.generate_axiom_instances(names):
                if lg.free_variables(f) == set(names):
                    by_scheme.setdefault(scheme, []).append(f)
            # scheme order is fixed (not seeded), so every seed runs the
            # same scheme mix; the seed picks an instance of each scheme among
            # those of the scheme's median size, since search time grows with
            # the expanded formula
            order = sorted(by_scheme)
            random.Random("prove-scheme-order").shuffle(order)
            pool = []
            for _ in range(self.per_scheme[label]):
                for scheme in order:
                    sizes = sorted(ast_nodes(f) for f in by_scheme[scheme])
                    median = sizes[len(sizes) // 2]
                    f = rng.choice([f for f in by_scheme[scheme] if ast_nodes(f) == median])
                    pool.append({"class": label, "scheme": scheme, "bound": bound,
                                 "formula": lg.format_formula(f)})
            pools[label] = pool
        return pools

    def run(self, pc, q):
        found = pc.logic.find_countermodel(pc.logic.parse(q["formula"]), q["bound"])
        if found is None:
            return "none\n"
        space, valuation = found
        lines = [pc.adjacency.format_space(space)]
        lines += [f"val {name}: " + " ".join(sorted(valuation[name]))
                  for name in sorted(valuation)]
        return "\n".join(lines) + "\n"

    def check(self, pc, q, out):
        if out == "none\n":
            return None
        lines = out.splitlines()
        space = pc.adjacency.parse_space(lines[0])
        algebra = pc.algebra.induced_algebra(space)
        masks = {}
        for line in lines[1:]:
            name, _, cells = line[len("val "):].partition(":")
            masks[name] = algebra.element_of(cells.split())
        falsified = not pc.logic.evaluate(pc.logic.parse(q["formula"]), algebra, masks)
        return (f"axiom instance {q['scheme']} got a countermodel "
                f"(re-checked with evaluate: {'falsified' if falsified else 'not falsified'})")

    def cli_argv(self, q, write):
        return ["countermodel", q["formula"], "--bound", str(q["bound"])]

    def properties(self, pc, queries, outputs):
        out = {}
        for label, (names, bound) in self.classes.items():
            nodes = [ast_nodes(pc.logic.parse(q["formula"]))
                     for q in queries.values() if q["class"] == label]
            out[label] = {"vars_x_cells": f"{len(names)}x{bound}",
                          "ast_nodes": _summary(nodes)}
        return out


# ---------------------------------------------------------------------------
# synthesize: graph-forcing non-theorems through the whole pipeline
# ---------------------------------------------------------------------------

# every connected graph on 2-4 nodes: trees and the cyclic ones
GRAPHS = {
    "K2": (2, ((0, 1),)),
    "P3": (3, ((0, 1), (1, 2))),
    "K3": (3, ((0, 1), (1, 2), (0, 2))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "star": (4, ((0, 1), (0, 2), (0, 3))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "paw": (4, ((0, 1), (1, 2), (0, 2), (2, 3))),
    "diamond": (4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))),
    "K4": (4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3))),
}
VARIABLE_NAMES = ("p", "q", "r", "s", "u", "v", "w", "x", "y", "z")


def graph_forcing_formula(n: int, edges, names: list[str], order: list[int]) -> str:
    """A formula false exactly when the variables and the complement of
    their join are pairwise disjoint, nonzero, and in contact exactly on the
    edges of the graph; node ``order[i]`` is region i.  Disjointness from the
    complement region holds by construction, so only the variables' pairwise
    disjointness is stated."""
    k = n - 1
    regions = list(names[:k]) + ["-(" + " + ".join(names[:k]) + ")"]
    node_region = {order[i]: regions[i] for i in range(n)}
    edge_set = {frozenset(e) for e in edges}
    atoms = [f"~({x} <= -{y})" for x, y in combinations(names[:k], 2)]
    atoms += [f"{r} == 0" for r in regions]
    for a, b in combinations(range(n), 2):
        atom = f"C({node_region[a]}, {node_region[b]})"
        atoms.append(f"~{atom}" if frozenset((a, b)) in edge_set else atom)
    return " | ".join(atoms)


def isomorphic(n: int, edges, space) -> bool:
    if len(space.cells) != n:
        return False
    want = {frozenset(e) for e in edges}
    for perm in permutations(space.cells):
        got = {frozenset((perm.index(a), perm.index(b))) for a, b in space.edges}
        if got == want:
            return True
    return False


class Synthesize(Workload):
    """The search stops at the first falsifier; untie, project, merge and
    verify run on every query."""
    name = "synthesize"
    warm_bound = 4
    # cheap 2- and 3-cell graphs fill 14 of 21 slots, so p50 lies among the
    # K3 queries; p90 lies inside the band of the three slowest slots
    # (diamond, K4 twice)
    weights = [("K2", 4), ("P3", 4), ("K3", 6), ("P4", 1), ("star", 1),
               ("C4", 1), ("paw", 1), ("diamond", 1), ("K4", 2)]
    variants = 30
    trace_cycles = 2

    def make_inputs(self, pc, seed):
        pools = {}
        for label, (n, edges) in GRAPHS.items():
            rng = random.Random(f"{seed}/synthesize/{label}")
            pool = []
            for v in range(self.variants):
                names = rng.sample(VARIABLE_NAMES, n - 1)
                order = rng.sample(range(n), n)
                pool.append({"graph": label, "bound": n, "dim": v % 3 + 1,
                             "formula": graph_forcing_formula(n, edges, names, order)})
            pools[label] = pool
        return pools

    def run(self, pc, q):
        pp = pc.pipeline
        cert = pp.synthesize(q["formula"], q["bound"], q["dim"])
        if cert is None:
            return "none\n"
        text = pp.serialize_certificate(cert)
        report = pp.verify(pp.parse_certificate(text))
        return text + f"verified={'true' if report.passed else 'false'}\n"

    def check(self, pc, q, out):
        pp, lg = pc.pipeline, pc.logic
        text, _, last = out.rpartition("verified=")
        if last != "true\n":
            return "no verified certificate: " + out.splitlines()[-1]
        cert = pp.parse_certificate(text)
        if pp.serialize_certificate(cert) != text:
            return "serialize -> parse -> serialize changed the certificate"
        if cert.formula_text != q["formula"] or cert.dim != q["dim"]:
            return "certificate is for another formula or dimension"
        algebra = pc.algebra.induced_algebra(cert.discrete_space)
        masks = {name: algebra.element_of(cells)
                 for name, cells in cert.discrete_valuation.items()}
        if lg.evaluate(cert.formula, algebra, masks):
            return "formula true at the discrete stage"
        if lg.evaluate(cert.formula, pc.algebra.CylinderAlgebra(cert.dim),
                       cert.geometric_valuation):
            return "formula true under the geometric valuation"
        n, edges = GRAPHS[q["graph"]]
        if not isomorphic(n, edges, cert.discrete_space):
            return f"discrete countermodel is not {q['graph']}"
        return None

    def cli_argv(self, q, write):
        return ["synthesize", q["formula"], "--bound", str(q["bound"]),
                "--dim", str(q["dim"])]

    def properties(self, pc, queries, outputs):
        out = {}
        for qid, q in sorted(queries.items()):
            g = out.setdefault(q["graph"], {"vars_x_cells": f"{q['bound'] - 1}x{q['bound']}",
                                            "ast_nodes": [], "untied_cells": []})
            g["ast_nodes"].append(ast_nodes(pc.logic.parse(q["formula"])))
            text = outputs[qid].rpartition("verified=")[0]
            cert = pc.pipeline.parse_certificate(text)
            g["untied_cells"].append(len(cert.untied_space.cells))
        for g in out.values():
            g["ast_nodes"] = _summary(g["ast_nodes"])
            g["untied_cells"] = _summary(g["untied_cells"])
        return out


# ---------------------------------------------------------------------------
# plane polytope helpers shared by sc-check and plane-algebra
# ---------------------------------------------------------------------------

def vertices(pc, poly) -> list:
    """Corners of the parts of a plane polytope, sorted."""
    pts = set()
    for part in poly.parts:
        lines = [h.boundary() for h in part.constraints]
        for l1, l2 in combinations(lines, 2):
            kind, v = pc.numeric.intersect_lines(l1, l2)
            if v is not None and part.contains(v):
                pts.add(v)
    return sorted(pts)


def translated(pc, poly, v):
    """The polytope moved by the vector v."""
    HalfSpace = pc.numeric.HalfSpace
    sets = [[HalfSpace(h.normal, h.offset + h.normal[0] * v[0] + h.normal[1] * v[1])
             for h in part.constraints] for part in poly.parts]
    return pc.plane.PlanePolytope.from_constraint_sets(sets)


def convex_part(pc, rng, m: int) -> list:
    """Half-planes of a convex m-gon with integer corners near a circle of
    radius 12; no side is redundant.  The angles are floats, but only to
    place the corners: every coordinate is an integer."""
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(m))
        cx, cy = rng.randint(-4, 4), rng.randint(-4, 4)
        pts = [(Fraction(cx + round(12 * math.cos(a))), Fraction(cy + round(12 * math.sin(a))))
               for a in angles]
        edges = list(zip(pts, pts[1:] + pts[:1]))
        # strictly convex, counter-clockwise: every turn is to the left
        if all((q[0] - p[0]) * (r[1] - q[1]) - (q[1] - p[1]) * (r[0] - q[0]) > 0
               for (p, q), (_, r) in zip(edges, edges[1:] + edges[:1])):
            break
    sides = []
    for (px, py), (qx, qy) in edges:
        a, b = qy - py, px - qx  # interior on the left of p -> q
        sides.append(pc.numeric.HalfSpace((a, b), a * px + b * py))
    return sides


def polytope_with_cuts(pc, rng, k: int):
    """A union of two convex parts whose k sides lie on k distinct lines.
    The parts have k // 2 and k - k // 2 sides: with a seeded split, the
    cost of a boundary representation on 10 cuts varied by a factor of two
    from draw to draw, with the even split by a tenth."""
    while True:
        poly = pc.plane.PlanePolytope.from_constraint_sets(
            [convex_part(pc, rng, k // 2), convex_part(pc, rng, k - k // 2)])
        if len(poly.constraint_lines()) == k:
            return poly


def _point(text: str):
    x, y = text.strip("()").split(",")
    return Fraction(x), Fraction(y)


# ---------------------------------------------------------------------------
# sc-check: the read path (feasibility and the facet walk)
# ---------------------------------------------------------------------------

class ScCheck(Workload):
    """The read path: Fourier-Motzkin feasibility and the facet walk of the
    strong-contact decision; no complement."""
    name = "sc-check"
    # A class is a kind of pair.  Corner copies move one corner of a bounded
    # polytope onto another, so the copies touch there and share a facet when
    # the move runs along one; far copies are disjoint.  The verdict's reason
    # sets the cost: an overlap ends the decision at once, a shared facet
    # ends the walk over the arrangement early, and a negative verdict probes
    # every arrangement edge.  Random pairs overlap about two times in three
    # and corner copies about one in three, so about half of the verdicts
    # are negative.
    weights = [("random-unbounded", 3), ("random-bounded", 2), ("corner", 4), ("far", 1)]
    # pooled constraint lines of a pair, the facet walk's cost driver: the
    # common counts of each kind, which bound the cost of its slowest pairs
    pooled_lines = {"random-unbounded": (4, 8), "random-bounded": (6, 10),
                    "corner": (5, 8), "far": (6, 8)}
    # distinct pairs per slot of a cycle.  The latency quantiles are set by
    # the pairs near them, whose costs vary widely, so a run must average
    # over many distinct pairs to read the same on every seed.
    rounds = 80
    trace_cycles = 16

    def pair(self, pc, rng, kind: str):
        pl = pc.plane
        a = pl.random_plane_polytope(rng, bounded=kind != "random-unbounded")
        if kind.startswith("random"):
            b = pl.random_plane_polytope(rng, bounded=kind != "random-unbounded")
        elif kind == "far":
            b = translated(pc, a, (Fraction(rng.choice((-11, 11))),
                                   Fraction(rng.randint(-11, 11))))
        else:
            u, w = rng.sample(vertices(pc, a), 2)
            b = translated(pc, a, (u[0] - w[0], u[1] - w[1]))
        return (b, a) if rng.random() < 0.5 else (a, b)

    def make_inputs(self, pc, seed):
        """Candidates are drawn until one has a pooled line count in the
        kind's range."""
        pl = pc.plane
        pools = {}
        for label, weight in self.weights:
            low, high = self.pooled_lines[label]
            rng = random.Random(f"{seed}/sc-check/{label}")
            pool = []
            for _ in range(weight * self.rounds):
                while True:
                    a, b = self.pair(pc, rng, label)
                    lines = set(a.constraint_lines()) | set(b.constraint_lines())
                    if low <= len(lines) <= high:
                        break
                pool.append({"kind": label, "a": pl.format_plane(a), "b": pl.format_plane(b)})
            pools[label] = pool
        return pools

    def run(self, pc, q):
        pl = pc.plane
        a, b = pl.parse_plane(q["a"]), pl.parse_plane(q["b"])
        c, sc, ov = a.contact_c(b), a.contact_sc(b), a.overlap(b)
        out = f"SC={_bool(sc)} C={_bool(c)} overlap={_bool(ov)}\n"
        if sc:
            (x, y), r = a.sc_witness(b)
            out += f"witness=disk centre=({x},{y}) radius={r}\n"
        return out

    def check(self, pc, q, out):
        pl = pc.plane
        lines = out.splitlines()
        verdict = dict(item.split("=") for item in lines[0].split())
        sc, c, ov = (verdict[k] == "true" for k in ("SC", "C", "overlap"))
        if sc and not c:
            return "SC without C"
        if ov and not sc:
            return "overlap without SC"
        a, b = pl.parse_plane(q["a"]), pl.parse_plane(q["b"])
        if pl.contact_sc(b, a) != sc:
            return "SC is not symmetric"
        if sc != (len(lines) == 2):
            return "witness line present exactly when SC"
        if sc:
            centre, _, radius = lines[1][len("witness=disk centre="):].partition(" radius=")
            if not pl.sc_witness_valid(a, b, _point(centre), Fraction(radius)):
                return "witness disk is invalid"
        return None

    def cli_argv(self, q, write):
        return ["sc-check", write(q["a"]), write(q["b"])]

    def properties(self, pc, queries, outputs):
        pl = pc.plane
        lines, parts, negative = [], [], 0
        for qid, q in queries.items():
            a, b = pl.parse_plane(q["a"]), pl.parse_plane(q["b"])
            lines.append(len(set(a.constraint_lines()) | set(b.constraint_lines())))
            parts += [len(a.parts), len(b.parts)]
            negative += outputs[qid].startswith("SC=false")
        return {"pooled_constraint_lines": _summary(lines),
                "parts_per_polytope": _summary(parts),
                "sc_negative_share": round(negative / len(queries), 3),
                "distinct_pairs": len(queries)}


def _bool(x: bool) -> str:
    return "true" if x else "false"


# ---------------------------------------------------------------------------
# plane-algebra: the write path (complement, equals, bricks)
# ---------------------------------------------------------------------------

class PlaneAlgebra(Workload):
    """The write path: De Morgan complement, complement-based ``equals`` and
    the 2^k brick enumeration of boundary representations."""
    name = "plane-algebra"
    # boundary queries on 6..12 cuts in every cycle, whose cost doubles with
    # each cut; p50 falls among the bool-ops and p90 among the five 8-cut
    # queries, which an audit of unusual cost moves by at most one place
    weights = [("complement", 18), ("meet", 18), ("union", 18), ("audit", 3),
               ("boundary", 11)]
    cut_counts = (6, 7, 8, 8, 8, 8, 8, 9, 10, 11, 12)
    audit_samples = 3
    pool_size = 54
    # operand (parts, constraints) in turn: a bool-op's cost grows with its
    # operands' constraints, so every seed gets the same spread of them.
    # These are the common shapes of random_plane_polytope, in about the
    # shares it draws them (redundant constraints are dropped).
    operand_shapes = ((1, 2), (1, 3), (1, 2), (2, 4), (1, 2), (2, 5))

    def make_inputs(self, pc, seed):
        pl = pc.plane

        def polytope(rng, shape: tuple[int, int]):
            while True:
                a = pl.random_plane_polytope(rng)
                if (len(a.parts), sum(len(part.constraints) for part in a.parts)) == shape:
                    return pl.format_plane(a)

        pools = {}
        for label, weight in self.weights:
            rng = random.Random(f"{seed}/plane-algebra/{label}")
            if label == "boundary":
                pools[label] = [{"op": label, "cuts": k,
                                 "a": pl.format_plane(polytope_with_cuts(pc, rng, k))}
                                for _ in range(3) for k in self.cut_counts]
            elif label == "audit":
                pools[label] = [{"op": label, "samples": self.audit_samples,
                                 "seed": rng.randrange(1 << 30)} for _ in range(3 * weight)]
            else:
                # operand shapes in turn; every 18 queries pair each shape
                # of the first operand with three shapes of the second
                shapes = self.operand_shapes
                pool = []
                for i in range(self.pool_size):
                    q = {"op": label, "a": polytope(rng, shapes[i % 6])}
                    if label != "complement":
                        q["b"] = polytope(rng, shapes[(i + 1 + 2 * (i // 6 % 3)) % 6])
                    pool.append(q)
                pools[label] = pool
        return pools

    def run(self, pc, q):
        pl, op = pc.plane, q["op"]
        if op == "audit":
            algebra = pc.algebra.PlaneAlgebra()
            report = pc.algebra.audit_axioms(algebra, samples=q["samples"], seed=q["seed"])
            connected = pc.algebra.is_connected_algebra(
                algebra, samples=q["samples"], seed=q["seed"])
            return report.text() + f"\nconnected={_bool(connected)}\n"
        a = pl.parse_plane(q["a"])
        if op == "boundary":
            rep = pc.cuts.boundary_representation(a)
            lines = ["sheet " + " ".join(f"({x},{y})" for x, y in pc.cuts.sheet_points(s))
                     for s in rep.boundary_sheets]
            lines += [f"corner ({x},{y})" for x, y in rep.corner_points]
            return "\n".join(lines) + "\n"
        if op == "complement":
            out = a.complement()
        else:
            b = pl.parse_plane(q["b"])
            out = a.union(b) if op == "union" else a.reg_meet(b)
        return pl.format_plane(out) + "\n"

    def check(self, pc, q, out):
        pl, op = pc.plane, q["op"]
        if op == "audit":
            lines = out.splitlines()
            if lines[-1] != "connected=true" or not all(
                    line.endswith(" PASS") for line in lines[:-1]):
                return "audit not all PASS with connected=true"
            return None
        a = pl.parse_plane(q["a"])
        if op == "boundary":
            points = [_point(p) for line in out.splitlines()
                      for p in line.split(" ")[1:]]
            if not points:
                return "empty boundary"
            bad = next((p for p in points if not pl.point_on_boundary(a, p)), None)
            return None if bad is None else f"point {bad} is not on the boundary"
        result = pl.parse_plane(out)
        if op == "complement" and pl.overlap(a, result):
            return "complement overlaps its argument"
        return None

    def cli_argv(self, q, write):
        op = q["op"]
        if op == "audit":
            return ["audit", "plane", "--samples", str(q["samples"]), "--seed", str(q["seed"])]
        if op == "boundary":
            return None
        argv = ["bool-op", op, write(q["a"])]
        return argv + [write(q["b"])] if "b" in q else argv

    def properties(self, pc, queries, outputs):
        pl = pc.plane
        parts, cuts, parts_out = [], [], []
        for qid, q in queries.items():
            if "a" in q:
                a = pl.parse_plane(q["a"])
                parts.append(len(a.parts))
            if q["op"] == "boundary":
                cuts.append(q["cuts"])
            if q["op"] == "complement":
                parts_out.append(len(pl.parse_plane(outputs[qid]).parts))
        return {"parts_per_polytope": _summary(parts),
                "cuts_per_polytope": _summary(cuts),
                "complement_parts_out": _summary(parts_out)}


WORKLOADS = {w.name: w for w in (Prove(), Synthesize(), ScCheck(), PlaneAlgebra())}
