"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from itertools import combinations

import numpy as np
import pytest

from polycontact import adjacency as adj
from polycontact import algebra as alg
from polycontact import intervals as iv
from polycontact import logic as lg
from polycontact import pipeline as pp
from polycontact import plane as pl
from helpers import all_trees, batch_true_in_algebra
from sc_oracle import OracleInfeasible, interval_sc_oracle, plane_sc_oracle


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _all_labeled_spaces(max_cells: int, connected_only: bool):
    out = []
    for n in range(1, max_cells + 1):
        cells = [chr(ord("a") + i) for i in range(n)]
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [(cells[i], cells[j])
                     for k, (i, j) in enumerate(pairs) if mask >> k & 1]
            space = adj.mk_space(cells, edges)
            if connected_only and not adj.is_connected(space):
                continue
            out.append(space)
    return out


def _contact_matrix(algebra: alg.FiniteContactAlgebra) -> np.ndarray:
    n = len(algebra.cells)
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    succ = np.array(algebra.succ, dtype=np.int64)
    acc = np.zeros(size, dtype=np.int64)
    for i in range(n):
        acc |= np.where(masks >> i & 1 == 1, succ[i], 0)
    return (acc[:, None] & masks[None, :]) != 0


def test_criterion_1_contact_axiom_suite():
    started = time.time()

    # exhaustive over every labeled connected space with at most 5 cells
    spaces = _all_labeled_spaces(5, connected_only=True)
    assert len(spaces) == 1 + 1 + 4 + 38 + 728
    for space in spaces:
        algebra = alg.induced_algebra(space)
        size = 1 << len(space.cells)
        cm = _contact_matrix(algebra)
        assert not cm[0].any() and not cm[:, 0].any()          # C1
        masks = np.arange(size)
        joins = masks[:, None] | masks[None, :]
        assert (cm[:, joins] == (cm[:, :, None] | cm[:, None, :])).all()  # C2
        assert (cm == cm.T).all()                               # C3
        assert cm.diagonal()[1:].all()                          # C4

    # 1000 seeded random triples per polytope carrier under strong contact
    rng = random.Random(1001)
    for _ in range(1000):
        x = iv.random_interval_polytope(rng)
        y = iv.random_interval_polytope(rng)
        z = iv.random_interval_polytope(rng)
        assert not iv.EMPTY.contact_sc(x)
        assert x.contact_sc(y.union(z)) == (x.contact_sc(y) or x.contact_sc(z))
        assert x.contact_sc(y) == y.contact_sc(x)
        if not x.is_empty():
            assert x.contact_sc(x)

    rng = random.Random(1002)
    for _ in range(1000):
        x = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=4, max_den=2)
        y = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=4, max_den=2)
        z = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=4, max_den=2)
        assert not pl.contact_sc(pl.EMPTY, x)
        assert pl.contact_sc(x, y.union(z)) == (pl.contact_sc(x, y) or pl.contact_sc(x, z))
        assert pl.contact_sc(x, y) == pl.contact_sc(y, x)
        if not x.is_empty():
            assert pl.contact_sc(x, x)

    _report(1, "contact-axiom-suite", started, 60)


def test_criterion_2_line_coincidence():
    started = time.time()

    rng = random.Random(2001)
    for _ in range(2000):
        p = iv.random_interval_polytope(rng)
        q = iv.random_interval_polytope(rng)
        sc, c = p.contact_sc(q), p.contact_c(q)
        assert sc == c
        assert sc == interval_sc_oracle(p, q)

    # strict hierarchy witnesses
    a, b = iv.parse_intervals("[0,1]"), iv.parse_intervals("[1,2]")
    assert a.contact_sc(b) and not a.overlap(b)

    q1 = pl.parse_plane("poly { basic { -1 0 <= 0; 0 -1 <= 0 } }")
    q3 = pl.parse_plane("poly { basic { 1 0 <= 0; 0 1 <= 0 } }")
    assert pl.contact_c(q1, q3) and not pl.contact_sc(q1, q3)

    _report(2, "line-coincidence", started, 60)


def test_criterion_3_plane_distributivity():
    started = time.time()

    rng = random.Random(3001)
    for _ in range(500):
        a = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=4, max_den=4)
        b = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=4, max_den=4)
        d = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=4, max_den=4)
        if pl.contact_sc(a, b.union(d)):
            assert pl.contact_sc(a, b) or pl.contact_sc(a, d)

    _report(3, "plane-distributivity", started, 120)


def test_criterion_4_sc_oracle_equivalence():
    started = time.time()

    rng = random.Random(4001)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 3000, "generator kept producing oracle-infeasible pairs"
        a = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=3,
                                     max_den=2, bounded=True, box=4)
        b = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=3,
                                     max_den=2, bounded=True, box=4)
        if rng.random() < 0.3:
            # translated copy: exercises shared facets and touching corners
            dx, dy = rng.randint(-2, 2), rng.randint(-2, 2)
            b = pl.PlanePolytope.from_constraint_sets(
                [[pl.HalfSpace(h.normal,
                               h.offset + h.normal[0] * dx + h.normal[1] * dy)
                  for h in part.constraints] for part in a.parts])
        try:
            expected = plane_sc_oracle(a, b)
        except OracleInfeasible:
            continue
        assert pl.contact_sc(a, b) == expected
        checked += 1

    _report(4, "sc-oracle-equivalence", started, 300)


def test_criterion_5_connectedness():
    started = time.time()

    rng = random.Random(5001)
    done = 0
    while done < 500:
        p = iv.random_interval_polytope(rng)
        if p.is_empty() or p.is_all():
            continue
        assert p.contact_sc(p.complement())
        done += 1

    rng = random.Random(5002)
    done = 0
    while done < 500:
        p = pl.random_plane_polytope(rng, max_parts=2, max_cons=3, span=4, max_den=2)
        if p.is_empty() or p.equals(pl.R2):
            continue
        assert pl.contact_sc(p, p.complement())
        done += 1

    # graph connectivity iff algebra connectedness, all spaces up to 5 cells
    for space in _all_labeled_spaces(5, connected_only=False):
        algebra = alg.induced_algebra(space)
        assert adj.is_connected(space) == alg.is_connected_algebra(algebra)

    _report(5, "connectedness", started, 120)


def _untie_with_trace(space):
    """Replays the untying policy, asserting the per-step invariants."""
    current = space
    count = len(adj.simple_cycles(current))
    steps = 0
    while count:
        cycle = adj.simple_cycles(current)[0]
        a = min(cycle)
        i = cycle.index(a)
        b = min(cycle[i - 1], cycle[(i + 1) % len(cycle)])
        current = adj.break_cycle(current, cycle, a, b)
        new_count = len(adj.simple_cycles(current))
        assert new_count < count, "simple-cycle count failed to decrease"
        assert adj.is_connected(current)
        count = new_count
        steps += 1
    return current, steps


def test_criterion_6_untying_suite():
    started = time.time()

    spaces = list(lg.enumerate_connected_spaces(6))
    assert len(spaces) == 143

    rng = random.Random(6001)
    for _ in range(100):
        n = rng.randint(2, 12)
        cells = [f"c{i:02d}" for i in range(n)]
        edges = [(cells[i], cells[rng.randrange(i)]) for i in range(1, n)]
        for _ in range(rng.randint(0, 4)):
            x, y = rng.sample(cells, 2)
            edges.append((x, y))
        spaces.append(adj.mk_space(cells, edges))

    for space in spaces:
        traced, _ = _untie_with_trace(space)
        untied, collapse = adj.untie(space)
        assert untied == traced
        assert adj.is_acyclic(untied)
        assert adj.is_connected(untied)
        assert adj.check_pmorphism(collapse, untied, space)

    _report(6, "untying-suite", started, 180)


def test_criterion_7_projection_suite():
    started = time.time()

    trees = all_trees(8)
    assert len(trees) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23

    for tree in trees:
        root = min(tree.cells)
        num = adj.numeration(tree, root)
        numbering = num.numbering()

        # unique lower-numbered neighbour for every non-root cell
        for cell in tree.cells:
            if cell == root:
                continue
            below = [y for y in tree.neighbours(cell)
                     if numbering[y] < numbering[cell]]
            assert len(below) == 1

        # unique simple path from the root, never exceeding the cell's number
        for target in tree.cells:
            if target == root:
                continue
            paths = []

            def dfs(cell, seen, trail):
                if cell == target:
                    paths.append(tuple(trail))
                    return
                for nxt in tree.neighbours(cell):
                    if nxt not in seen:
                        seen.add(nxt)
                        trail.append(nxt)
                        dfs(nxt, seen, trail)
                        trail.pop()
                        seen.remove(nxt)

            dfs(root, {root}, [root])
            assert len(paths) == 1
            assert all(numbering[c] <= numbering[target] for c in paths[0])

        # arrangement characterisation
        walk = adj.arrangement(tree, num)
        assert len(walk) == 2 * len(tree.cells) - 1
        assert walk[0] == walk[-1] == root
        consecutive = {frozenset(p) for p in zip(walk, walk[1:])}
        for x in tree.cells:
            for y in tree.cells:
                if x != y:
                    assert tree.adjacent(x, y) == (frozenset((x, y)) in consecutive)

        # adjacency iff strong contact of the projected images
        images = adj.project(tree, walk, 1)
        for x in tree.cells:
            for y in tree.cells:
                assert tree.adjacent(x, y) == images[x].contact_sc(images[y])

    _report(7, "projection-suite", started, 120)


def test_criterion_8_merging_suite():
    started = time.time()

    for tree in all_trees(6):
        root = min(tree.cells)
        walk = adj.arrangement(tree, adj.numeration(tree, root))
        images = adj.project(tree, walk, 1)
        result = alg.merge(images, space=tree)
        assert result.report.passed, result.report.text()

    _report(8, "merging-suite", started, 120)


@pytest.fixture(scope="module")
def axiom_instances():
    return lg.generate_axiom_instances(("p", "q"), single_depth=2, multi_depth=1)


def test_criterion_9_completeness_pipeline(axiom_instances):
    started = time.time()

    # flagship countermodel
    cert = pp.synthesize("C(p,q) => p.q != 0", 2, 1)
    assert cert is not None
    geo = cert.geometric_valuation
    assert geo["p"].base == iv.parse_intervals("(-inf,1]; [2,inf)")
    assert geo["q"].base == iv.parse_intervals("[1,2]")
    assert geo["p"].contact_sc(geo["q"])
    assert geo["p"].reg_meet(geo["q"]).is_empty()
    assert pp.verify(cert).passed

    # every axiom instance has no countermodel with at most 4 cells: truth
    # under every valuation in every space (checked batched; valuations and
    # spaces coincide with what find_countermodel enumerates)
    spaces4 = list(lg.enumerate_connected_spaces(4))
    algebras4 = [alg.induced_algebra(s) for s in spaces4]
    for _, formula in axiom_instances:
        for algebra in algebras4:
            assert batch_true_in_algebra(formula, algebra)

    # the search itself, on every single-metavariable instance and a seeded
    # sample of the rest
    rng = random.Random(9001)
    singles = [f for name, f in axiom_instances
               if name in ("C1", "C4", "connectedness")]
    sampled = rng.sample([f for _, f in axiom_instances], 30)
    for formula in singles[:120] + sampled:
        assert lg.find_countermodel(formula, 4) is None

    # a triangle-forcing formula engages untying and verifies at all stages
    forcer = ("~( C(p,q) & C(q,r) & C(p,r) & "
              "p.q == 0 & q.r == 0 & p.r == 0 )")
    cert = pp.synthesize(forcer, 3, 1)
    assert cert is not None
    assert len(adj.simple_cycles(cert.discrete_space)) > 0
    assert adj.is_acyclic(cert.untied_space)
    report = pp.verify(cert)
    assert report.passed
    for stage in ("discrete-eval-false", "untied-eval-false", "geometric-eval-false"):
        assert any(e.name == stage and e.passed for e in report.entries)

    _report(9, "completeness-pipeline", started, 300)


def test_criterion_10_soundness_sampling(axiom_instances):
    started = time.time()

    # batched evaluation agrees with the scalar evaluator (compositionality
    # spot check), then every instance is true in every labeled connected
    # space with at most 4 cells under every valuation
    spaces = _all_labeled_spaces(4, connected_only=True)
    algebras = [alg.induced_algebra(s) for s in spaces]

    rng = random.Random(10001)
    for _, formula in rng.sample(axiom_instances, 12):
        for algebra in rng.sample(algebras, 4):
            assert (batch_true_in_algebra(formula, algebra)
                    == lg.true_in_algebra(formula, algebra))

    for _, formula in axiom_instances:
        for algebra in algebras:
            assert batch_true_in_algebra(formula, algebra)

    _report(10, "soundness-sampling", started, 240)
