import hashlib
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_merge
from polycontact import algebra as alg
from polycontact import adjacency as adj
from polycontact import intervals as iv
from polycontact.cylinder import CylinderPolytope, lift

TRIANGLE = adj.mk_space("abc", [("a", "b"), ("b", "c"), ("c", "a")])
EDGE = adj.mk_space("ab", [("a", "b")])


class TestInducedAlgebra:
    def test_singleton(self):
        a = alg.induced_algebra(adj.mk_space(["a"], []))
        assert a.one() == 1
        assert a.contact(1, 1)
        assert not a.contact(0, 1)

    def test_contact_without_overlap(self):
        a = alg.induced_algebra(EDGE)
        x, y = a.element_of(["a"]), a.element_of(["b"])
        assert a.contact(x, y)
        assert a.meet(x, y) == a.zero()

    def test_zero_never_in_contact(self):
        a = alg.induced_algebra(TRIANGLE)
        for x in a.elements():
            assert not a.contact(a.zero(), x)

    def test_describe(self):
        a = alg.induced_algebra(EDGE)
        assert a.describe(a.element_of(["a", "b"])) == "{a,b}"


class TestAudit:
    def test_induced_algebra_passes(self):
        report = alg.audit_axioms(alg.induced_algebra(TRIANGLE))
        assert report.passed
        assert all(line.endswith("PASS") for line in report.lines())

    def test_asymmetric_relation_fails_c3(self):
        broken = alg.FiniteContactAlgebra.from_relation(
            "ab", [("a", "a"), ("b", "b"), ("a", "b")])
        report = alg.audit_axioms(broken)
        entry = next(e for e in report.entries if e.name == "C3")
        assert not entry.passed and entry.witness

    def test_irreflexive_relation_fails_c4(self):
        broken = alg.FiniteContactAlgebra.from_relation("ab", [("a", "b"), ("b", "a")])
        report = alg.audit_axioms(broken)
        entry = next(e for e in report.entries if e.name == "C4")
        assert not entry.passed

    def test_interval_algebra_sampled(self):
        report = alg.audit_axioms(alg.IntervalAlgebra(), samples=120, seed=5)
        assert report.passed

    def test_plane_algebra_sampled(self):
        report = alg.audit_axioms(alg.PlaneAlgebra(), samples=25, seed=5)
        assert report.passed

    def test_deterministic_given_seed(self):
        r1 = alg.audit_axioms(alg.IntervalAlgebra(), samples=40, seed=9)
        r2 = alg.audit_axioms(alg.IntervalAlgebra(), samples=40, seed=9)
        assert r1.text() == r2.text()


class TestConnectedness:
    def test_triangle_connected(self):
        assert alg.is_connected_algebra(alg.induced_algebra(TRIANGLE))

    def test_disconnected_space(self):
        two = adj.mk_space("ab", [])
        assert not alg.is_connected_algebra(alg.induced_algebra(two))

    def test_agrees_with_graph_connectivity(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            cells = [f"v{i}" for i in range(n)]
            edges = [(a, b) for a in cells for b in cells
                     if a < b and rng.random() < 0.4]
            space = adj.mk_space(cells, edges)
            assert (alg.is_connected_algebra(alg.induced_algebra(space))
                    == adj.is_connected(space))

    def test_agrees_exhaustively_up_to_six_cells(self):
        from polycontact.logic import enumerate_connected_spaces
        for space in enumerate_connected_spaces(6):
            assert alg.is_connected_algebra(alg.induced_algebra(space))
        # a disconnected sibling for each size: drop one cell's edges
        for n in range(2, 7):
            cells = [f"v{i}" for i in range(n)]
            edges = [(cells[i], cells[i + 1]) for i in range(n - 2)]
            space = adj.mk_space(cells, edges)  # last cell isolated
            assert not adj.is_connected(space)
            assert not alg.is_connected_algebra(alg.induced_algebra(space))

    def test_interval_algebra_sampled_connected(self):
        assert alg.is_connected_algebra(alg.IntervalAlgebra(), samples=150, seed=3)


class TestMerge:
    def test_two_cell_projection(self):
        images = adj.project(EDGE, ("a", "b", "a"), 1)
        result = alg.merge(images, space=EDGE)
        assert result.report.passed
        a_mask = 1 << result.cells.index("a")
        b_mask = 1 << result.cells.index("b")
        # complement identity on the singleton {b}
        assert result.union_of(b_mask).equals(result.union_of(a_mask).complement())
        # contact of the two singletons
        assert result.union_of(a_mask).contact_sc(result.union_of(b_mask))
        # bottom and top
        assert result.union_of(0).is_empty()
        assert result.union_of(3).is_all()

    def test_exhaustive_small_trees(self):
        for edges in ([("a", "b"), ("b", "c")],
                      [("a", "b"), ("a", "c"), ("a", "d")]):
            cells = sorted({x for e in edges for x in e})
            space = adj.mk_space(cells, edges)
            walk = adj.arrangement(space, adj.numeration(space, cells[0]))
            images = adj.project(space, walk, 1)
            result = alg.merge(images, space=space)
            assert result.report.passed, result.report.text()

    def test_detects_wrong_relation(self):
        images = adj.project(EDGE, ("a", "b", "a"), 1)
        wrong = adj.mk_space("ab", [])  # claims a,b not adjacent
        result = alg.merge(images, space=wrong)
        entry = next(e for e in result.report.entries
                     if e.name == "adjacency-vs-image-contact")
        assert not entry.passed

    def test_detects_broken_images(self):
        images = adj.project(EDGE, ("a", "b", "a"), 1)
        images["b"] = lift(iv.parse_intervals("[5,6]"), 1)
        result = alg.merge(images)
        assert not result.report.passed


# ---------------------------------------------------------------------------
# merge on segment masks against the merge on geometric unions
# ---------------------------------------------------------------------------

# endpoints on a grid of halves, so images often share or touch at endpoints
halves = st.builds(F, st.integers(-6, 6), st.just(2))


@st.composite
def _grid_image(draw):
    ends = sorted(draw(st.lists(halves, max_size=6)))
    pieces = list(zip(ends[::2], ends[1::2]))
    if draw(st.booleans()):
        pieces.append((None, draw(halves)))
    if draw(st.booleans()):
        pieces.append((draw(halves), None))
    return iv.canonicalize(pieces)


@st.composite
def _partition(draw, n):
    """Images that tile the line, as projections do: each elementary segment
    of some drawn breakpoints goes to one cell, and some cells get none."""
    ends = sorted(set(draw(st.lists(halves, max_size=9))))
    bounds = (None, *ends, None)
    owners = draw(st.lists(st.integers(0, n - 1), min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    return [iv.canonicalize((bounds[k], bounds[k + 1])
                            for k, owner in enumerate(owners) if owner == i)
            for i in range(n)]


@st.composite
def merge_inputs(draw):
    """An image map of 1-7 cells; ``reference_merge`` checks every subset of
    up to 6 cells and seeded samples of 7.  Empty, duplicate and
    overlapping images and gaps fail bijectivity and complement; no map of
    canonical images can fail join or contact."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        bases = draw(_partition(n))
    else:
        bases = []
        for _ in range(n):
            # empty, everything, a drawn union (rays, gaps, overlaps), or a
            # duplicate of an earlier image
            kind = draw(st.integers(0, 4 if bases else 3))
            bases.append(iv.EMPTY if kind == 0 else iv.ALL if kind == 1
                         else draw(st.sampled_from(bases)) if kind == 4
                         else draw(_grid_image()))
    dim = draw(st.integers(1, 3))
    return {cell: lift(base, dim) for cell, base in zip("abcdefg", bases)}


def _spaces(images):
    """No space, the space of the images' contacts, and one wrong in a pair."""
    cells = sorted(images)
    edges = {(x, y) for i, x in enumerate(cells) for y in cells[i + 1:]
             if images[x].contact_sc(images[y])}
    yield None
    yield adj.mk_space(cells, edges)
    if len(cells) > 1:
        yield adj.mk_space(cells, edges ^ {(cells[0], cells[-1])})


def _projected(edges, root="a"):
    cells = sorted({x for e in edges for x in e})
    space = adj.mk_space(cells, edges)
    return adj.project(space, adj.arrangement(space, adj.numeration(space, root)), 1)


@settings(max_examples=80, deadline=None)
@given(merge_inputs())
@example(_projected([("a", "b"), ("b", "c"), ("c", "d")]))
@example(_projected([("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("a", "f")]))
@example(_projected([("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("a", "f"), ("a", "g")]))
@example({"a": lift(iv.parse_intervals("[0,1]"), 2), "b": lift(iv.parse_intervals("[0,1]"), 2)})
def test_merge_matches_reference(images):
    # up to 6 cells the reference checks every subset: each law's verdict
    # and every witness but bijectivity's agree byte for byte; at 7 cells it
    # checks samples, so each law it fails merge fails too.  A bijectivity
    # witness is checked on the geometric unions.
    for space in _spaces(images):
        result = alg.merge(images, space=space)
        got, want = result.report.entries, reference_merge(images, space=space).entries
        assert [e.name for e in got] == [e.name for e in want]
        for entry, ref in zip(got, want):
            if len(images) > 6:
                assert ref.passed or not entry.passed, (entry, ref)
            elif entry.name == "bijectivity":
                assert entry.passed == ref.passed, (entry, ref)
            else:
                assert entry == ref
            if entry.name == "bijectivity" and not entry.passed:
                _assert_shares_image(result, entry.witness)


def _assert_shares_image(result, witness):
    """A bijectivity witness names every cell but one and every cell, and
    the two subsets have one union."""
    groups = re.fullmatch(r"\{(.*)\} and \{(.*)\} share an image", witness).groups()
    a, b = (sum(1 << result.cells.index(cell) for cell in group.split(",") if cell)
            for group in groups)
    assert b == (1 << len(result.cells)) - 1 and (a ^ b).bit_count() == 1
    assert result.union_of(a).equals(result.union_of(b))


def _tiles(cells, extra):
    """Images of ``cells`` that tile the line, the k-th on [k-1, k] with the
    first and last unbounded, plus the image ``extra`` of a further cell."""
    bases = {cell: iv.canonicalize([(None if k == 0 else k - 1,
                                     None if k == len(cells) - 1 else k)])
             for k, cell in enumerate(cells)}
    return {cell: lift(base, 1) for cell, base in {**bases, "z": extra}.items()}


@pytest.mark.parametrize("extra,failing", [
    # an empty image lies in every union: only bijectivity fails
    (iv.EMPTY, {"bijectivity"}),
    # an image inside the union of three others, equal to none of them,
    # fails complement too, which needs the images pairwise disjoint
    (iv.parse_intervals("[3/2,7/2]"), {"bijectivity", "complement"}),
], ids=["empty", "covered"])
def test_merge_finds_a_shared_image_above_six_cells(extra, failing):
    images = _tiles("abcdefgh", extra)
    assert len(images) == 9
    assert len({image.base for image in images.values()}) == 9  # no two equal
    result = alg.merge(images)
    assert {e.name for e in result.report.entries if not e.passed} == failing
    entry = next(e for e in result.report.entries if e.name == "bijectivity")
    _assert_shares_image(result, entry.witness)


# ---------------------------------------------------------------------------
# pinned audit and merge reports
# ---------------------------------------------------------------------------

class _TableAlgebra(alg.FiniteContactAlgebra):
    """Subsets of ``cells`` whose contact is an arbitrary table of mask
    pairs, so that every audited axiom can fail; each contact query is
    logged, which pins the order in which the checks evaluate."""

    def __init__(self, cells, table, log):
        super().__init__(cells, [0] * len(cells))
        self.table, self.log = table, log

    def contact(self, x, y):
        self.log.append((x, y))
        return (x, y) in self.table


def _broken_relations(rng, log):
    for k in range(40):
        cells = "ab" if k % 2 else "abc"
        size = 1 << len(cells)
        density = (k % 9 + 1) / 10
        yield _TableAlgebra(cells, {(x, y) for x in range(size) for y in range(size)
                                    if rng.random() < density}, log), {}
    # 128 elements: audited on seeded samples
    for seed in (0, 1):
        table = {(rng.randrange(128), rng.randrange(128)) for _ in range(4000)}
        yield _TableAlgebra("abcdefg", table, log), {"samples": 30, "seed": seed}


def _audit_corpus(log):
    rng = random.Random(2018)
    yield from _broken_relations(rng, log)
    for space in (adj.mk_space("a", []), EDGE, TRIANGLE, adj.mk_space("abcd", []),
                  adj.mk_space("abcd", [("a", "b"), ("b", "c"), ("c", "d")])):
        yield alg.induced_algebra(space), {}
    for seed in (0, 1):
        yield alg.IntervalAlgebra(), {"samples": 40, "seed": seed}
        yield alg.CylinderAlgebra(2), {"samples": 20, "seed": seed}
        yield alg.PlaneAlgebra(), {"samples": 8, "seed": seed}


def test_audit_reports_pinned():
    # the witnesses are the first failing cases in the order checked
    log = []
    texts = [alg.audit_axioms(algebra, **kwargs).text()
             for algebra, kwargs in _audit_corpus(log)]
    failing = {line.split()[0] for text in texts for line in text.splitlines()
               if " FAIL " in line}
    assert failing == {"C1", "C2", "C3", "C4", "monotonicity", "overlap-extension"}
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "53a6a8c8a4dfbdbb9df807369825ed286b7ad3309e19f00069b479477d538914"
    calls = hashlib.sha256(repr(log).encode()).hexdigest()
    assert calls == "deeaaf89c5f672af6f61bba4c3252006d828e5a1d25e35145d9a1fa8672d64c0"


def _tampered_merges():
    for edges in ([("a", "b"), ("b", "c"), ("c", "d")],
                  [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("a", "f"), ("a", "g")]):
        cells = sorted({x for e in edges for x in e})
        space = adj.mk_space(cells, edges)
        images = adj.project(space, adj.arrangement(space, adj.numeration(space, "a")), 1)
        yield images, space
        yield images, adj.mk_space(cells, [])
        yield {**images, cells[-1]: images[cells[0]]}, None
        yield {**images, "a": images["a"].union(images["b"])}, space


def test_merge_reports_pinned():
    # four and seven cells alike: every law is decided on the image masks,
    # and a bijectivity witness is every cell but one and every cell
    texts = [alg.merge(images, space=space).report.text()
             for images, space in _tampered_merges()]
    assert sum(text.count(" FAIL ") for text in texts) >= 8
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "8632e64b545b7ec72a6d62eb828f1da5ea17c595241fbb3de381af549d939306"


def test_merge_makes_no_contact_call(monkeypatch):
    # the relation and both contact laws are read off the segment masks;
    # no pair of images or unions goes through a contact sweep
    cases = [(_projected(edges), None) for edges in (
        [("a", "b"), ("b", "c")], [("a", "b"), ("a", "c"), ("a", "d"), ("b", "e")])]
    cases += list(_tampered_merges())
    want = [alg.merge(images, space=space).report.text() for images, space in cases]

    def forbidden(self, other):
        raise AssertionError("pairwise contact call")

    for cls, method in ((CylinderPolytope, "contact_sc"), (CylinderPolytope, "contact_c"),
                        (iv.IntervalPolytope, "contact_sc"), (iv.IntervalPolytope, "contact_c")):
        monkeypatch.setattr(cls, method, forbidden)
    assert [alg.merge(images, space=space).report.text() for images, space in cases] == want
