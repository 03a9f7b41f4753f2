import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycontact import algebra as alg
from polycontact import cylinder as cy
from polycontact import intervals as iv
from polycontact import logic as lg
from polycontact import pipeline as pp
from polycontact import plane as pl
from polycontact.numeric import DimensionMismatch, HalfSpace

P = iv.parse_intervals


def test_lifted_touching_intervals_in_contact():
    a = cy.lift(P("[0,1]"), 3)
    b = cy.lift(P("[1,2]"), 3)
    assert a.contact_sc(b) and a.contact_c(b) and not a.overlap(b)
    assert a.sc_witness(b) is not None


def test_complement_commutes_with_lift():
    rng = random.Random(41)
    for n in (1, 2, 3, 5):
        for _ in range(50):
            p = iv.random_interval_polytope(rng)
            assert cy.lift(p, n).complement().equals(cy.lift(p.complement(), n))


def test_dimension_mismatch():
    a = cy.lift(P("[0,1]"), 2)
    b = cy.lift(P("[0,1]"), 3)
    with pytest.raises(DimensionMismatch):
        a.contact_sc(b)
    with pytest.raises(DimensionMismatch):
        a.union(b)


def test_bad_dimension():
    with pytest.raises(ValueError):
        cy.lift(iv.EMPTY, 0)


def test_predicate_transfer():
    rng = random.Random(42)
    for _ in range(100):
        p = iv.random_interval_polytope(rng)
        q = iv.random_interval_polytope(rng)
        for n in (1, 2, 4):
            cp, cq = cy.lift(p, n), cy.lift(q, n)
            assert cp.contact_sc(cq) == p.contact_sc(q)
            assert cp.contact_c(cq) == p.contact_c(q)
            assert cp.overlap(cq) == p.overlap(q)
            assert cp.union(cq).base == p.union(q)
            assert cp.reg_meet(cq).base == p.reg_meet(q)


def test_text_round_trip():
    rng = random.Random(43)
    for _ in range(100):
        c = cy.lift(iv.random_interval_polytope(rng), rng.randint(1, 5))
        assert cy.parse_cylinder(cy.format_cylinder(c)) == c


def test_text_errors():
    with pytest.raises(cy.CylinderFormatError):
        cy.parse_cylinder("cyl { [0,1] }")
    with pytest.raises(cy.CylinderFormatError):
        cy.parse_cylinder("cyl n=0 { [0,1] }")


# ---------------------------------------------------------------------------
# the cylinder transfer against the plane kernel, which shares no code with
# the line sweeps
# ---------------------------------------------------------------------------

def strips(c: cy.CylinderPolytope) -> pl.PlanePolytope:
    """A cylinder in dimension 2 as a union of vertical strips: a base piece
    ``[lo, hi]`` becomes the basic ``{-x <= -lo; x <= hi}``, and a ray drops
    its unbounded side."""
    assert c.ambient_dim == 2
    return pl.PlanePolytope.from_constraint_sets(
        ([] if lo is None else [HalfSpace((-1, 0), -lo)])
        + ([] if hi is None else [HalfSpace((1, 0), hi)])
        for lo, hi in c.base.pieces)


halves = st.builds(F, st.integers(-6, 6), st.just(2))


@st.composite
def plane_cylinders(draw):
    ends = sorted(draw(st.lists(halves, max_size=4)))
    pieces = list(zip(ends[::2], ends[1::2]))
    if draw(st.booleans()):
        pieces.append((None, draw(halves)))
    if draw(st.booleans()):
        pieces.append((draw(halves), None))
    return cy.lift(iv.canonicalize(pieces), 2)


CYL2, PLANE = alg.CylinderAlgebra(2), alg.PlaneAlgebra()


def P2(text):
    return cy.lift(iv.parse_intervals(text), 2)


# about 5 ms an example: at most four strips per side keep De Morgan
# complements and meets to 16 basics
@settings(max_examples=200, deadline=None)
@given(plane_cylinders(), plane_cylinders())
@example(P2("[0,1]"), P2("[1,2]"))
@example(P2("(-inf,0]"), P2("[0,inf)"))
@example(P2("[0,1]; [2,3]"), P2("[1,2]"))
@example(P2("empty"), P2("all"))
def test_cylinder_transfer_matches_plane_kernel(x, y):
    sx, sy = strips(x), strips(y)
    assert CYL2.equal(x, y) == PLANE.equal(sx, sy)
    for cyl_op, plane_op in ((CYL2.join, PLANE.join), (CYL2.meet, PLANE.meet)):
        assert PLANE.equal(strips(cyl_op(x, y)), plane_op(sx, sy))
    assert PLANE.equal(strips(CYL2.complement(x)), PLANE.complement(sx))
    assert x.contact_c(y) == sx.contact_c(sy)
    assert x.contact_sc(y) == sx.contact_sc(sy)
    assert x.overlap(y) == sx.overlap(sy)


def test_flagship_dim2_countermodel_in_plane_kernel():
    # the paper's R^2 countermodel, re-evaluated by the plane kernel
    cert = pp.synthesize("C(p,q) => p.q != 0", 2, 2)
    valuation = {name: strips(c) for name, c in cert.geometric_valuation.items()}
    assert not lg.evaluate(cert.formula, PLANE, valuation)
    assert not lg.evaluate(cert.formula, CYL2, cert.geometric_valuation)
