import dataclasses
import hashlib
import re
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_trees, random_formula_text
from polycontact import adjacency as adj
from polycontact import intervals as iv
from polycontact import logic as lg
from polycontact import pipeline as pp
from polycontact.algebra import CylinderAlgebra, merge, path_algebra
from polycontact.cylinder import CylinderPolytope, lift
from polycontact.intervals import parse_intervals

CONTACT_NOT_OVERLAP = "C(p,q) => p.q != 0"
TRIANGLE_FORCER = ("~( C(p,q) & C(q,r) & C(p,r) & "
                   "p.q == 0 & q.r == 0 & p.r == 0 )")
# false exactly on three disjoint nonzero regions p, q, r and the rest,
# in contact on the edges of the diamond (K4 minus the q-rest edge) or of
# K4; their certificates untie to 6 and to 7 cells, on which merge
# decides every law over all subsets alike
_FORCER_ATOMS = ("~(p <= -q) | ~(p <= -r) | ~(q <= -r) | p == 0 | q == 0 | "
                 "r == 0 | -(p + q + r) == 0 | ~C(p, q) | ~C(p, r) | "
                 "~C(p, -(p + q + r)) | ~C(q, r) | {}C(q, -(p + q + r)) | "
                 "~C(r, -(p + q + r))")
DIAMOND_FORCER = _FORCER_ATOMS.format("")
K4_FORCER = _FORCER_ATOMS.format("~")


class TestSynthesize:
    def test_flagship_countermodel(self):
        cert = pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1)
        assert cert is not None
        assert len(cert.discrete_space.cells) == 2
        geo = cert.geometric_valuation
        assert geo["p"].base == parse_intervals("(-inf,1]; [2,inf)")
        assert geo["q"].base == parse_intervals("[1,2]")
        assert geo["p"].contact_sc(geo["q"])
        assert geo["p"].reg_meet(geo["q"]).is_empty()

    def test_axiom_has_no_certificate(self):
        assert pp.synthesize("~C(0,p)", 3, 1) is None

    def test_triangle_forces_untying(self):
        cert = pp.synthesize(TRIANGLE_FORCER, 3, 1)
        assert cert is not None
        assert len(cert.discrete_space.cells) == 3
        assert len(cert.discrete_space.edges) == 3
        assert len(cert.untied_space.cells) == 4
        from polycontact.adjacency import is_acyclic
        assert is_acyclic(cert.untied_space)
        assert pp.verify(cert).passed

    def test_higher_dimension(self):
        cert = pp.synthesize(CONTACT_NOT_OVERLAP, 2, 3)
        assert cert is not None
        assert all(c.ambient_dim == 3 for c in cert.geometric_valuation.values())
        assert pp.verify(cert).passed

    def test_dimension_transfer(self):
        # the same discrete countermodel produces certificates whose
        # geometric stages agree across ambient dimensions
        c1 = pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1)
        c3 = pp.synthesize(CONTACT_NOT_OVERLAP, 2, 3)
        assert c1.discrete_space == c3.discrete_space
        assert c1.discrete_valuation == c3.discrete_valuation
        for name in c1.geometric_valuation:
            assert (c1.geometric_valuation[name].base
                    == c3.geometric_valuation[name].base)
        assert c1.verdicts == c3.verdicts

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            pp.synthesize(CONTACT_NOT_OVERLAP, 2, 0)

    def test_bound_above_max(self):
        with pytest.raises(ValueError, match="<= 8"):
            pp.synthesize(CONTACT_NOT_OVERLAP, lg.MAX_BOUND + 1, 1)


class TestVerify:
    def test_fresh_certificate_all_pass(self):
        cert = pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1)
        report = pp.verify(cert)
        assert report.passed
        names = {e.name for e in report.entries}
        assert {"discrete-eval-false", "pmorphism", "valuation-lift",
                "untied-eval-false", "merging-contact",
                "geometric-eval-false"} <= names

    def test_tampered_image_fails_merging(self):
        cert = pp.synthesize(TRIANGLE_FORCER, 3, 1)
        cell = sorted(cert.images)[0]
        cert.images[cell] = lift(parse_intervals("[100,101]"), 1)
        report = pp.verify(cert)
        assert not report.passed
        failing = {e.name for e in report.entries if not e.passed}
        assert "merging-contact" in failing or "merging-adjacency-vs-image-contact" in failing
        witnessed = [e for e in report.entries if not e.passed and e.witness]
        assert witnessed

    def test_tampered_geometric_valuation(self):
        cert = pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1)
        cert.geometric_valuation["p"] = lift(parse_intervals("[0,1]"), 1)
        report = pp.verify(cert)
        failing = {e.name for e in report.entries if not e.passed}
        assert "geometric-valuation-is-merged-union" in failing


class TestVerifyIsTotal:
    """A certificate that parses gets a verdict, never an exception."""

    def test_missing_geometric_section(self):
        text = pp.serialize_certificate(pp.synthesize(TRIANGLE_FORCER, 3, 1))
        lines = text.splitlines()
        start = lines.index("geometric {")
        end = lines.index("}", start)
        cert = pp.parse_certificate("\n".join(lines[:start] + lines[end + 1:]))
        report = pp.verify(cert)
        failing = {e.name: e.witness for e in report.entries if not e.passed}
        assert failing["geometric-eval-false"] == "unbound variable p"
        assert "geometric-valuation-is-merged-union" in failing

    @pytest.mark.parametrize("stage,entry", [
        (0, "discrete-eval-false"), (1, "untied-eval-false")])
    def test_missing_val_line(self, stage, entry):
        text = pp.serialize_certificate(pp.synthesize(TRIANGLE_FORCER, 3, 1))
        lines = text.splitlines()
        drop = [i for i, line in enumerate(lines) if line.startswith("val q:")][stage]
        cert = pp.parse_certificate("\n".join(lines[:drop] + lines[drop + 1:]))
        report = pp.verify(cert)
        assert not report.passed
        failing = {e.name: e.witness for e in report.entries if not e.passed}
        assert failing[entry] == "unbound variable q"

    @pytest.mark.parametrize("stage,entry", [
        (0, "discrete-eval-false"), (1, "untied-eval-false")])
    def test_val_line_names_unknown_cell(self, stage, entry):
        lines = pp.serialize_certificate(pp.synthesize(TRIANGLE_FORCER, 3, 1)).splitlines()
        edit = [i for i, line in enumerate(lines) if line.startswith("val q:")][stage]
        lines[edit] = "val q: z"
        report = pp.verify(pp.parse_certificate("\n".join(lines)))
        failing = {e.name: e.witness for e in report.entries if not e.passed}
        assert failing[entry] == "unknown cell 'z'"

    def test_untied_section_without_map_lines(self):
        text = pp.serialize_certificate(pp.synthesize(TRIANGLE_FORCER, 3, 1))
        lines = [line for line in text.splitlines() if not line.startswith("map ")]
        report = pp.verify(pp.parse_certificate("\n".join(lines)))
        failing = {e.name for e in report.entries if not e.passed}
        assert {"pmorphism", "valuation-lift"} <= failing


CERT_TEXT = pp.serialize_certificate(pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1))
# an edit of a certificate's verdicts or dim line, and the error it gives
BAD_VERDICT_OR_DIM = [
    ("verdict geometric: false\n", "", "missing a verdict"),
    ("verdict untied: false\n", "", "missing a verdict"),
    ("verdict geometric: false", "verdict merged: false", "bad verdict line"),
    ("verdict geometric: false", "verdict discrete: false", "bad verdict line"),
    ("verdict discrete: false", "verdict discrete: maybe", "bad verdict line"),
    ("verdict discrete: false", "verdict discrete: False", "bad verdict line"),
    ("dim: 1", "dim: 1_0", "is not a decimal integer >= 1"),
    ("dim: 1", "dim: x", "is not a decimal integer >= 1"),
    ("dim: 1", "dim: \u0661", "is not a decimal integer >= 1"),
    ("dim: 1", "dim: 1.0", "is not a decimal integer >= 1"),
]


# a line repeated, the n-th line with its prefix followed by a copy or by
# another line of the same key; each was taken silently, the last one winning
REPEATED_LINES = [
    ("formula:", 0, None), ("formula:", 0, "formula: p == p"), ("dim:", 0, None),
    ("space:", 0, None), ("space:", 1, None), ("val p:", 0, None), ("val q:", 1, "val q: a"),
    ("map a:", 0, None), ("map b:", 0, "map b: a"), ("cell b:", 0, None),
    ("var q:", 0, None), ("var q:", 0, "var q: cyl n=1 { [0,1] }"),
]


class TestSerialization:
    def test_round_trip_identical_report(self):
        cert = pp.synthesize(TRIANGLE_FORCER, 3, 1)
        text = pp.serialize_certificate(cert)
        cert2 = pp.parse_certificate(text)
        assert pp.verify(cert).text() == pp.verify(cert2).text()
        assert pp.serialize_certificate(cert2) == text

    def test_parse_errors(self):
        with pytest.raises(pp.CertificateFormatError):
            pp.parse_certificate("not a certificate")
        with pytest.raises(pp.CertificateFormatError):
            pp.parse_certificate("certificate {\nnonsense: 1\n}")

    @pytest.mark.parametrize("old,new", [
        ("dim: 1", "dim: 0"), ("cell a: cyl n=1", "cell a: cyl n=2"),
        ("var q: cyl n=1", "var q: cyl n=3")])
    def test_dimension_errors(self, old, new):
        # verify would raise on these, so they do not parse
        text = pp.serialize_certificate(pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1))
        assert old in text
        with pytest.raises(pp.CertificateFormatError):
            pp.parse_certificate(text.replace(old, new))

    @pytest.mark.parametrize("old,new,message", BAD_VERDICT_OR_DIM,
                             ids=[case[1].strip() or "no-" + case[0].split()[1].rstrip(":")
                                  for case in BAD_VERDICT_OR_DIM])
    def test_verdict_and_dim_errors(self, old, new, message):
        # a certificate without its three verdicts did not serialize again,
        # and int() read "maybe" as false, "1_0" as 10 and "x" with its own
        # message
        assert CERT_TEXT.count(old) == 1
        with pytest.raises(pp.CertificateFormatError, match=message):
            pp.parse_certificate(CERT_TEXT.replace(old, new))

    @pytest.mark.parametrize("prefix,nth,new", REPEATED_LINES,
                             ids=[f"{p.rstrip(':')}-{n}-{'copy' if new is None else 'other'}"
                                  for p, n, new in REPEATED_LINES])
    def test_repeated_line_errors(self, prefix, nth, new):
        lines = CERT_TEXT.splitlines()
        at = [i for i, line in enumerate(lines) if line.startswith(prefix)][nth]
        lines.insert(at + 1, lines[at] if new is None else new)
        with pytest.raises(pp.CertificateFormatError, match="^repeated line '"):
            pp.parse_certificate("\n".join(lines))


_ODD_LINES = ["verdict merged: false", "verdict discrete: maybe", "verdict untied: true",
              "dim: 1_0", "dim: 2", "dim: x", "val r: a", "verdicts {", "}"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "swap", "insert"]),
                          st.integers(0, 99), st.integers(0, 99), st.sampled_from(_ODD_LINES)),
                max_size=3))
def test_every_accepted_certificate_serializes(edits):
    # a certificate's lines deleted, duplicated, swapped or joined by odd
    # ones: parse_certificate rejects the text with a ValueError, which the
    # CLI reports, or accepts a certificate that serializes, and whose text
    # parses back to the same text
    lines = CERT_TEXT.splitlines()
    for kind, i, j, odd in edits:
        i, j = i % len(lines), j % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, odd)
    try:
        cert = pp.parse_certificate("\n".join(lines))
    except ValueError:
        return
    text = pp.serialize_certificate(cert)
    assert pp.serialize_certificate(pp.parse_certificate(text)) == text


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(all_trees(5)), st.integers(1, 3), st.data(),
       st.randoms(use_true_random=False))
def test_path_algebra_verdict_matches_cylinders(space, dim, data, rng):
    # the geometric stage check of synthesize, on the path of the images'
    # segments, against the evaluation over cylinders built by union; a
    # formula and its negation give one true and one false verdict
    walk = adj.arrangement(space, adj.numeration(space, min(space.cells)))
    images = adj.project(space, walk, dim)
    text = random_formula_text(rng, ["p", "q", "r"])
    # 0 and 1 expand over the variable a in a formula without variables
    valuation = {name: data.draw(st.frozensets(st.sampled_from(space.cells)))
                 for name in sorted(lg.free_variables(lg.parse(text)))}
    ends, masks = iv.segment_masks([images[x].base for x in space.cells])
    mask_of = dict(zip(space.cells, masks))
    filled = {name: sum(mask_of[x] for x in cells) for name, cells in valuation.items()}
    geometric = {name: reduce(CylinderPolytope.union, (images[x] for x in sorted(cells)),
                              lift(iv.EMPTY, dim))
                 for name, cells in valuation.items()}
    assert geometric == {name: lift(iv.from_segments(ends, m), dim)
                         for name, m in filled.items()}
    path = path_algebra(len(ends) + 1)
    for formula in (lg.parse(text), lg.parse(f"~({text})")):
        assert (lg.evaluate(formula, path, filled)
                == lg.evaluate(formula, CylinderAlgebra(dim), geometric))
    for x, y in product(filled, repeat=2):
        assert path.contact(filled[x], filled[y]) == geometric[x].contact_sc(geometric[y])


def _finite_ends(cert):
    for c in (*cert.images.values(), *cert.geometric_valuation.values()):
        for piece in c.base.pieces:
            yield from (x for x in piece if x is not None)


def test_round_trip_endpoints_are_int():
    # projection and parsing both store integral endpoints as int, so the
    # sweeps of verify compare integers
    for formula, bound in ((CONTACT_NOT_OVERLAP, 2), (DIAMOND_FORCER, 4)):
        cert = pp.synthesize(formula, bound, 1)
        cert2 = pp.parse_certificate(pp.serialize_certificate(cert))
        for c in (cert, cert2):
            ends = list(_finite_ends(c))
            assert ends and all(type(x) is int for x in ends)


def test_scaled_certificate_verifies_with_fraction_endpoints():
    # every finite endpoint divided by 3: most become Fractions, and the
    # report is the same as the unscaled certificate's
    text = pp.serialize_certificate(pp.synthesize(DIAMOND_FORCER, 4, 1))
    scaled = re.sub(r"\{ [^}\n]*\}",
                    lambda m: re.sub(r"-?\d+", lambda k: f"{k.group()}/3", m.group()),
                    text)
    assert scaled != text and "/3" in scaled
    cert = pp.parse_certificate(scaled)
    ends = list(_finite_ends(cert))
    assert sum(type(x) is not int for x in ends) > len(ends) // 2
    report = pp.verify(cert)
    assert report.passed
    assert report.text() == pp.verify(pp.parse_certificate(text)).text()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# the same 16 PASS lines for every sound certificate
ALL_PASS_REPORT = "c21d4e44f411941e11f29c3cd39ff5ceb0f940e4bce41b58a9cd9de64ad9c63f"


@pytest.mark.parametrize("formula,bound,dim,cells,cert_sha", [
    (CONTACT_NOT_OVERLAP, 2, 1, 2,
     "9f67fc04da0136a13f19fc461202e634c1f9120c694cfe8c8b0ded8f877bc2a9"),
    (CONTACT_NOT_OVERLAP, 2, 3, 2,
     "d55e915b3668f24139e5580432cd834e21cc1df89caadd090d279a6c74b372ce"),
    (TRIANGLE_FORCER, 3, 1, 4,
     "4fcae1a84847f4017d5f83d1d0744348c9316aa9a144d674f0f87392df6913bf"),
    (TRIANGLE_FORCER, 3, 3, 4,
     "af65e5e3ffffe2e689daf442b9d2cc9ef3c26504b9067b555cbb4c7f2629bf41"),
    (DIAMOND_FORCER, 4, 1, 6,
     "a75d5933dd2834141bf8c48872876d4aa10d7362968a32a052221fd494448f85"),
    (DIAMOND_FORCER, 4, 3, 6,
     "850299b24c8f72ec3c91644d3dc4ae32b6241ebeebd4d8dfd41013d6be9b2223"),
    (K4_FORCER, 4, 1, 7,
     "7b8628bc392dc0b9c5d4fd50190eff853ea10c86480aaf811b1c63a0f96fa0ea"),
    (K4_FORCER, 4, 3, 7,
     "a3b7028b58882def12e4f213de07d4599d93f35ee88e81a2d580f2fa5f86fb4f"),
], ids=[f"{name}-dim{dim}" for name in ("flagship", "triangle", "diamond", "K4")
        for dim in (1, 3)])
def test_pinned_certificate_and_report(formula, bound, dim, cells, cert_sha):
    cert = pp.synthesize(formula, bound, dim)
    assert len(cert.untied_space.cells) == cells
    assert _sha(pp.serialize_certificate(cert)) == cert_sha
    assert _sha(pp.verify(cert).text()) == ALL_PASS_REPORT


# the last cell's image, d in both certificates, moved onto two others
MOVED_ONTO_TWO = ("images", "d", "[1/2,3/2]; [5,6]")


@pytest.mark.parametrize("formula,report_sha,edit", [(*case, MOVED_ONTO_TWO) for case in [
    (DIAMOND_FORCER, "3671b8ae761f35401ceebefd61de726deacd1e2baf6640f4f15952cfaa081697"),
    (K4_FORCER, "25c786e38bb205668792f751b91dfef0b9f5c63534421753b57841612e40fc5e"),
]] + [
    (DIAMOND_FORCER, "ba56e4f6424805a8b018a0a6f4906b3cfa7b6bde366780ed86092ecdea732a46",
     ("images", "d", "empty")),
    (DIAMOND_FORCER, "08d228e2a57567723eb639aad14ffa25ec6095938ad2c07faebe6e82ca011801",
     ("images", "a'", "all")),
    (DIAMOND_FORCER, "275c6bef0bfabbef74b8f2fdbce45618bd5b66534350b2c916e64caabd3962f3",
     ("geometric", "q", "empty")),
    # a variable the formula does not name, with ends no image has
    (DIAMOND_FORCER, ALL_PASS_REPORT, ("geometric", "zz", "[1/3,7/2]")),
], ids=["diamond", "K4", "image-empty", "image-all", "variable-empty", "extra-variable"])
def test_pinned_report_of_tampered_certificate(formula, report_sha, edit):
    # one image or one geometric variable replaced: the witnesses of the
    # failing checks are the first ones found, in the order checked
    cert = pp.synthesize(formula, 4, 1)
    section, key, text = edit
    edited = cert.images if section == "images" else cert.geometric_valuation
    assert section == "geometric" or key in edited
    edited[key] = lift(parse_intervals(text), 1)
    assert _sha(pp.verify(cert).text()) == report_sha


def test_merge_makes_no_canonicalize_call(monkeypatch):
    # every union, meet and contact in merge is a sweep over canonical
    # pieces; only raw input goes through canonicalize
    cert = pp.synthesize(DIAMOND_FORCER, 4, 3)
    canonicalize = iv.canonicalize
    calls = []

    def counted(raw):
        calls.append(raw)
        return canonicalize(raw)

    monkeypatch.setattr(iv, "canonicalize", counted)
    iv.parse_intervals("[0,1]")
    assert len(calls) == 1
    result = merge(cert.images, space=cert.untied_space)
    assert len(result.cells) == 6 and result.report.passed
    assert len(calls) == 1


def test_verify_builds_one_segment_table(monkeypatch):
    # merge builds the images' table, and verify reads its own checks and
    # each variable's union off it
    cert = pp.synthesize(DIAMOND_FORCER, 4, 1)
    segment_masks = iv.segment_masks
    tables = []

    def counted(polytopes):
        tables.append(len(polytopes))
        return segment_masks(polytopes)

    for module in (iv, pp, adj):
        monkeypatch.setattr(module, "segment_masks", counted)
    assert _sha(pp.verify(cert).text()) == ALL_PASS_REPORT
    assert tables == [6]


def test_each_query_parses_its_formula_once_per_text(monkeypatch):
    # a certificate's formula is parsed from its text at most once:
    # synthesize hands over its parse, parse_certificate makes one, and
    # verify reads the certificate's
    parse = lg.parse
    calls = []

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(lg, "parse", counted)
    cert = pp.synthesize(DIAMOND_FORCER, 4, 1)
    text = pp.serialize_certificate(cert)
    cert2 = pp.parse_certificate(text)
    assert _sha(pp.verify(cert2).text()) == ALL_PASS_REPORT
    assert calls == [DIAMOND_FORCER, DIAMOND_FORCER]

    calls.clear()
    assert _sha(pp.verify(cert).text()) == ALL_PASS_REPORT
    assert calls == []
    assert _sha(pp.verify(pp.parse_certificate(text)).text()) == ALL_PASS_REPORT
    assert calls == [DIAMOND_FORCER]
    # formulas are interned, so the two parses of one text are one object;
    # ``calls`` counts the parses
    assert cert2.formula is cert.formula


def test_malformed_formula_line_raises_in_parse_certificate():
    text = pp.serialize_certificate(pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1))
    bad = text.replace(f"formula: {CONTACT_NOT_OVERLAP}", "formula: C(p,q) => => p")
    assert bad != text
    with pytest.raises(lg.FormulaSyntaxError):
        pp.parse_certificate(bad)


def test_certificate_formula_cannot_leave_its_text():
    cert = pp.synthesize(CONTACT_NOT_OVERLAP, 2, 1)
    for name, value in (("formula_text", "p == p"), ("formula", lg.parse("p == p"))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert, name, value)
    assert cert.formula == lg.parse(CONTACT_NOT_OVERLAP)
