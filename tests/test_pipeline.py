import pytest

from polycontact import pipeline as pp
from polycontact.cylinder import lift
from polycontact.intervals import parse_intervals

CONTACT_NOT_OVERLAP = "C(p,q) => p.q != 0"
TRIANGLE_FORCER = ("~( C(p,q) & C(q,r) & C(p,r) & "
                   "p.q == 0 & q.r == 0 & p.r == 0 )")


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
